"""The byte contract: every artifact of scripts/golden.py's invocations keeps
the SHA-256 recorded in tests/golden/digests.json. A change that moves bytes
on purpose reruns ``python scripts/golden.py --write``."""
import json
import runpy
from pathlib import Path

GOLDEN = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "scripts" / "golden.py"),
    run_name="golden",
)


def test_artifacts_match_the_committed_digests(tmp_path):
    recorded = json.loads(GOLDEN["DIGESTS"].read_text())
    got = GOLDEN["run_all"](tmp_path)
    changed = GOLDEN["mismatches"](recorded["digests"], got)
    assert not changed, (
        f"{len(changed)} of {len(recorded['digests'])} artifacts changed: {changed}; "
        f"the digests were written with numpy {recorded['numpy']} on "
        f"{recorded['platform']}, this run has {GOLDEN['environment']()}"
    )
