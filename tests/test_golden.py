"""The byte contract: every artifact of scripts/golden.py's invocations keeps
the SHA-256 recorded in tests/golden/digests.json. A change that moves bytes
on purpose reruns ``python scripts/golden.py --write``."""
import hashlib
import json
import runpy
from pathlib import Path

import pytest

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


def test_keep_writes_the_artifacts_and_checks_their_digests(tmp_path, capsys):
    # a one-invocation table: the kept file is the artifact whose digest the
    # script checked, and a second run refuses to mix into the kept tree
    name = "constants-us"
    table = {name: GOLDEN["INVOCATIONS"][name]}
    keep = tmp_path / "keep"
    assert GOLDEN["main"](["--keep", str(keep)], table) == 0
    assert "0 of 1 artifacts differ" in capsys.readouterr().out
    kept = sorted(p.relative_to(keep).as_posix() for p in keep.rglob("*") if p.is_file())
    assert kept == [f"{name}/constants.json"]
    recorded = json.loads(GOLDEN["DIGESTS"].read_text())["digests"]
    digest = hashlib.sha256((keep / kept[0]).read_bytes()).hexdigest()
    assert digest == recorded[kept[0]]
    with pytest.raises(FileExistsError):
        GOLDEN["main"](["--keep", str(keep)], table)
