"""The byte contract: every artifact of scripts/golden.py's invocations keeps
the SHA-256 recorded in tests/golden/digests.json. A change that moves bytes
on purpose reruns ``python scripts/golden.py --write``."""
import hashlib
import json
import math
import runpy
import shutil
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


def _kept_tree(root):
    # the artifacts of two cheap invocations: a JSON file and two CSV chains
    table = {name: GOLDEN["INVOCATIONS"][name] for name in ("constants-us", "run-config-file")}
    GOLDEN["main"](["--keep", str(root)], table)
    return root


def _nudge(path, column: str, row: int) -> None:
    # move one CSV value up by one ulp, written as the exporter writes it
    lines = path.read_text().splitlines(keepends=True)
    j = lines[0].rstrip("\n").split(",").index(column)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[j] = "%.17g" % math.nextafter(float(cells[j]), math.inf)
    lines[row + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def test_compare_of_a_tree_with_itself_is_empty(tmp_path, capsys):
    tree = _kept_tree(tmp_path / "a")
    capsys.readouterr()
    assert GOLDEN["main"](["--compare", str(tree), str(tree)]) == 0
    assert capsys.readouterr().out == ""


def test_compare_names_the_files_a_one_ulp_change_moved(tmp_path, capsys):
    a = _kept_tree(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    _nudge(b / "run-config-file" / "custom-tusla-seed5.csv", "objective", 10)
    constants = b / "constants-us" / "constants.json"
    obj = json.loads(constants.read_text())
    obj["L"] = math.nextafter(obj["L"], -math.inf)
    constants.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    capsys.readouterr()
    assert GOLDEN["main"](["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "constants-us/constants.json:",
        "  L: 1 changed, largest 1 ulps",
        "run-config-file/custom-tusla-seed5.csv:",
        "  objective: 1 changed, largest 1 ulps",
    ]


def test_compare_reports_renamed_columns_and_lone_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    (a / "run").mkdir(parents=True)
    (b / "run").mkdir(parents=True)
    (a / "run" / "x.csv").write_text("step,theta\n0,1;2\n1,nan\n")
    (b / "run" / "x.csv").write_text("step,angle\n0,1;2\n1,inf\n")
    (a / "run" / "old.json").write_text('{"k": [1, 2]}\n')
    (b / "run" / "old.json").write_text('{"k": [1, true, 3]}\n')
    (b / "run" / "new.json").write_text("{}\n")
    assert GOLDEN["compare_trees"](a, b) == [
        "run/new.json: only in the second tree",
        "run/old.json:",
        "  k[]: 1 changed and not numbers; 1 only in the second tree",
        "run/x.csv:",
        "  angle: 3 only in the second tree",
        "  theta: 3 only in the first tree",
    ]
