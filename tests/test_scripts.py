"""Smoke tests for the experiment scripts: each script's main runs in
process, at small sizes, with its command line set through sys.argv."""
import json
import runpy
import sys
from pathlib import Path

from tusla.harness import main as tusla_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(monkeypatch, name: str, *args: str) -> None:
    main = runpy.run_path(str(SCRIPTS / name), run_name="script_under_test")["main"]
    monkeypatch.setattr(sys, "argv", [name, *args])
    main()


def test_sampling_study_writes_a_row_per_lam(monkeypatch, tmp_path):
    path = tmp_path / "rows.json"
    _run_script(monkeypatch, "sampling_study.py", "--lams", "0.1", "0.05",
                "--replicas", "8", "--steps", "50", "--json", str(path))
    rows = json.loads(path.read_text())
    assert [row["lam"] for row in rows] == [0.1, 0.05]
    for row in rows:
        assert set(row) == {"lam", "w2_vs_gaussian", "w2_vs_gibbs"}
        assert row["w2_vs_gaussian"] >= 0.0 and row["w2_vs_gibbs"] >= 0.0
    # a row is tusla gibbs's report at the same point, bit for bit
    gibbs = tmp_path / "gibbs.json"
    assert tusla_main(["gibbs", "--problem", "quadratic", "--lam", "0.05", "--beta", "4",
                       "--replicas", "8", "--steps", "50", "--samples", "200000",
                       "--seed", "0", "--out", str(gibbs)]) == 0
    report = json.loads(gibbs.read_text())
    assert rows[1] == {"lam": 0.05, "w2_vs_gaussian": report["w2_vs_gaussian"],
                       "w2_vs_gibbs": report["w2_vs_gibbs"]}
