"""Self-tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

import checks
import child
import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name, start, end, parent, leaves=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "attrs": {}, "leaves": leaves or {}}


def test_self_time_of_nested_spans():
    # main [0, 10] > run_config [1, 9] > run [2, 5] and export [6, 8];
    # leaf totals are inclusive of descendants, as the tracer records them
    spans = [
        _span("main", 0.0, 10.0, None, {"oracle": [7, 1.5, 0]}),
        _span("run_config", 1.0, 9.0, 0, {"oracle": [7, 1.5, 0]}),
        _span("run", 2.0, 5.0, 1, {"oracle": [5, 1.0, 0]}),
        _span("export", 6.0, 8.0, 1),
    ]
    rows = child.analyse(spans)
    assert [r["s"] for r in rows] == [10.0, 8.0, 3.0, 2.0]
    assert rows[2]["direct"] == {"oracle": [5, 1.0, 0]}
    assert rows[1]["direct"] == {"oracle": [2, 0.5, 0]}  # 7 - 5 calls under run_config itself
    assert rows[0]["direct"] == {}
    assert rows[0]["self_s"] == pytest.approx(10.0 - 8.0)
    assert rows[1]["self_s"] == pytest.approx(8.0 - 3.0 - 2.0 - 0.5)
    assert rows[2]["self_s"] == pytest.approx(3.0 - 1.0)
    assert rows[3]["self_s"] == pytest.approx(2.0)


def test_tracer_records_spans_and_leaf_totals():
    tracer = child.Tracer()
    leaf = tracer.leaf("leaf", lambda x: x + 1)
    outer = tracer.span("outer", lambda n: [leaf(i) for i in range(n)])
    outer(3)
    leaf(0)
    assert tracer.leaves["leaf"][0] == 4
    assert len(tracer.spans) == 1
    assert tracer.spans[0]["leaves"]["leaf"][0] == 3


def test_metric_names_match_pattern():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    declared += [w["name"] for w in bench["workloads"]]
    produced = list(child.layer_metrics([], {})) + ["trace.overhead_frac"]
    for name in declared + produced:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert sorted(produced) == sorted(m["name"] for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert not NAME.fullmatch("harness.export csv") and not NAME.fullmatch("a/b")


def _reference(name):
    return json.loads(checks.REFERENCE_PATH.read_text())["workloads"][name]


def test_reference_accepts_itself_and_rejects_perturbation():
    rtol = json.loads(checks.REFERENCE_PATH.read_text())["rtol"]
    ref = _reference("paper-s2")
    assert checks.check_reference(ref, copy.deepcopy(ref), rtol) == []

    within = copy.deepcopy(ref)
    within["algorithms"]["tusla"]["median_final_distance"] *= 1 + rtol / 10
    assert checks.check_reference(ref, within, rtol) == []

    beyond = copy.deepcopy(ref)
    beyond["algorithms"]["tusla"]["median_final_distance"] *= 1 + 10 * rtol
    assert len(checks.check_reference(ref, beyond, rtol)) == 1

    crashed = copy.deepcopy(ref)
    crashed["algorithms"]["tusla"]["n_non_crashed"] = 15
    assert len(checks.check_reference(ref, crashed, rtol)) == 1

    prefix = copy.deepcopy(_reference("s26-long"))
    prefix["algorithms"]["tusla"]["theta_prefix"][2] *= 1.01
    assert len(checks.check_reference(_reference("s26-long"), prefix, rtol)) == 1


def test_expected_rows_counts_initial_and_final_states():
    w = {"n_steps": 2000, "record_every": 10}
    assert checks.expected_rows(w, None) == 201
    assert checks.expected_rows(w, 0) == 1
    assert checks.expected_rows(w, 2) == 2
    assert checks.expected_rows(w, 11) == 3


def test_run_check_rejects_dropped_rows(tmp_path: Path):
    w = run.WORKLOADS["s26-long"]
    header = b"step,theta_norm,theta,objective,grad_norm\n"
    rows = b"".join(b"%d,1,1,1,1\n" % (i * 1000) for i in range(2001))
    summary = {"algorithms": {"tusla": {"n_seeds": 1, "n_non_crashed": 1, "per_seed": [
        {"seed": 5, "divergence_step": None}]}}}
    files = {"paper-s26-summary.json": json.dumps(summary).encode(),
             "paper-s26-tusla-seed5.csv": header + rows}
    assert checks.check_run(w, 5, files) == []
    files["paper-s26-tusla-seed5.csv"] = header + rows[: rows.rindex(b"\n", 0, -1) + 1]
    assert checks.check_run(w, 5, files) == ["tusla seed 5: 2000 rows, want 2001"]
