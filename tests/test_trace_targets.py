"""The traced benchmark's wrap targets exist in the package.

``perfbench/child.py --trace 1`` replaces the package attributes named in its
LEAVES and SPANS tables with timing wrappers. A refactor that renames or drops
one of them would make every traced benchmark child crash, so this test
resolves each path the way the child's ``install`` does, without wrapping
anything. child.py is read as source and executed into a fresh namespace, so
nothing is written next to it.
"""
import functools
import inspect
import json
import types
from pathlib import Path

import pytest

import tusla
import tusla.harness

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"

# arguments the child's span attributes read from the bound call
SPAN_ARGS = {
    "harness.export_csv": {"record"},
    "diagnostics.tusla_terminal_law": {"n_steps", "n_replicas"},
}


def _load_child() -> types.ModuleType:
    module = types.ModuleType("perfbench_child")
    module.__file__ = str(CHILD)
    exec(compile(CHILD.read_text(), str(CHILD), "exec"), module.__dict__)
    return module


def _resolve(path: str):
    *owner_path, attr = path.split(".")
    return functools.reduce(getattr, owner_path, tusla), attr


def test_traced_leaf_and_span_paths_resolve():
    child = _load_child()
    assert child.LEAVES and child.SPANS
    for name, path, _ in child.LEAVES:
        owner, attr = _resolve(path)
        # install reads class attributes from __dict__, so they must be defined there
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(fn), f"{name}: {path} does not resolve"
    for name, path in child.SPANS:
        owner, attr = _resolve(path)
        fn = getattr(owner, attr, None)
        assert callable(fn), f"{name}: {path} does not resolve"
        params = set(inspect.signature(fn).parameters)
        assert SPAN_ARGS.get(name, set()) <= params, f"{name}: {path} lacks {SPAN_ARGS[name]}"


def _count(monkeypatch, calls: dict, owner, attr: str) -> None:
    fn = getattr(owner, attr)
    calls[attr] = 0

    def wrapper(*args, **kwargs):
        calls[attr] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


def test_traced_gibbs_leaves_are_called_in_this_process(tmp_path, monkeypatch):
    # the child wraps the replica law's leaves in its own process, so the law
    # must call them there, through the same lookups, whatever the CPU count.
    # The data are drawn and prepared once per chunk, on the law's producer
    # thread, the oracle and the drift once per step: 512 replicas step 64
    # per chunk, so 65 steps cross a chunk boundary
    from tusla import diagnostics, optimizers
    from tusla.problems import UniformDataSource, UsProblem

    calls = {}
    _count(monkeypatch, calls, diagnostics, "overflow_safe_drift_batch")
    _count(monkeypatch, calls, UsProblem, "evaluate_batch")
    _count(monkeypatch, calls, UsProblem, "batch_data")
    _count(monkeypatch, calls, UniformDataSource, "sample_batch")
    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 2)
    for steps, replicas, blocks in ((10, 4, 1), (65, 512, 2)):
        calls.update(dict.fromkeys(calls, 0))
        assert tusla.harness.main([
            "gibbs", "--problem", "us", "--steps", str(steps), "--replicas", str(replicas),
            "--samples", "2000", "--out", str(tmp_path / "gibbs.json"),
        ]) == 0
        assert calls == {
            "overflow_safe_drift_batch": steps,
            "evaluate_batch": steps,
            "batch_data": blocks,
            "sample_batch": blocks,
        }, (steps, replicas)


def test_traced_nn_demo_risk_is_one_pass_per_chain(tmp_path, monkeypatch):
    # the child's neural_net.risk leaf wraps the harness global; with one
    # usable CPU the chains run in this process, and run_config evaluates the
    # objective once per record, on its whole stack of states: 3 algorithms x
    # 8 seeds, not one call per recorded state (24 x 201)
    from tusla import harness, optimizers

    calls = {}
    _count(monkeypatch, calls, harness, "risk")
    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 1)
    assert harness.main(["run", "--preset", "nn-demo", "--out", str(tmp_path)]) == 0
    cfg = harness.PRESETS["nn-demo"]
    assert calls == {"risk": len(cfg.algorithms()) * len(cfg.seeds)} == {"risk": 24}


def test_traced_scalar_leaf_is_called_once_per_step(tmp_path, monkeypatch):
    # the child wraps UsProblem.evaluate_scalar on the class; the scalar route
    # must reach it there, once per step, with no instance attribute that
    # shadows it. With one usable CPU the chain runs in this process
    from tusla import harness, optimizers
    from tusla.problems import UsProblem

    fn = UsProblem.__dict__["evaluate_scalar"]
    calls, oracles = [0], {}

    def wrapper(self, *args):
        calls[0] += 1
        oracles[id(self)] = self
        return fn(self, *args)

    monkeypatch.setattr(UsProblem, "evaluate_scalar", wrapper)
    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 1)
    n_steps = 5000  # past the first 4096-step block
    assert harness.main([
        "run", "--preset", "paper-s26", "--set", "algorithm=tusla", "--set", "seeds=0",
        "--set", f"n_steps={n_steps}", "--set", "record_every=1000", "--out", str(tmp_path),
    ]) == 0
    summary = json.loads((tmp_path / "paper-s26-summary.json").read_text())
    assert summary["algorithms"]["tusla"]["per_seed"][0]["diverged"] is False
    assert calls == [n_steps]
    assert len(oracles) == 1
    for oracle in oracles.values():
        assert "evaluate_scalar" not in vars(oracle)


@pytest.mark.parametrize("algorithm", ["tusla", "all"])
def test_traced_row_drift_is_called_once_per_stacked_step(tmp_path, monkeypatch, algorithm):
    # the child wraps optimizers.overflow_safe_drift; the stacked route takes
    # its TUSLA drift through that global, one call for all TUSLA rows per
    # step, also when SGLD and ADAM rows share their block. With one usable
    # CPU the nn-demo chains run in this process, as one block
    from tusla import harness, optimizers

    calls = {}
    _count(monkeypatch, calls, optimizers, "overflow_safe_drift")
    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 1)
    n_steps = 30
    assert harness.main([
        "run", "--preset", "nn-demo", "--set", f"algorithm={algorithm}",
        "--set", f"n_steps={n_steps}", "--out", str(tmp_path),
    ]) == 0
    summary = json.loads((tmp_path / "nn-demo-summary.json").read_text())
    assert [r["diverged"] for r in summary["algorithms"]["tusla"]["per_seed"]] == [False] * 8
    assert calls == {"overflow_safe_drift": n_steps}
