"""Experiment harness tests: preset fidelity, CSV/JSON round-trips, config
files, output layout, determinism of written artifacts, the worker pool, CLI
exit codes, and the package's public API."""
import ast
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _mlp_reference as ref
import tusla
from tusla import diagnostics, harness, optimizers
from tusla.harness import (
    PRESETS,
    ExperimentConfig,
    _ProblemSetup,
    _parse_override,
    export_csv,
    law_report,
    load_config,
    main,
    run_config,
    summary_jsonable,
)
from tusla.diagnostics import (
    gibbs_sampler_1d,
    ks_vs_gaussian,
    tusla_terminal_law,
    wasserstein_p_1d,
)
from tusla.gradient_oracle import RegularizationParams
from tusla.optimizers import RunRecord, TuslaConfig, run, scalar_route
from tusla.problems import UniformDataSource, UsProblem, u_s_value_array


def parse_csv(path: str) -> dict:
    """Inverse of export_csv; returns column arrays (theta as list or None)."""
    with open(path, newline="") as f:
        header = f.readline().strip()
        if header != "step,theta_norm,theta,objective,grad_norm":
            raise ValueError(f"unexpected header: {header!r}")
        steps, norms, thetas, objs, grads = [], [], [], [], []
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            s, nrm, th, ob, gd = line.split(",")
            steps.append(int(s))
            norms.append(float(nrm))
            thetas.append(
                np.array([float(c) for c in th.split(";")]) if th else None
            )
            objs.append(float(ob) if ob else math.nan)
            grads.append(float(gd))
    has_theta = thetas and thetas[0] is not None
    has_obj = any(not math.isnan(o) for o in objs)
    return {
        "step": np.array(steps, dtype=np.int64),
        "theta_norm": np.array(norms),
        "theta": np.array(thetas) if has_theta else None,
        "objective": np.array(objs) if has_obj else None,
        "grad_norm": np.array(grads),
    }


# ---------------------------------------------------------------------------
# presets and config


def test_headline_preset_parameters():
    cfg = PRESETS["paper-s2"]
    assert cfg.problem == "us" and cfg.s == 2
    assert cfg.lam == 0.05
    assert cfg.beta == 0.05
    assert cfg.eta == 0.01
    assert _ProblemSetup(cfg).reg.r == 12.0
    assert cfg.alpha == 10.0
    assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)
    assert cfg.theta0 == 1e3
    assert cfg.n_steps == 10_000
    assert cfg.seeds == tuple(range(16))
    assert cfg.algorithm == "all"
    assert cfg.divergence_threshold == 1e10

    steep = PRESETS["paper-s26"]
    assert steep.s == 26
    assert _ProblemSetup(steep).reg.r == 36.0
    assert steep.lam == cfg.lam and steep.beta == cfg.beta and steep.eta == cfg.eta


def test_paper_s2_tusla_spread_is_the_ou_stationary_variance():
    # With r = s+10 the drift for |theta| >= 1 is about eta*theta/sqrt(lam)
    # whatever G is, so the paper-s2 TUSLA chains settle into an OU process
    # with stationary variance sqrt(lam)/(beta*eta) = 447. That spread, not a
    # stepping fault, keeps acceptance criterion 1's TUSLA median at 13.73.
    cfg = PRESETS["paper-s2"]
    tail = []
    setup = _ProblemSetup(cfg)
    for seed in cfg.seeds:
        rec = run(setup.algo_config(cfg, "tusla"), setup.theta0(seed), setup.oracle, setup.stream,
                  cfg.n_steps, rng_seed=seed, record_every=cfg.record_every,
                  divergence_threshold=cfg.divergence_threshold)
        assert not rec.diverged
        assert rec.step_indices[5000] == 5000
        tail.append(rec.thetas[5000:, 0])
    tail = np.concatenate(tail)
    predicted = math.sqrt(cfg.lam) / (cfg.beta * cfg.eta)
    assert abs(np.var(tail - 0.1) / predicted - 1.0) < 0.15
    assert np.mean(np.abs(tail) >= 1.0) > 0.9  # the saturated branch


def test_r_defaults_follow_the_oracle_degree():
    # s + 10 on u_s, else q/2 + 1: quadratic q = 1, one_neuron q = 3, mlp q = 2n + 2
    def r(**kw):
        return _ProblemSetup(ExperimentConfig(**kw)).reg.r

    assert r(problem="us", s=7) == 17.0
    assert r(problem="quadratic") == 1.5
    assert r(problem="one_neuron") == 2.5
    assert r(problem="mlp", dims=(3, 4, 4)) == 4.0
    assert r(problem="mlp", dims=(1, 2)) == 3.0
    assert r(problem="us", r=7.5) == 7.5


def test_algorithm_selection():
    assert ExperimentConfig().algorithms() == ("tusla", "sgld", "adam")
    assert ExperimentConfig(algorithm="sgld").algorithms() == ("sgld",)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(problem="banana")
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="newton")
    with pytest.raises(ValueError):
        ExperimentConfig(s=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(n_steps=-5)
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=(1, 1))


# ---------------------------------------------------------------------------
# CSV export / parse


def _toy_record() -> RunRecord:
    return RunRecord(
        step_indices=np.array([0, 1, 2], dtype=np.int64),
        theta_norms=np.array([math.pi, 1.0 / 3.0, 1e-300]),
        grad_norms=np.array([0.1 + 0.2, 5e-324, math.nan]),
        thetas=np.array([[math.pi, -0.0], [1e308, -1e-308], [0.5, 2.0]]),
        diverged=False,
        divergence_step=None,
    )


_TOY_OBJECTIVES = np.array([1.5, math.inf, 0.0])


def test_csv_round_trip_is_bit_exact(tmp_path):
    rec = _toy_record()
    path = str(tmp_path / "toy.csv")
    export_csv(rec, _TOY_OBJECTIVES, path)
    cols = parse_csv(path)
    assert np.array_equal(cols["step"], rec.step_indices)
    assert cols["theta_norm"].tobytes() == rec.theta_norms.tobytes()
    assert cols["grad_norm"].tobytes() == rec.grad_norms.tobytes()
    assert cols["theta"].tobytes() == rec.thetas.tobytes()
    assert cols["objective"].tobytes() == _TOY_OBJECTIVES.tobytes()


def test_csv_layout(tmp_path):
    rec = _toy_record()
    path = str(tmp_path / "layout.csv")
    export_csv(rec, _TOY_OBJECTIVES, path)
    raw = Path(path).read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().split("\n")
    assert lines[0] == "step,theta_norm,theta,objective,grad_norm"
    assert len(lines) == 5  # header + 3 rows + trailing newline
    assert lines[-1] == ""
    # theta components are semicolon-joined inside one cell
    assert lines[1].split(",")[2].count(";") == 1


def test_csv_empty_optional_columns(tmp_path):
    # theta, the one optional column, is empty above dimension 8; the record
    # still holds the (k, 9) stack
    rec = RunRecord(
        step_indices=np.array([0, 1], dtype=np.int64),
        theta_norms=np.array([1.0, 2.0]),
        grad_norms=np.array([3.0, math.nan]),
        thetas=np.zeros((2, 9)),
        diverged=False,
        divergence_step=None,
    )
    path = str(tmp_path / "empty.csv")
    export_csv(rec, np.array([4.0, 5.0]), path)
    cols = parse_csv(path)
    assert cols["theta"] is None
    assert cols["objective"].tolist() == [4.0, 5.0]
    assert Path(path).read_text().splitlines(keepends=True)[1] == "0,1,,4,3\n"


def _reference_export_csv(record: RunRecord, objectives: np.ndarray, path: str) -> None:
    # the original per-row formatter; export_csv must match it byte for byte
    def cell(v):
        return "%.17g" % v

    with open(path, "w", newline="") as f:
        f.write("step,theta_norm,theta,objective,grad_norm\n")
        for i in range(record.step_indices.size):
            theta_cell = (
                ";".join(cell(c) for c in record.thetas[i])
                if record.thetas.shape[1] <= 8
                else ""
            )
            obj_cell = cell(objectives[i])
            f.write(
                f"{int(record.step_indices[i])},{cell(record.theta_norms[i])},"
                f"{theta_cell},{obj_cell},{cell(record.grad_norms[i])}\n"
            )


_EDGE_CELLS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0]


def _random_cells(rng, shape, drawn):
    # edge values, arbitrary bit patterns (nan payloads, subnormals) and
    # ordinary magnitudes, with the hypothesis-drawn floats placed up front
    kind = rng.integers(0, 3, size=shape)
    cells = np.where(
        kind == 0,
        rng.choice(np.array(_EDGE_CELLS), size=shape),
        np.where(kind == 1, rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64),
                 rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, size=shape)),
    )
    flat = cells.reshape(-1)
    flat[: len(drawn)] = drawn[: flat.size]
    return cells


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.sampled_from([1, 2, 5000]),  # 5000 crosses a 4096-row block
    d=st.sampled_from([1, 2, 8, 9]),
    seed=st.integers(0, 2**32 - 1),
    drawn=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
    abs_norms=st.booleans(),
)
def test_export_csv_matches_per_row_reference(tmp_path_factory, n_rows, d, seed, drawn,
                                              abs_norms):
    # abs_norms at d = 1: the norms are |theta|, as every record of run has,
    # and export_csv formats each norm once for both cells; random norms take
    # the general row template
    rng = np.random.default_rng(seed)
    rec = RunRecord(
        step_indices=np.sort(rng.integers(0, 2**62, size=n_rows)).astype(np.int64),
        theta_norms=_random_cells(rng, n_rows, drawn),
        grad_norms=_random_cells(rng, n_rows, drawn[::-1]),
        thetas=_random_cells(rng, (n_rows, d), drawn),
        diverged=False,
        divergence_step=None,
    )
    if abs_norms and d == 1:
        rec = dataclasses.replace(rec, theta_norms=np.abs(rec.thetas[:, 0]))
    objectives = _random_cells(rng, n_rows, drawn)
    out = tmp_path_factory.mktemp("export")
    got, want = out / "got.csv", out / "want.csv"
    assert export_csv(rec, objectives, str(got)) == str(got)
    _reference_export_csv(rec, objectives, str(want))
    assert got.read_bytes() == want.read_bytes()


def test_export_csv_shares_the_norm_text_over_every_edge_cell(tmp_path):
    # a d = 1 record whose norms are |theta|: nan payloads of either sign
    # (%.17g writes nan for each), +-0, +-inf, subnormals and negatives
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0xFFF0000000000001,
                     0x7FF4000000000000], dtype=np.uint64).view(np.float64)
    theta = np.concatenate([np.array(_EDGE_CELLS), -np.array(_EDGE_CELLS), nans])
    rec = RunRecord(
        step_indices=np.arange(theta.size, dtype=np.int64),
        theta_norms=np.abs(theta),
        grad_norms=theta[::-1].copy(),
        thetas=theta[:, None],
        diverged=False,
        divergence_step=None,
    )
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    export_csv(rec, -theta, str(got))
    _reference_export_csv(rec, -theta, str(want))
    assert got.read_bytes() == want.read_bytes()
    assert b"\n3,0,-0," in got.read_bytes()  # theta -0.0: its norm 0, then "-"


def test_parse_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        parse_csv(str(path))


def _observe_records(monkeypatch) -> tuple[list, list]:
    """In process, every (stack, values) objective call of run_config and
    every record its chains return, both in task order."""
    calls, records = [], []
    init = _ProblemSetup.__init__

    def observed_init(self, cfg):
        init(self, cfg)
        objective = self.objective

        def observed(stack):
            values = objective(stack)
            calls.append((stack, values))
            return values

        self.objective = observed

    def keep(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            records.extend(out if isinstance(out, list) else [out])
            return out
        return wrapper

    monkeypatch.setattr(_ProblemSetup, "__init__", observed_init)
    monkeypatch.setattr(harness, "run", keep(harness.run))
    monkeypatch.setattr(harness, "run_seeds", keep(harness.run_seeds))
    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 1)
    return calls, records


@pytest.mark.parametrize("preset,route", [("paper-s2", "run"), ("nn-demo", "run_seeds")])
def test_run_config_calls_each_objective_once_per_record(tmp_path, monkeypatch, preset, route):
    # u_s on the scalar route, the MLP risk on the stacked route: one call per
    # record on its (k, d) state stack, and the CSV objective column and the
    # summary's final objective are those values, bitwise
    calls, records = _observe_records(monkeypatch)
    assert main(["run", "--preset", preset, "--set", "seeds=0,1", "--set", "n_steps=300",
                 "--set", "record_every=7", "--out", str(tmp_path)]) == 0
    cfg = PRESETS[preset]
    chains = [(algo, seed) for algo in cfg.algorithms() for seed in (0, 1)]
    assert len(calls) == len(records) == len(chains) == 6
    assert scalar_route(_ProblemSetup(cfg).oracle) == (route == "run")
    summary = json.loads((tmp_path / f"{preset}-summary.json").read_text())
    for (algo, seed), (stack, values), rec in zip(chains, calls, records):
        assert stack is rec.thetas and stack.shape == (rec.n_recorded, rec.thetas.shape[1])
        values = np.asarray(values, dtype=np.float64)
        assert values.shape == (rec.n_recorded,)
        cols = parse_csv(str(tmp_path / f"{preset}-{algo}-seed{seed}.csv"))
        assert cols["objective"].tobytes() == values.tobytes(), (algo, seed)
        final = summary["algorithms"][algo]["per_seed"][seed]["final_objective"]
        assert final == values[-1], (algo, seed)


@pytest.mark.parametrize("problem,scalar", [
    ("us", True), ("quadratic", True), ("one_neuron", False), ("mlp", False),
])
def test_the_oracle_alone_picks_each_problems_route(problem, scalar):
    # every seed's start has the oracle's width, so run_seeds accepts it
    setup = _ProblemSetup(ExperimentConfig(problem=problem, theta0=2.0))
    assert scalar_route(setup.oracle) is scalar
    for seed in (0, 1):
        assert setup.theta0(seed).shape == (setup.oracle.dim(),)
    if problem != "mlp":  # the network draws its start; the others start at theta0
        assert setup.theta0(0).tolist() == [2.0] * setup.oracle.dim()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nn_demo_records_keep_the_stack_and_export_no_theta(tmp_path, monkeypatch, fmt):
    # the record keeps its (k, 32) stack; exporting theta is a format choice,
    # and a state above dimension 8 exports none
    _, records = _observe_records(monkeypatch)
    assert main(["run", "--preset", "nn-demo", "--set", "algorithm=tusla", "--set", "seeds=0",
                 "--format", fmt, "--out", str(tmp_path)]) == 0
    (rec,) = records
    assert rec.thetas.shape == (rec.n_recorded, 32) == (201, 32)
    path = tmp_path / f"nn-demo-tusla-seed0.{fmt}"
    if fmt == "csv":
        assert parse_csv(str(path))["theta"] is None
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == rec.n_recorded and all(row.split(",")[2] == "" for row in rows)
    else:
        obj = json.loads(path.read_text())
        assert obj["theta"] is None
        assert obj["final_theta"] == rec.final_theta.tolist()


# ---------------------------------------------------------------------------
# config files


def test_load_config_with_preset_base(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "preset=paper-s2\n"
        "n_steps = 50\n"
        "seeds=0,1,2\n"
        "lam=0.025\n"
        "r=none\n"
    )
    cfg = load_config(str(path))
    assert cfg.s == 2  # inherited from the preset
    assert cfg.n_steps == 50
    assert cfg.seeds == (0, 1, 2)
    assert cfg.lam == 0.025
    assert cfg.r is None


def test_load_config_promotes_scalar_seeds_and_dims(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("problem=mlp\nseeds=4\ndims=2,3\nn_steps=1\n")
    cfg = load_config(str(path))
    assert cfg.seeds == (4,)
    assert cfg.dims == (2, 3)


def test_load_config_errors(tmp_path):
    bad_line = tmp_path / "a.cfg"
    bad_line.write_text("just words\n")
    with pytest.raises(ValueError):
        load_config(str(bad_line))
    unknown_key = tmp_path / "b.cfg"
    unknown_key.write_text("gamma=3\n")
    with pytest.raises(ValueError):
        load_config(str(unknown_key))
    bad_preset = tmp_path / "c.cfg"
    bad_preset.write_text("preset=nope\n")
    with pytest.raises(ValueError):
        load_config(str(bad_preset))
    bad_type = tmp_path / "d.cfg"
    bad_type.write_text("n_steps=abc\n")
    with pytest.raises(ValueError):
        load_config(str(bad_type))


def test_parse_override_reads_each_value_by_its_field_type(tmp_path, capsys):
    assert _parse_override("n_steps=5") == ("n_steps", 5)
    lam = _parse_override("lam=1")[1]
    assert lam == 1.0 and type(lam) is float
    assert _parse_override("seeds=4") == ("seeds", (4,))
    assert _parse_override(" dims = 3, 4 ") == ("dims", (3, 4))
    assert _parse_override("r=none") == _parse_override("r=") == ("r", None)
    assert _parse_override("r=7") == ("r", 7.0)
    assert _parse_override("activation=relu") == ("activation", "relu")
    # integer text in a float field is a float in the summary too
    assert main(["run", "--preset", "paper-s2", "--set", "lam=1", "--set", "n_steps=2",
                 "--set", "seeds=0", "--set", "algorithm=sgld", "--out", str(tmp_path)]) == 0
    assert '"lam": 1.0,' in (tmp_path / "paper-s2-summary.json").read_text()
    capsys.readouterr()
    for bad, declared in (("n_steps=1.5", "int"), ("s=2.0", "int"),
                          ("seeds=0,,1", "tuple[int, ...]"), ("dims=3,4.0", "tuple[int, ...]"),
                          ("lam=abc", "float")):
        out = tmp_path / "bad"
        assert main(["run", "--preset", "paper-s2", "--set", bad, "--out", str(out)]) == 64, bad
        key, _, raw = bad.partition("=")
        assert f"{key} must be {declared}, got {raw!r}" in capsys.readouterr().err, bad
        assert not out.exists(), bad


def _config_text(value) -> str:
    # a config-file value: a list as a comma list, null as none
    if isinstance(value, (list, tuple)):
        return ",".join(map(str, value))
    return "none" if value is None else str(value)


def test_the_parser_handles_every_config_field_type():
    # each field's default, written as config text, parses back to itself
    for field in dataclasses.fields(ExperimentConfig):
        _, value = _parse_override(f"{field.name}={_config_text(field.default)}")
        assert repr(value) == repr(field.default), field.name


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_summary_config_replays_through_load_config(tmp_path, name):
    cfg = dataclasses.replace(PRESETS[name], n_steps=5)
    run_config(cfg, name=name, out_dir=str(tmp_path))
    config = json.loads((tmp_path / f"{name}-summary.json").read_text())["config"]
    path = tmp_path / "replay.cfg"
    path.write_text("".join(f"{k}={_config_text(v)}\n" for k, v in config.items()))
    expected = dataclasses.replace(cfg, r=_ProblemSetup(cfg).reg.r)
    # repr, not ==, so that an int where a float ran fails too
    assert repr(load_config(str(path))) == repr(expected)


# ---------------------------------------------------------------------------
# run_config outputs


def _small_cfg(**kw) -> ExperimentConfig:
    base = dict(problem="us", s=2, n_steps=5, seeds=(0, 1), theta0=1.0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_config_writes_expected_files(tmp_path):
    out = str(tmp_path / "runs")
    summary = run_config(_small_cfg(), name="demo", out_dir=out)
    expected = {
        f"demo-{algo}-seed{seed}.csv" for algo in ("tusla", "sgld", "adam") for seed in (0, 1)
    } | {"demo-summary.json"}
    assert set(os.listdir(out)) == expected
    assert set(summary.algorithms) == {"tusla", "sgld", "adam"}
    for algo in summary.algorithms.values():
        assert algo.n_seeds == 2
        assert algo.n_non_crashed == 2
        assert algo.median_final_distance is not None
    # every csv has n_steps + 1 data rows
    cols = parse_csv(f"{out}/demo-tusla-seed0.csv")
    assert cols["step"].size == 6
    assert list(cols["step"]) == [0, 1, 2, 3, 4, 5]


def test_run_config_json_format(tmp_path):
    out = str(tmp_path / "runs")
    run_config(_small_cfg(seeds=(0,), algorithm="tusla"), name="j", out_dir=out, fmt="json")
    rec = json.loads(Path(f"{out}/j-tusla-seed0.json").read_text())
    assert rec["step"] == [0, 1, 2, 3, 4, 5]
    assert rec["grad_norm"][-1] is None  # nan gets serialized as null
    assert len(rec["theta_norm"]) == 6
    with pytest.raises(ValueError):
        run_config(_small_cfg(), fmt="parquet")


def test_run_config_reruns_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_config(_small_cfg(), name="rep", out_dir=a)
    run_config(_small_cfg(), name="rep", out_dir=b)
    for fname in sorted(os.listdir(a)):
        assert Path(a, fname).read_bytes() == Path(b, fname).read_bytes(), fname


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mlp_run_artifacts_match_per_sample_reference(tmp_path, monkeypatch, fmt):
    # the MLP route end to end: fused oracle, batched teacher labels and
    # stacked probe risks must write the bytes of the per-sample forms
    cfg = dataclasses.replace(PRESETS["nn-demo"], seeds=(0, 1), n_steps=300, record_every=10)
    assert cfg.algorithms() == ("tusla", "sgld", "adam")
    fast, slow = tmp_path / "fast", tmp_path / "slow"
    run_config(cfg, name="nn", out_dir=str(fast), fmt=fmt)
    monkeypatch.setattr(harness, "MlpOracle", ref.ReferenceMlpOracle)
    monkeypatch.setattr(harness, "TeacherStream", ref.ReferenceTeacherStream)
    monkeypatch.setattr(harness, "risk", ref.per_probe_risks)
    run_config(cfg, name="nn", out_dir=str(slow), fmt=fmt)
    names = sorted(os.listdir(fast))
    assert names == sorted(os.listdir(slow)) and len(names) == 7
    for fname in names:
        assert (fast / fname).read_bytes() == (slow / fname).read_bytes(), fname


def test_summary_json_has_no_wall_times(tmp_path):
    summary = run_config(_small_cfg(seeds=(0,), algorithm="tusla"), name="t")
    obj = summary_jsonable(summary)
    text = json.dumps(obj)
    assert "wall" not in text
    assert obj["config"]["r"] == 12.0  # resolved, not None
    assert obj["algorithms"]["tusla"]["n_seeds"] == 1
    per_seed = obj["algorithms"]["tusla"]["per_seed"][0]
    assert per_seed["seed"] == 0
    assert isinstance(per_seed["diverged"], bool)


def test_divergent_seeds_are_excluded_from_aggregates():
    cfg = ExperimentConfig(problem="us", s=26, algorithm="sgld", n_steps=20,
                           seeds=(0, 1, 2, 3), theta0=1e3)
    summary = run_config(cfg)
    algo = summary.algorithms["sgld"]
    assert algo.n_non_crashed == 0
    assert algo.median_final_distance is None
    assert algo.median_final_objective is None
    assert all(r.diverged for r in algo.results)


# ---------------------------------------------------------------------------
# the worker pool

# (preset, --set overrides, the chain function its tasks call): the scalar
# route runs one task per chain, paper-s2 with its SGLD chains diverging at
# step 2 and gibbs-quadratic with TUSLA alone; the stacked route runs one
# block per usable CPU and at most one per algorithm, nn-demo on the MLP and
# its one_neuron variant on a constant 2-vector sample
_POOL_CASES = [
    pytest.param("paper-s2", ("seeds=0,1,2", "n_steps=300"), "run", id="scalar"),
    pytest.param("gibbs-quadratic", ("seeds=0,1,2", "n_steps=300"), "run", id="scalar-tusla"),
    pytest.param("nn-demo", ("seeds=0,1,2", "n_steps=100"), "run_seeds", id="stacked"),
    pytest.param("nn-demo", ("problem=one_neuron", "seeds=0,1,2", "n_steps=100"), "run_seeds",
                 id="stacked-neuron"),
]


def _pool_cfg(preset, overrides) -> ExperimentConfig:
    return dataclasses.replace(PRESETS[preset], **dict(map(_parse_override, overrides)))


def _pool_argv(preset, overrides, fmt, out):
    sets = [arg for item in overrides for arg in ("--set", item)]
    return ["run", "--preset", preset, *sets, "--format", fmt, "--out", str(out)]


def _count_calls(monkeypatch, attr) -> list:
    calls = []
    real = getattr(harness, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, attr, counted)
    return calls


def _observe_pool(monkeypatch) -> list:
    # the (tasks, outcomes) of each run_config's fork_map call
    seen = []
    real = harness.fork_map

    def observed(fn, tasks):
        outcomes, workers = real(fn, tasks)
        seen.append((tasks, outcomes))
        return outcomes, workers

    monkeypatch.setattr(harness, "fork_map", observed)
    return seen


def _raiser(exc_type, *args):
    def fail(*_args, **_kwargs):
        raise exc_type(*args, f"raised in pid {os.getpid()}")

    return fail


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("preset,overrides,chain", _POOL_CASES)
def test_pool_artifacts_match_an_in_process_run(
    tmp_path, monkeypatch, capsys, preset, overrides, chain, fmt
):
    cfg = _pool_cfg(preset, overrides)
    n_chains = len(cfg.algorithms()) * len(cfg.seeds)
    calls = _count_calls(monkeypatch, chain)
    pool = _observe_pool(monkeypatch)
    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 2)
    assert main(_pool_argv(preset, overrides, fmt, tmp_path / "pool")) == 0
    assert "(2 workers)" in capsys.readouterr().out
    assert calls == []  # every chain ran in a worker
    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 1)
    assert main(_pool_argv(preset, overrides, fmt, tmp_path / "serial")) == 0
    assert "(1 worker)" in capsys.readouterr().out
    # one task per chain on the scalar route; on the stacked route one block
    # per usable CPU, at most one per algorithm: min(2, algorithms) pooled
    # and 1 in process
    tasks = [len(tasks) for tasks, _ in pool]
    if chain == "run":
        assert tasks == [n_chains, n_chains] and len(calls) == n_chains
    else:
        assert tasks == [min(2, len(cfg.algorithms())), 1] and len(calls) == 1
    names = sorted(os.listdir(tmp_path / "pool"))
    assert names == sorted(os.listdir(tmp_path / "serial")) and len(names) == n_chains + 1
    for fname in names:
        pooled, serial = tmp_path / "pool" / fname, tmp_path / "serial" / fname
        assert pooled.read_bytes() == serial.read_bytes(), fname


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("preset,overrides,chain", _POOL_CASES)
def test_pool_worker_failures_reach_the_cli(
    tmp_path, monkeypatch, capsys, preset, overrides, chain, fmt
):
    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 2)
    argv = _pool_argv(preset, overrides, fmt, tmp_path / "out")
    exporter = "export_csv" if fmt == "csv" else "_export_record_json"
    real_exporter, real_chain = getattr(harness, exporter), getattr(harness, chain)
    parent = f"raised in pid {os.getpid()}"

    monkeypatch.setattr(harness, exporter, _raiser(OSError, 28, "no space left"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "no space left" in err and parent not in err
    monkeypatch.setattr(harness, exporter, real_exporter)

    monkeypatch.setattr(harness, chain, _raiser(ValueError))
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert "raised in pid" in err and parent not in err

    # the workers inherit the warning filters, so tier-1's error::RuntimeWarning
    # gate still sees a numerical warning raised in a worker
    def warns(*args, **kwargs):
        warnings.warn(f"overflow in pid {os.getpid()}", RuntimeWarning)
        return real_chain(*args, **kwargs)

    monkeypatch.setattr(harness, chain, warns)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow in pid") as info:
            main(argv)
    assert f"pid {os.getpid()}" not in str(info.value)


def test_a_worker_that_dies_fails_the_run(monkeypatch):
    def dies(*args, **kwargs):
        os._exit(70)

    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "run", dies)
    with pytest.raises(BrokenProcessPool):
        run_config(_small_cfg())


# one chain on the scalar route; on the stacked route one algorithm's seeds,
# which stay one block: a stacked config never gets more blocks than it has
# algorithms
@pytest.mark.parametrize("cfg,chain", [
    pytest.param(_small_cfg(seeds=(0,), algorithm="tusla"), "run", id="scalar"),
    pytest.param(dataclasses.replace(PRESETS["nn-demo"], algorithm="tusla", n_steps=20),
                 "run_seeds", id="stacked"),
    pytest.param(dataclasses.replace(PRESETS["nn-demo"], problem="one_neuron", algorithm="tusla",
                                     n_steps=20), "run_seeds", id="stacked-neuron"),
])
def test_single_task_config_runs_in_process(tmp_path, monkeypatch, cfg, chain):
    calls = _count_calls(monkeypatch, chain)
    pool = _observe_pool(monkeypatch)
    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 2)
    summary = run_config(cfg, out_dir=str(tmp_path))
    assert [tasks for tasks, _ in pool] == [[tuple(("tusla", seed) for seed in cfg.seeds)]]
    assert calls == [chain] and summary.workers == 1


def test_chain_seconds_share_each_blocks_seconds_over_its_rows(monkeypatch):
    # nn-demo on 2 CPUs steps two 12-row blocks, 8 TUSLA + 4 SGLD rows and
    # 4 SGLD + 8 ADAM rows; each algorithm's seconds are its rows' shares,
    # and they sum to the blocks' seconds
    pool = _observe_pool(monkeypatch)
    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 2)
    cfg = dataclasses.replace(PRESETS["nn-demo"], n_steps=20)
    summary = run_config(cfg)
    ((tasks, outcomes),) = pool
    rows = [(algo, seed) for algo in ("tusla", "sgld", "adam") for seed in cfg.seeds]
    assert tasks == [tuple(rows[:12]), tuple(rows[12:])] and summary.workers == 2
    (_, a), (_, b) = outcomes
    walls = {algo: s.wall_time_s for algo, s in summary.algorithms.items()}
    assert walls == pytest.approx({"tusla": a * 8 / 12, "sgld": (a + b) * 4 / 12,
                                   "adam": b * 8 / 12})
    assert sum(walls.values()) == pytest.approx(a + b)


def _run_small_config(_):
    return run_config(_small_cfg()).workers


def test_pool_worker_runs_nested_configs_in_process(monkeypatch):
    # a multiprocessing.Pool worker is daemonic and may not have children
    monkeypatch.setattr(optimizers, "_usable_cpus", lambda: 2)
    assert run_config(_small_cfg()).workers == 2
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.map_async(_run_small_config, [0]).get(timeout=60) == [1]


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_preset(tmp_path, capsys):
    out = str(tmp_path / "cli")
    code = main([
        "run", "--preset", "paper-s2", "--out", out,
        "--set", "n_steps=4", "--set", "seeds=0,1", "--set", "algorithm=tusla",
    ])
    assert code == 0
    assert os.path.exists(f"{out}/paper-s2-summary.json")
    assert os.path.exists(f"{out}/paper-s2-tusla-seed0.csv")
    assert "paper-s2" in capsys.readouterr().out


def test_cli_run_config_file(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("preset=paper-s2\nn_steps=3\nseeds=0\nalgorithm=sgld\n")
    out = str(tmp_path / "cli")
    assert main(["run", "--config", str(cfg_file), "--out", out]) == 0
    assert os.path.exists(f"{out}/custom-sgld-seed0.csv")
    # --seed shifts a config file's seed list as it shifts a preset's
    shifted = tmp_path / "shifted"
    assert main(["run", "--config", str(cfg_file), "--seed", "7", "--out", str(shifted)]) == 0
    assert sorted(os.listdir(shifted)) == ["custom-sgld-seed7.csv", "custom-summary.json"]
    assert json.loads((shifted / "custom-summary.json").read_text())["config"]["seeds"] == [7]


def test_cli_seed_flag_shifts_seeds(tmp_path):
    out = str(tmp_path / "cli")
    code = main([
        "run", "--preset", "paper-s2", "--out", out, "--seed", "5",
        "--set", "n_steps=2", "--set", "seeds=0,1", "--set", "algorithm=adam",
    ])
    assert code == 0
    summary = json.loads(Path(f"{out}/paper-s2-summary.json").read_text())
    assert [r["seed"] for r in summary["algorithms"]["adam"]["per_seed"]] == [5, 6]


def test_cli_usage_errors(tmp_path, monkeypatch):
    assert main(["run"]) == 64  # no --preset/--config
    assert main(["frobnicate"]) == 64
    assert main(["check"]) == 64  # removed subcommand
    assert main(["run", "--preset", "nope"]) == 64
    assert main(["run", "--preset", "paper-s2", "--set", "bogus=1",
                 "--out", str(tmp_path)]) == 64
    assert main(["run", "--preset", "paper-s2", "--set", "n_steps",
                 "--out", str(tmp_path)]) == 64
    for bad in ("n_steps=abc", "n_steps=1.5", "lam=abc"):  # wrongly typed values
        assert main(["run", "--preset", "paper-s2", "--set", bad,
                     "--out", str(tmp_path)]) == 64, bad
    # out_path is no config field: an unknown key, not a silent no-op
    assert main(["run", "--preset", "paper-s2", "--set", "out_path=x",
                 "--out", str(tmp_path)]) == 64
    # an invalid ADAM setting, a non-finite eps included, fails before TUSLA
    # and SGLD run: no partial artifacts
    for bad in ("alpha=-1", "beta1=1.5", "eps=nan", "eps=inf"):
        out = tmp_path / bad
        assert main(["run", "--preset", "paper-s2", "--set", bad, "--set", "seeds=0,1",
                     "--set", "n_steps=5", "--out", str(out)]) == 64, bad
        assert not out.exists() or not any(out.iterdir()), bad
    # TUSLA's order check r >= q/2 + 1 fails before any chain runs, also when
    # the SGLD and ADAM chains would run in workers of their own
    for cpus in (2, 1):
        monkeypatch.setattr(optimizers, "_usable_cpus", lambda: cpus)
        for preset, extra in (("nn-demo", ()), ("paper-s2", ("--set", "seeds=0,1,2,3"))):
            out = tmp_path / f"r2-{preset}-{cpus}"
            assert main(["run", "--preset", preset, "--set", "r=2", "--set", "n_steps=50",
                         *extra, "--out", str(out)]) == 64, (preset, cpus)
            assert not out.exists() or not any(out.iterdir()), (preset, cpus)
        # the recording and divergence settings are checked before --out is
        # made or a worker forks
        for bad in ("record_every=0", "divergence_threshold=0", "divergence_threshold=nan"):
            out = tmp_path / f"{bad}-{cpus}"
            assert main(["run", "--preset", "paper-s2", "--set", bad,
                         "--out", str(out)]) == 64, (bad, cpus)
            assert not out.exists(), (bad, cpus)
    # a negative base seed is rejected before the first chain runs
    out = tmp_path / "negative-seed"
    assert main(["run", "--preset", "paper-s2", "--seed", "-1", "--out", str(out)]) == 64
    assert not out.exists() or not any(out.iterdir())
    # tusla gibbs checks lam, beta, steps and replicas before it runs or writes
    for bad in (["--beta", "0"], ["--beta", "nan"], ["--beta", "-1"], ["--lam", "0"],
                ["--lam", "inf"], ["--steps", "-1"], ["--replicas", "0"]):
        for problem in ("quadratic", "us"):
            out = tmp_path / "gibbs.json"
            assert main(["gibbs", "--problem", problem, "--steps", "2", "--replicas", "2",
                         "--samples", "100", *bad, "--out", str(out)]) == 64, (problem, bad)
            assert not out.exists(), (problem, bad)
    # tusla constants reads closed-form moments: it draws nothing, so it has
    # no Monte-Carlo options left
    for bad in (["--n-samples", "500"], ["--seed", "0"]):
        for problem in ("us", "quadratic"):
            out = tmp_path / "constants.json"
            assert main(["constants", "--problem", problem, *bad, "--out", str(out)]) == 64, bad
            assert not out.exists(), (problem, bad)
    # a non-finite --theta0 is rejected before the law's first step
    for bad in ("nan", "inf", "-inf"):
        for problem in ("quadratic", "us"):
            out = tmp_path / "gibbs.json"
            assert main(["gibbs", "--problem", problem, "--theta0", bad,
                         "--out", str(out)]) == 64, (problem, bad)
            assert not out.exists(), (problem, bad)
    # tusla gibbs checks --samples and --eta before the law runs at all
    def no_law(*args, **kwargs):
        raise AssertionError("tusla_terminal_law ran")

    monkeypatch.setattr(harness, "tusla_terminal_law", no_law)
    for bad in (["--samples", "0"], ["--samples", "-5"], ["--eta", "-0.5"], ["--eta", "nan"]):
        for problem in ("quadratic", "us"):
            out = tmp_path / "gibbs.json"
            assert main(["gibbs", "--problem", problem, *bad, "--out", str(out)]) == 64, bad
            assert not out.exists(), (problem, bad)
    # a key with spaces around it is the key: seeds=3 becomes the list (3,)
    assert main(["run", "--preset", "paper-s2", "--set", "seeds =3", "--set", "n_steps=5",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "paper-s2-summary.json").read_text())
    assert summary["config"]["seeds"] == [3]
    assert sorted(p.name for p in tmp_path.glob("*.csv"))[0] == "paper-s2-adam-seed3.csv"


@pytest.mark.parametrize("algorithm, field, match", [
    ("adam", "lam", "lam must be positive"),
    ("adam", "beta", "inverse temperature"),
    ("tusla", "alpha", "alpha must be positive"),
    ("tusla", "beta1", "beta1 must lie"),
    ("tusla", "beta2", "beta2 must lie"),
    ("tusla", "eps", "eps must be finite"),
])
def test_every_algorithm_field_is_checked_whichever_algorithms_run(
    tmp_path, capsys, algorithm, field, match,
):
    # the summary records every field, so a nan in the settings of an
    # algorithm that does not run is a usage error too, before --out is made
    out = tmp_path / "out"
    assert main(["run", "--preset", "paper-s2", "--set", f"algorithm={algorithm}",
                 "--set", f"{field}=nan", "--set", "n_steps=5", "--set", "seeds=0",
                 "--out", str(out)]) == 64
    assert not out.exists()
    assert match in capsys.readouterr().err
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**{field: math.nan})


def test_base_seed_summary_records_the_seeds_that_ran(tmp_path):
    # --seed replaces the seed list before anything runs, so the summary's
    # config and its per-seed rows name the same seeds
    assert main(["run", "--preset", "paper-s2", "--seed", "100", "--set", "seeds=0,1",
                 "--set", "n_steps=5", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "paper-s2-summary.json").read_text())
    assert summary["config"]["seeds"] == [100, 101]
    for algo in summary["algorithms"].values():
        assert [row["seed"] for row in algo["per_seed"]] == [100, 101]
    with pytest.raises(ValueError, match="non-negative"):
        ExperimentConfig(seeds=(0, -1))


@pytest.mark.parametrize("bad", ["dims=0", "dims=3,0", "dims=3", "dims=3,-4"])
def test_mlp_dims_are_checked_whatever_the_problem(tmp_path, bad):
    # the summary records dims for every problem, so a u_s run checks them
    # too, before --out is made
    for preset in ("paper-s2", "nn-demo"):
        out = tmp_path / preset
        assert main(["run", "--preset", preset, "--set", bad, "--set", "n_steps=10",
                     "--set", "seeds=0", "--out", str(out)]) == 64, (preset, bad)
        assert not out.exists(), (preset, bad)
    with pytest.raises(ValueError, match="layer"):
        ExperimentConfig(problem="us", dims=(3, 0))


def test_mlp_activation_is_checked_whatever_the_problem(tmp_path):
    for preset in ("paper-s2", "nn-demo"):
        out = tmp_path / preset
        assert main(["run", "--preset", preset, "--set", "activation=relu", "--set",
                     "n_steps=10", "--set", "seeds=0", "--out", str(out)]) == 64, preset
        assert not out.exists(), preset
    with pytest.raises(ValueError, match="unknown activation"):
        ExperimentConfig(problem="quadratic", activation="relu")


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_cli_summaries_are_strict_json(tmp_path):
    # a non-finite theta0 is rejected for every problem, mlp included, which
    # draws its start and would only have recorded it; no file is written
    for preset in ("nn-demo", "paper-s2"):
        for bad in ("theta0=nan", "theta0=inf"):
            out = tmp_path / f"{preset}-{bad}"
            assert main(["run", "--preset", preset, "--set", bad, "--set", "n_steps=5",
                         "--out", str(out)]) == 64, (preset, bad)
            assert not out.exists(), (preset, bad)
    # an infinite threshold and an infinite objective median go in as null
    inf_threshold, inf_objective = tmp_path / "threshold", tmp_path / "objective"
    assert main(["run", "--preset", "nn-demo", "--set", "divergence_threshold=inf",
                 "--set", "n_steps=20", "--set", "seeds=0,1", "--out", str(inf_threshold)]) == 0
    assert main(["run", "--preset", "paper-s26", "--set", "n_steps=0", "--set", "theta0=1e8",
                 "--set", "seeds=0", "--out", str(inf_objective)]) == 0
    summary = _strict_json(inf_threshold / "nn-demo-summary.json")
    assert summary["config"]["divergence_threshold"] is None
    summary = _strict_json(inf_objective / "paper-s26-summary.json")
    for algo in summary["algorithms"].values():
        assert algo["median_final_objective"] is None  # u_26 at 1e8 overflows
        assert algo["per_seed"][0]["final_objective"] is None
    for path in sorted(inf_objective.glob("*.json")):
        _strict_json(path)
    with pytest.raises(ValueError):
        harness._dump_json({"x": math.nan}, str(tmp_path / "nan.json"))
    assert not (tmp_path / "nan.json").exists()


def test_cli_us_growth_constant_overflow_is_a_usage_error(tmp_path):
    # u_s's L1 grid overflows float64 for large s: tusla constants, which
    # reads L1, exits 64 with no warning and no file. run and gibbs take the
    # order check from degree(), never read L1, and so still run
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["constants", "--s", "400", "--out", str(out)]) == 64
        assert not out.exists()
        with pytest.raises(ValueError, match="s = 400"):
            UsProblem(s=400).meta()
        assert UsProblem(s=400).degree() == 800.0
        # from theta0 = 1e3 the s = 400 gradient saturates to +-inf, so every
        # chain reports its divergence at step 1
        assert main(["run", "--preset", "paper-s2", "--set", "s=400", "--set", "n_steps=10",
                     "--set", "seeds=0", "--out", str(out)]) == 0
        summary = json.loads((out / "paper-s2-summary.json").read_text())
        for algo in ("tusla", "sgld", "adam"):
            row = summary["algorithms"][algo]["per_seed"][0]
            assert row["diverged"] and row["divergence_step"] == 1, algo
        assert main(["gibbs", "--problem", "us", "--s", "400", "--steps", "10",
                     "--replicas", "8", "--samples", "100", "--out", str(out / "g.json")]) == 0
        assert json.loads((out / "g.json").read_text())["replicas_used"] == 8


# the u_s L1 bits tusla constants reports, as float.hex
_US_L1_HEX = {0: "0x1.8331c34132d08p+4", 1: "0x1.a9eb2c4f085a2p+4",
              2: "0x1.8b2875faae3a7p+4", 26: "0x1.260283854e9afp+4"}


def test_run_and_gibbs_never_build_the_l1_grid(tmp_path, monkeypatch):
    # the order check r >= q/2 + 1 reads only q, which degree() gives without
    # the 400,001-point L1 grid; tusla constants still reads L1, and its bits
    from tusla import problems

    def no_grid(*args):
        raise AssertionError("the u_s L1 grid was built")

    monkeypatch.setattr(problems, "_us_l1", no_grid)
    assert main(["run", "--preset", "paper-s26", "--out", str(tmp_path / "run")]) == 0
    assert main(["gibbs", "--problem", "us", "--steps", "100",
                 "--out", str(tmp_path / "gibbs.json")]) == 0
    with pytest.raises(AssertionError, match="L1 grid"):  # the patch is the one constants reads
        main(["constants", "--out", str(tmp_path / "c.json")])
    monkeypatch.undo()
    for s, want in _US_L1_HEX.items():
        out = tmp_path / f"constants-{s}.json"
        assert main(["constants", "--s", str(s), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["L1"] == float.fromhex(want), s


def test_cli_io_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("command", [["gibbs", "--problem", "quadratic"], ["constants"]])
def test_an_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, command):
    def fail(*args, **kwargs):
        raise AssertionError("the command computed before checking --out")

    monkeypatch.setattr(harness, "tusla_terminal_law", fail)
    monkeypatch.setattr(harness, "theory_constants", fail)
    out = tmp_path / "missing" / "dir" / "g.json"
    assert main([*command, "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_cli_constants_json(tmp_path):
    out = str(tmp_path / "c.json")
    assert main(["constants", "--problem", "us", "--s", "2", "--out", out]) == 0
    obj = json.loads(Path(out).read_text())
    for key in ("A", "B", "a", "R", "L", "l", "lambda_max", "L2", "K_mean",
                "log10_B", "log10_a", "overflowed", "k_mean", "x_rho_mean"):
        assert key in obj, key
    assert obj["overflowed"] == []
    assert obj["lambda_max"] == 0.2712673611111111
    assert obj["r"] == 12.0
    # the data moments are UsProblem's closed forms, and A is E[K(X)]
    assert obj["k_mean"] == obj["A"] == obj["K_mean"] == 2568.7105991575795
    assert obj["x_rho_mean"] == 6.5
    for key in ("k_mean_se", "x_rho_mean_se", "k_mean_exact", "x_rho_mean_exact"):
        assert key not in obj, key
    # nothing is drawn, so a second invocation writes the same bytes
    again = tmp_path / "c-again.json"
    assert main(["constants", "--problem", "us", "--s", "2", "--out", str(again)]) == 0
    assert again.read_bytes() == Path(out).read_bytes()
    # steep variant overflows B but keeps its log companion finite
    out26 = str(tmp_path / "c26.json")
    assert main(["constants", "--problem", "us", "--s", "26", "--out", out26]) == 0
    obj26 = json.loads(Path(out26).read_text())
    assert obj26["B"] is None
    assert "B" in obj26["overflowed"]
    assert math.isfinite(obj26["log10_B"])


def test_cli_constants_quadratic(tmp_path):
    out = str(tmp_path / "q.json")
    assert main(["constants", "--problem", "quadratic", "--eta", "0.5", "--out", out]) == 0
    obj = json.loads(Path(out).read_text())
    assert obj["problem"] == "quadratic"
    assert obj["meta"]["q"] == 1.0
    assert (obj["k_mean"], obj["x_rho_mean"]) == (2.0, 1.0)


def test_cli_gibbs(tmp_path):
    out = str(tmp_path / "g.json")
    code = main([
        "gibbs", "--problem", "quadratic", "--replicas", "64", "--steps", "300",
        "--samples", "20000", "--out", out,
    ])
    assert code == 0
    obj = json.loads(Path(out).read_text())
    for key in ("w1_vs_gibbs", "w2_vs_gibbs", "w2_vs_gaussian", "replicas_used"):
        assert key in obj
    assert obj["replicas_used"] == 64
    assert obj["w2_vs_gibbs"] < 0.5
    # the problem it ran: no s for the quadratic, the default penalty
    assert (obj["s"], obj["eta"], obj["r"], obj["theta0"], obj["seed"]) == (None, 0.0, 1.5, 0.0, 0)
    # its settings are TuslaConfig's, as for tusla run: a step above
    # lambda_max(0.01, 2) = 0.27 on u_s warns and still runs
    out = str(tmp_path / "warned.json")
    with pytest.warns(RuntimeWarning, match="exceeds lambda_max"):
        assert main(["gibbs", "--problem", "us", "--lam", "0.3", "--replicas", "8",
                     "--steps", "20", "--samples", "1000", "--out", out]) == 0
    obj = json.loads(Path(out).read_text())
    assert (obj["lam"], obj["replicas_used"]) == (0.3, 8)
    # law_report runs one seed of tusla; anything else is rejected unrun
    for cfg in (ExperimentConfig(problem="quadratic", algorithm="sgld", seeds=(0,)),
                ExperimentConfig(problem="quadratic", algorithm="tusla", seeds=(0, 1))):
        with pytest.raises(ValueError, match="replica law runs"):
            law_report(cfg, 8, 1000)


def test_cli_gibbs_us_runs_at_the_default_penalty(tmp_path):
    # --problem us at the default --eta runs at eta = 0.01 and r = s + 10, and
    # the JSON records the problem it ran
    for s, r in ((2, 12.0), (26, 36.0)):
        out = tmp_path / f"g{s}.json"
        assert main(["gibbs", "--problem", "us", "--s", str(s), "--steps", "200",
                     "--replicas", "16", "--samples", "2000", "--theta0", "0.5", "--seed", "3",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        law = tusla_terminal_law(
            TuslaConfig(0.01, 4.0, RegularizationParams(0.01, r)), 0.5, UsProblem(s=s),
            UniformDataSource(), n_steps=200, n_replicas=16, seed=3,
        )
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([3, 9])))
        gibbs = gibbs_sampler_1d(lambda x: u_s_value_array(x, s), 4.0, None, rng, n_draws=2000)
        w1, w2 = wasserstein_p_1d(law, gibbs)
        assert obj == {
            "problem": "us", "s": s, "eta": 0.01, "r": r, "theta0": 0.5, "seed": 3,
            "beta": 4.0, "lam": 0.01, "replicas": 16, "steps": 200, "replicas_used": 16,
            "w1_vs_gibbs": w1, "w2_vs_gibbs": w2,
            "w2_vs_gaussian": None, "ks_gibbs_vs_gaussian": None,
        }, s


def test_law_report_draws_one_gibbs_reference_per_input(monkeypatch):
    # a study of two lams at one seed draws its Gibbs reference once, and
    # takes the quadratic's KS statistic once; each report equals the one
    # made with a fresh draw; another s draws anew, and u_s takes no KS
    cfgs = [ExperimentConfig(problem=problem, algorithm="tusla", lam=lam, beta=4.0, s=2,
                             eta=0.0, n_steps=50, seeds=(3,))
            for problem, lam in (("quadratic", 0.08), ("quadratic", 0.04), ("us", 0.04))]
    fresh = []
    for cfg in cfgs:
        harness._gibbs_reference.cache_clear()
        fresh.append(law_report(cfg, 16, 2000))
    calls = {gibbs_sampler_1d: 0, ks_vs_gaussian: 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "gibbs_sampler_1d", counted(gibbs_sampler_1d))
    monkeypatch.setattr(harness, "ks_vs_gaussian", counted(ks_vs_gaussian))
    harness._gibbs_reference.cache_clear()
    assert [law_report(cfg, 16, 2000) for cfg in cfgs] == fresh
    assert list(calls.values()) == [2, 1]
    # the cached reference is read-only, and reading it draws nothing
    gibbs, ks = harness._gibbs_reference("quadratic", 2, 4.0, 3, 2000)
    assert not gibbs.flags.writeable
    assert ks == fresh[0]["ks_gibbs_vs_gaussian"] == ks_vs_gaussian(gibbs, 0.5)
    assert list(calls.values()) == [2, 1]


def test_law_report_samples_the_u_its_objective_records(monkeypatch):
    # the Gibbs reference's density reads u_s through u_s_value_array, the
    # function the objective column is written with: one call per grid of
    # nodes or of midpoints, at the report's s
    calls = []

    def counted(theta, s):
        calls.append((theta.size, s))
        return u_s_value_array(theta, s)

    monkeypatch.setattr(harness, "u_s_value_array", counted)
    cfg = ExperimentConfig(problem="us", algorithm="tusla", lam=0.04, beta=4.0, s=2,
                           eta=0.0, n_steps=50, seeds=(3,))
    harness._gibbs_reference.cache_clear()
    try:
        law_report(cfg, 16, 2000)
    finally:
        harness._gibbs_reference.cache_clear()
    cells = diagnostics._GIBBS_CELLS
    assert calls and len(calls) % 2 == 0
    assert set(calls) == {(cells + 1, 2), (cells, 2)}


@pytest.mark.parametrize("problem", ["us", "quadratic"])
def test_law_report_aligns_the_law_with_its_gibbs_reference_once(monkeypatch, problem):
    # W1 and W2 to the Gibbs draws share one interpolation of the law's quantiles;
    # the quadratic's W2 to N(0, 1/beta) takes quantiles of the law's own size
    cfg = ExperimentConfig(problem=problem, algorithm="tusla", lam=0.04, beta=4.0, s=2,
                           eta=0.0, n_steps=50, seeds=(3,))
    interpolating = []
    midpoint_quantiles = diagnostics._midpoint_quantiles

    def counted(sorted_vals, n):
        if sorted_vals.size != n:
            interpolating.append((sorted_vals.size, n))
        return midpoint_quantiles(sorted_vals, n)

    monkeypatch.setattr(diagnostics, "_midpoint_quantiles", counted)
    law_report(cfg, 16, 2000)
    assert interpolating == [(16, 2000)]


def test_cli_gibbs_runs_at_an_explicit_zero_penalty(tmp_path):
    # an explicit --eta 0 runs at 0 on u_s too, and the JSON records 0; on the
    # quadratic it is the default
    common = ["--steps", "200", "--replicas", "16", "--samples", "2000", "--seed", "3"]
    out = tmp_path / "us0.json"
    assert main(["gibbs", "--problem", "us", "--eta", "0", *common, "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    law = tusla_terminal_law(
        TuslaConfig(0.01, 4.0, RegularizationParams(0.0, 12.0)), 0.0, UsProblem(s=2),
        UniformDataSource(), n_steps=200, n_replicas=16, seed=3,
    )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([3, 9])))
    gibbs = gibbs_sampler_1d(lambda x: u_s_value_array(x, 2), 4.0, None, rng, n_draws=2000)
    assert obj["eta"] == 0.0 and obj["r"] == 12.0
    assert obj["w1_vs_gibbs"] == wasserstein_p_1d(law, gibbs)[0]
    quadratic = [tmp_path / "q-default.json", tmp_path / "q0.json"]
    assert main(["gibbs", *common, "--out", str(quadratic[0])]) == 0
    assert main(["gibbs", "--eta", "0", *common, "--out", str(quadratic[1])]) == 0
    assert quadratic[0].read_bytes() == quadratic[1].read_bytes()
    assert json.loads(quadratic[0].read_text())["eta"] == 0.0


@pytest.mark.parametrize("argv", [
    ["gibbs", "--r", "12"], ["gibbs", "--rep", "4"], ["gibbs", "--st", "5"],
    ["gibbs", "--sa", "10"], ["constants", "--n", "100"], ["run", "--pre", "paper-s2"],
])
def test_cli_rejects_abbreviated_options(tmp_path, argv):
    # gibbs has no --r (constants has): a prefix is not read as --replicas
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 64
    assert not out.exists()


@pytest.mark.parametrize("problem", ["us", "quadratic"])
def test_cli_gibbs_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, problem):
    argv = ["gibbs", "--problem", problem, "--steps", "300", "--replicas", "33",
            "--samples", "2000", "--theta0", "0.5", "--seed", "3"]
    for cpus in (1, 2):
        monkeypatch.setattr(optimizers, "_usable_cpus", lambda: cpus)
        assert main([*argv, "--out", str(tmp_path / f"{cpus}.json")]) == 0
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["constants", "--problem", "us", "--s", "2"],
    ["constants", "--problem", "quadratic", "--eta", "0.5"],
    ["gibbs", "--problem", "quadratic", "--replicas", "16", "--steps", "100",
     "--samples", "2000"],
])
def test_cli_json_on_stdout_is_the_out_file(tmp_path, capsysbinary, argv):
    out = tmp_path / "o.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


@pytest.mark.parametrize("theta0", ["1e6", "1e7"])
def test_json_artifacts_are_strict_json_when_a_chain_overflows(tmp_path, theta0):
    # from 1e6 the s = 26 SGLD chain leaves float range in its objective; from
    # 1e7 the oracle returns inf and theta itself becomes infinite
    assert main([
        "run", "--preset", "paper-s26", "--set", "algorithm=sgld", "--set", f"theta0={theta0}",
        "--set", "n_steps=10", "--set", "seeds=0", "--format", "json", "--out", str(tmp_path),
    ]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    rec = json.loads((tmp_path / "paper-s26-sgld-seed0.json").read_text(), parse_constant=reject)
    summary = json.loads((tmp_path / "paper-s26-summary.json").read_text(), parse_constant=reject)
    assert rec["diverged"] and rec["objective"][-1] is None
    assert summary["algorithms"]["sgld"]["per_seed"][0]["diverged"]


# ---------------------------------------------------------------------------
# public API

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_uses_exactly_the_public_api():
    block = README.read_text().split("## Quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "tusla"
        for alias in node.names
    ]
    exec(compile(block, "README quick start", "exec"), {})
    assert sorted(tusla.__all__) == sorted(imported)


def _python(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(tusla.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, check=check, timeout=120,
                          capture_output=True, text=True)


def _assert_import_skips(module: str) -> None:
    code = f"import sys, tusla.harness; assert {module!r} not in sys.modules, '{module} imported'"
    _python("-c", code)


def test_python_m_tusla_runs_the_cli(tmp_path):
    # __main__ -> main_entry -> sys.exit carries main's exit code
    out = tmp_path / "out"
    _python("-m", "tusla", "run", "--preset", "nn-demo", "--set", "seeds=0", "--set", "n_steps=5",
            "--out", str(out))
    assert len(list(out.iterdir())) == 4  # three chains and the summary
    assert _python("-m", "tusla", "frobnicate", check=False).returncode == 64


def test_import_does_not_load_multiprocessing():
    # the pool imports it only when more than one CPU is usable
    _assert_import_skips("multiprocessing")


def test_import_does_not_load_scipy():
    _assert_import_skips("scipy")


def test_import_does_not_load_statistics_or_decimal():
    # gaussian_quantiles imports statistics, which loads decimal, when it is called
    _assert_import_skips("statistics")
    _assert_import_skips("decimal")
