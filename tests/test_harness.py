"""Experiment harness tests: preset fidelity, CSV/JSON round-trips, config
files, output layout, determinism of written artifacts, and CLI exit codes."""
import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _mlp_reference as ref
from tusla import harness
from tusla.harness import (
    PRESETS,
    ExperimentConfig,
    _ProblemSetup,
    _parse_value,
    export_csv,
    load_config,
    main,
    parse_csv,
    run_config,
    run_preset,
    summary_jsonable,
)
from tusla.optimizers import RunRecord, run


# ---------------------------------------------------------------------------
# presets and config


def test_headline_preset_parameters():
    cfg = PRESETS["paper-s2"]
    assert cfg.problem == "us" and cfg.s == 2
    assert cfg.lam == 0.05
    assert cfg.beta == 0.05
    assert cfg.eta == 0.01
    assert cfg.resolved_r() == 12.0
    assert cfg.alpha == 10.0
    assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)
    assert cfg.theta0 == 1e3
    assert cfg.n_steps == 10_000
    assert cfg.seeds == tuple(range(16))
    assert cfg.algorithm == "all"
    assert cfg.divergence_threshold == 1e10

    steep = PRESETS["paper-s26"]
    assert steep.s == 26
    assert steep.resolved_r() == 36.0
    assert steep.lam == cfg.lam and steep.beta == cfg.beta and steep.eta == cfg.eta


def test_paper_s2_tusla_spread_is_the_ou_stationary_variance():
    # With r = s+10 the drift for |theta| >= 1 is about eta*theta/sqrt(lam)
    # whatever G is, so the paper-s2 TUSLA chains settle into an OU process
    # with stationary variance sqrt(lam)/(beta*eta) = 447. That spread, not a
    # stepping fault, keeps acceptance criterion 1's TUSLA median at 13.73.
    cfg = PRESETS["paper-s2"]
    tail = []
    for seed in cfg.seeds:
        setup = _ProblemSetup(cfg, seed)
        rec = run(setup.algo_config(cfg, "tusla"), setup.theta0, setup.oracle, setup.stream,
                  cfg.n_steps, rng_seed=seed, record_every=cfg.record_every,
                  divergence_threshold=cfg.divergence_threshold)
        assert not rec.diverged
        assert rec.step_indices[5000] == 5000
        tail.append(rec.thetas[5000:, 0])
    tail = np.concatenate(tail)
    predicted = math.sqrt(cfg.lam) / (cfg.beta * cfg.eta)
    assert abs(np.var(tail - 0.1) / predicted - 1.0) < 0.15
    assert np.mean(np.abs(tail) >= 1.0) > 0.9  # the saturated branch


def test_resolved_r_defaults():
    assert ExperimentConfig(problem="us", s=7).resolved_r() == 17.0
    assert ExperimentConfig(problem="quadratic").resolved_r() == 1.5
    assert ExperimentConfig(problem="one_neuron").resolved_r() == 2.5
    assert ExperimentConfig(problem="mlp", dims=(3, 4, 4)).resolved_r() == 4.0
    assert ExperimentConfig(problem="mlp", dims=(1, 2)).resolved_r() == 3.0
    assert ExperimentConfig(problem="us", r=7.5).resolved_r() == 7.5


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
        objectives=np.array([1.5, math.inf, 0.0]),
        final_theta=np.array([0.5, 2.0]),
        diverged=False,
        divergence_step=None,
    )


def test_csv_round_trip_is_bit_exact(tmp_path):
    rec = _toy_record()
    path = str(tmp_path / "toy.csv")
    export_csv(rec, path)
    cols = parse_csv(path)
    assert np.array_equal(cols["step"], rec.step_indices)
    assert cols["theta_norm"].tobytes() == rec.theta_norms.tobytes()
    assert cols["grad_norm"].tobytes() == rec.grad_norms.tobytes()
    assert cols["theta"].tobytes() == rec.thetas.tobytes()
    assert cols["objective"].tobytes() == rec.objectives.tobytes()


def test_csv_layout(tmp_path):
    rec = _toy_record()
    path = str(tmp_path / "layout.csv")
    export_csv(rec, path)
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    lines = raw.decode().split("\n")
    assert lines[0] == "step,theta_norm,theta,objective,grad_norm"
    assert len(lines) == 5  # header + 3 rows + trailing newline
    assert lines[-1] == ""
    # theta components are semicolon-joined inside one cell
    assert lines[1].split(",")[2].count(";") == 1


def test_csv_empty_optional_columns(tmp_path):
    rec = RunRecord(
        step_indices=np.array([0, 1], dtype=np.int64),
        theta_norms=np.array([1.0, 2.0]),
        grad_norms=np.array([3.0, math.nan]),
        thetas=None,
        objectives=None,
        final_theta=np.zeros(9),
        diverged=False,
        divergence_step=None,
    )
    path = str(tmp_path / "empty.csv")
    export_csv(rec, path)
    cols = parse_csv(path)
    assert cols["theta"] is None
    assert cols["objective"] is None
    assert open(path).readlines()[1] == "0,1,,,3\n"


def _reference_export_csv(record: RunRecord, path: str) -> None:
    # the original per-row formatter; export_csv must match it byte for byte
    def cell(v):
        return "%.17g" % v

    with open(path, "w", newline="") as f:
        f.write("step,theta_norm,theta,objective,grad_norm\n")
        for i in range(record.step_indices.size):
            theta_cell = (
                ";".join(cell(c) for c in record.thetas[i])
                if record.thetas is not None
                else ""
            )
            obj_cell = cell(record.objectives[i]) if record.objectives is not None else ""
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
    has_objective=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    drawn=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
)
def test_export_csv_matches_per_row_reference(tmp_path_factory, n_rows, d, has_objective,
                                              seed, drawn):
    rng = np.random.default_rng(seed)
    rec = RunRecord(
        step_indices=np.sort(rng.integers(0, 2**62, size=n_rows)).astype(np.int64),
        theta_norms=_random_cells(rng, n_rows, drawn),
        grad_norms=_random_cells(rng, n_rows, drawn[::-1]),
        thetas=_random_cells(rng, (n_rows, d), drawn) if d <= 8 else None,
        objectives=_random_cells(rng, n_rows, drawn) if has_objective else None,
        final_theta=np.zeros(d),
        diverged=False,
        divergence_step=None,
    )
    out = tmp_path_factory.mktemp("export")
    got, want = out / "got.csv", out / "want.csv"
    assert export_csv(rec, str(got)) == str(got)
    _reference_export_csv(rec, str(want))
    assert got.read_bytes() == want.read_bytes()


def test_parse_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        parse_csv(str(path))


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


def test_parse_value_forms():
    assert _parse_value("5") == 5 and isinstance(_parse_value("5"), int)
    assert _parse_value("0.5") == 0.5
    assert _parse_value("1,2.5,x") == (1, 2.5, "x")
    assert _parse_value("none") is None
    assert _parse_value("tanh") == "tanh"


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
    rec = json.load(open(f"{out}/j-tusla-seed0.json"))
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
        assert open(f"{a}/{fname}", "rb").read() == open(f"{b}/{fname}", "rb").read(), fname


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


def test_base_seed_shifts_the_seed_list():
    summary = run_config(_small_cfg(seeds=(0, 1, 2), algorithm="sgld"), base_seed=5)
    seeds = [r.seed for r in summary.algorithms["sgld"].results]
    assert seeds == [5, 6, 7]


def test_run_preset_with_overrides(tmp_path):
    summary = run_preset(
        "paper-s2", overrides={"n_steps": 3, "seeds": (0,), "algorithm": "tusla"},
    )
    assert summary.name == "paper-s2"
    assert summary.config.n_steps == 3
    with pytest.raises(ValueError):
        run_preset("missing-preset")
    with pytest.raises(ValueError):
        run_preset("paper-s2", overrides={"bogus": 1})


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


def test_cli_seed_flag_shifts_seeds(tmp_path):
    out = str(tmp_path / "cli")
    code = main([
        "run", "--preset", "paper-s2", "--out", out, "--seed", "5",
        "--set", "n_steps=2", "--set", "seeds=0,1", "--set", "algorithm=adam",
    ])
    assert code == 0
    summary = json.load(open(f"{out}/paper-s2-summary.json"))
    assert [r["seed"] for r in summary["algorithms"]["adam"]["per_seed"]] == [5, 6]


def test_cli_usage_errors(tmp_path):
    assert main(["run"]) == 64  # no --preset/--config
    assert main(["frobnicate"]) == 64
    assert main(["run", "--preset", "nope"]) == 64
    assert main(["run", "--preset", "paper-s2", "--set", "bogus=1",
                 "--out", str(tmp_path)]) == 64
    assert main(["run", "--preset", "paper-s2", "--set", "n_steps",
                 "--out", str(tmp_path)]) == 64


def test_cli_io_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_constants_json(tmp_path):
    out = str(tmp_path / "c.json")
    assert main(["constants", "--problem", "us", "--s", "2", "--out", out]) == 0
    obj = json.load(open(out))
    for key in ("A", "B", "a", "R", "L", "l", "lambda_max", "L2", "K_mean",
                "log10_B", "log10_a", "overflowed", "k_mean", "x_rho_mean"):
        assert key in obj, key
    assert obj["overflowed"] == []
    assert obj["lambda_max"] == 0.2712673611111111
    assert obj["r"] == 12.0
    # steep variant overflows B but keeps its log companion finite
    out26 = str(tmp_path / "c26.json")
    assert main(["constants", "--problem", "us", "--s", "26", "--out", out26]) == 0
    obj26 = json.load(open(out26))
    assert obj26["B"] is None
    assert "B" in obj26["overflowed"]
    assert math.isfinite(obj26["log10_B"])


def test_cli_constants_quadratic(tmp_path):
    out = str(tmp_path / "q.json")
    assert main(["constants", "--problem", "quadratic", "--eta", "0.5", "--out", out]) == 0
    obj = json.load(open(out))
    assert obj["problem"] == "quadratic"
    assert obj["meta"]["q"] == 1.0


def test_cli_gibbs(tmp_path):
    out = str(tmp_path / "g.json")
    code = main([
        "gibbs", "--problem", "quadratic", "--replicas", "64", "--steps", "300",
        "--samples", "20000", "--out", out,
    ])
    assert code == 0
    obj = json.load(open(out))
    for key in ("w1_vs_gibbs", "w2_vs_gibbs", "w2_vs_gaussian", "replicas_used"):
        assert key in obj
    assert obj["replicas_used"] == 64
    assert obj["w2_vs_gibbs"] < 0.5


def test_cli_check():
    assert main(["check", "--draws", "50"]) == 0
