"""Experiment harness: presets, batched seed runs, CSV/JSON export, CLI.

One ``ExperimentConfig`` describes a full comparison: a problem, one or all
algorithms, hyperparameters, and a seed list. ``run_preset`` executes every
(algorithm, seed) pair sequentially (runs are independent; order never
affects results), writes one CSV per run plus one JSON summary, and returns
the in-memory ``RunSummary``.

Determinism contract: the same invocation produces byte-identical CSV and
JSON files. Wall-clock timings are therefore reported on stdout and kept in
the returned summary object, but never written to the JSON file.

Exit codes: 0 success, 2 I/O failure, 64 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .diagnostics import (
    estimate_k_mean,
    estimate_x_rho_mean,
    gibbs_sampler_1d,
    ks_vs_gaussian,
    theory_constants,
    tusla_terminal_law,
    wasserstein_p_1d,
    wasserstein_to_gaussian,
)
from .gradient_oracle import (
    RegularizationParams,
    overflow_safe_drift,
    overflow_safe_drift_scalar,
    parameter_vector,
    safe_norm,
)
from .neural_net import Architecture, MlpOracle, TeacherStream, activation_by_name, risk
from .optimizers import (
    AdamConfig,
    RunRecord,
    SgldConfig,
    TuslaConfig,
    records_equal,
    run,
)
from .problems import (
    ConstantDataSource,
    OneNeuronProblem,
    QuadraticProblem,
    UniformDataSource,
    UsProblem,
    one_neuron_value,
    u_s_value,
)

__all__ = [
    "ExperimentConfig",
    "PRESETS",
    "SeedResult",
    "AlgoSummary",
    "RunSummary",
    "run_preset",
    "run_config",
    "export_csv",
    "parse_csv",
    "load_config",
    "main",
    "main_entry",
]

_PROBLEMS = ("us", "quadratic", "one_neuron", "mlp")
_ALGOS = ("tusla", "sgld", "adam")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark comparison."""

    problem: str = "us"
    algorithm: str = "all"
    s: int = 2
    lam: float = 0.05
    beta: float = 0.05
    eta: float = 0.01
    r: Optional[float] = None  # None: problem-appropriate default, see resolved_r
    alpha: float = 10.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    theta0: float = 1e3
    n_steps: int = 10_000
    seeds: tuple[int, ...] = tuple(range(16))
    record_every: int = 1
    divergence_threshold: float = 1e10
    out_path: Optional[str] = None
    dims: tuple[int, ...] = (3, 4, 4)  # mlp only
    activation: str = "tanh"  # mlp only

    def __post_init__(self) -> None:
        if self.problem not in _PROBLEMS:
            raise ValueError(f"problem must be one of {_PROBLEMS}, got {self.problem!r}")
        if self.algorithm not in _ALGOS + ("all",):
            raise ValueError(f"algorithm must be one of {_ALGOS + ('all',)}, got {self.algorithm!r}")
        if not (isinstance(self.s, int) and self.s >= 0):
            raise ValueError(f"s must be a non-negative integer, got {self.s}")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")

    def resolved_r(self) -> float:
        if self.r is not None:
            return float(self.r)
        if self.problem == "us":
            return float(self.s + 10)
        if self.problem == "quadratic":
            return 1.5
        if self.problem == "one_neuron":
            return 2.5
        n = len(self.dims) - 1  # mlp: q = 2n + 2, so q/2 + 1
        return float(n + 2)

    def algorithms(self) -> tuple[str, ...]:
        return _ALGOS if self.algorithm == "all" else (self.algorithm,)


PRESETS: dict[str, ExperimentConfig] = {
    # headline benchmark: steep-wall objective, huge initial displacement
    "paper-s2": ExperimentConfig(problem="us", s=2),
    "paper-s26": ExperimentConfig(problem="us", s=26),
    # small teacher-student network demo
    "nn-demo": ExperimentConfig(
        problem="mlp",
        dims=(3, 4, 4),
        activation="tanh",
        lam=0.01,
        beta=20.0,
        eta=0.01,
        alpha=0.05,
        theta0=0.0,
        n_steps=2000,
        seeds=tuple(range(8)),
        record_every=10,
    ),
    # Gaussian-target calibration runs
    "gibbs-quadratic": ExperimentConfig(
        problem="quadratic",
        algorithm="tusla",
        lam=0.01,
        beta=4.0,
        eta=0.0,
        theta0=0.0,
        n_steps=5000,
    ),
}


@dataclass(frozen=True)
class SeedResult:
    seed: int
    final_distance: float  # |theta_N - theta*|; nan when theta* is unknown
    final_theta_norm: float
    final_objective: float
    diverged: bool
    divergence_step: Optional[int]


@dataclass(frozen=True)
class AlgoSummary:
    algorithm: str
    results: tuple[SeedResult, ...]
    n_seeds: int
    n_non_crashed: int  # seeds that did not diverge; aggregates cover these
    median_final_distance: Optional[float]
    mean_final_distance: Optional[float]
    median_final_objective: Optional[float]
    wall_time_s: float


@dataclass(frozen=True)
class RunSummary:
    name: str
    config: ExperimentConfig
    algorithms: dict[str, AlgoSummary]
    wall_time_s: float


class _ProblemSetup:
    def __init__(self, cfg: ExperimentConfig, seed: int) -> None:
        r = cfg.resolved_r()
        self.theta_star: Optional[np.ndarray] = None
        if cfg.problem == "us":
            self.oracle = UsProblem(s=cfg.s)
            self.stream = UniformDataSource()
            self.theta0 = parameter_vector([cfg.theta0])
            self.objective = lambda v: u_s_value(float(v[0]), cfg.s)
            self.theta_star = np.array([0.1])
        elif cfg.problem == "quadratic":
            self.oracle = QuadraticProblem(d=1)
            self.stream = ConstantDataSource(0.0)
            self.theta0 = parameter_vector([cfg.theta0])
            self.objective = lambda v: 0.5 * float(v[0]) ** 2
            self.theta_star = np.array([0.0])
        elif cfg.problem == "one_neuron":
            self.oracle = OneNeuronProblem(eta=cfg.eta)
            self.stream = ConstantDataSource(np.array([1.0, 0.0]))
            self.theta0 = parameter_vector([cfg.theta0, cfg.theta0])
            eta = cfg.eta
            self.objective = lambda v: one_neuron_value(
                float(v[0]), float(v[1]), 1.0, 0.0, eta
            )
        else:  # mlp
            arch = Architecture(cfg.dims, activation_by_name(cfg.activation))
            teacher_rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([8675309]))
            )
            teacher = arch.init_params(teacher_rng)
            self.oracle = MlpOracle(arch)
            self.stream = TeacherStream(teacher)
            init_rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([seed, 2]))
            )
            self.theta0 = arch.init_params(init_rng).flatten()
            probe_rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([4242]))
            )
            probe = self.stream.sample_batch(probe_rng, 32)

            def objective(v, _arch=arch, _probe=probe):
                return float(np.mean(risk(_arch.unflatten(v), _probe, 0.0, 1.0)))

            self.objective = objective
        self.reg = RegularizationParams(eta=cfg.eta, r=r)

    def algo_config(self, cfg: ExperimentConfig, algo: str):
        if algo == "tusla":
            return TuslaConfig(lam=cfg.lam, beta=cfg.beta, reg=self.reg)
        if algo == "sgld":
            return SgldConfig(lam=cfg.lam, beta=cfg.beta)
        return AdamConfig(alpha=cfg.alpha, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)


def _seed_result(setup: _ProblemSetup, seed: int, record: RunRecord) -> SeedResult:
    if setup.theta_star is None:
        dist = math.nan
    else:
        dist = safe_norm(record.final_theta - setup.theta_star)
    return SeedResult(
        seed=seed,
        final_distance=dist,
        final_theta_norm=float(record.theta_norms[-1]),
        final_objective=float(record.objectives[-1]),
        diverged=record.diverged,
        divergence_step=record.divergence_step,
    )


def _aggregate(algo: str, results: list[SeedResult], wall: float) -> AlgoSummary:
    ok = [r for r in results if not r.diverged]
    med_d = mean_d = med_o = None
    if ok:
        dists = np.array([r.final_distance for r in ok])
        objs = np.array([r.final_objective for r in ok])
        if not np.any(np.isnan(dists)):
            med_d = float(np.median(dists))
            mean_d = float(np.mean(dists))
        med_o = float(np.median(objs))
    return AlgoSummary(
        algorithm=algo,
        results=tuple(results),
        n_seeds=len(results),
        n_non_crashed=len(ok),
        median_final_distance=med_d,
        mean_final_distance=mean_d,
        median_final_objective=med_o,
        wall_time_s=wall,
    )


def run_config(
    cfg: ExperimentConfig,
    name: str = "custom",
    out_dir: Optional[str] = None,
    fmt: str = "csv",
    base_seed: Optional[int] = None,
) -> RunSummary:
    """Execute every (algorithm, seed) pair of cfg; optionally write files."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    seeds = cfg.seeds
    if base_seed is not None:
        seeds = tuple(base_seed + i for i in range(len(cfg.seeds)))

    t_total = time.perf_counter()
    algos: dict[str, AlgoSummary] = {}
    out = None
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        out = out_dir

    for algo in cfg.algorithms():
        t_algo = time.perf_counter()
        results = []
        for seed in seeds:
            setup = _ProblemSetup(cfg, seed)
            record = run(
                setup.algo_config(cfg, algo),
                setup.theta0,
                setup.oracle,
                setup.stream,
                cfg.n_steps,
                rng_seed=seed,
                record_every=cfg.record_every,
                divergence_threshold=cfg.divergence_threshold,
                objective=setup.objective,
            )
            results.append(_seed_result(setup, seed, record))
            if out is not None:
                stem = f"{name}-{algo}-seed{seed}"
                if fmt == "csv":
                    export_csv(record, f"{out}/{stem}.csv")
                else:
                    _export_record_json(record, f"{out}/{stem}.json")
        algos[algo] = _aggregate(algo, results, time.perf_counter() - t_algo)

    summary = RunSummary(
        name=name,
        config=cfg,
        algorithms=algos,
        wall_time_s=time.perf_counter() - t_total,
    )
    if out is not None:
        _write_summary_json(summary, f"{out}/{name}-summary.json")
    return summary


def run_preset(
    name: str,
    overrides: Optional[dict] = None,
    out_dir: Optional[str] = None,
    fmt: str = "csv",
    base_seed: Optional[int] = None,
) -> RunSummary:
    """Run a named preset, optionally overriding config fields first."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    cfg = PRESETS[name]
    if overrides:
        cfg = _apply_overrides(cfg, overrides)
    return run_config(cfg, name=name, out_dir=out_dir, fmt=fmt, base_seed=base_seed)


def _apply_overrides(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(overrides) - fields
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return dataclasses.replace(cfg, **overrides)


# ---------------------------------------------------------------- export

_FMT = "%.17g"  # shortest representation that round-trips float64
_BLOCK_ROWS = 4096  # rows formatted per write; bounds the transient Python objects


def export_csv(record: RunRecord, path: str) -> str:
    """Write one trajectory as CSV (LF newlines, 17-significant-digit floats).

    Header is always step,theta_norm,theta,objective,grad_norm; the theta
    column holds semicolon-joined components when the dimension is <= 8 and
    is empty otherwise, objective is empty when no objective was recorded.

    Rows are formatted a block at a time: each column slice becomes Python
    numbers with one tolist(), the slices are interleaved row-major, and one
    %-format string with a row template per row formats the whole block.
    """
    cols = [record.step_indices, record.theta_norms]
    theta_fmt = obj_fmt = ""
    if record.thetas is not None:
        cols.extend(record.thetas.T)
        theta_fmt = ";".join([_FMT] * record.thetas.shape[1])
    if record.objectives is not None:
        cols.append(record.objectives)
        obj_fmt = _FMT
    cols.append(record.grad_norms)
    row = f"%d,{_FMT},{theta_fmt},{obj_fmt},{_FMT}\n"
    k, width = record.step_indices.size, len(cols)
    with open(path, "w", newline="") as f:
        f.write("step,theta_norm,theta,objective,grad_norm\n")
        for start in range(0, k, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, k)
            cells = [None] * ((stop - start) * width)
            for j, col in enumerate(cols):
                cells[j::width] = col[start:stop].tolist()
            f.write((row * (stop - start)) % tuple(cells))
    return path


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


def _export_record_json(record: RunRecord, path: str) -> None:
    obj = {
        "step": record.step_indices.tolist(),
        "theta_norm": record.theta_norms.tolist(),
        "theta": None if record.thetas is None else record.thetas.tolist(),
        "objective": None if record.objectives is None else record.objectives.tolist(),
        "grad_norm": _nan_safe_list(record.grad_norms),
        "final_theta": record.final_theta.tolist(),
        "diverged": record.diverged,
        "divergence_step": record.divergence_step,
    }
    _dump_json(obj, path)


def _nan_safe_list(arr: np.ndarray) -> list:
    return [None if not math.isfinite(v) else float(v) for v in arr]


def _seed_result_jsonable(r: SeedResult) -> dict:
    return {
        "seed": r.seed,
        "final_distance": None if math.isnan(r.final_distance) else r.final_distance,
        "final_theta_norm": _json_float(r.final_theta_norm),
        "final_objective": _json_float(r.final_objective),
        "diverged": r.diverged,
        "divergence_step": r.divergence_step,
    }


def _json_float(v: float):
    # json has no inf/nan literals; divergent runs produce both
    return float(v) if math.isfinite(v) else None


def summary_jsonable(summary: RunSummary) -> dict:
    """JSON form of a RunSummary. Timings are deliberately excluded so that
    identical invocations serialize byte-identically."""
    cfg = dataclasses.asdict(summary.config)
    cfg["r"] = summary.config.resolved_r()
    return {
        "name": summary.name,
        "config": cfg,
        "algorithms": {
            algo: {
                "n_seeds": a.n_seeds,
                "n_non_crashed": a.n_non_crashed,
                "median_final_distance": a.median_final_distance,
                "mean_final_distance": a.mean_final_distance,
                "median_final_objective": a.median_final_objective,
                "per_seed": [_seed_result_jsonable(r) for r in a.results],
            }
            for algo, a in summary.algorithms.items()
        },
    }


def _dump_json(obj, path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True))
        f.write("\n")


def _write_summary_json(summary: RunSummary, path: str) -> None:
    _dump_json(summary_jsonable(summary), path)


# ---------------------------------------------------------------- config files


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return tuple(_parse_value(p) for p in raw.split(","))
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("none", ""):
        return None
    return raw


def load_config(path: str) -> ExperimentConfig:
    """Flat key=value file -> ExperimentConfig ('#' comments, blank lines ok)."""
    overrides: dict = {}
    base = ExperimentConfig()
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            val = _parse_value(raw)
            if key == "preset":
                if val not in PRESETS:
                    raise ValueError(f"{path}:{ln}: unknown preset {val!r}")
                base = PRESETS[val]
                continue
            if key in ("seeds", "dims") and not isinstance(val, tuple):
                val = (val,)
            overrides[key] = val
    return _apply_overrides(base, overrides)


# ---------------------------------------------------------------- CLI

_EX_OK = 0
_EX_IO = 2
_EX_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); we want 64
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="tusla", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a preset or config-file experiment")
    src = pr.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS))
    src.add_argument("--config", help="flat key=value config file")
    pr.add_argument("--seed", type=int, default=None, help="base seed (seed list becomes base..base+n-1)")
    pr.add_argument("--out", default="runs", help="output directory")
    pr.add_argument("--format", choices=("csv", "json"), default="csv")
    pr.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a config field (repeatable)")

    pc = sub.add_parser("constants", help="print stability constants for a problem")
    pc.add_argument("--problem", choices=("us", "quadratic"), default="us")
    pc.add_argument("--s", type=int, default=2)
    pc.add_argument("--eta", type=float, default=0.01)
    pc.add_argument("--r", type=float, default=None)
    pc.add_argument("--p", type=int, default=2, help="moment order for lambda_max")
    pc.add_argument("--n-samples", type=int, default=20000, help="Monte-Carlo draws for data moments")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", default=None, help="write JSON here instead of stdout")

    pg = sub.add_parser("gibbs", help="compare a tamed-chain terminal law to its Gibbs target")
    pg.add_argument("--problem", choices=("quadratic", "us"), default="quadratic")
    pg.add_argument("--s", type=int, default=2)
    pg.add_argument("--beta", type=float, default=4.0)
    pg.add_argument("--lam", type=float, default=0.01)
    pg.add_argument("--eta", type=float, default=0.0)
    pg.add_argument("--replicas", type=int, default=512)
    pg.add_argument("--steps", type=int, default=20000)
    pg.add_argument("--theta0", type=float, default=0.0)
    pg.add_argument("--samples", type=int, default=100000, help="Gibbs sampler draws")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", default=None)

    pk = sub.add_parser("check", help="run quick invariant self-checks")
    pk.add_argument("--draws", type=int, default=500)
    pk.add_argument("--seed", type=int, default=0)
    return p


def _cmd_run(args) -> int:
    overrides: dict = {}
    for item in args.set:
        if "=" not in item:
            raise _UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        val = _parse_value(raw)
        if key in ("seeds", "dims") and not isinstance(val, tuple):
            val = (val,)
        overrides[key.strip()] = val

    if args.preset:
        summary = run_preset(
            args.preset, overrides=overrides or None, out_dir=args.out,
            fmt=args.format, base_seed=args.seed,
        )
    else:
        cfg = load_config(args.config)
        if overrides:
            cfg = _apply_overrides(cfg, overrides)
        summary = run_config(
            cfg, name="custom", out_dir=args.out, fmt=args.format, base_seed=args.seed,
        )

    print(f"{summary.name}: wrote per-run {args.format} files and "
          f"{summary.name}-summary.json under {args.out}/")
    for algo, a in summary.algorithms.items():
        med = "n/a" if a.median_final_distance is None else f"{a.median_final_distance:.6g}"
        mobj = "n/a" if a.median_final_objective is None else f"{a.median_final_objective:.6g}"
        print(
            f"  {algo}: non-crashed {a.n_non_crashed}/{a.n_seeds}, "
            f"median |theta-theta*| {med}, median objective {mobj}, "
            f"{a.wall_time_s:.2f}s"
        )
    print(f"total {summary.wall_time_s:.2f}s")
    return _EX_OK


def _cmd_constants(args) -> int:
    if args.problem == "us":
        oracle = UsProblem(s=args.s)
        stream = UniformDataSource()
        r = float(args.r) if args.r is not None else float(args.s + 10)
        k_mean, k_se = estimate_k_mean(oracle, stream, args.n_samples, args.seed)
        x_mean, x_se = estimate_x_rho_mean(oracle, stream, args.n_samples, args.seed)
        exact = {"k_mean_exact": oracle.k_mean_exact(), "x_rho_mean_exact": oracle.x_rho_mean_exact()}
    else:
        oracle = QuadraticProblem()
        stream = ConstantDataSource(0.0)
        r = float(args.r) if args.r is not None else 1.5
        k_mean, k_se = estimate_k_mean(oracle, stream, 64, args.seed)
        x_mean, x_se = estimate_x_rho_mean(oracle, stream, 64, args.seed)
        exact = {}
    reg = RegularizationParams(eta=args.eta, r=r)
    tc = theory_constants(oracle.meta(), reg, k_mean, args.p, x_mean)
    fields = dataclasses.asdict(tc)
    out = {
        # constants at top level (json null for the ones beyond float range;
        # their log10_* companions are always finite)
        **{k: (v if math.isfinite(v) else None) for k, v in fields.items()},
        "overflowed": sorted(k for k, v in fields.items() if not math.isfinite(v)),
        "problem": args.problem,
        "s": args.s if args.problem == "us" else None,
        "eta": args.eta,
        "r": r,
        "p": args.p,
        "meta": dataclasses.asdict(oracle.meta()),
        "k_mean": k_mean,
        "k_mean_se": k_se,
        "x_rho_mean": x_mean,
        "x_rho_mean_se": x_se,
        **exact,
    }
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return _EX_OK


def _cmd_gibbs(args) -> int:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([args.seed, 9])))
    if args.problem == "quadratic":
        oracle = QuadraticProblem()
        stream = ConstantDataSource(0.0)
        reg = RegularizationParams(eta=args.eta, r=1.5)
        u = lambda x: 0.5 * x * x
        sigma = 1.0 / math.sqrt(args.beta)
    else:
        oracle = UsProblem(s=args.s)
        stream = UniformDataSource()
        eta = args.eta if args.eta > 0 else 0.01
        reg = RegularizationParams(eta=eta, r=float(args.s + 10))
        from .problems import u_s_value_batch

        u = lambda x: u_s_value_batch(x, args.s)
        sigma = None

    law = tusla_terminal_law(
        oracle, stream, args.lam, args.beta, reg,
        theta0=args.theta0, n_steps=args.steps, n_replicas=args.replicas, seed=args.seed,
    )
    gibbs = gibbs_sampler_1d(u, args.beta, None, rng, n_samples=args.samples)
    out = {
        "problem": args.problem,
        "beta": args.beta,
        "lam": args.lam,
        "replicas": args.replicas,
        "steps": args.steps,
        "replicas_used": law.n,
        "w1_vs_gibbs": wasserstein_p_1d(law, gibbs, 1),
        "w2_vs_gibbs": wasserstein_p_1d(law, gibbs, 2),
        "w2_vs_gaussian": None if sigma is None else wasserstein_to_gaussian(law, sigma, 2),
        "ks_gibbs_vs_gaussian": None if sigma is None else ks_vs_gaussian(gibbs, sigma),
    }
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return _EX_OK


def _cmd_check(args) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        line = f"  [{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1

    rng = np.random.default_rng(args.seed)
    reg = RegularizationParams(eta=0.01, r=12.0)

    # overflow-safe drift agrees with its scalar twin
    worst = 0.0
    for _ in range(args.draws):
        th = float(rng.uniform(-3, 3) * 10 ** rng.uniform(0, 3))
        g = float(rng.normal() * 10 ** rng.uniform(0, 3))
        lam = float(10 ** rng.uniform(-4, 0))
        a = overflow_safe_drift(np.array([g]), np.array([th]), lam, reg)[0]
        b = overflow_safe_drift_scalar(g, th, lam, reg.eta, reg.r)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    report("drift scalar/vector agreement", worst < 1e-12, f"max rel diff {worst:.2e}")

    # growth envelope |G| <= K(x)(1 + |theta|^q) on the benchmark oracle
    prob = UsProblem(s=2)
    meta = prob.meta()
    bad = 0
    for _ in range(args.draws):
        th = float(rng.uniform(-1, 1) * 10 ** rng.uniform(-2, 2))
        x = float(rng.uniform(0, 11))
        lhs = abs(prob.evaluate_scalar(th, x))
        if lhs > prob.k_of(x) * (1.0 + abs(th) ** meta.q):
            bad += 1
    report("gradient growth envelope", bad == 0, f"{bad} violations / {args.draws}")

    # Wasserstein hand values
    w1 = wasserstein_p_1d(np.array([0.0, 1.0]), np.array([0.0, 3.0]), 1)
    w2 = wasserstein_p_1d(np.array([0.0, 1.0]), np.array([0.0, 3.0]), 2)
    report("wasserstein fixtures", w1 == 1.0 and abs(w2 - math.sqrt(2)) < 1e-15)

    # run determinism
    cfg = TuslaConfig(lam=0.05, beta=0.05, reg=reg)
    stream = UniformDataSource()
    r1 = run(cfg, [1000.0], prob, stream, 200, rng_seed=7)
    r2 = run(cfg, [1000.0], prob, stream, 200, rng_seed=7)
    report("run determinism", records_equal(r1, r2))

    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return _EX_OK if failures == 0 else 1


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns an exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "gibbs":
            return _cmd_gibbs(args)
        return _cmd_check(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return _EX_USAGE
    except (ValueError, KeyError) as e:
        print(f"invalid configuration: {e}", file=sys.stderr)
        return _EX_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return _EX_IO


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))
