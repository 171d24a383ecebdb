"""Experiment harness: presets, parallel seed runs, CSV/JSON export, CLI.

One ``ExperimentConfig`` describes a full comparison: a problem, one or all
algorithms, hyperparameters, and a seed list; ``PRESETS`` names a few.
``run_config`` runs every (algorithm, seed) chain of a config, writes one CSV
or JSON per chain plus one JSON summary, and returns the in-memory
``RunSummary``. ``law_report`` measures the terminal law of a one-seed
``tusla`` config against its Gibbs reference, for ``tusla gibbs``.

Chains are independent: each draws from its own seeded streams, so the order
in which they run never affects a result. ``run_config`` therefore runs them
side by side in forked worker processes (its docstring says how). Workers
write the chains' files and return only their ``SeedResult``s; the parent
aggregates those in (algorithm, seed) order and writes the summary, so every
file has the bytes of a serial run.

Determinism contract: the same invocation produces byte-identical CSV and
JSON files, whatever the worker count. Wall-clock timings are therefore
reported on stdout and kept in the returned summary object, but never
written to the JSON file.

Exit codes: 0 success, 2 I/O failure, 64 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .diagnostics import (
    gaussian_quantiles,
    gibbs_sampler_1d,
    ks_vs_gaussian,
    theory_constants,
    tusla_terminal_law,
    wasserstein_p_1d,
)
from .gradient_oracle import RegularizationParams, parameter_vector, safe_norm
from .neural_net import Architecture, MlpOracle, TeacherStream, activation_by_name, risk
from .optimizers import (
    AdamConfig,
    RunRecord,
    SgldConfig,
    TuslaConfig,
    _check_beta,
    _check_chain,
    _check_step_size,
    fork_map,
    run,
    run_seeds,
    scalar_route,
)
from .problems import (
    ConstantDataSource,
    OneNeuronProblem,
    QuadraticProblem,
    UniformDataSource,
    UsProblem,
    one_neuron_value,
    u_s_value_array,
    u_s_value_batch,
)

__all__ = [
    "ExperimentConfig",
    "PRESETS",
    "SeedResult",
    "AlgoSummary",
    "RunSummary",
    "run_config",
    "law_report",
    "export_csv",
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
    r: Optional[float] = None  # None: s + 10 on u_s, else q/2 + 1 for the oracle's degree q
    alpha: float = 10.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    theta0: float = 1e3
    n_steps: int = 10_000
    seeds: tuple[int, ...] = tuple(range(16))
    record_every: int = 1
    divergence_threshold: float = 1e10
    dims: tuple[int, ...] = (3, 4, 4)  # mlp only
    activation: str = "tanh"  # mlp only

    def __post_init__(self) -> None:
        if self.problem not in _PROBLEMS:
            raise ValueError(f"problem must be one of {_PROBLEMS}, got {self.problem!r}")
        if self.algorithm not in _ALGOS + ("all",):
            raise ValueError(f"algorithm must be one of {_ALGOS + ('all',)}, got {self.algorithm!r}")
        if not (isinstance(self.s, int) and self.s >= 0):
            raise ValueError(f"s must be a non-negative integer, got {self.s}")
        _check_chain(self.n_steps, self.record_every, self.divergence_threshold)
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(self.seeds)}")
        if not math.isfinite(self.theta0):  # mlp draws its start, but the JSON records it
            raise ValueError(f"theta0 must be finite, got {self.theta0}")
        # every algorithm's settings, whichever algorithms run: the summary
        # records them all
        _check_step_size(self.lam, "lam")
        _check_beta(self.beta)
        AdamConfig(self.alpha, self.beta1, self.beta2, self.eps)
        # the mlp fields too, which the summary records for every problem
        Architecture(self.dims, activation_by_name(self.activation))

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
    workers: int = 1  # processes that ran the chains; 1 means in process


class _ProblemSetup:
    """One problem as every command builds it: the oracle, the data stream,
    the penalty reg, the objective and theta* (from the oracle, where it
    declares one); theta0(seed) gives each seed's start. The objective maps
    a record's (k, d) stack of recorded states to their k values. The penalty
    order r is cfg.r, else s + 10 on u_s (the presets' choice), else the least
    r that require_order admits, q/2 + 1 for the oracle's degree q."""

    def __init__(self, cfg: ExperimentConfig) -> None:
        self.arch: Optional[Architecture] = None
        if cfg.problem == "us":
            self.oracle = UsProblem(s=cfg.s)
            self.stream = UniformDataSource()
            self.fixed_theta0 = parameter_vector([cfg.theta0])
            self.objective = lambda rows: u_s_value_array(rows[:, 0], cfg.s)
        elif cfg.problem == "quadratic":
            self.oracle = QuadraticProblem(d=1)
            self.stream = ConstantDataSource(0.0)
            self.fixed_theta0 = parameter_vector([cfg.theta0])
            self.objective = lambda rows: [0.5 * v ** 2 for v in rows[:, 0].tolist()]
        elif cfg.problem == "one_neuron":
            self.oracle = OneNeuronProblem(eta=cfg.eta)
            self.stream = ConstantDataSource(np.array([1.0, 0.0]))
            self.fixed_theta0 = parameter_vector([cfg.theta0, cfg.theta0])
            eta = cfg.eta
            self.objective = lambda rows: [
                one_neuron_value(v[0], v[1], 1.0, 0.0, eta) for v in rows.tolist()
            ]
        else:  # mlp
            arch = self.arch = Architecture(cfg.dims, activation_by_name(cfg.activation))
            teacher_rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([8675309]))
            )
            teacher = arch.init_params(teacher_rng)
            self.oracle = MlpOracle(arch)
            self.stream = TeacherStream(arch, teacher)
            probe_rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([4242]))
            )
            probe = self.stream.sample_batch(probe_rng, 32)

            # one risk call takes every recorded theta on every probe row; a
            # state's mean over its row of 32 is bitwise its own probe mean
            self.objective = lambda rows, _arch=arch, _probe=probe: risk(
                _arch, rows, _probe, 0.0, 1.0
            ).mean(axis=1)
        star = getattr(self.oracle, "theta_star", None)
        self.theta_star = None if star is None else np.array([star])
        default_r = cfg.s + 10 if cfg.problem == "us" else self.oracle.degree() / 2 + 1
        self.reg = RegularizationParams(eta=cfg.eta, r=float(default_r if cfg.r is None else cfg.r))

    def theta0(self, seed: int) -> np.ndarray:
        if self.arch is None:
            return self.fixed_theta0
        init_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2])))
        return self.arch.init_params(init_rng)

    def algo_config(self, cfg: ExperimentConfig, algo: str):
        if algo == "tusla":
            self.reg.require_order(self.oracle.degree())
            return TuslaConfig(lam=cfg.lam, beta=cfg.beta, reg=self.reg)
        if algo == "sgld":
            return SgldConfig(lam=cfg.lam, beta=cfg.beta)
        return AdamConfig(alpha=cfg.alpha, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)


def _seed_result(setup: _ProblemSetup, seed: int, record: RunRecord, objectives) -> SeedResult:
    if setup.theta_star is None:
        dist = math.nan
    else:
        dist = safe_norm(record.final_theta - setup.theta_star)
    return SeedResult(
        seed=seed,
        final_distance=dist,
        final_theta_norm=float(record.theta_norms[-1]),
        final_objective=float(objectives[-1]),
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
) -> RunSummary:
    """Execute every (algorithm, seed) pair of cfg; optionally write files.

    Files go to out_dir as ``{name}-{algorithm}-seed{seed}.{fmt}``, one per
    chain, plus ``{name}-summary.json``, whose config is cfg as it ran: its r
    is the penalty order the chains used, the default when cfg.r is None.

    The chains run as tasks: one per (algorithm, seed) on the scalar route,
    which calls ``run``, and one per algorithm on the stacked vector route,
    which calls ``run_seeds`` over all seeds. A task writes its own files and
    returns its ``SeedResult``s and seconds; records never cross a pipe.
    ``AlgoSummary.wall_time_s`` is the summed task seconds of its chains.

    The tasks go to ``optimizers.fork_map``: min(usable CPUs, tasks) forked
    workers, which inherit the job (oracle, stream, objective) without
    pickling it, or this process alone when that is one, when the platform
    cannot fork, or when this process is daemonic. ``taskset -c 0`` gives a
    serial run. A task's exception is raised here once the other tasks have
    finished; a worker that dies raises ``BrokenProcessPool``.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    seeds = cfg.seeds

    t_total = time.perf_counter()
    setup = _ProblemSetup(cfg)
    # every algorithm's settings are checked before the first chain runs, so
    # an invalid one leaves no partial artifacts
    algorithms = {algo: setup.algo_config(cfg, algo) for algo in cfg.algorithms()}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    stacked = not scalar_route(setup.oracle, setup.theta0(seeds[0]).size)
    chain = dict(record_every=cfg.record_every, divergence_threshold=cfg.divergence_threshold)

    def run_task(task: tuple) -> tuple[list[SeedResult], float]:
        # one task's chains, their files written; its results and seconds
        t0 = time.perf_counter()
        algo, task_seeds = task
        algorithm, loop = algorithms[algo], (setup.oracle, setup.stream, cfg.n_steps)
        theta0s = [setup.theta0(seed) for seed in task_seeds]
        if stacked:
            records = run_seeds(algorithm, theta0s, *loop, task_seeds, **chain)
        else:
            records = [run(algorithm, theta0s[0], *loop, task_seeds[0], **chain)]
        results = []
        for seed, record in zip(task_seeds, records):
            # one objective call per record, on its (k, d) stack of states
            objectives = np.asarray(setup.objective(record.thetas), dtype=np.float64)
            results.append(_seed_result(setup, seed, record, objectives))
            if out_dir is not None:
                stem = f"{out_dir}/{name}-{algo}-seed{seed}"
                if fmt == "csv":
                    export_csv(record, objectives, f"{stem}.csv")
                else:
                    _export_record_json(record, objectives, f"{stem}.json")
        return results, time.perf_counter() - t0

    if stacked:  # every seed as one row of an (R, d) block
        tasks = [(algo, seeds) for algo in algorithms]
    else:
        tasks = [(algo, (seed,)) for algo in algorithms for seed in seeds]
    outcomes, workers = fork_map(run_task, tasks)

    algos: dict[str, AlgoSummary] = {}
    for algo in algorithms:
        mine = [out for (a, _), out in zip(tasks, outcomes) if a == algo]
        results = [r for task_results, _ in mine for r in task_results]
        algos[algo] = _aggregate(algo, results, sum(seconds for _, seconds in mine))
    summary = RunSummary(
        name=name,
        config=dataclasses.replace(cfg, r=setup.reg.r),
        algorithms=algos,
        wall_time_s=time.perf_counter() - t_total,
        workers=workers,
    )
    if out_dir is not None:
        _dump_json(summary_jsonable(summary), f"{out_dir}/{name}-summary.json")
    return summary


@lru_cache(maxsize=4)
def _gibbs_reference(s: Optional[int], beta: float, seed: int, n_draws: int):
    # law_report's Gibbs draws for u_s, or the quadratic at s None, and the
    # quadratic's KS statistic against N(0, 1/beta), once per input
    u = (lambda x: 0.5 * x * x) if s is None else (lambda x: u_s_value_batch(x, s))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 9])))
    gibbs = gibbs_sampler_1d(u, beta, None, rng, n_draws=n_draws)
    gibbs.samples.flags.writeable = False  # shared by every report at this input
    return gibbs, None if s is not None else ks_vs_gaussian(gibbs, 1.0 / math.sqrt(beta))


def law_report(cfg: ExperimentConfig, n_replicas: int, n_draws: int) -> dict:
    """The JSON ``tusla gibbs`` writes: n_replicas TUSLA chains of cfg at its
    one seed against n_draws Gibbs draws of exp(-beta u) (automatic support,
    substream [seed, 9], drawn once per process and input); the quadratic
    adds W2 to N(0, 1/beta). Every setting is checked before the law runs."""
    if cfg.algorithm != "tusla":
        raise ValueError(f"the replica law runs tusla only, got {cfg.algorithm!r}")
    if len(cfg.seeds) != 1:
        raise ValueError(f"the replica law runs one seed, got {len(cfg.seeds)}")
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    seed = cfg.seeds[0]
    setup = _ProblemSetup(cfg)
    law = tusla_terminal_law(
        setup.algo_config(cfg, "tusla"), cfg.theta0, setup.oracle, setup.stream,
        cfg.n_steps, n_replicas, seed,
    )
    quadratic = cfg.problem == "quadratic"
    sigma = 1.0 / math.sqrt(cfg.beta) if quadratic else None
    gibbs, ks = _gibbs_reference(None if quadratic else cfg.s, cfg.beta, seed, n_draws)
    w1, w2 = wasserstein_p_1d(law, gibbs)
    return {
        "problem": cfg.problem,
        "s": cfg.s if cfg.problem == "us" else None,
        "eta": cfg.eta,
        "r": setup.reg.r,
        "theta0": cfg.theta0,
        "seed": seed,
        "beta": cfg.beta,
        "lam": cfg.lam,
        "replicas": n_replicas,
        "steps": cfg.n_steps,
        "replicas_used": law.n,
        "w1_vs_gibbs": w1,
        "w2_vs_gibbs": w2,
        "w2_vs_gaussian": None if sigma is None
        else wasserstein_p_1d(law, gaussian_quantiles(sigma, law.n))[1],
        "ks_gibbs_vs_gaussian": ks,
    }


# ---------------------------------------------------------------- export

# 17 significant digits, always: every float64 round-trips; 0.1 is 0.10000000000000001
_FMT = b"%.17g"
_BLOCK_ROWS = 4096  # rows formatted per write; bounds the transient Python objects
_THETA_MAX_DIM = 8  # wider states are exported without their components


def export_csv(record: RunRecord, objectives: np.ndarray, path: str) -> str:
    """Write one trajectory and its objective values as CSV (LF, %.17g floats).

    Header is always step,theta_norm,theta,objective,grad_norm; the theta
    column holds semicolon-joined components when the dimension is <= 8 and
    is empty otherwise.

    Rows are bytes, formatted a block at a time: each column slice becomes
    Python numbers with one tolist(), the slices are interleaved row-major,
    and one %-format of a bytes row template per row formats the whole block
    (bytes % calls the float formatter that str % calls). A 1-D record whose
    norms are |theta| bitwise, as every record of run is, formats each norm
    once and shares the text: the theta cell is the norm's text, after a "-"
    where theta's sign bit is set and it is not nan (%.17g writes nan alike).
    """
    thetas, norms, d = record.thetas, record.theta_norms, record.thetas.shape[1]
    shared = d == 1 and np.array_equal(norms.view(np.int64), np.abs(thetas[:, 0]).view(np.int64))
    cols = [record.step_indices, norms]
    if shared:
        cols += [np.where(np.signbit(thetas[:, 0]) & ~np.isnan(thetas[:, 0]), b"-", b""), None]
        theta_fmt = b"%b%b"
    else:
        theta_fmt = b""
        if d <= _THETA_MAX_DIM:
            cols.extend(thetas.T)
            theta_fmt = b";".join([_FMT] * d)
    cols += [objectives, record.grad_norms]
    row = b",".join([b"%d", b"%b" if shared else _FMT, theta_fmt, _FMT, _FMT]) + b"\n"
    k, width = record.step_indices.size, len(cols)
    with open(path, "wb") as f:
        f.write(b"step,theta_norm,theta,objective,grad_norm\n")
        for start in range(0, k, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, k)
            cells = [None] * ((stop - start) * width)
            for j, col in enumerate(cols):
                if col is not None:
                    cells[j::width] = col[start:stop].tolist()
            if shared:  # the norms' text goes into the norm and the theta cells
                text = ((_FMT + b"\n") * (stop - start) % tuple(cells[1::width])).split(b"\n")
                cells[1::width] = cells[3::width] = text[:-1]
            f.write((row * (stop - start)) % tuple(cells))
    return path


def _export_record_json(record: RunRecord, objectives: np.ndarray, path: str) -> None:
    wide = record.thetas.shape[1] > _THETA_MAX_DIM  # null theta, as the CSV's empty cells
    obj = {
        "step": record.step_indices.tolist(),
        "theta_norm": _nan_safe_list(record.theta_norms),
        "theta": None if wide else [_nan_safe_list(t) for t in record.thetas],
        "objective": _nan_safe_list(objectives),
        "grad_norm": _nan_safe_list(record.grad_norms),
        "final_theta": _nan_safe_list(record.final_theta),
        "diverged": record.diverged,
        "divergence_step": record.divergence_step,
    }
    _dump_json(obj, path)


def _nan_safe_list(arr: np.ndarray) -> list:
    return [_json_float(v) for v in arr.tolist()]


def _json_float(v):
    # json has no inf/nan literals; divergent runs produce both
    return None if isinstance(v, float) and not math.isfinite(v) else v


def summary_jsonable(summary: RunSummary) -> dict:
    """JSON form of a RunSummary. Timings are deliberately excluded so that
    identical invocations serialize byte-identically."""
    return {
        "name": summary.name,
        "config": {k: _json_float(v) for k, v in dataclasses.asdict(summary.config).items()},
        "algorithms": {
            algo: {
                "n_seeds": a.n_seeds,
                "n_non_crashed": a.n_non_crashed,
                "median_final_distance": _json_float(a.median_final_distance),
                "mean_final_distance": _json_float(a.mean_final_distance),
                "median_final_objective": _json_float(a.median_final_objective),
                "per_seed": [
                    {k: _json_float(v) for k, v in dataclasses.asdict(r).items()}
                    for r in a.results
                ],
            }
            for algo, a in summary.algorithms.items()
        },
    }


def _dump_json(obj, path: Optional[str]) -> None:
    """Every JSON the harness writes: sorted keys, indent 2, a final LF; to
    stdout when path is None. Strict JSON: a NaN or Infinity float raises
    ValueError rather than writing a token no JSON parser accepts."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as f:
        f.write(text)


# ---------------------------------------------------------------- config files


# a field's declared type, spelled as in its annotation -> the parse of its text
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "Optional[float]": lambda raw: None if raw.lower() in ("none", "") else float(raw),
    "tuple[int, ...]": lambda raw: tuple(int(item) for item in raw.split(",")),
}


def _parse_override(item: str) -> tuple[str, object]:
    """One key=value override, as a config file line or a --set argument,
    its value parsed by the ExperimentConfig field's declared type: integer
    text in a float field is a float. A type _PARSERS lacks raises TypeError."""
    if "=" not in item:
        raise ValueError(f"expected key=value, got {item!r}")
    key, _, raw = item.partition("=")
    key, raw = key.strip(), raw.strip()
    declared = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    if key not in declared:
        raise ValueError(f"unknown config key {key!r}")
    if declared[key] not in _PARSERS:
        raise TypeError(f"no parser for {key}'s type {declared[key]}")
    try:
        return key, _PARSERS[declared[key]](raw)
    except ValueError:
        raise ValueError(f"{key} must be {declared[key]}, got {raw!r}") from None


def load_config(path: str) -> ExperimentConfig:
    """Flat key=value file -> ExperimentConfig ('#' comments, blank lines ok);
    a preset=<name> line sets the base that the other lines override."""
    overrides: dict = {}
    base = ExperimentConfig()
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, name = (part.strip() for part in line.partition("="))
            try:
                if key != "preset":
                    overrides.update([_parse_override(line)])
                elif name in PRESETS:
                    base = PRESETS[name]
                else:
                    raise ValueError(f"unknown preset {name!r}")
            except ValueError as e:
                raise ValueError(f"{path}:{ln}: {e}") from None
    return dataclasses.replace(base, **overrides)


# ---------------------------------------------------------------- CLI

_EX_OK = 0
_EX_IO = 2
_EX_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the subparsers are _Parsers too; no prefix such as gibbs --r may pass
    # for an option it abbreviates (--replicas)
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

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
    pc.add_argument("--out", default=None, help="write JSON here instead of stdout")

    pg = sub.add_parser("gibbs", help="compare a tamed-chain terminal law to its Gibbs target")
    pg.add_argument("--problem", choices=("quadratic", "us"), default="quadratic")
    pg.add_argument("--s", type=int, default=2)
    pg.add_argument("--beta", type=float, default=4.0)
    pg.add_argument("--lam", type=float, default=0.01)
    pg.add_argument("--eta", type=float, default=None,
                    help="penalty weight in [0, 1) (default 0.01 on u_s, 0 on the quadratic)")
    pg.add_argument("--replicas", type=int, default=512)
    pg.add_argument("--steps", type=int, default=20000)
    pg.add_argument("--theta0", type=float, default=0.0)
    pg.add_argument("--samples", type=int, default=100000, help="Gibbs sampler draws")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", default=None)
    return p


def _cmd_run(args) -> int:
    cfg = PRESETS[args.preset] if args.preset else load_config(args.config)
    cfg = dataclasses.replace(cfg, **dict(_parse_override(item) for item in args.set))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=tuple(range(args.seed, args.seed + len(cfg.seeds))))
    summary = run_config(cfg, name=args.preset or "custom", out_dir=args.out, fmt=args.format)

    print(f"{summary.name}: wrote per-run {args.format} files and "
          f"{summary.name}-summary.json under {args.out}/ "
          f"({summary.workers} worker{'s' if summary.workers > 1 else ''})")
    for algo, a in summary.algorithms.items():
        med = "n/a" if a.median_final_distance is None else f"{a.median_final_distance:.6g}"
        mobj = "n/a" if a.median_final_objective is None else f"{a.median_final_objective:.6g}"
        print(
            f"  {algo}: non-crashed {a.n_non_crashed}/{a.n_seeds}, "
            f"median |theta-theta*| {med}, median objective {mobj}, "
            f"{a.wall_time_s:.2f}s of chain time"
        )
    print(f"total {summary.wall_time_s:.2f}s")
    return _EX_OK


def _cmd_constants(args) -> int:
    setup = _ProblemSetup(
        ExperimentConfig(problem=args.problem, s=args.s, eta=args.eta, r=args.r)
    )
    oracle = setup.oracle
    # both problems have the data moments in closed form
    k_mean, x_mean = oracle.k_mean_exact(), oracle.x_rho_mean_exact()
    tc = theory_constants(oracle.meta(), setup.reg, k_mean, args.p, x_mean)
    fields = dataclasses.asdict(tc)
    out = {
        # constants at top level (json null for the ones beyond float range;
        # their log10_* companions are always finite)
        **{k: _json_float(v) for k, v in fields.items()},
        "overflowed": sorted(k for k, v in fields.items() if not math.isfinite(v)),
        "problem": args.problem,
        "s": args.s if args.problem == "us" else None,
        "eta": args.eta,
        "r": setup.reg.r,
        "p": args.p,
        "meta": dataclasses.asdict(oracle.meta()),
        "k_mean": k_mean,
        "x_rho_mean": x_mean,
    }
    _dump_json(out, args.out or None)
    return _EX_OK


def _cmd_gibbs(args) -> int:
    eta = (0.01 if args.problem == "us" else 0.0) if args.eta is None else args.eta
    cfg = ExperimentConfig(
        problem=args.problem, algorithm="tusla", s=args.s, lam=args.lam, beta=args.beta,
        eta=eta, theta0=args.theta0, n_steps=args.steps, seeds=(args.seed,),
    )
    _dump_json(law_report(cfg, args.replicas, args.samples), args.out or None)
    return _EX_OK


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns an exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # gibbs and constants write one file: a missing directory fails first
        out_dir = os.path.dirname(args.out or "") or "."
        if args.command != "run" and not os.path.isdir(out_dir):
            raise FileNotFoundError(f"no directory {out_dir!r} to write {args.out!r} into")
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "constants":
            return _cmd_constants(args)
        return _cmd_gibbs(args)
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
