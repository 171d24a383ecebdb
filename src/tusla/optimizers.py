"""TUSLA, SGLD, and ADAM configurations plus the recording run loop.

All three share one update-noise convention: the Langevin algorithms add
sqrt(2 * lam / beta) * xi with xi ~ N(0, I) per step; ADAM is noise-free.
``run`` wires a data stream and seeded substreams to the update, records
the states it visits, and stops early (flagging, not raising) at the first
state, theta0 included, whose norm fails ``norm <= min(threshold, DBL_MAX)``.
That one comparison is exactly "non-finite or above the threshold": nan fails
every comparison and only inf exceeds DBL_MAX. So a norm equal to the
threshold does not diverge, and under a threshold of inf only a non-finite
norm does. Divergence is an expected, reportable outcome for the unstable
baselines, so the loop suppresses IEEE overflow warnings and lets inf/nan
propagate to the check.

There are two loops, both stepped in blocks. A block draws k data rows (one
stream.sample_batch call) and k noise rows per chain at once (k holds at
most 4096 values and at most n_steps rows), which are the same values as k
per-step draws. The noise is pre-scaled once per block, noise_scale * xi
over the whole block: a float64 product rounds the same elementwise as at
the step, so the chain keeps its bits. ``run`` is ``run_seeds`` of one seed.
The oracle alone picks the loop (``scalar_route``). A one-parameter oracle
with evaluate_scalar runs its seeds one after another on the scalar loop, on
native floats with abs as the norm. Every other oracle runs the stacked
vector loop: the chains of R seeds step as the rows of one (R, d) array,
with one evaluate_rows call and one stacked update per step. Both loops run
the update of the one-step reference steppers in tests/_loop_reference.py
operation for operation. The stacked route takes its tamed drift from
overflow_safe_drift, one call per step; the scalar route writes the same
operations inline on native floats, which spares a call per step.

Row i of the stacked route is bitwise the single chain of seed i. Each row
draws from its own streams. Elementwise operations round per element,
whatever the shape, so only the reductions and the powers need care. The
row norms are safe_row_norms, safe_norm's branches per row with the dot
taken as a stacked BLAS dot. overflow_safe_drift takes each row's TUSLA
factor |theta|^(+-2r) as numpy's pow of the row's norm on every element of
the row, and numpy's pow gives an element the same bits whatever the array's
length or the element's offset. The scalar route takes libm's pow on the
native-float norm, which rounds differently in a few percent of elements,
so the two loops' TUSLA chains agree to ulps, not bitwise. A row that
diverges is finished at its own step and leaves the block.

Recording: the loops record only what they alone know, each recorded
state's step, theta and |G|, plus the divergence. ``_Recorder.finish``
derives the columns that are functions of the (k, d) state stack:
theta_norms = safe_row_norms(stack) is bitwise the loop's own norms.

Seeding: one master seed per run expands to independent substreams via
SeedSequence spawn keys: data = [seed, 0], update noise = [seed, 1, algo_id]
with each config's algo_id, 0/1/2 for TUSLA/SGLD/ADAM. Two algorithms given
the same seed therefore see the same data sequence but independent noise.
Gaussians come from numpy Generator.standard_normal (PCG64 + ziggurat).
One step, ``_chain_streams``, checks and seeds every chain loop.

``fork_map`` is the worker pool ``harness.run_config`` runs its chains
through; the replica law ``diagnostics.tusla_terminal_law`` forks nothing and
draws its data and noise on a thread of its own.
"""
from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, ClassVar, Optional

import numpy as np

from .gradient_oracle import (
    GradientOracle,
    ParameterVector,
    RegularizationParams,
    lambda_max,
    overflow_safe_drift,
    parameter_vector,
    safe_row_norms,
)

__all__ = [
    "TuslaConfig",
    "SgldConfig",
    "AdamConfig",
    "RunRecord",
    "run",
    "run_seeds",
    "scalar_route",
]


def _check_step_size(lam: float, name: str = "step size") -> None:
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {lam}")


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"inverse temperature must be positive and finite, got {beta}")


def _check_chain(n_steps: int, record_every: int, divergence_threshold: float) -> None:
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if not (divergence_threshold > 0.0):
        raise ValueError(f"divergence threshold must be positive, got {divergence_threshold}")


@dataclass(frozen=True)
class TuslaConfig:
    """Tamed Langevin configuration.

    lam: step size (the discretization step lambda).
    beta: inverse temperature; update noise has std sqrt(2 * lam / beta).
    reg: superlinear penalty (eta, r); eta = 0 runs the untamed-objective
        variant (the taming denominator still applies).

    A step size above lambda_max(eta, p) at moment order p = 2 warns that
    the moment bounds are not guaranteed; it still runs.
    """

    algo_id: ClassVar[int] = 0  # the update noise is substream [seed, 1, algo_id]
    lam: float
    beta: float
    reg: RegularizationParams

    def __post_init__(self) -> None:
        _check_step_size(self.lam)
        _check_beta(self.beta)
        cap = lambda_max(self.reg.eta, 2)
        if self.lam > cap:
            warnings.warn(
                f"step size {self.lam} exceeds lambda_max({self.reg.eta}, "
                f"p=2) = {cap:.3g}; moment bounds are not guaranteed",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class SgldConfig:
    """Unadjusted Langevin with the raw stochastic gradient (no taming)."""

    algo_id: ClassVar[int] = 1
    lam: float
    beta: float

    def __post_init__(self) -> None:
        _check_step_size(self.lam)
        _check_beta(self.beta)


@dataclass(frozen=True)
class AdamConfig:
    """ADAM hyperparameters (bias-corrected first/second moment EMAs)."""

    algo_id: ClassVar[int] = 2
    alpha: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        _check_step_size(self.alpha, "alpha")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not (0.0 <= b < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {b}")
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(f"eps must be finite and non-negative, got {self.eps}")


@dataclass
class RunRecord:
    """Column-oriented trajectory record.

    thetas is the (k, d) stack of the k recorded states; theta_norms is its
    safe_row_norms and final_theta its last row. grad_norms[i] is |G(theta, x)|
    at recorded state i when the step leaving it was taken (the raw oracle
    gradient, not the tamed drift); nan on the final state, which no step
    leaves. diverged is True iff some recorded norm exceeded the threshold
    or was non-finite; divergence_step is that step.
    """

    step_indices: np.ndarray
    theta_norms: np.ndarray
    grad_norms: np.ndarray
    thetas: np.ndarray
    diverged: bool
    divergence_step: Optional[int]

    @property
    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]

    @property
    def n_recorded(self) -> int:
        return int(self.step_indices.size)


def _streams(rng_seed: int, algo_id: int) -> tuple[np.random.Generator, np.random.Generator]:
    data = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rng_seed, 0])))
    noise = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rng_seed, 1, algo_id])))
    return data, noise


class _Recorder:
    """Collects each recorded state's step, theta and |G|, which only the
    loop knows. Both routes pass theta in their own form, a float on the
    scalar route and an array (never mutated afterwards) on the vector route,
    so recording a row allocates no numpy object. finish stacks the rows once
    into the (k, d) record stack and derives the state columns from it."""

    def __init__(self) -> None:
        self.idx: list[int] = []
        self.thetas: list = []
        self.grads: list[float] = []

    def add(self, n: int, theta, grad_norm: float) -> None:
        self.idx.append(n)
        self.thetas.append(theta)
        self.grads.append(grad_norm)

    def finish(self, n: int, theta, diverged: bool) -> RunRecord:
        self.add(n, theta, math.nan)  # final recorded state has no outgoing step
        thetas = np.array(self.thetas, dtype=np.float64).reshape(len(self.idx), -1)
        return RunRecord(
            step_indices=np.array(self.idx, dtype=np.int64),
            theta_norms=safe_row_norms(thetas),
            grad_norms=np.array(self.grads, dtype=np.float64),
            thetas=thetas,
            diverged=diverged,
            divergence_step=n if diverged else None,
        )


def scalar_route(oracle: GradientOracle) -> bool:
    """True when the oracle's chains run on native floats: a one-parameter
    oracle with evaluate_scalar. This is the one routing rule; every other
    oracle's chains take the stacked vector route."""
    return oracle.dim() == 1 and type(oracle).evaluate_scalar is not GradientOracle.evaluate_scalar


def _chain_streams(algorithm, oracle, n_steps, seeds, record_every=1, threshold=math.inf) -> list:
    """Check a chain, then each seed's (data, noise) substreams: [seed, 0] and
    [seed, 1, algorithm.algo_id]. Every chain loop is entered through here."""
    _check_chain(n_steps, record_every, threshold)
    if not isinstance(algorithm, (TuslaConfig, SgldConfig, AdamConfig)):
        raise TypeError(f"unsupported algorithm config: {type(algorithm).__name__}")
    if isinstance(algorithm, TuslaConfig):
        algorithm.reg.require_order(oracle.degree())
    return [_streams(seed, algorithm.algo_id) for seed in seeds]


def run(
    algorithm,
    theta0: ParameterVector,
    oracle: GradientOracle,
    stream,
    n_steps: int,
    rng_seed: int,
    record_every: int = 1,
    divergence_threshold: float = 1e10,
) -> RunRecord:
    """Run one algorithm from theta0 for up to n_steps, recording every
    record_every-th state plus the initial and final (or divergent) one in
    the record's (k, d) state stack; an objective is the caller's to take.
    This is run_seeds of the one seed rng_seed.

    algorithm: a TuslaConfig, SgldConfig, or AdamConfig.
    stream: data source with sample_batch(rng, n), which draws the same
        values as n calls of sample(rng).
    """
    return run_seeds(algorithm, [theta0], oracle, stream, n_steps, (rng_seed,),
                     record_every, divergence_threshold)[0]


def run_seeds(
    algorithm,
    theta0s: np.ndarray,
    oracle: GradientOracle,
    stream,
    n_steps: int,
    seeds,
    record_every: int = 1,
    divergence_threshold: float = 1e10,
) -> list[RunRecord]:
    """One record per seed: row i of theta0s (the oracle's dim() entries)
    run with rng seed seeds[i]. A scalar-route oracle runs the seeds on the
    scalar loop one after another; any other steps them as the rows of an
    (R, d) block, one evaluate_rows call and one stacked update per step.
    Record i is bitwise the run of theta0s[i] with seed seeds[i].
    """
    theta0s = np.array([parameter_vector(t) for t in theta0s])
    if len(seeds) == 0 or theta0s.shape != (len(seeds), oracle.dim()):
        raise ValueError(
            f"need one theta0 row of the oracle's size {oracle.dim()} per seed, "
            f"got {theta0s.shape} for {len(seeds)} seeds"
        )
    streams = _chain_streams(algorithm, oracle, n_steps, seeds, record_every, divergence_threshold)
    recs = [_Recorder() for _ in seeds]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if scalar_route(oracle):
            return [_run_chain(algorithm, theta, oracle, stream, n_steps,
                               *rngs, record_every, divergence_threshold, rec)
                    for theta, rngs, rec in zip(theta0s[:, 0].tolist(), streams, recs)]
        return _run_rows(
            algorithm, theta0s, oracle, stream, n_steps,
            streams, record_every, divergence_threshold, recs,
        )


def _block_size(n_steps: int, width: int = 1) -> int:
    # a block holds at most 4096 values per chain, and a short chain draws
    # (and, for a teacher stream, labels) only what it uses
    return max(1, min(4096 // width, n_steps))


def _rows(block: np.ndarray):
    # a 1-D block becomes native floats, which keeps scalar samples and the
    # scalar route off numpy scalars; a 2-D block is iterated as row views
    return block.tolist() if block.ndim == 1 else block


def _run_chain(
    algorithm, theta: float, oracle, stream, n_steps,
    data_rng, noise_rng, record_every, threshold, rec: _Recorder,
) -> RunRecord:
    # The scalar route: native floats throughout (see the module docstring).
    # The one norm of each new state serves the divergence check and the
    # next step's drift. A step's cost is interpreter work,
    # so it tests one algorithm flag (TUSLA's first) and counts down to records.
    evaluate, norm, sqrt = oracle.evaluate_scalar, abs, math.sqrt
    is_adam = isinstance(algorithm, AdamConfig)
    is_tusla = isinstance(algorithm, TuslaConfig)
    if is_adam:
        alpha, b1, b2, eps = algorithm.alpha, algorithm.beta1, algorithm.beta2, algorithm.eps
        m = v = 0.0
    else:
        lam = algorithm.lam
        noise_scale = math.sqrt(2.0 * lam / algorithm.beta)
    if is_tusla:
        eta, two_r, sqlam = algorithm.reg.eta, 2.0 * algorithm.reg.r, math.sqrt(lam)
        neg_two_r = -two_r
    limit = min(threshold, sys.float_info.max)

    nrm = norm(theta)
    if not nrm <= limit:
        return rec.finish(0, theta, True)

    block = _block_size(n_steps)
    # a recorded state is three appends, with no method call
    add_idx, add_theta, add_grad = rec.idx.append, rec.thetas.append, rec.grads.append
    n = 0
    countdown = 1  # steps until the next recorded state, which is n = 0
    while n < n_steps:
        # k data values and k noise values, the same draws as k per-step
        # calls; the noise is scaled once per block, and noise_scale * xi
        # rounds elementwise exactly as it would at the step
        k = min(block, n_steps - n)
        xis = repeat(None, k) if is_adam else (noise_scale * noise_rng.standard_normal(k)).tolist()
        for x, xi in zip(_rows(stream.sample_batch(data_rng, k)), xis):
            g = evaluate(theta, x)
            countdown -= 1
            if not countdown:
                countdown = record_every
                add_idx(n)
                add_theta(theta)
                add_grad(norm(g))
            if is_tusla:
                if nrm < 1.0:
                    t = nrm ** two_r
                    g = (g + (eta * t) * theta) / (1.0 + sqlam * t)
                else:
                    ti = nrm ** neg_two_r
                    g = (ti * g + eta * theta) / (ti + sqlam)
                theta = theta - lam * g + xi
            elif is_adam:
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * (g * g)
                mhat = m / (1.0 - b1 ** (n + 1))
                vhat = v / (1.0 - b2 ** (n + 1))
                try:
                    upd = mhat / (sqrt(vhat) + eps)
                except ZeroDivisionError:  # native floats raise on x/0; IEEE gives nan/inf
                    upd = math.nan if mhat == 0.0 else math.copysign(math.inf, mhat)
                theta = theta - alpha * upd
            else:
                theta = theta - lam * g + xi
            n += 1
            nrm = norm(theta)
            if not nrm <= limit:
                return rec.finish(n, theta, True)
    return rec.finish(n, theta, False)


def _run_rows(
    algorithm, thetas: np.ndarray, oracle, stream, n_steps,
    streams, record_every, threshold, recs: list[_Recorder],
) -> list[RunRecord]:
    # The stacked vector route: row i of thetas is chain live[i], which draws
    # from its own streams and records into recs[live[i]]. Every operation is
    # the single chain's, per row (see the module docstring). A chain that
    # diverges is finished at its step and its row leaves the block.
    out: list = [None] * len(recs)
    live = list(range(len(recs)))
    d = thetas.shape[1]
    is_adam = isinstance(algorithm, AdamConfig)
    is_tusla = isinstance(algorithm, TuslaConfig)
    if is_adam:
        alpha, b1, b2, eps = algorithm.alpha, algorithm.beta1, algorithm.beta2, algorithm.eps
        m = np.zeros_like(thetas)
        v = np.zeros_like(thetas)
    else:
        lam = algorithm.lam
        noise_scale = math.sqrt(2.0 * lam / algorithm.beta)
        noise_rngs = [noise_rng for _, noise_rng in streams]
    data_rngs = [data_rng for data_rng, _ in streams]
    evaluate = oracle.evaluate_rows
    limit = min(threshold, sys.float_info.max)

    n = 0
    nrms = safe_row_norms(thetas).tolist()
    xs = xis = None
    block = _block_size(n_steps, d)
    while True:
        gone = [i for i, a in enumerate(nrms) if not a <= limit]
        if gone:
            for i in gone:
                out[live[i]] = recs[live[i]].finish(n, thetas[i], True)
            keep = [i for i in range(len(live)) if i not in gone]
            if not keep:
                return out
            live = [live[i] for i in keep]
            nrms = [nrms[i] for i in keep]
            thetas = thetas[keep]
            if is_adam:
                m, v = m[keep], v[keep]
            if xs is not None:
                xs = xs[:, keep]
                if not is_adam:
                    xis = xis[:, keep]
        if n == n_steps:
            break
        if n % block == 0:
            # k data rows and k noise rows per chain, the same draws as k
            # per-step calls, stacked along axis 1: xs[j] holds step j's
            # sample of every live chain; noise is pre-scaled as on the
            # scalar route
            k = min(block, n_steps - n)
            xs = np.stack([stream.sample_batch(data_rngs[c], k) for c in live], axis=1)
            if not is_adam:
                xis = noise_scale * np.stack(
                    [noise_rngs[c].standard_normal((k, d)) for c in live], axis=1
                )
        j = n % block
        g = evaluate(thetas, _rows(xs[j]))
        if n % record_every == 0:
            gnorms = safe_row_norms(g).tolist()
            for i, c in enumerate(live):
                recs[c].add(n, thetas[i], gnorms[i])
        if is_adam:
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            mhat = m / (1.0 - b1 ** (n + 1))
            vhat = v / (1.0 - b2 ** (n + 1))
            thetas = thetas - alpha * (mhat / (np.sqrt(vhat) + eps))
        else:
            if is_tusla:
                g = overflow_safe_drift(g, thetas, nrms, lam, algorithm.reg)
            thetas = thetas - lam * g + xis[j]
        n += 1
        nrms = safe_row_norms(thetas).tolist()
    for i, c in enumerate(live):
        out[c] = recs[c].finish(n, thetas[i], False)
    return out


# ---------------------------------------------------------------------------
# worker pool, for run_config's chains


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform: run in process
        return 1


def fork_map(fn: Callable, tasks: list) -> tuple[list, int]:
    """[fn(task) for task in tasks], in task order, and the processes used.

    The tasks go to min(usable CPUs, tasks) forked workers, where the usable
    CPUs are this process's affinity mask (``taskset -c 0`` gives 1). They
    run here one after another when that is 1, when the platform cannot
    fork, or when this process is daemonic (a ``multiprocessing.Pool``
    worker may not have children). A fork start method lets each worker
    inherit fn (which may close over lambdas, oracles and streams) and the
    warning filters without pickling; only the tasks and their outcomes
    cross a pipe. A task's exception is raised here once the other tasks
    have finished; a worker that dies raises ``BrokenProcessPool``. Caveat:
    forking a multi-threaded process can leave a child blocked on a lock
    another thread held, and Python 3.12 and later warn
    (``DeprecationWarning``) when they fork one, as they may when a
    threaded BLAS runs.
    """
    workers = min(_usable_cpus(), len(tasks))
    if workers > 1:
        # imported here, so that import tusla does not pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            # unlike multiprocessing.Pool, the executor raises BrokenProcessPool
            # when a worker dies (a signal, the OOM killer) instead of hanging
            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_bind, initargs=(fn,),
            ) as pool:
                return list(pool.map(_call_bound, tasks)), workers
    return [fn(task) for task in tasks], 1


_bound_fn: Optional[Callable] = None  # set in pool workers only, by _bind


def _bind(fn: Callable) -> None:
    global _bound_fn
    _bound_fn = fn


def _call_bound(task):
    return _bound_fn(task)
