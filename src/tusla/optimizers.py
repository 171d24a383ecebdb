"""TUSLA, SGLD, and ADAM configurations plus the recording run loop.

All three share one update-noise convention: the Langevin algorithms add
sqrt(2 * lam / beta) * xi with xi ~ N(0, I) per step; ADAM is noise-free.
``run`` wires a data stream and seeded substreams to the update, records
trajectory statistics, and stops early (flagging, not raising) when the
iterate norm exceeds the divergence threshold or turns non-finite. Divergence
is an expected, reportable outcome for the unstable baselines, so the loop
suppresses IEEE overflow warnings and lets inf/nan propagate to the check.

``run`` has one loop for every algorithm and dimension, stepped in blocks.
A block draws k data rows and k noise rows at once (k holds at most 4096
values and at most n_steps rows), which are the same values as k per-step
draws. The noise is pre-scaled once per block, noise_scale * xi over the
whole block: a float64 product rounds the same elementwise as at the step,
so the chain keeps its bits. A one-parameter oracle with evaluate_scalar
takes the scalar route, on native floats with abs as the norm; everything
else takes the vector route, on arrays with safe_norm. Both routes run the
update of the one-step reference steppers in tests/_loop_reference.py
operation for operation, with the tamed drift of overflow_safe_drift
written inline.

Seeding: one master seed per run expands to independent substreams via
SeedSequence spawn keys: data = [seed, 0], update noise = [seed, 1, algo_id]
with algo_id 0/1/2 for TUSLA/SGLD/ADAM. Two algorithms given the same seed
therefore see the same data sequence but independent noise. Gaussians come
from numpy Generator.standard_normal (PCG64 + ziggurat).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .gradient_oracle import (
    GradientOracle,
    ParameterVector,
    RegularizationParams,
    lambda_max,
    overflow_safe_drift,  # no caller here: the traced benchmark wraps this name
    parameter_vector,
    safe_norm,
)

__all__ = [
    "TuslaConfig",
    "SgldConfig",
    "AdamConfig",
    "RunRecord",
    "run",
    "ALGO_IDS",
]

ALGO_IDS = {"tusla": 0, "sgld": 1, "adam": 2}


def _check_step_size(lam: float) -> None:
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"step size must be positive and finite, got {lam}")


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"inverse temperature must be positive and finite, got {beta}")


@dataclass(frozen=True)
class TuslaConfig:
    """Tamed Langevin configuration.

    lam: step size (the discretization step lambda).
    beta: inverse temperature; update noise has std sqrt(2 * lam / beta).
    reg: superlinear penalty (eta, r); eta = 0 runs the untamed-objective
        variant (the taming denominator still applies).
    p_check: moment order used for the advisory step-size ceiling.
    """

    lam: float
    beta: float
    reg: RegularizationParams
    p_check: int = 2

    def __post_init__(self) -> None:
        _check_step_size(self.lam)
        _check_beta(self.beta)
        cap = lambda_max(self.reg.eta, self.p_check)
        if self.lam > cap:
            warnings.warn(
                f"step size {self.lam} exceeds lambda_max({self.reg.eta}, "
                f"p={self.p_check}) = {cap:.3g}; moment bounds are not guaranteed",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class SgldConfig:
    """Unadjusted Langevin with the raw stochastic gradient (no taming)."""

    lam: float
    beta: float

    def __post_init__(self) -> None:
        _check_step_size(self.lam)
        _check_beta(self.beta)


@dataclass(frozen=True)
class AdamConfig:
    """ADAM hyperparameters (bias-corrected first/second moment EMAs)."""

    alpha: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        _check_step_size(self.alpha)
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not (0.0 <= b < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {b}")
        if self.eps < 0.0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")


@dataclass
class RunRecord:
    """Column-oriented trajectory record.

    grad_norms[i] is |G(theta, x)| evaluated at the recorded state when the
    step leaving it was taken (the raw oracle gradient, not the tamed drift);
    it is nan on the final recorded state, which no step leaves. thetas is
    kept only for dimension <= 8. diverged is True iff some recorded norm
    exceeded the threshold or was non-finite; divergence_step is that step.
    """

    step_indices: np.ndarray
    theta_norms: np.ndarray
    grad_norms: np.ndarray
    thetas: Optional[np.ndarray]
    objectives: Optional[np.ndarray]
    final_theta: np.ndarray
    diverged: bool
    divergence_step: Optional[int]

    @property
    def n_recorded(self) -> int:
        return int(self.step_indices.size)


def _streams(rng_seed: int, algo_id: int) -> tuple[np.random.Generator, np.random.Generator]:
    data = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rng_seed, 0])))
    noise = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rng_seed, 1, algo_id])))
    return data, noise


def _has_scalar_path(oracle: GradientOracle) -> bool:
    return type(oracle).evaluate_scalar is not GradientOracle.evaluate_scalar


class _Recorder:
    """Collects one row per recorded state: step, theta, |theta| and |G|.

    Both routes pass theta in their own form, a float on the scalar route and
    an array (never mutated afterwards) on the vector route, so recording a
    row allocates no numpy object. finish stacks the theta rows once and
    evaluates the objective once per row; rows are held only while thetas or
    objectives need them.
    """

    def __init__(self, d: int, objective: Optional[Callable]) -> None:
        self.keep_theta = d <= 8
        self.objective = objective
        self.keep_rows = self.keep_theta or objective is not None
        self.idx: list[int] = []
        self.thetas: list = []
        self.norms: list[float] = []
        self.grads: list[float] = []

    def add(self, n: int, theta, norm: float, grad_norm: float) -> None:
        self.idx.append(n)
        self.norms.append(norm)
        self.grads.append(grad_norm)
        if self.keep_rows:
            self.thetas.append(theta)

    def finish(self, n: int, theta, norm: float, diverged: bool, step: Optional[int]) -> RunRecord:
        self.add(n, theta, norm, math.nan)  # final recorded state has no outgoing step
        rows = None
        if self.keep_rows:
            rows = np.array(self.thetas, dtype=np.float64).reshape(len(self.idx), -1)
        objectives = None
        if self.objective is not None:
            objectives = np.array([float(self.objective(row)) for row in rows])
        return RunRecord(
            step_indices=np.array(self.idx, dtype=np.int64),
            theta_norms=np.array(self.norms, dtype=np.float64),
            grad_norms=np.array(self.grads, dtype=np.float64),
            thetas=rows if self.keep_theta else None,
            objectives=objectives,
            final_theta=np.array(theta, dtype=np.float64, ndmin=1),
            diverged=diverged,
            divergence_step=step,
        )


def run(
    algorithm,
    theta0: ParameterVector,
    oracle: GradientOracle,
    stream,
    n_steps: int,
    rng_seed: int,
    record_every: int = 1,
    divergence_threshold: float = 1e10,
    objective: Optional[Callable[[np.ndarray], float]] = None,
) -> RunRecord:
    """Run one algorithm from theta0 for up to n_steps, recording every
    record_every-th state plus the initial and final (or divergent) one.

    algorithm: a TuslaConfig, SgldConfig, or AdamConfig.
    stream: data source with sample(rng) (and optionally sample_batch).
    objective: optional theta -> float, evaluated once per recorded state
        (after the loop, on that state's theta row) and recorded with it.
    """
    theta0 = parameter_vector(theta0)
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if not (divergence_threshold > 0.0):
        raise ValueError(f"divergence threshold must be positive, got {divergence_threshold}")

    if isinstance(algorithm, TuslaConfig):
        algorithm.reg.require_order(oracle.meta().q)
        algo_id = ALGO_IDS["tusla"]
    elif isinstance(algorithm, SgldConfig):
        algo_id = ALGO_IDS["sgld"]
    elif isinstance(algorithm, AdamConfig):
        algo_id = ALGO_IDS["adam"]
    else:
        raise TypeError(f"unsupported algorithm config: {type(algorithm).__name__}")

    data_rng, noise_rng = _streams(rng_seed, algo_id)
    rec = _Recorder(theta0.size, objective)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _run_chain(
            algorithm, theta0, oracle, stream, n_steps,
            data_rng, noise_rng, record_every, divergence_threshold, rec,
        )


def _block_size(n_steps: int, width: int = 1) -> int:
    # a block holds at most 4096 values, and a short chain draws (and, for a
    # teacher stream, labels) only what it uses
    return max(1, min(4096 // width, n_steps))


def _data_block(stream, rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    if hasattr(stream, "sample_batch"):
        return lambda n: stream.sample_batch(rng, n)
    return lambda n: np.array([stream.sample(rng) for _ in range(n)])


def _rows(block: np.ndarray):
    # a 1-D block becomes native floats, which keeps the scalar route off
    # numpy scalars; a 2-D block is iterated as row views
    return block.tolist() if block.ndim == 1 else block


def _run_chain(
    algorithm, theta: np.ndarray, oracle, stream, n_steps,
    data_rng, noise_rng, record_every, threshold, rec: _Recorder,
) -> RunRecord:
    # The route picks the oracle call, the norm and the row form, plus ADAM's
    # sqrt (see the module docstring). The one norm of each new state serves
    # the divergence check, the recorder and the next step's drift.
    d = theta.size
    if d == 1 and _has_scalar_path(oracle):
        theta = float(theta[0])
        evaluate, norm, sqrt, row = oracle.evaluate_scalar, abs, math.sqrt, ()
    else:
        evaluate, norm, sqrt, row = oracle.evaluate, safe_norm, np.sqrt, (d,)
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

    nrm = norm(theta)
    if not math.isfinite(nrm) or nrm > threshold:
        return rec.finish(0, theta, nrm, True, 0)

    draw_data = _data_block(stream, data_rng)
    block = _block_size(n_steps, d)
    add = rec.add
    n = 0
    while n < n_steps:
        # k data rows and k noise rows, the same draws as k per-step calls;
        # the noise is scaled once per block, and noise_scale * xi rounds
        # elementwise exactly as it would at the step
        k = min(block, n_steps - n)
        xis = repeat(None, k) if is_adam else _rows(
            noise_scale * noise_rng.standard_normal((k, *row))
        )
        for x, xi in zip(_rows(draw_data(k)), xis):
            g = evaluate(theta, x)
            if n % record_every == 0:
                add(n, theta, nrm, norm(g))
            if is_adam:
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
                if is_tusla:
                    if nrm < 1.0:
                        t = nrm ** two_r
                        g = (g + (eta * t) * theta) / (1.0 + sqlam * t)
                    else:
                        ti = nrm ** -two_r
                        g = (ti * g + eta * theta) / (ti + sqlam)
                theta = theta - lam * g + xi
            n += 1
            nrm = norm(theta)
            if not math.isfinite(nrm) or nrm > threshold:
                return rec.finish(n, theta, nrm, True, n)
    return rec.finish(n, theta, nrm, False, None)
