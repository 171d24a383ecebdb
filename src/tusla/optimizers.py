"""TUSLA, SGLD, and ADAM steppers plus the recording run loop.

All three share one update-noise convention: the Langevin algorithms add
sqrt(2 * lam / beta) * xi with xi ~ N(0, I) per step; ADAM is noise-free.
``run`` wires a data stream and seeded substreams to the steppers, records
trajectory statistics, and stops early (flagging, not raising) when the
iterate norm exceeds the divergence threshold or turns non-finite. Divergence
is an expected, reportable outcome for the unstable baselines, so the loop
suppresses IEEE overflow warnings and lets inf/nan propagate to the check.

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
from typing import Callable, Optional

import numpy as np

from .gradient_oracle import (
    GradientOracle,
    ParameterVector,
    RegularizationParams,
    lambda_max,
    overflow_safe_drift,
    parameter_vector,
    safe_norm,
)

__all__ = [
    "TuslaConfig",
    "SgldConfig",
    "AdamConfig",
    "AdamState",
    "RunRecord",
    "tusla_step",
    "sgld_step",
    "adam_step",
    "adam_bias_corrected",
    "run",
    "records_equal",
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


@dataclass(frozen=True)
class AdamState:
    """Iterate plus raw EMAs after n completed steps (m = v = 0, n = 0 at init)."""

    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    n: int
    alpha: float
    beta1: float
    beta2: float
    eps: float

    def __post_init__(self) -> None:
        if not (self.theta.shape == self.m.shape == self.v.shape):
            raise ValueError("theta, m, v must share a shape")
        if self.n < 0:
            raise ValueError(f"step count must be non-negative, got {self.n}")
        if np.any(self.v < 0.0):  # nan compares False: post-divergence states pass
            raise ValueError("second-moment estimate went negative")

    @classmethod
    def initial(cls, theta0: ParameterVector, cfg: AdamConfig) -> "AdamState":
        theta0 = parameter_vector(theta0)
        z = np.zeros_like(theta0)
        return cls(theta0, z, z.copy(), 0, cfg.alpha, cfg.beta1, cfg.beta2, cfg.eps)


def tusla_step(
    theta: ParameterVector,
    x,
    oracle: GradientOracle,
    cfg: TuslaConfig,
    xi: ParameterVector,
) -> ParameterVector:
    """theta - lam * H_lam(theta, x) + sqrt(2 lam / beta) * xi."""
    g = oracle.evaluate(theta, x)
    drift = overflow_safe_drift(g, theta, cfg.lam, cfg.reg)
    return theta - cfg.lam * drift + math.sqrt(2.0 * cfg.lam / cfg.beta) * xi


def sgld_step(
    theta: ParameterVector,
    x,
    oracle: GradientOracle,
    cfg: SgldConfig,
    xi: ParameterVector,
) -> ParameterVector:
    """theta - lam * G(theta, x) + sqrt(2 lam / beta) * xi (untamed)."""
    g = oracle.evaluate(theta, x)
    return theta - cfg.lam * g + math.sqrt(2.0 * cfg.lam / cfg.beta) * xi


def adam_step(state: AdamState, x, oracle: GradientOracle) -> AdamState:
    """One bias-corrected ADAM update; returns the successor state."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = oracle.evaluate(state.theta, x)
        m = state.beta1 * state.m + (1.0 - state.beta1) * g
        v = state.beta2 * state.v + (1.0 - state.beta2) * (g * g)
        k = state.n + 1
        mhat = m / (1.0 - state.beta1 ** k)
        vhat = v / (1.0 - state.beta2 ** k)
        theta = state.theta - state.alpha * (mhat / (np.sqrt(vhat) + state.eps))
    return AdamState(theta, m, v, k, state.alpha, state.beta1, state.beta2, state.eps)


def adam_bias_corrected(state: AdamState) -> tuple[np.ndarray, np.ndarray]:
    """(m_hat, v_hat) implied by a post-step state: raw EMA / (1 - beta^n)."""
    if state.n == 0:
        raise ValueError("no steps taken yet; bias correction undefined at n = 0")
    return (
        state.m / (1.0 - state.beta1 ** state.n),
        state.v / (1.0 - state.beta2 ** state.n),
    )


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


def records_equal(a: RunRecord, b: RunRecord) -> bool:
    """Bitwise equality of two records (nan-safe)."""

    def eq(x, y):
        if x is None or y is None:
            return x is None and y is None
        return x.shape == y.shape and x.tobytes() == y.tobytes()

    return (
        eq(a.step_indices, b.step_indices)
        and eq(a.theta_norms, b.theta_norms)
        and eq(a.grad_norms, b.grad_norms)
        and eq(a.thetas, b.thetas)
        and eq(a.objectives, b.objectives)
        and eq(a.final_theta, b.final_theta)
        and a.diverged == b.diverged
        and a.divergence_step == b.divergence_step
    )


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
        if theta0.size == 1 and _has_scalar_path(oracle):
            return _run_scalar(
                algorithm, float(theta0[0]), oracle, stream, n_steps,
                data_rng, noise_rng, record_every, divergence_threshold, rec,
            )
        return _run_vector(
            algorithm, theta0, oracle, stream, n_steps,
            data_rng, noise_rng, record_every, divergence_threshold, rec,
        )


class _BlockDraws:
    """Buffers rng draws in blocks; identical sequence to one-at-a-time calls.

    A 1-D block yields native floats, which keeps the scalar loop off numpy
    scalars; a 2-D block yields its rows as views.
    """

    def __init__(self, draw_block: Callable[[int], np.ndarray], block: int = 4096) -> None:
        self._draw = draw_block
        self._block = block
        self._refill()

    def _refill(self) -> None:
        buf = self._draw(self._block)
        self._rows = buf.tolist() if buf.ndim == 1 else buf
        self._i = 0

    def next(self):
        if self._i == self._block:
            self._refill()
        v = self._rows[self._i]
        self._i += 1
        return v


def _block_size(n_steps: int, width: int = 1) -> int:
    # a block holds at most 4096 values, and a short chain draws (and, for a
    # teacher stream, labels) only what it uses
    return max(1, min(4096 // width, n_steps))


def _data_block(stream, rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    if hasattr(stream, "sample_batch"):
        return lambda n: stream.sample_batch(rng, n)
    return lambda n: np.array([stream.sample(rng) for _ in range(n)])


def _run_scalar(
    algorithm, th: float, oracle, stream, n_steps,
    data_rng, noise_rng, record_every, threshold, rec: _Recorder,
) -> RunRecord:
    # Hot loop on native floats; the drift lines mirror
    # overflow_safe_drift_scalar exactly (sqrt hoisted, same op order).
    evaluate = oracle.evaluate_scalar
    xs = _BlockDraws(_data_block(stream, data_rng), _block_size(n_steps))
    is_adam = isinstance(algorithm, AdamConfig)
    if not is_adam:
        noise = _BlockDraws(lambda n: noise_rng.standard_normal(n), _block_size(n_steps))
        lam = algorithm.lam
        noise_scale = math.sqrt(2.0 * lam / algorithm.beta)
        sqlam = math.sqrt(lam)
        if isinstance(algorithm, TuslaConfig):
            eta, r = algorithm.reg.eta, algorithm.reg.r
        else:
            eta, r = None, None
        two_r = None if r is None else 2.0 * r
    else:
        alpha, b1, b2, eps = algorithm.alpha, algorithm.beta1, algorithm.beta2, algorithm.eps
        m = v = 0.0

    diverged = False
    div_step: Optional[int] = None
    add = rec.add  # local alias

    n = 0
    norm0 = abs(th)
    if not math.isfinite(norm0) or norm0 > threshold:
        return rec.finish(0, th, norm0, True, 0)

    while n < n_steps:
        x = xs.next()
        g = evaluate(th, x)
        if n % record_every == 0:
            add(n, th, abs(th), abs(g))
        if is_adam:
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            k = n + 1
            mhat = m / (1.0 - b1 ** k)
            vhat = v / (1.0 - b2 ** k)
            denom = math.sqrt(vhat) + eps  # v >= 0 or nan; sqrt never raises
            if denom == 0.0:
                # native floats raise on x/0; reproduce IEEE nan/inf instead
                upd = math.nan if mhat == 0.0 else math.copysign(math.inf, mhat)
            else:
                upd = mhat / denom
            th = th - alpha * upd
        else:
            a = abs(th)
            if eta is None:
                drift = g
            elif a < 1.0:
                t = a ** two_r
                drift = (g + (eta * t) * th) / (1.0 + sqlam * t)
            else:
                ti = a ** (-two_r)
                drift = (ti * g + eta * th) / (ti + sqlam)
            th = th - lam * drift + noise_scale * noise.next()
        n += 1
        if not math.isfinite(th) or abs(th) > threshold:
            diverged = True
            div_step = n
            break

    return rec.finish(n, th, abs(th), diverged, div_step)


def _run_vector(
    algorithm, theta: np.ndarray, oracle, stream, n_steps,
    data_rng, noise_rng, record_every, threshold, rec: _Recorder,
) -> RunRecord:
    # Update formulas below replicate tusla_step / sgld_step / adam_step
    # operation-for-operation (the base-case test pins that) while sharing
    # one oracle evaluation between the step and the grad_norm column. Data
    # and noise rows come in blocks, the same draws as per-step calls.
    d = theta.size
    xs = _BlockDraws(_data_block(stream, data_rng), _block_size(n_steps))
    is_adam = isinstance(algorithm, AdamConfig)
    is_tusla = isinstance(algorithm, TuslaConfig)
    if is_adam:
        alpha, b1, b2, eps = (
            algorithm.alpha, algorithm.beta1, algorithm.beta2, algorithm.eps,
        )
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
    else:
        lam = algorithm.lam
        noise_scale = math.sqrt(2.0 * lam / algorithm.beta)
        noise = _BlockDraws(lambda k: noise_rng.standard_normal((k, d)), _block_size(n_steps, d))

    diverged = False
    div_step: Optional[int] = None

    n = 0
    nrm = safe_norm(theta)  # |theta| of the current state, reused by the recorder
    if not math.isfinite(nrm) or nrm > threshold:
        return rec.finish(0, theta, nrm, True, 0)

    while n < n_steps:
        x = xs.next()
        g = oracle.evaluate(theta, x)
        if n % record_every == 0:
            rec.add(n, theta, nrm, safe_norm(g))
        if is_adam:
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            k = n + 1
            mhat = m / (1.0 - b1 ** k)
            vhat = v / (1.0 - b2 ** k)
            theta = theta - alpha * (mhat / (np.sqrt(vhat) + eps))
        else:
            xi = noise.next()
            if is_tusla:
                drift = overflow_safe_drift(g, theta, lam, algorithm.reg)
                theta = theta - lam * drift + noise_scale * xi
            else:
                theta = theta - lam * g + noise_scale * xi
        n += 1
        nrm = safe_norm(theta)
        if not math.isfinite(nrm) or nrm > threshold:
            diverged = True
            div_step = n
            break

    return rec.finish(n, theta, nrm, diverged, div_step)
