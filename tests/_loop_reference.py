"""Reference forms the package's ``run`` and drift must match bitwise.

The one-step forms are the specification of the update: the plain two-stage
drift (``regularized_gradient`` then ``tamed_gradient``), the scalar drift
``overflow_safe_drift_scalar``, the one-row drift ``row_drift_two_power``
(one clamped numpy power per branch, chosen by np.where), and the steppers
``tusla_step``, ``sgld_step`` and ``adam_step`` with their ``AdamState``.
``records_equal`` compares two records bit for bit.

The per-step loops are the two loops ``run`` used before its routes were
merged: a scalar loop on native floats with the drift inlined, and a vector
loop whose drift is ``row_drift_two_power``. Each draws one data value and one
unscaled noise value per step from a buffer and multiplies the noise by
sqrt(2 lam / beta) at the step. ``reference_run`` replays a whole ``run``
through them, into ``ReferenceRecorder``, which keeps the norm each loop
computed, so ``records_equal`` checks the record's derived norms against them.

The replica law ``reference_terminal_law`` is ``tusla_terminal_law`` as a
per-step loop, one data draw and one noise draw per step, with the drift
``overflow_safe_drift_batch_two_power`` (one clamped power per branch) and,
for u_s, the gradient ``us_evaluate_batch``. ``us_evaluate_batch_signed_pow``
is that gradient as it was before its odd power was taken on |d| and signed
by copysign.

The u_s estimators ``g_s_sample`` and ``g_s_unbiased`` are the nested forms
that ``UsProblem.evaluate_scalar`` computes in one frame, bit for bit.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from tusla.gradient_oracle import (
    GradientOracle,
    ParameterVector,
    RegularizationParams,
    _guard_pow,
    parameter_vector,
    safe_norm,
)
from tusla.optimizers import (
    AdamConfig,
    RunRecord,
    SgldConfig,
    TuslaConfig,
)
from tusla.problems import UsProblem


# ------------------------------------------------------------ one-step forms


def regularized_gradient(
    g: ParameterVector, theta: ParameterVector, reg: RegularizationParams
) -> ParameterVector:
    """H(theta, x) = G + eta * theta * |theta|^(2r).

    Plain formula, no overflow protection: |theta|^(2r) saturates to inf for
    large arguments under IEEE semantics. ``overflow_safe_drift`` is the
    drift actually stepped on.
    """
    if reg.eta == 0.0:
        return np.asarray(g, dtype=np.float64).copy()
    a = safe_norm(theta)
    return g + (reg.eta * np.float64(a) ** (2.0 * reg.r)) * theta


def tamed_gradient(
    h: ParameterVector, theta: ParameterVector, lam: float, r: float
) -> ParameterVector:
    """H / (1 + sqrt(lam) |theta|^(2r)), again in the plain overflow-prone form."""
    a = safe_norm(theta)
    return h / (1.0 + math.sqrt(lam) * np.float64(a) ** (2.0 * r))


def overflow_safe_drift_scalar(
    g: float, theta: float, lam: float, eta: float, r: float
) -> float:
    """Scalar H_lam, as ``run``'s scalar loop inlines it.

    The array drifts take the same operations per element, but numpy's pow
    may round |theta|^(+-2r) differently from this libm pow, so they agree
    with it to a few ulps of the terms, not bitwise.

    Never forms a power of |theta| larger than 1: the |theta| >= 1 branch
    multiplies numerator and denominator by |theta|^(-2r), which underflows
    harmlessly to 0 and leaves eta * theta / sqrt(lam) in the limit.
    Finite for finite theta and finite g; see overflow_safe_drift.
    """
    a = abs(theta)
    if a < 1.0:
        t = a ** (2.0 * r)
        return (g + (eta * t) * theta) / (1.0 + math.sqrt(lam) * t)
    ti = a ** (-2.0 * r)
    return (ti * g + eta * theta) / (ti + math.sqrt(lam))


def row_drift_two_power(
    g: np.ndarray, theta: np.ndarray, norm: float, lam: float, reg: RegularizationParams
) -> np.ndarray:
    """The drift of one row theta whose norm is norm, with one clamped power
    per branch: each element takes the row's norm in place of its |theta|,
    as ``overflow_safe_drift_batch_two_power`` takes |theta|. Bitwise
    ``overflow_safe_drift`` for r >= 1.5."""
    return _two_power_drift(g, theta, np.full(theta.shape, norm), lam, reg)


def _two_power_drift(g, theta, a, lam, reg):
    # a holds each element's norm: the row's, or the element's own |theta|
    sq = math.sqrt(lam)
    small = a < 1.0
    # np.where evaluates both branches; clamp each branch's power argument so
    # the inactive branch cannot raise or generate spurious inf.
    t = np.where(small, a, 0.0) ** (2.0 * reg.r)
    ti = np.where(small, 1.0, a) ** (-2.0 * reg.r)
    low = (g + (reg.eta * t) * theta) / (1.0 + sq * t)
    high = (ti * g + reg.eta * theta) / (ti + sq)
    return np.where(small, low, high)


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
    drift = row_drift_two_power(g, theta, safe_norm(theta), cfg.lam, cfg.reg)
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
        and eq(a.final_theta, b.final_theta)
        and a.diverged == b.diverged
        and a.divergence_step == b.divergence_step
    )


# ------------------------------------------------------------ u_s estimators


def _multiplier(x: float) -> float:
    # 12 * 1_{x in [0,1]} - 1: mean 1/11 under U[0, 11].
    return 11.0 if 0.0 <= x <= 1.0 else -1.0


def g_s_sample(theta: float, x: float, s: int) -> float:
    """Benchmark gradient estimator: the multiplier scales the whole bracket.

    Mean over x ~ U[0,11] is (1/11) * bracket, which is NOT u_s'(theta): the
    basin term enters squared and the wall term is scaled down elevenfold.
    The bracket also steps from 1 to 1/2 across |theta - 0.1| = 1, so the
    estimator is discontinuous there.
    """
    d = theta - 0.1
    pen = 0.0 if s == 0 else 2.0 * s * _guard_pow(d, 2 * s - 1)
    if abs(d) <= 1.0:
        bracket = d * d + pen
    else:
        bracket = (abs(d) - 0.5) + pen
    return _multiplier(x) * bracket


def g_s_unbiased(theta: float, x: float, s: int) -> float:
    """Estimator with the multiplier on the basin slope only.

    E[multiplier] = 1/11, so the mean over x ~ U[0,11] equals u_s'(theta)
    exactly on both branches, and the sample path is continuous in theta.
    """
    d = theta - 0.1
    pen = 0.0 if s == 0 else 2.0 * s * _guard_pow(d, 2 * s - 1)
    lin = d if abs(d) <= 1.0 else math.copysign(1.0, d)
    return _multiplier(x) * lin + pen


# ------------------------------------------------------------ per-step loops


class BlockDraws:
    """Buffers rng draws in blocks; identical sequence to one-at-a-time calls.

    A 1-D block yields native floats; a 2-D block yields its rows as views.
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
    return max(1, min(4096 // width, n_steps))


def _data_block(stream, rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    if hasattr(stream, "sample_batch"):
        return lambda n: stream.sample_batch(rng, n)
    return lambda n: np.array([stream.sample(rng) for _ in range(n)])


class ReferenceRecorder:
    """The recorder as the per-step loops fed it: each row with the norm the
    loop computed for its divergence check and drift."""

    def __init__(self) -> None:
        self.idx, self.thetas, self.norms, self.grads = [], [], [], []

    def add(self, n: int, theta, norm: float, grad_norm: float) -> None:
        self.idx.append(n)
        self.thetas.append(theta)
        self.norms.append(norm)
        self.grads.append(grad_norm)

    def finish(self, n: int, theta, norm: float, diverged: bool, step) -> RunRecord:
        self.add(n, theta, norm, math.nan)
        return RunRecord(
            step_indices=np.array(self.idx, dtype=np.int64),
            theta_norms=np.array(self.norms, dtype=np.float64),
            grad_norms=np.array(self.grads, dtype=np.float64),
            thetas=np.array(self.thetas, dtype=np.float64).reshape(len(self.idx), -1),
            diverged=diverged,
            divergence_step=step,
        )


def reference_run(
    algorithm,
    theta0,
    oracle,
    stream,
    n_steps: int,
    rng_seed: int,
    record_every: int = 1,
    divergence_threshold: float = 1e10,
) -> RunRecord:
    """``run`` through the per-step loops (no argument validation)."""
    theta0 = parameter_vector(theta0)
    # the update noise's substream is [seed, 1, algo_id], algo_id 0/1/2 for TUSLA/SGLD/ADAM
    algo_id = {TuslaConfig: 0, SgldConfig: 1, AdamConfig: 2}[type(algorithm)]
    data_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rng_seed, 0])))
    noise_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([rng_seed, 1, algo_id]))
    )
    rec = ReferenceRecorder()
    scalar = theta0.size == 1 and (
        type(oracle).evaluate_scalar is not GradientOracle.evaluate_scalar
    )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if scalar:
            return _run_scalar(
                algorithm, float(theta0[0]), oracle, stream, n_steps,
                data_rng, noise_rng, record_every, divergence_threshold, rec,
            )
        return _run_vector(
            algorithm, theta0, oracle, stream, n_steps,
            data_rng, noise_rng, record_every, divergence_threshold, rec,
        )


def _run_scalar(
    algorithm, th: float, oracle, stream, n_steps,
    data_rng, noise_rng, record_every, threshold, rec: ReferenceRecorder,
) -> RunRecord:
    evaluate = oracle.evaluate_scalar
    xs = BlockDraws(_data_block(stream, data_rng), _block_size(n_steps))
    is_adam = isinstance(algorithm, AdamConfig)
    if not is_adam:
        noise = BlockDraws(lambda n: noise_rng.standard_normal(n), _block_size(n_steps))
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

    n = 0
    norm0 = abs(th)
    if not math.isfinite(norm0) or norm0 > threshold:
        return rec.finish(0, th, norm0, True, 0)

    while n < n_steps:
        x = xs.next()
        g = evaluate(th, x)
        if n % record_every == 0:
            rec.add(n, th, abs(th), abs(g))
        if is_adam:
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            k = n + 1
            mhat = m / (1.0 - b1 ** k)
            vhat = v / (1.0 - b2 ** k)
            denom = math.sqrt(vhat) + eps
            if denom == 0.0:
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
    data_rng, noise_rng, record_every, threshold, rec: ReferenceRecorder,
) -> RunRecord:
    d = theta.size
    xs = BlockDraws(_data_block(stream, data_rng), _block_size(n_steps))
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
        noise = BlockDraws(lambda k: noise_rng.standard_normal((k, d)), _block_size(n_steps, d))

    diverged = False
    div_step: Optional[int] = None

    n = 0
    nrm = safe_norm(theta)
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
                drift = row_drift_two_power(g, theta, nrm, lam, algorithm.reg)
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


# ------------------------------------------------------------ replica law


def overflow_safe_drift_batch_two_power(
    g: np.ndarray, theta: np.ndarray, lam: float, reg: RegularizationParams
) -> np.ndarray:
    """The replica drift with one clamped power per branch, as it was before
    ``overflow_safe_drift_batch`` built both branches from one power."""
    return _two_power_drift(g, theta, np.abs(theta), lam, reg)


def us_odd_power(d: np.ndarray, e: int) -> np.ndarray:
    """d ** e for odd e as ``UsProblem.evaluate_batch`` takes it: on |d|,
    signed by copysign."""
    return np.copysign(np.abs(d) ** e, d)


def us_evaluate_batch(
    oracle: UsProblem, thetas: np.ndarray, xs: np.ndarray, odd_power=us_odd_power
) -> np.ndarray:
    """``UsProblem.evaluate_batch`` before it ran its last add and multiply in place."""
    d = thetas - 0.1
    s = oracle.s
    mult = np.where((xs >= 0.0) & (xs <= 1.0), 11.0, -1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        pen = np.zeros_like(d) if s == 0 else 2.0 * s * odd_power(d, 2 * s - 1)
        inner = np.abs(d) <= 1.0
        if oracle.unbiased:
            lin = np.where(inner, d, np.sign(d))
            return mult * lin + pen
        bracket = np.where(inner, d * d, np.abs(d) - 0.5) + pen
        return mult * bracket


def us_evaluate_batch_signed_pow(
    oracle: UsProblem, thetas: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """``us_evaluate_batch`` with the odd power on the signed d, as it was
    before the copysign form."""
    return us_evaluate_batch(oracle, thetas, xs, lambda d, e: d ** e)


def reference_terminal_law(
    algorithm,
    theta0: float,
    oracle: GradientOracle,
    stream,
    n_steps: int,
    n_replicas: int,
    seed: int,
) -> np.ndarray:
    """``tusla_terminal_law`` as a per-step loop: one data draw and one noise
    draw per step, the two-power drift and, for u_s, the out-of-place
    gradient."""
    lam, beta, reg = algorithm.lam, algorithm.beta, algorithm.reg
    if oracle.dim() != 1:
        raise ValueError("replica integrator handles 1-D parameters only")
    reg.require_order(oracle.meta().q)
    if isinstance(oracle, UsProblem):
        evaluate_batch = lambda thetas, xs: us_evaluate_batch(oracle, thetas, xs)
    else:
        evaluate_batch = lambda thetas, xs: oracle.evaluate_batch(thetas, oracle.batch_data(xs))
    data_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    noise_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1, 0])))
    thetas = np.full(n_replicas, float(theta0))
    scale = math.sqrt(2.0 * lam / beta)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            xs = stream.sample_batch(data_rng, n_replicas)
            g = evaluate_batch(thetas, xs)
            drift = overflow_safe_drift_batch_two_power(g, thetas, lam, reg)
            thetas = thetas - lam * drift + scale * noise_rng.standard_normal(n_replicas)
    finite = np.isfinite(thetas)
    if not np.all(finite):
        warnings.warn(
            f"{int(np.sum(~finite))} of {n_replicas} replicas diverged; dropped",
            RuntimeWarning,
            stacklevel=2,
        )
        thetas = thetas[finite]
    if thetas.size == 0:
        raise ValueError("all replicas diverged")
    return np.sort(thetas)
