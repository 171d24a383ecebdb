"""Per-step reference loops the block-stepped ``run`` must match bitwise.

These are the two loops ``run`` used before its routes were merged: a scalar
loop on native floats with the drift inlined, and a vector loop that calls
``overflow_safe_drift``. Each draws one data value and one unscaled noise value
per step from a buffer and multiplies the noise by sqrt(2 lam / beta) at the
step. ``reference_run`` replays a whole ``run`` through them.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from tusla.gradient_oracle import (
    GradientOracle,
    overflow_safe_drift,
    parameter_vector,
    safe_norm,
)
from tusla.optimizers import (
    ALGO_IDS,
    AdamConfig,
    RunRecord,
    SgldConfig,
    TuslaConfig,
    _Recorder,
)


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


def reference_run(
    algorithm,
    theta0,
    oracle,
    stream,
    n_steps: int,
    rng_seed: int,
    record_every: int = 1,
    divergence_threshold: float = 1e10,
    objective: Optional[Callable[[np.ndarray], float]] = None,
) -> RunRecord:
    """``run`` through the per-step loops (no argument validation)."""
    theta0 = parameter_vector(theta0)
    name = {TuslaConfig: "tusla", SgldConfig: "sgld", AdamConfig: "adam"}[type(algorithm)]
    algo_id = ALGO_IDS[name]
    data_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rng_seed, 0])))
    noise_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([rng_seed, 1, algo_id]))
    )
    rec = _Recorder(theta0.size, objective)
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
    data_rng, noise_rng, record_every, threshold, rec: _Recorder,
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
    data_rng, noise_rng, record_every, threshold, rec: _Recorder,
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
