"""Stability constants and sampling-law diagnostics.

Two groups:

* ``theory_constants`` materializes every constant in the convergence
  analysis (dissipativity pair (A, B), contraction/growth constants, the
  admissible step ceiling) from an oracle's declared metadata, for
  ``tusla constants``. The B constant is astronomically large for
  high-degree problems and can exceed float64 range; log10 companions are
  always finite. The grid check of the envelope
  <theta, h(theta)> >= A |theta|^2 - B is test code (``tests/_suites.py``).
* 1-D law tooling: an inverse-CDF Gibbs sampler for densities proportional
  to exp(-beta u), order-statistics Wasserstein distances, and a vectorized
  replica integrator for terminal laws of the tamed Langevin update. Laws
  and Gibbs draws are sorted 1-D float64 arrays.
"""
from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gradient_oracle import (
    GradientOracle,
    OracleMeta,
    RegularizationParams,
    _operand,
    lambda_max,
    overflow_safe_drift_batch,
)
from .optimizers import TuslaConfig, _block_size, _chain_streams

__all__ = [
    "TheoryConstants",
    "theory_constants",
    "gibbs_sampler_1d",
    "wasserstein_p_1d",
    "gaussian_quantiles",
    "ks_vs_gaussian",
    "tusla_terminal_law",
]


@dataclass(frozen=True)
class TheoryConstants:
    """Constants of the moment/contraction analysis for one (oracle, reg) pair.

    A, B: dissipativity envelope <theta, h(theta)> >= A |theta|^2 - B.
    a, R: local contraction rate and the radius where it kicks in.
    L2: data-averaged Lipschitz constant L1 * E[(1 + |X|)^rho].
    L, l: drift Lipschitz constant L1 + 8 r eta and envelope power 2r + 1.
    lambda_max: admissible step ceiling for moment order p.
    K_mean: E[K(X)] for the oracle's growth envelope.
    B (and occasionally a) overflow float64 for high-degree problems; the
    log10_* companions are exact in log space and always finite.
    """

    A: float
    B: float
    a: float
    R: float
    L2: float
    L: float
    l: float
    lambda_max: float
    K_mean: float
    log10_B: float
    log10_a: float


def _pow10(log10_value: float) -> float:
    try:
        return 10.0 ** log10_value
    except OverflowError:
        return math.inf


def theory_constants(
    meta: OracleMeta,
    reg: RegularizationParams,
    k_mean: float,
    p: int,
    x_rho_mean: float = 1.0,
) -> TheoryConstants:
    """Assemble TheoryConstants from declared metadata and data moments.

    k_mean: E[K(X)], e.g. the oracle's closed-form k_mean_exact().
    x_rho_mean: E[(1 + |X|)^rho] (enters L2).
    Requires eta > 0: without the superlinear penalty there is no
    dissipativity envelope to certify.
    """
    if reg.eta <= 0.0:
        raise ValueError(
            "eta = 0: no penalty-driven envelope; dissipativity must hold natively"
        )
    reg.require_order(meta.q)
    if not (math.isfinite(k_mean) and k_mean > 0.0):
        raise ValueError(f"k_mean must be positive and finite, got {k_mean}")
    if not (math.isfinite(x_rho_mean) and x_rho_mean >= 1.0):
        raise ValueError(f"x_rho_mean must be >= 1, got {x_rho_mean}")

    q, eta, r = meta.q, reg.eta, reg.r
    A = k_mean
    log10_B = (q + 2.0) * math.log10(3.0 * A) - (q + 1.0) * math.log10(eta)
    L2 = meta.L1 * x_rho_mean
    # R: radius beyond which the penalty dominates the raw gradient field
    r1 = (2.0 ** (3.0 * (q - 1.0) + 1.0) * L2 / eta) ** (1.0 / (2.0 * r - q))
    r2 = ((2.0 ** q) * L2 / eta) ** (1.0 / (2.0 * r))
    R = max(r1, r2)
    log10_a = math.log10(L2) + (q - 1.0) * math.log10(1.0 + 2.0 * R)
    return TheoryConstants(
        A=A,
        B=_pow10(log10_B),
        a=_pow10(log10_a),
        R=R,
        L2=L2,
        L=meta.L1 + 8.0 * r * eta,
        l=2.0 * r + 1.0,
        lambda_max=lambda_max(eta, p),
        K_mean=k_mean,
        log10_B=log10_B,
        log10_a=log10_a,
    )


def _simpson_cell_masses(logw_nodes: np.ndarray, logw_mids: np.ndarray, h: float) -> np.ndarray:
    # per-cell Simpson (h/6)(f_i + 4 f_mid + f_{i+1}), stabilized by the
    # global log-max so the peak has weight 1 exactly
    m = max(float(np.max(logw_nodes)), float(np.max(logw_mids)))
    wn = np.exp(logw_nodes - m)
    wm = np.exp(logw_mids - m)
    return (h / 6.0) * (wn[:-1] + 4.0 * wm + wn[1:])


_GIBBS_CELLS = 1 << 14  # gibbs_sampler_1d's quadrature cells
_LAW_CHUNK = 1 << 15  # values in one chunk of tusla_terminal_law's draws


def gibbs_sampler_1d(
    u: Callable[[np.ndarray], np.ndarray],
    beta: float,
    support: Optional[tuple[float, float]],
    rng: np.random.Generator,
    n_draws: int,
) -> np.ndarray:
    """n_draws draws, sorted, from the density proportional to exp(-beta u(x)).

    u must accept a float64 array and return elementwise values. support
    None starts from [-20, 20] and doubles the span until the boundary
    density falls below 1e-12 of the peak; a density whose tails refuse to
    decay raises rather than returning garbage. Sampling inverts the CDF of
    a composite Simpson quadrature on _GIBBS_CELLS = 2^14 uniform cells,
    linearly interpolated between nodes.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if n_draws < 1:
        raise ValueError("n_draws must be positive")

    auto = support is None
    lo, hi = (-20.0, 20.0) if auto else (float(support[0]), float(support[1]))
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"invalid support [{lo}, {hi}]")

    def density_grid(lo, hi):
        nodes = np.linspace(lo, hi, _GIBBS_CELLS + 1)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            logw_nodes = -beta * np.asarray(u(nodes), dtype=np.float64)
            logw_mids = -beta * np.asarray(u(mids), dtype=np.float64)
        if np.any(np.isnan(logw_nodes)) or np.any(np.isnan(logw_mids)):
            raise ValueError("u produced nan on the support")
        return nodes, logw_nodes, logw_mids

    nodes, lw_n, lw_m = density_grid(lo, hi)
    if auto:
        for _ in range(50):
            peak = float(np.max(lw_n))
            edge = max(lw_n[0], lw_n[-1])
            if edge - peak < math.log(1e-12):
                break
            span = hi - lo
            lo, hi = lo - span / 2.0, hi + span / 2.0
            nodes, lw_n, lw_m = density_grid(lo, hi)
        else:
            raise ValueError(
                "density does not decay on any manageable support; "
                "exp(-beta u) may not be integrable"
            )
        # monotone-tail sanity: log-density must not be rising at the edges
        k = _GIBBS_CELLS // 256
        if lw_n[0] > lw_n[k] + 1e-9 or lw_n[-1] > lw_n[-1 - k] + 1e-9:
            raise ValueError("density rises toward the support boundary; not integrable")

    h = (hi - lo) / _GIBBS_CELLS
    masses = _simpson_cell_masses(lw_n, lw_m, h)
    total = float(masses.sum())
    if not (math.isfinite(total) and total > 0.0):
        raise ValueError("density mass is zero or non-finite on the support")
    cdf = np.concatenate([[0.0], np.cumsum(masses)]) / total
    cdf[-1] = 1.0
    samples, b = rng.random(n_draws), _block_size(n_draws)
    for i in range(0, n_draws, b):  # one buffer: the uniforms, then their inverse CDF
        samples[i:i + b] = np.interp(samples[i:i + b], cdf, nodes)
    samples.sort()
    return samples


def _midpoint_quantiles(sorted_vals: np.ndarray, n: int) -> np.ndarray:
    m = sorted_vals.size
    if m == n:
        return sorted_vals
    src, dst, b = (np.arange(m) + 0.5) / m, np.arange(0.5, n), _block_size(n)
    dst /= n  # one buffer: the levels (i + 0.5)/n, then their quantiles
    for i in range(0, n, b):
        dst[i:i + b] = np.interp(dst[i:i + b], src, sorted_vals)
    return dst


def _as_sorted(values) -> np.ndarray:
    s = np.asarray(values, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("need a non-empty 1-D sample array")
    # neighbours, not an np.diff that may overflow; sorted input is not copied
    return np.sort(s) if np.any(s[1:] < s[:-1]) else s


def wasserstein_p_1d(a, b) -> tuple[float, float]:
    """(W1, W2) between two 1-D sample sets, both from one alignment.

    a and b are non-empty 1-D sample arrays, else ValueError; an unsorted
    one is sorted into a copy, and neither is written. Equal sizes use the
    exact order-statistics coupling; unequal sizes are aligned by
    midpoint-quantile interpolation at the larger size. W2 to
    N(0, sigma^2) is the second element against gaussian_quantiles(sigma, n).
    """
    sa, sb = _as_sorted(a), _as_sorted(b)
    n = max(sa.size, sb.size)
    qa = _midpoint_quantiles(sa, n)
    qb = _midpoint_quantiles(sb, n)
    # |qa - qb| goes into an operand interpolated here, never into a caller's samples
    diff = np.subtract(qa, qb, out=qa if qa is not sa else qb if qb is not sb else None)
    np.abs(diff, out=diff)
    w1 = float(diff.mean())
    return w1, float(math.sqrt(np.mean(np.multiply(diff, diff, out=diff))))


def gaussian_quantiles(sigma: float, n: int) -> np.ndarray:
    """Deterministic N(0, sigma^2) representative points: quantiles at
    midpoint levels (i + 0.5)/n."""
    from statistics import NormalDist  # loads decimal and fractions: only when called
    levels = ((np.arange(n) + 0.5) / n).tolist()
    return np.array(list(map(NormalDist().inv_cdf, levels))) * sigma


def ks_vs_gaussian(samples, sigma: float = 1.0) -> float:
    """One-sample Kolmogorov-Smirnov statistic against N(0, sigma^2), of
    samples read as wasserstein_p_1d reads them."""
    s = _as_sorted(samples)
    n, b, peaks = s.size, _block_size(s.size), []
    for i in range(0, n, b):  # a block of the CDF at a time; the maximum is exact
        z = (s[i:i + b] / sigma).tolist()
        cdf = np.fromiter((0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z), np.float64, len(z))
        k = np.arange(i, i + len(z))
        peaks.append(np.max(np.maximum(cdf - k / n, (k + 1) / n - cdf)))
    return float(np.max(peaks))


def tusla_terminal_law(
    algorithm: TuslaConfig,
    theta0: float,
    oracle: GradientOracle,
    stream,
    n_steps: int,
    n_replicas: int,
    seed: int,
) -> np.ndarray:
    """Sorted terminal law of the tamed update over n_replicas chains.

    The arguments of ``optimizers.run``, in its order. run's step checks and
    seeds the chain, so bad settings raise as in run and the law draws from
    run's substreams; then any config but TuslaConfig raises TypeError, and
    n_replicas >= 1, theta0 finite. Vectorized over replicas for 1-D oracles
    with evaluate_batch. A producer thread makes every draw, in chunks of k
    steps, at most _LAW_CHUNK values: sample_batch(k * n_replicas), its
    batch_data and standard_normal((k, n_replicas)) give the values of k
    per-step draws, one datum and one Gaussian per replica, so the stream
    layout does not depend on the chunk size. A one-place queue hands the
    chunks over; the producer's errors raise here, a stepping error stops it,
    and it is joined before the law returns. Each replica runs run's TUSLA
    update: a step is evaluate_batch and overflow_safe_drift_batch, with 0-d
    constants, under one error state of the law's that ignores overflow and
    invalid operations. Its drift is bitwise a width-1 stacked row's; run's
    scalar loop takes libm's pow, within an ulp or two of numpy's, and the
    stream layout differs, so seeds are not interchangeable. Non-finite
    replicas are dropped with one warning.
    """
    [(data_rng, noise_rng)] = _chain_streams(algorithm, oracle, n_steps, (seed,))
    if not isinstance(algorithm, TuslaConfig):
        raise TypeError(f"the replica law runs a TuslaConfig, got {type(algorithm).__name__}")
    if oracle.dim() != 1:
        raise ValueError("replica integrator handles 1-D parameters only")
    if type(oracle).evaluate_batch is GradientOracle.evaluate_batch:
        raise ValueError(
            f"replica integrator needs evaluate_batch, which {type(oracle).__name__} lacks"
        )
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, got {theta0}")
    lam, beta, reg = algorithm.lam, algorithm.beta, algorithm.reg
    thetas = np.full(n_replicas, float(theta0))
    scale = math.sqrt(2.0 * lam / beta)
    lam_0d = _operand(lam)
    starts = range(0, n_steps, max(1, min(_LAW_CHUNK // n_replicas, n_steps)))

    def draw():  # the producer, the only user of the two generators
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for start in starts:
                    if stop.is_set():
                        return
                    k = min(starts.step, n_steps - start)
                    xs = stream.sample_batch(data_rng, k * n_replicas)
                    xs = oracle.batch_data(xs.reshape((k, n_replicas) + xs.shape[1:]))
                    # scale * xi rounds elementwise as it would at the step
                    xis = noise_rng.standard_normal((k, n_replicas))
                    xis *= scale
                    chunks.put((xs, xis))
        except BaseException as e:  # handed over, and raised in the caller
            chunks.put(e)

    if n_steps:
        import queue
        chunks, stop = queue.Queue(maxsize=1), threading.Event()
        (producer := threading.Thread(target=draw, name="tusla-law-draws")).start()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in starts:
                    chunk = chunks.get()
                    if isinstance(chunk, BaseException):
                        raise chunk
                    for x, xi in zip(*chunk):
                        g = oracle.evaluate_batch(thetas, x)
                        drift = overflow_safe_drift_batch(g, thetas, lam, reg)
                        drift *= lam_0d
                        thetas -= drift
                        thetas += xi
        finally:
            stop.set()
            if chunks.full():  # a stopped producer puts at most one more chunk
                chunks.get_nowait()
            producer.join()
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
