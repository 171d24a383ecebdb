"""One-shot forms of the law report's steps, which the package must match bitwise.

The package's ``gibbs_sampler_1d``, ``wasserstein_p_1d`` and ``ks_vs_gaussian``
work in blocks of 4096 values and in place, so that each array of n_draws
values exists once. The forms here take every step over the whole array at
once, as they did before: ``reference_gibbs_sampler_1d`` interpolates all
uniforms and sorts a copy, ``reference_wasserstein_p_1d`` allocates the
difference, its absolute value and its square, and ``reference_ks_vs_gaussian``
builds the CDF as a Python list.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from tusla.diagnostics import _simpson_cell_masses

CELLS = 1 << 14


def reference_gibbs_sampler_1d(
    u: Callable[[np.ndarray], np.ndarray],
    beta: float,
    support: Optional[tuple[float, float]],
    rng: np.random.Generator,
    n_draws: int,
) -> np.ndarray:
    auto = support is None
    lo, hi = (-20.0, 20.0) if auto else (float(support[0]), float(support[1]))

    def density_grid(lo, hi):
        nodes = np.linspace(lo, hi, CELLS + 1)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            logw_nodes = -beta * np.asarray(u(nodes), dtype=np.float64)
            logw_mids = -beta * np.asarray(u(mids), dtype=np.float64)
        return nodes, logw_nodes, logw_mids

    nodes, lw_n, lw_m = density_grid(lo, hi)
    if auto:
        for _ in range(50):
            if max(lw_n[0], lw_n[-1]) - float(np.max(lw_n)) < math.log(1e-12):
                break
            span = hi - lo
            lo, hi = lo - span / 2.0, hi + span / 2.0
            nodes, lw_n, lw_m = density_grid(lo, hi)
    masses = _simpson_cell_masses(lw_n, lw_m, (hi - lo) / CELLS)
    cdf = np.concatenate([[0.0], np.cumsum(masses)]) / float(masses.sum())
    cdf[-1] = 1.0
    us = rng.random(n_draws)
    return np.sort(np.interp(us, cdf, nodes))


def _midpoint_quantiles(sorted_vals: np.ndarray, n: int) -> np.ndarray:
    m = sorted_vals.size
    if m == n:
        return sorted_vals
    src = (np.arange(m) + 0.5) / m
    dst = (np.arange(n) + 0.5) / n
    return np.interp(dst, src, sorted_vals)


def _as_sorted(values) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=np.float64))


def reference_wasserstein_p_1d(a, b, p: int) -> float:
    sa, sb = _as_sorted(a), _as_sorted(b)
    n = max(sa.size, sb.size)
    diff = np.abs(_midpoint_quantiles(sa, n) - _midpoint_quantiles(sb, n))
    if p == 1:
        return float(diff.mean())
    return float(math.sqrt(np.mean(diff * diff)))


def reference_ks_vs_gaussian(samples, sigma: float = 1.0) -> float:
    s = _as_sorted(samples)
    n = s.size
    cdf = np.array([0.5 * math.erfc(-z / math.sqrt(2.0)) for z in (s / sigma).tolist()])
    i = np.arange(n)
    return float(np.max(np.maximum(cdf - i / n, (i + 1) / n - cdf)))
