"""Stochastic gradient oracles and the taming transform.

Parameters are plain 1-D float64 numpy arrays throughout; ``parameter_vector``
is the validating constructor. An oracle supplies unbiased (or deliberately
biased, if documented) gradient estimates G(theta, x) together with growth
metadata (q, rho, L1) that calibrates every bound downstream:

    |G(theta, x)| <= K(x) (1 + |theta|^q),   K(x) = 2^q (L1 (1+|x|)^rho + |G(0,x)|).

The drift actually used for updates is the tamed, regularized gradient

    H_lam(theta, x) = (G(theta, x) + eta * theta * |theta|^(2r))
                      / (1 + sqrt(lam) * |theta|^(2r)),

computed here in an overflow-safe form: for |theta| >= 1 numerator and
denominator are rescaled by |theta|^(-2r) so no growing power is ever
materialized. Both branches are algebraically identical; the large-|theta|
branch tends to eta * theta / sqrt(lam) instead of producing inf/nan. The
guard tames |theta|^(2r) only: it needs a finite G, see overflow_safe_drift.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

__all__ = [
    "ParameterVector",
    "parameter_vector",
    "safe_norm",
    "safe_row_norms",
    "OracleMeta",
    "RegularizationParams",
    "GradientOracle",
    "overflow_safe_drift",
    "overflow_safe_drift_batch",
    "lambda_max",
]

# Data samples are floats or small arrays; oracles decide how to unpack them.
DataSample = Any

ParameterVector = np.ndarray


def parameter_vector(values) -> ParameterVector:
    """Validating constructor: 1-D float64 array with all entries finite."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("parameter vector entries must be finite")
    return v.copy()


def _operand(value: float) -> np.ndarray:
    # value as a read-only 0-d float64 array: a ufunc takes it as it is, where
    # a Python scalar costs a conversion on every call; the bits are the same
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


_ONE = _operand(1.0)


@lru_cache(maxsize=64)
def _drift_operands(lam: float, eta: float, r: float) -> tuple:
    # _tamed's constants 2r, -2r, eta and sqrt(lam)
    return tuple(map(_operand, (2.0 * r, -2.0 * r, eta, math.sqrt(lam))))


def safe_norm(v: np.ndarray) -> float:
    """Euclidean norm that cannot overflow: the one-row safe_row_norms."""
    return float(safe_row_norms(v.reshape(1, -1))[0])


def safe_row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, safe from overflow.

    For d == 1 this is exactly abs(v[:, 0]) (no sqrt(x*x) round trip), which
    keeps scalar and vector code paths bit-identical. For wider rows the
    components are rescaled by the row's max before squaring when any entry
    exceeds 1e150, so a norm is finite whenever the entries are, or when all
    lie below 1e-150, where the squares would lose precision as subnormals.
    Each row's dot is one slice of the stacked product
    v[:, None, :] @ v[:, :, None], which calls the BLAS dot that np.dot calls
    on the row alone; (v * v).sum(1) and einsum sum in another order and
    differ in the last bits.

    The dots come first: when every squared norm lies in [d 1e-299, 1e299],
    every row's max entry lies within [3.1e-150, 3.2e149], so no row needs the
    rescaling, and only a batch with a row outside that range takes it.
    """
    d = v.shape[1]
    if d == 1 or len(v) == 0:  # the one column's abs, or no rows
        return np.abs(v[:, 0])
    with np.errstate(over="ignore"):  # an overflowing dot sends the batch below
        sq = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    if sq.min() >= d * 1e-299 and sq.max() <= 1e299:  # false on any nan
        return np.sqrt(sq)
    m = np.abs(v).max(axis=1)
    finite = np.isfinite(m)
    scaled = finite & ((m > 1e150) | ((m < 1e-150) & (m > 0.0)))
    w = v.copy()
    w[scaled] = v[scaled] / m[scaled, None]
    w[~finite] = 0.0  # their norm is inf; squaring them could overflow
    out = np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0])
    with np.errstate(over="ignore"):  # a norm beyond DBL_MAX is inf, as on floats
        out[scaled] *= m[scaled]
    out[~finite] = math.inf
    return out


@dataclass(frozen=True)
class OracleMeta:
    """Growth metadata for a gradient oracle.

    q: polynomial degree in |theta| of the gradient growth bound (q >= 1).
    rho: polynomial degree in |x| of the data-dependent factor (rho > 0).
    L1: finite positive constant in the joint Lipschitz/growth bound.
    """

    q: float
    rho: float
    L1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q) and self.q >= 1):
            raise ValueError(f"q must be finite and >= 1, got {self.q}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be finite and > 0, got {self.rho}")
        if not (math.isfinite(self.L1) and self.L1 > 0):
            raise ValueError(f"L1 must be finite and > 0, got {self.L1}")


@dataclass(frozen=True)
class RegularizationParams:
    """Superlinear penalty parameters (eta, r).

    eta = 0 switches regularization off entirely; otherwise eta in (0, 1).
    The exponent r must satisfy r >= q/2 + 1 for the oracle it is paired
    with; ``require_order`` enforces that at configuration time.
    """

    eta: float
    r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and 0.0 <= self.eta < 1.0):
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be finite and > 0, got {self.r}")

    def require_order(self, q: float) -> None:
        if self.r < q / 2.0 + 1.0:
            raise ValueError(
                f"r = {self.r} too small for oracle degree q = {q}; need r >= q/2 + 1 = {q / 2 + 1}"
            )


class GradientOracle(ABC):
    """Interface every problem exposes to the optimizers."""

    @abstractmethod
    def evaluate(self, theta: ParameterVector, x: DataSample) -> ParameterVector:
        """Stochastic gradient estimate G(theta, x), same shape as theta."""

    @abstractmethod
    def meta(self) -> OracleMeta:
        """Growth constants (q, rho, L1) declared for this oracle."""

    def dim(self) -> int:
        """Parameter dimension (1 unless overridden)."""
        return 1

    def degree(self) -> float:
        """The growth degree q of meta(), which is all require_order reads;
        an oracle whose L1 is costly to compute returns q without it."""
        return self.meta().q

    # Optional fast paths. The optimizers take evaluate_scalar on a dim() 1
    # oracle that has it (scalar_route), else evaluate_rows; the replica law
    # needs evaluate_batch and has no fallback (tusla_terminal_law checks).

    def evaluate_scalar(self, theta: float, x: DataSample) -> float:
        """Scalar gradient for d == 1 problems; hot-loop fast path."""
        raise NotImplementedError

    def evaluate_batch(self, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """G over replica arrays for d == 1 problems; xs: a step of batch_data."""
        raise NotImplementedError

    def batch_data(self, xs: np.ndarray):
        """A block of samples, one row per step, in the form evaluate_batch
        takes; the replica law calls it once per block. Default: xs itself."""
        return xs

    def evaluate_rows(self, thetas: np.ndarray, xs) -> np.ndarray:
        """G at R (theta, x) pairs: row i of the (R, d) result is
        evaluate(thetas[i], xs[i]). The default stacks per-row calls."""
        return np.array([self.evaluate(theta, x) for theta, x in zip(thetas, xs)])


def overflow_safe_drift(
    g: np.ndarray, theta: np.ndarray, norms, lam: float, reg: RegularizationParams
) -> np.ndarray:
    """H_lam(theta, x) per row, overflow-safe for any finite theta, given finite g.

    theta is one vector (d,) or an (R, d) stack, g has its shape, and norms
    holds each row's safe_norm, one float per row. It is the replica drift's
    expression (overflow_safe_drift_batch) with each row's norm in place of
    |theta| on every element of the row, so a row's drift is the same
    whatever rows share its call, and a width-1 row is bitwise the replica
    drift at that theta. Agrees with the plain two-stage form (regularize,
    then tame) wherever that form is finite; tests/_loop_reference.py keeps
    it as the reference.

    The guard tames |theta|^(2r), not the oracle. Where the oracle itself
    overflows, g = +-inf; once |theta|^(-2r) has underflowed to 0 the large
    branch forms 0 * inf = nan. The u_s oracle with s = 26 returns +-inf above
    |theta - 0.1| ~ (DBL_MAX / (11 * 2s))^(1/(2s-1)) ~ 9.78e5, and ``run``
    then flags divergence: at step 3 from theta0 = 1e6, at step 1 from 1e7.
    The result itself, about eta * theta / sqrt(lam) at large |theta|, must
    also lie within float64 range.
    """
    if lam <= 0.0 or not math.isfinite(lam):
        raise ValueError(f"lam must be a positive finite step size, got {lam}")
    a = np.repeat(np.asarray(norms, dtype=np.float64), theta.shape[-1])
    return _tamed(g, theta, a.reshape(theta.shape), lam, reg)


def overflow_safe_drift_batch(
    g: np.ndarray, theta: np.ndarray, lam: float, reg: RegularizationParams
) -> np.ndarray:
    """Elementwise H_lam over replica arrays of scalar parameters: the drift
    with |theta| as each element's norm. Finite for finite theta and finite g
    (see overflow_safe_drift). The caller owns the floating-point error state.
    """
    return _tamed(g, theta, np.abs(theta), lam, reg)


def _tamed(g, theta, a, lam, reg):
    # H_lam as (fa g + eta w theta) / (fa + sqrt(lam) w), given a fresh
    # float64 array a of theta's shape that holds each element's norm and is
    # used as scratch. One power per element builds both branches: p =
    # norm^(2r) below norm 1 gives fa = 1, w = p, and p = norm^(-2r) from
    # there on gives fa = p, w = 1, so p lies in [0, 1] or is nan. For
    # r >= 1.5 (every r that require_order admits) each element is bitwise
    # the form with one clamped power per branch (tests/_loop_reference.py);
    # at 2r in {0.5, 1, 2} numpy's scalar-exponent shortcuts round
    # differently. numpy's pow may also round apart from the libm pow of
    # run's scalar loop. Constants are 0-d operands made once per
    # (lam, eta, r); g and theta are only read.
    two_r, neg_two_r, eta, sq = _drift_operands(lam, reg.eta, reg.r)
    small = np.less(a, _ONE)
    p = np.power(a, np.where(small, two_r, neg_two_r), out=a)
    fa, w = np.where(small, _ONE, p), np.where(small, p, _ONE)
    out = np.multiply(fa, g)
    out += np.multiply(np.multiply(eta, w, out=p), theta, out=p)  # (eta w) theta
    np.multiply(w, sq, out=w)
    out /= np.add(fa, w, out=w)  # fa + sqrt(lam) w, as run's scalar loop adds
    return out


def lambda_max(eta: float, p: float) -> float:
    """Largest admissible step size for moment stability, capped at 1.

    min{1, 1/(4 eta^2 c^2), 1/(4 eta^2)} with
    c = 8 (p+1) binom(p, ceil(p/2))^2 for integer moment order p >= 1.
    eta = 0 disables the regularization-driven restriction: returns 1.
    """
    if eta == 0.0:
        return 1.0
    # accepts any positive eta: the formula itself is not restricted to the
    # eta < 1 range enforced by RegularizationParams
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    pi = int(p)
    if pi != p or pi < 1:
        raise ValueError(f"moment order p must be a positive integer, got {p}")
    c = 8.0 * (pi + 1) * math.comb(pi, math.ceil(pi / 2)) ** 2
    return min(1.0, 1.0 / (4.0 * eta * eta * c * c), 1.0 / (4.0 * eta * eta))
