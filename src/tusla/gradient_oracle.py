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
from typing import Any

import numpy as np

__all__ = [
    "ParameterVector",
    "parameter_vector",
    "safe_norm",
    "OracleMeta",
    "RegularizationParams",
    "GradientOracle",
    "growth_envelope",
    "regularized_gradient",
    "tamed_gradient",
    "overflow_safe_drift",
    "overflow_safe_drift_scalar",
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


def safe_norm(v: np.ndarray) -> float:
    """Euclidean norm that cannot overflow.

    For d == 1 this is exactly abs(v[0]) (no sqrt(x*x) round trip), which
    keeps scalar and vector code paths bit-identical. For larger vectors the
    components are rescaled by their max before squaring when any entry
    exceeds 1e150, so |v| is finite whenever the entries are, or when all
    lie below 1e-150, where the squares would lose precision as subnormals.
    """
    if v.size == 1:
        return abs(float(v[0]))
    m = float(np.abs(v).max())
    if not math.isfinite(m):
        return math.inf
    if m == 0.0:
        return 0.0
    if m > 1e150 or m < 1e-150:
        w = v / m
        return m * math.sqrt(float(np.dot(w, w)))
    return math.sqrt(float(np.dot(v, v)))


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

    def k_of(self, x: DataSample) -> float:
        """Per-sample growth envelope K(x) with |G| <= K(x)(1 + |theta|^q)."""
        return growth_envelope(self.meta(), self.g0_norm(x), self.x_norm(x))

    def g0_norm(self, x: DataSample) -> float:
        """|G(0, x)|; override when a closed form is cheaper than evaluate."""
        d = self.dim()
        return safe_norm(self.evaluate(np.zeros(d), x))

    def x_norm(self, x: DataSample) -> float:
        """Norm of the data sample as it enters the growth bounds."""
        if np.isscalar(x):
            return abs(float(x))
        return safe_norm(np.asarray(x, dtype=np.float64).ravel())

    def dim(self) -> int:
        """Parameter dimension (1 unless overridden)."""
        return 1

    # Optional fast paths; optimizers and diagnostics fall back when absent.

    def evaluate_scalar(self, theta: float, x: DataSample) -> float:
        """Scalar gradient for d == 1 problems; hot-loop fast path."""
        raise NotImplementedError

    def evaluate_batch(self, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Vectorized gradient over replica arrays for d == 1 problems."""
        raise NotImplementedError


def growth_envelope(meta: OracleMeta, g0_norm: float, x_norm: float) -> float:
    """K(x) = 2^q (L1 (1+|x|)^rho + |G(0,x)|)."""
    return 2.0 ** meta.q * (meta.L1 * (1.0 + x_norm) ** meta.rho + g0_norm)


def regularized_gradient(
    g: ParameterVector, theta: ParameterVector, reg: RegularizationParams
) -> ParameterVector:
    """H(theta, x) = G + eta * theta * |theta|^(2r).

    Plain formula, no overflow protection: |theta|^(2r) saturates to inf for
    large arguments under IEEE semantics. Use ``overflow_safe_drift`` for the
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
    """Scalar H_lam; single source of truth for the d == 1 hot loops.

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


def overflow_safe_drift(
    g: ParameterVector, theta: ParameterVector, lam: float, reg: RegularizationParams
) -> ParameterVector:
    """Vector H_lam(theta, x), overflow-safe for any finite theta, given finite g.

    Agrees with tamed_gradient(regularized_gradient(...)) wherever the plain
    two-stage form is finite.

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
    a = safe_norm(theta)
    if a < 1.0:
        t = np.float64(a) ** (2.0 * reg.r)
        return (g + (reg.eta * t) * theta) / (1.0 + math.sqrt(lam) * t)
    ti = np.float64(a) ** (-2.0 * reg.r)
    return (ti * g + reg.eta * theta) / (ti + math.sqrt(lam))


def overflow_safe_drift_batch(
    g: np.ndarray, theta: np.ndarray, lam: float, reg: RegularizationParams
) -> np.ndarray:
    """Elementwise H_lam over replica arrays of scalar parameters.

    Same two-branch arithmetic as overflow_safe_drift_scalar, vectorized with
    np.where. Agreement with the scalar form is within an ulp or two, not
    bitwise: numpy's vectorized power kernel may round differently from the
    scalar libm pow. Only the scalar and vector forms, which share one code
    path per element, are bit-identical. Finite for finite theta and finite
    g; see overflow_safe_drift.
    """
    a = np.abs(theta)
    sq = math.sqrt(lam)
    small = a < 1.0
    # np.where evaluates both branches; clamp each branch's power argument so
    # the inactive branch cannot raise or generate spurious inf.
    t = np.where(small, a, 0.0) ** (2.0 * reg.r)
    ti = np.where(small, 1.0, a) ** (-2.0 * reg.r)
    low = (g + (reg.eta * t) * theta) / (1.0 + sq * t)
    high = (ti * g + reg.eta * theta) / (ti + sq)
    return np.where(small, low, high)


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
