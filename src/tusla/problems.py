"""Benchmark objectives with stochastic gradient oracles.

Three families:

* ``UsProblem`` -- the 1-D double-well-style objective u_s with a flat-ish
  quadratic region around the minimizer theta* = 0.1 and a steep |d|^(2s)
  wall, plus the multiplier-noise gradient estimator it is benchmarked with.
* ``QuadraticProblem`` -- u(theta) = |theta|^2 / 2 with exact gradient; the
  Gaussian-target case used to calibrate samplers.
* ``OneNeuronProblem`` -- a 2-parameter arctan neuron with quadratic weight
  penalty whose gradient field provably escapes every quadratic dissipativity
  envelope along the w2 axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from .gradient_oracle import _ONE, GradientOracle, OracleMeta, ParameterVector, _operand

__all__ = [
    "UniformDataSource",
    "ConstantDataSource",
    "u_s_value",
    "u_s_value_array",
    "u_s_value_batch",
    "UsProblem",
    "QuadraticProblem",
    "one_neuron_parameters",
    "one_neuron_value",
    "one_neuron_gradient",
    "OneNeuronProblem",
]

_CENTER = 0.1  # minimizer of every u_s
_CENTER_0D, _ZERO, _HALF, _ELEVEN, _MINUS_ONE = map(_operand, (_CENTER, 0.0, 0.5, 11.0, -1.0))


def _guard_pow(x: float, n: int) -> float:
    # Python float ** raises OverflowError instead of returning inf; the
    # optimizers rely on inf/nan propagation to detect divergence, so
    # saturate with the correct sign (n is an integer wherever x < 0).
    try:
        return x ** n
    except OverflowError:
        if x < 0.0 and n % 2 == 1:
            return -math.inf
        return math.inf


@dataclass(frozen=True)
class UniformDataSource:
    """i.i.d. draws from U[0, 11], the law every closed form of UsProblem
    (estimator mean 1/11, k_mean_exact, x_rho_mean_exact) assumes."""

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(0.0, 11.0))

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(0.0, 11.0, size=n)


@dataclass(frozen=True)
class ConstantDataSource:
    """Degenerate stream returning one fixed sample; for data-free oracles."""

    value: object = 0.0

    def sample(self, rng: np.random.Generator) -> object:
        return self.value

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        v = np.asarray(self.value, dtype=np.float64)
        return np.broadcast_to(v, (n,) + v.shape).copy()


def u_s_value(theta: float, s: int) -> float:
    """u_s(theta): quadratic basin inside |theta - 0.1| <= 1, linear + steep
    polynomial wall outside. Continuous across the branch boundary."""
    d = theta - _CENTER
    if abs(d) <= 1.0:
        return d * d / 22.0 + _guard_pow(d, 2 * s)
    return (abs(d) - 0.5) / 11.0 + _guard_pow(d, 2 * s)


def u_s_value_array(theta: np.ndarray, s: int) -> np.ndarray:
    """u_s_value of each element of a 1-D float64 array, bitwise: numpy rounds
    the bracket as Python floats do, and the penalty |d|^(2s) is the libm pow
    that float ** int calls on |d|. A nan theta gives the nan |d| on both
    sides of the sum. If a penalty overflows, u_s_value takes them all."""
    d = theta - _CENTER
    ad = np.abs(d)
    try:
        pen = np.fromiter(map(math.pow, ad.tolist(), repeat(2.0 * s)), np.float64, d.size)
    except OverflowError:
        return np.array([u_s_value(v, s) for v in theta.tolist()], dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.where(ad <= 1.0, d * d / 22.0, (ad - 0.5) / 11.0) + pen


def u_s_value_batch(theta: np.ndarray, s: int) -> np.ndarray:
    """Vectorized u_s_value; density evaluations for samplers."""
    d = np.asarray(theta, dtype=np.float64) - _CENTER
    with np.errstate(over="ignore"):
        pen = d ** (2 * s)
        inner = d * d / 22.0 + pen
        outer = (np.abs(d) - 0.5) / 11.0 + pen
    return np.where(np.abs(d) <= 1.0, inner, outer)


def _us_ratio_sup(s: int, unbiased: bool) -> float:
    # sup over xi of |d/dtheta estimator(xi)| / (1 + |xi|)^(q-1), maximized
    # over the multiplier value (|mult| <= 11). Dense grid; the sup is
    # attained at moderate |xi| because the envelope degree q - 1 matches the
    # top derivative degree plus one. The grid runs in chunks of 2^15 points,
    # so its temporaries take 0.3 MB each rather than 3.2 MB; a maximum is
    # exact, so L1 does not depend on the chunking. For large s the powers
    # overflow and the sup comes out inf or nan; _us_l1 rejects it.
    q = max(2 * s, 1)
    grid = np.linspace(-8.0, 8.2, 400001)
    maxima = []
    for lo in range(0, grid.size, 1 << 15):
        xs = grid[lo : lo + (1 << 15)]
        d = xs - _CENTER
        inner = np.abs(d) <= 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            pen_d = 2.0 * s * (2 * s - 1) * d ** (2 * s - 2) if s else np.zeros_like(d)
            if unbiased:
                # derivative = mult * lin' + pen'; lin' = 1 inside, 0 outside
                deriv = 11.0 * inner.astype(float) + np.abs(pen_d)
            else:
                # derivative = mult * bracket'; bracket' = 2d inside, sign(d) outside
                base = np.where(inner, 2.0 * np.abs(d), 1.0)
                deriv = 11.0 * (base + np.abs(pen_d))
            maxima.append(np.max(deriv / (1.0 + np.abs(xs)) ** (q - 1)))
    return float(np.max(maxima))


@lru_cache(maxsize=None)
def _us_l1(s: int, unbiased: bool) -> float:
    l1 = 1.1 * _us_ratio_sup(s, unbiased)
    if not math.isfinite(l1):
        raise ValueError(f"the u_s growth constant L1 overflows float64 at s = {s}")
    return l1


@dataclass(frozen=True)
class UsProblem(GradientOracle):
    """Oracle for u_s with the multiplier-noise gradient estimators.

    Both estimators scale by the multiplier 12 * 1_{x in [0,1]} - 1, whose
    mean under x ~ U[0, 11] is 1/11. The default (benchmark) estimator
    multiplies the whole bracket, d^2 + 2s d^(2s-1) inside |d| <= 1 and
    |d| - 1/2 + 2s d^(2s-1) outside (d = theta - 0.1). Its mean is
    bracket/11, which is NOT u_s'(theta): the basin term enters squared, the
    wall term is scaled down elevenfold, and the bracket steps from 1 to 1/2
    across |d| = 1. It is kept in this form because the optimizer
    comparisons are defined on it. ``unbiased`` selects the consistent
    estimator, multiplier * lin + 2s d^(2s-1) with lin = d inside and
    sign(d) outside: its mean is u_s'(theta) exactly and its sample path is
    continuous in theta.

    Declared growth constants: q = max(2s, 1), rho = 1, and L1 from a dense
    grid maximization of the branchwise derivative ratio (with 10% headroom).
    For the default estimator the constants are valid on each branch
    separately; its jump at |theta - 0.1| = 1 admits no finite global
    Lipschitz constant. The unbiased estimator satisfies the bound globally.
    """

    s: int = 2
    unbiased: bool = False
    theta_star: float = field(default=_CENTER, init=False)
    # the wall term 2s d^(2s-1) as (factor, exponent); at s = 0 the exponent
    # is 0, as d ** 0 == 1.0 for every d, so the term is 0.0 * 1.0
    _two_s: float = field(init=False, repr=False, compare=False)
    _odd: int = field(init=False, repr=False, compare=False)
    _pen_operands: tuple = field(init=False, repr=False, compare=False)  # as 0-d operands

    def __post_init__(self) -> None:
        if not (isinstance(self.s, int) and self.s >= 0):
            raise ValueError(f"s must be a non-negative integer, got {self.s}")
        object.__setattr__(self, "_two_s", 2.0 * self.s)
        object.__setattr__(self, "_odd", 2 * self.s - 1 if self.s else 0)
        object.__setattr__(self, "_pen_operands", (_operand(self._two_s), _operand(self._odd)))

    def degree(self) -> float:
        return float(max(2 * self.s, 1))

    def meta(self) -> OracleMeta:
        return OracleMeta(q=self.degree(), rho=1.0, L1=_us_l1(self.s, self.unbiased))

    def evaluate_scalar(self, theta: float, x: float) -> float:
        # one frame for the hot scalar route; a float ** int that overflows
        # raises rather than returning inf, and the odd power saturates to
        # inf with the sign of d, so that run sees the divergence
        d = theta - _CENTER
        try:
            pen = self._two_s * d ** self._odd
        except OverflowError:
            pen = math.copysign(math.inf, d)
        mult = 11.0 if 0.0 <= x <= 1.0 else -1.0
        if self.unbiased:
            return mult * (d if -1.0 <= d <= 1.0 else math.copysign(1.0, d)) + pen
        if -1.0 <= d <= 1.0:
            return mult * (d * d + pen)
        return mult * (abs(d) - 0.5 + pen)

    def evaluate(self, theta: ParameterVector, x: float) -> ParameterVector:
        return np.array([self.evaluate_scalar(float(theta[0]), x)])

    def batch_data(self, xs: np.ndarray) -> np.ndarray:
        """The multipliers 12 * 1_{x in [0, 1]} - 1 of samples xs."""
        inside = np.greater_equal(xs, _ZERO)
        inside &= np.less_equal(xs, _ONE)
        return np.where(inside, _ELEVEN, _MINUS_ONE)

    def evaluate_batch(self, thetas: np.ndarray, mult: np.ndarray) -> np.ndarray:
        """G at a step of batch_data's multipliers, with every constant a 0-d
        operand. The caller owns the floating-point error state and must
        ignore overflow and invalid operations, as tusla_terminal_law does.
        thetas and mult are only read."""
        # the odd power is taken on |d| and signed by copysign: numpy's pow
        # takes a slow path for negative bases, and the two forms differ by
        # at most an ulp, on a few percent of the negative lanes. Temporaries
        # are reused once read; a product rounds the same in either order, so
        # the in-place steps keep the bits of mult * (bracket + pen) and
        # mult * lin + pen
        d = np.subtract(thetas, _CENTER_0D)
        ad = np.abs(d)
        two_s, odd = self._pen_operands
        # at s = 0 the term is 0.0 * +-1.0, which adds as 0.0 does: it is
        # -0.0 only where d < 0, and the sum meets a -0.0 only at d = 0
        pen = np.power(ad, odd)
        np.multiply(two_s, np.copysign(pen, d, out=pen), out=pen)
        inner = np.less_equal(ad, _ONE)
        if self.unbiased:
            out = np.sign(d)
            np.copyto(out, d, where=inner)  # where(inner, d, sign(d))
            out *= mult
            out += pen
            return out
        out = np.subtract(ad, _HALF, out=ad)
        np.copyto(out, np.multiply(d, d, out=d), where=inner)  # where(inner, d^2, |d| - 1/2)
        out += pen
        out *= mult
        return out

    def k_mean_exact(self) -> float:
        """E[K(X)] under X ~ U[0, 11], in closed form.

        E[|multiplier|] = 21/11; the theta = 0 bracket is deterministic.
        """
        m = self.meta()
        d = -_CENTER
        pen = 0.0 if self.s == 0 else 2.0 * self.s * d ** (2 * self.s - 1)
        e_mult_abs = 21.0 / 11.0
        if self.unbiased:
            # |G(0,x)| = |mult * d + pen| with mult in {11 (w.p. 1/11), -1}
            e_g0 = (abs(11.0 * d + pen) + 10.0 * abs(-d + pen)) / 11.0
        else:
            e_g0 = e_mult_abs * abs(d * d + pen)
        return 2.0 ** m.q * (m.L1 * 6.5 + e_g0)

    def x_rho_mean_exact(self) -> float:
        """E[(1 + |X|)^rho] = 6.5 for rho = 1 under U[0, 11]."""
        return 6.5


@dataclass(frozen=True)
class QuadraticProblem(GradientOracle):
    """u(theta) = |theta|^2 / 2 with exact (data-free) gradient G = theta."""

    d: int = 1

    def meta(self) -> OracleMeta:
        # |G - G'| = |theta - theta'| exactly, so L1 = 1, q = 1, rho = 1.
        return OracleMeta(q=1.0, rho=1.0, L1=1.0)

    def dim(self) -> int:
        return self.d

    def evaluate(self, theta: ParameterVector, x: object) -> ParameterVector:
        return np.asarray(theta, dtype=np.float64).copy()

    def evaluate_scalar(self, theta: float, x: object) -> float:
        return theta

    def evaluate_batch(self, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return thetas.copy()

    def k_mean_exact(self) -> float:
        """E[K(X)] = 2^q L1 = 2: the data are the constant 0 and G(0, x) = 0."""
        return 2.0

    def x_rho_mean_exact(self) -> float:
        """E[(1 + |X|)^rho] = 1 for the constant data 0."""
        return 1.0

    @property
    def theta_star(self) -> float:
        return 0.0


def one_neuron_parameters(eta: float) -> tuple[float, float]:
    """(w1_star, S) for the arctan neuron: chosen so w1_star * 1 + S = -1."""
    w1_star = (4.0 + eta + 1.0) * (1.0 + math.pi ** 2 / 16.0)
    return w1_star, -w1_star - 1.0


def one_neuron_value(w1: float, w2: float, x: float, y: float, eta: float) -> float:
    _, s_off = one_neuron_parameters(eta)
    m = math.atan(w1 * x + s_off)
    resid = y - w2 * m
    return resid * resid + eta * (w1 * w1 + w2 * w2)


def one_neuron_gradient(w1: float, w2: float, x: float, y: float, eta: float) -> np.ndarray:
    """Exact gradient of one_neuron_value in (w1, w2)."""
    _, s_off = one_neuron_parameters(eta)
    z = w1 * x + s_off
    m = math.atan(z)
    dm = 1.0 / (1.0 + z * z)
    resid = y - w2 * m
    return np.array(
        [
            -2.0 * resid * w2 * dm * x + 2.0 * eta * w1,
            -2.0 * resid * m + 2.0 * eta * w2,
        ]
    )


@dataclass(frozen=True)
class OneNeuronProblem(GradientOracle):
    """Two-parameter arctan neuron with quadratic weight penalty.

    Along w2 -> infinity at w1 = w1_star and sample (x, y) = (1, 0) the
    inner product <grad, w> behaves like -c * w2^2 with c > 2, so no pair
    (A, B) with A > 0 can satisfy <grad, w> >= A |w|^2 - B: quadratic
    penalties do not restore dissipativity here. The superlinear penalty
    (r >= q/2 + 1 = 2.5) does.
    """

    eta: float = 0.01
    w1_star: float = field(init=False)
    S: float = field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and 0.0 <= self.eta < 1.0):
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")
        w1s, s_off = one_neuron_parameters(self.eta)
        object.__setattr__(self, "w1_star", w1s)
        object.__setattr__(self, "S", s_off)

    def meta(self) -> OracleMeta:
        # q = 3 (the gradient grows cubically in |w| through resid * w2 terms),
        # rho = 2, L1 = 12: twice the largest Lipschitz ratio observed over
        # 4e5 sampled pairs spanning |w| in [1e-2, 1e3].
        return OracleMeta(q=3.0, rho=2.0, L1=12.0)

    def dim(self) -> int:
        return 2

    def evaluate(self, theta: ParameterVector, x) -> ParameterVector:
        xv, yv = float(x[0]), float(x[1])
        return one_neuron_gradient(float(theta[0]), float(theta[1]), xv, yv, self.eta)
