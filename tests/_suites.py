"""Reusable pointwise bound suites, and the theory checkers they rest on.

Each ``*_violations`` function runs `draws` random evaluations of one
inequality and returns the number of violations (0 expected). Unit tests
call them with a few hundred draws; the acceptance gate reruns them at
>= 10^3 draws per suite. All randomness comes from the caller's Generator so
failures reproduce.

The checkers are test code because no command calls them: the per-sample
growth envelope K(x), the MLP growth bounds with their pointwise checker
``partial_deriv_bound_check`` (built on the per-sample forms in
``_mlp_reference.py``), the penalized drift's Lipschitz constants, the
dissipativity grid check and the running moment of a recorded run.
"""
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

import _mlp_reference as ref
from _loop_reference import regularized_gradient
from tusla.gradient_oracle import (
    RegularizationParams,
    lambda_max,
    overflow_safe_drift,
    safe_norm,
)
from tusla.neural_net import Architecture, lipschitz_constants

SLACK = 1e-9  # relative slack for float evaluation of analytically-true bounds


def _rand_theta(rng: np.random.Generator, d: int) -> np.ndarray:
    # magnitudes spanning ten decades so both drift branches get exercised
    scale = 10.0 ** rng.uniform(-4.0, 6.0)
    v = rng.normal(size=d)
    n = math.sqrt(float(v @ v)) or 1.0
    return v / n * scale


def data_norm(x) -> float:
    """Norm of a data sample as it enters the growth bounds."""
    if np.isscalar(x):
        return abs(float(x))
    return safe_norm(np.asarray(x, dtype=np.float64).ravel())


def growth_envelope(oracle, x) -> float:
    """Per-sample K(x) = 2^q (L1 (1+|x|)^rho + |G(0,x)|), the envelope with
    |G(theta, x)| <= K(x) (1 + |theta|^q); its mean is the closed-form
    k_mean_exact() where a problem has one."""
    meta = oracle.meta()
    g0 = safe_norm(oracle.evaluate(np.zeros(oracle.dim()), x))
    return 2.0 ** meta.q * (meta.L1 * (1.0 + data_norm(x)) ** meta.rho + g0)


def g_growth_violations(oracle, sample, draws: int, rng: np.random.Generator) -> int:
    """|G(theta, x)| <= K(x) (1 + |theta|^q)."""
    q = oracle.meta().q
    d = oracle.dim()
    bad = 0
    for _ in range(draws):
        theta = _rand_theta(rng, d)
        x = sample(rng)
        lhs = safe_norm(np.asarray(oracle.evaluate(theta, x), dtype=np.float64))
        a = safe_norm(theta)
        with np.errstate(over="ignore"):
            # numpy pow so 1e6**52 saturates to inf instead of raising
            rhs = growth_envelope(oracle, x) * (1.0 + np.float64(a) ** q)
        if not lhs <= rhs * (1.0 + SLACK):
            bad += 1
    return bad


def h_growth_violations(
    oracle, sample, reg: RegularizationParams, draws: int, rng: np.random.Generator
) -> int:
    """sqrt(lam) |H_lam| <= K(x) + eta |theta| for lam <= lambda_max."""
    cap = lambda_max(reg.eta, 2)
    d = oracle.dim()
    bad = 0
    for _ in range(draws):
        theta = _rand_theta(rng, d)
        x = sample(rng)
        lam = cap * 10.0 ** rng.uniform(-4.0, 0.0)
        g = np.asarray(oracle.evaluate(theta, x), dtype=np.float64)
        h = overflow_safe_drift(g, theta, [safe_norm(theta)], lam, reg)
        lhs = math.sqrt(lam) * safe_norm(h)
        rhs = growth_envelope(oracle, x) + reg.eta * safe_norm(theta)
        if not lhs <= rhs * (1.0 + SLACK):
            bad += 1
    return bad


def sqr_growth_violations(
    oracle, sample, reg: RegularizationParams, draws: int, rng: np.random.Generator
) -> int:
    """lam |H_lam|^2 <= 4 K(x)^2 + 2 eta^2 |theta|^2 for lam <= lambda_max."""
    cap = lambda_max(reg.eta, 2)
    d = oracle.dim()
    bad = 0
    for _ in range(draws):
        theta = _rand_theta(rng, d)
        x = sample(rng)
        lam = cap * 10.0 ** rng.uniform(-4.0, 0.0)
        g = np.asarray(oracle.evaluate(theta, x), dtype=np.float64)
        h = overflow_safe_drift(g, theta, [safe_norm(theta)], lam, reg)
        nh = safe_norm(h)
        k = growth_envelope(oracle, x)
        a = safe_norm(theta)
        if not lam * nh * nh <= (4.0 * k * k + 2.0 * reg.eta ** 2 * a * a) * (1.0 + SLACK):
            bad += 1
    return bad


def drift_lipschitz_violations(
    oracle,
    sample,
    reg: RegularizationParams,
    draws: int,
    rng: np.random.Generator,
    same_branch=None,
    theta_cap: float = 10.0,
) -> int:
    """|H(theta,x) - H(theta',x)| <= (L1 + 8 r eta)(1+|x|)^rho (1+|t|+|t'|)^(2r+1) |t-t'|.

    H is the regularized (untamed) drift G + eta theta |theta|^(2r). theta_cap
    keeps the plain form finite. same_branch filters pairs for estimators
    whose Lipschitz constants hold branchwise only.
    """
    meta = oracle.meta()
    L = meta.L1 + 8.0 * reg.r * reg.eta
    d = oracle.dim()
    bad = 0
    done = 0
    while done < draws:
        t1 = rng.uniform(-theta_cap, theta_cap, size=d)
        t2 = rng.uniform(-theta_cap, theta_cap, size=d)
        if same_branch is not None and not same_branch(t1, t2):
            continue
        done += 1
        x = sample(rng)
        h1 = regularized_gradient(np.asarray(oracle.evaluate(t1, x), dtype=np.float64), t1, reg)
        h2 = regularized_gradient(np.asarray(oracle.evaluate(t2, x), dtype=np.float64), t2, reg)
        lhs = safe_norm(h1 - h2)
        xn = data_norm(x)
        n1, n2 = safe_norm(t1), safe_norm(t2)
        rhs = (
            L
            * (1.0 + xn) ** meta.rho
            * (1.0 + n1 + n2) ** (2.0 * reg.r + 1.0)
            * safe_norm(t1 - t2)
        )
        if not lhs <= rhs * (1.0 + SLACK):
            bad += 1
    return bad


# ------------------------------------------------------ network bounds
# s is the activation's Sobolev-style norm (ActivationSpec.sobolev_norm), D
# the largest layer width and n the number of layers.


class DriftLipschitz(NamedTuple):
    """Constant and envelope power for the penalized drift H = G + penalty:
    |H - H'| <= L1 (1+|x|)^rho (1 + |t| + |t'|)^envelope_power |t - t'|."""

    L1: float
    rho: float
    envelope_power: float


def drift_lipschitz_constants(arch: Architecture, eta: float, r: float) -> DriftLipschitz:
    n, D = arch.n, arch.D
    s = arch.activation.sobolev_norm
    l1 = 16.0 * (1.0 + eta) * (2.0 * r + 1.0) * (n + 1) * D ** 1.5 * (1.0 + s) ** (2 * n + 4)
    return DriftLipschitz(L1=l1, rho=3.0, envelope_power=float(max(2 * n + 1, 2.0 * r)))


def gradient_norm_bound(params: ref.Params, x) -> float:
    """Bound on |G(theta, x)|: 4 D sqrt(n+1) (1+|x|)^2 (1+s)^(n+2) (1+|theta|^(n+1))."""
    arch = params.arch
    n, D = arch.n, arch.D
    s = arch.activation.sobolev_norm
    xn = safe_norm(np.asarray(x, dtype=np.float64).ravel())
    t = params.norm()
    return 4.0 * D * math.sqrt(n + 1.0) * (1.0 + xn) ** 2 * (1.0 + s) ** (n + 2) * (1.0 + t ** (n + 1))


def df_norm_bound(params: ref.Params, x) -> float:
    """Bound on |grad_theta f|: sqrt(D (n+1)) (1+|x|) (1+s)^(n+1) (1+|theta|^n)."""
    arch = params.arch
    n, D = arch.n, arch.D
    s = arch.activation.sobolev_norm
    xn = safe_norm(np.asarray(x, dtype=np.float64).ravel())
    t = params.norm()
    return math.sqrt(D * (n + 1.0)) * (1.0 + xn) * (1.0 + s) ** (n + 1) * (1.0 + t ** n)


def layer_jacobian_bound(params: ref.Params, x, i: int) -> float:
    """Bound on the W_i -> h_n Jacobian operator norm:
    sqrt(D) (1+|x|) (1+s)^(n-i+2) |theta|^(n-i), for i in 1..n."""
    arch = params.arch
    n, D = arch.n, arch.D
    s = arch.activation.sobolev_norm
    xn = safe_norm(np.asarray(x, dtype=np.float64).ravel())
    t = params.norm()
    return math.sqrt(D) * (1.0 + xn) * (1.0 + s) ** (n - i + 2) * t ** (n - i)


def operator_norm(mat: np.ndarray, iters: int = 50, tol: float = 1e-8) -> float:
    """Spectral norm by power iteration on mat^T mat (deterministic start)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    k = mat.shape[1]
    v = np.full(k, 1.0 / math.sqrt(k))
    est = 0.0
    for _ in range(iters):
        w = mat.T @ (mat @ v)
        nw = math.sqrt(float(w @ w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_est = math.sqrt(nw)
        # nw = |A^T A v| converges to sigma_max^2
        if abs(new_est - est) <= tol * max(new_est, 1.0):
            est = new_est
            break
        est = new_est
    return float(safe_norm(mat @ v))


@dataclass(frozen=True)
class BoundCheckReport:
    """Measured-over-bound ratios; passed iff every ratio <= 1 (tiny slack
    for the iterative operator-norm estimate)."""

    df_measured: float
    df_bound: float
    layer_measured: tuple[float, ...]
    layer_bounds: tuple[float, ...]
    passed: bool


def partial_deriv_bound_check(params: ref.Params, x, slack: float = 1e-9) -> BoundCheckReport:
    """Verify the gradient-norm and layer-Jacobian bounds at (params, x),
    measuring the left sides exactly (power iteration for operator norms)."""
    arch = params.arch
    z, _ = ref.split_sample(x, arch.dims[0])
    dsigma = arch.activation.derivative
    pre, hs = ref.forward_trace(params, z)
    n = arch.n

    df_measured = ref.grad_f(params, z).norm()
    df_b = df_norm_bound(params, x)

    layer_measured = []
    layer_bounds = []
    # P = d h_n / d h_i, built from the top: P_n = I, P_{i-1} = P_i Msig_i W_i
    p = np.eye(arch.dims[n])
    for i in range(n, 0, -1):
        jac_factor = p * dsigma(pre[i - 1], hs[i])  # P @ diag(sigma'(a_i))
        lhs = operator_norm(jac_factor) * float(np.linalg.norm(hs[i - 1]))
        layer_measured.append(lhs)
        layer_bounds.append(layer_jacobian_bound(params, x, i))
        p = jac_factor @ params.weights[i - 1]
    layer_measured.reverse()
    layer_bounds.reverse()

    ok = df_measured <= df_b * (1.0 + slack)
    for lhs, rhs in zip(layer_measured, layer_bounds):
        ok = ok and lhs <= rhs * (1.0 + slack) + 1e-300
    return BoundCheckReport(
        df_measured=df_measured,
        df_bound=df_b,
        layer_measured=tuple(layer_measured),
        layer_bounds=tuple(layer_bounds),
        passed=bool(ok),
    )


# ------------------------------------------------------------- network suites

_ARCH_POOL = [
    (1, 1),
    (2, 3),
    (3, 4, 2),
    (4, 3, 3),
    (2, 5, 4, 3),
    (3, 8, 2, 5),
]


def _rand_mlp_point(rng: np.random.Generator, activation):
    dims = _ARCH_POOL[int(rng.integers(len(_ARCH_POOL)))]
    arch = Architecture(dims, activation)
    vec = rng.normal(size=arch.param_dim) * 10.0 ** rng.uniform(-1.0, 1.0)
    params = ref.split(arch, vec)
    z = rng.uniform(-2.0, 2.0, size=dims[0])
    y = float(rng.normal() * 2.0)
    x = np.concatenate([z, [y]])
    return arch, params, x


def dfnorm_violations(draws: int, rng: np.random.Generator, activation) -> int:
    """|grad_theta f| <= sqrt(D(n+1)) (1+|x|)(1+s)^(n+1) (1+|theta|^n)."""
    bad = 0
    for _ in range(draws):
        _, params, x = _rand_mlp_point(rng, activation)
        z = x[:-1]
        lhs = ref.grad_f(params, z).norm()
        if not lhs <= df_norm_bound(params, x) * (1.0 + SLACK):
            bad += 1
    return bad


def dsnorm_violations(draws: int, rng: np.random.Generator, activation) -> int:
    """Per-layer Jacobian operator-norm bounds, via partial_deriv_bound_check."""
    bad = 0
    for _ in range(draws):
        _, params, x = _rand_mlp_point(rng, activation)
        if not partial_deriv_bound_check(params, x).passed:
            bad += 1
    return bad


def mlp_gradient_growth_violations(draws: int, rng: np.random.Generator, activation) -> int:
    """|G(theta,x)| <= 4 D sqrt(n+1) (1+|x|)^2 (1+s)^(n+2) (1+|theta|^(n+1))."""
    bad = 0
    for _ in range(draws):
        _, params, x = _rand_mlp_point(rng, activation)
        lhs = ref.gradient_g(params, x).norm()
        if not lhs <= gradient_norm_bound(params, x) * (1.0 + SLACK):
            bad += 1
    return bad


def mlp_gradient_lipschitz_violations(draws: int, rng: np.random.Generator, activation) -> int:
    """|G(t,x) - G(t',x)| <= L1 (1+|x|)^3 (1+|t|+|t'|)^(2n+1) |t-t'|."""
    bad = 0
    for _ in range(draws):
        arch, params, x = _rand_mlp_point(rng, activation)
        meta = lipschitz_constants(arch)
        other = ref.split(
            arch,
            params.flatten() + rng.normal(size=arch.param_dim) * 10.0 ** rng.uniform(-3.0, 0.0),
        )
        g1 = ref.gradient_g(params, x).flatten()
        g2 = ref.gradient_g(other, x).flatten()
        xn = safe_norm(x)
        n1, n2 = params.norm(), other.norm()
        rhs = (
            meta.L1
            * (1.0 + xn) ** 3
            * (1.0 + n1 + n2) ** (meta.q - 1.0)
            * safe_norm(params.flatten() - other.flatten())
        )
        if not safe_norm(g1 - g2) <= rhs * (1.0 + SLACK):
            bad += 1
    return bad


# ------------------------------------------------- dissipativity and moments


@dataclass(frozen=True)
class DissipativityReport:
    """Slack of <theta, h> - (A |theta|^2 - B) over a parameter grid.

    A point violates when slack < -tol (tol covers Monte-Carlo error in h).
    passed is True iff no point violates.
    """

    slacks: np.ndarray
    tols: np.ndarray
    min_slack: float
    argmin_index: int
    violation_indices: tuple[int, ...]
    passed: bool


def dissipativity_check(
    h_eval: Callable,
    A: float,
    B: float,
    grid: Sequence,
    tol=0.0,
) -> DissipativityReport:
    """Evaluate the dissipativity inequality pointwise on grid.

    h_eval: theta -> drift vector (mean field; exact or Monte-Carlo).
    tol: scalar, per-point array, or callable theta -> nonnegative slack
        allowance; use ~3 standard errors for Monte-Carlo drifts.
    """
    pts = [np.atleast_1d(np.asarray(t, dtype=np.float64)) for t in grid]
    if not pts:
        raise ValueError("empty grid")
    if callable(tol):
        tols = np.array([float(tol(t)) for t in pts])
    else:
        tols = np.broadcast_to(np.asarray(tol, dtype=np.float64), (len(pts),)).copy()
    if np.any(tols < 0.0):
        raise ValueError("tolerances must be non-negative")

    slacks = np.empty(len(pts))
    for i, t in enumerate(pts):
        h = np.atleast_1d(np.asarray(h_eval(t), dtype=np.float64))
        n2 = float(t @ t)
        slacks[i] = float(t @ h) - (A * n2 - B)
    viol = tuple(int(i) for i in np.nonzero(slacks < -tols)[0])
    amin = int(np.argmin(slacks))
    return DissipativityReport(
        slacks=slacks,
        tols=tols,
        min_slack=float(slacks[amin]),
        argmin_index=amin,
        violation_indices=viol,
        passed=len(viol) == 0,
    )


def empirical_moment(record, p: int) -> np.ndarray:
    """Running mean of |theta|^(2p) over the recorded states of a run."""
    if p < 0:
        raise ValueError(f"moment order must be non-negative, got {p}")
    norms = np.asarray(record.theta_norms, dtype=np.float64)
    with np.errstate(over="ignore"):
        vals = norms ** (2 * p)
    return np.cumsum(vals) / np.arange(1, norms.size + 1)
