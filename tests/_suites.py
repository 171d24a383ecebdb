"""Reusable pointwise bound suites.

Each function runs `draws` random evaluations of one inequality and returns
the number of violations (0 expected). Unit tests call them with a few
hundred draws; the acceptance gate reruns them at >= 10^3 draws per suite.
All randomness comes from the caller's Generator so failures reproduce.
"""
import math

import numpy as np

from _loop_reference import regularized_gradient
from tusla.gradient_oracle import (
    RegularizationParams,
    lambda_max,
    overflow_safe_drift,
    safe_norm,
)
from tusla.neural_net import (
    Architecture,
    MlpParams,
    df_norm_bound,
    gradient_g,
    gradient_norm_bound,
    grad_f,
    lipschitz_constants,
    partial_deriv_bound_check,
)

SLACK = 1e-9  # relative slack for float evaluation of analytically-true bounds


def _rand_theta(rng: np.random.Generator, d: int) -> np.ndarray:
    # magnitudes spanning ten decades so both drift branches get exercised
    scale = 10.0 ** rng.uniform(-4.0, 6.0)
    v = rng.normal(size=d)
    n = math.sqrt(float(v @ v)) or 1.0
    return v / n * scale


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
            rhs = oracle.k_of(x) * (1.0 + np.float64(a) ** q)
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
        h = overflow_safe_drift(g, theta, lam, reg)
        lhs = math.sqrt(lam) * safe_norm(h)
        rhs = oracle.k_of(x) + reg.eta * safe_norm(theta)
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
        h = overflow_safe_drift(g, theta, lam, reg)
        nh = safe_norm(h)
        k = oracle.k_of(x)
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
        xn = oracle.x_norm(x)
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
    params = arch.unflatten(vec)
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
        lhs = grad_f(params, z).norm()
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
        lhs = gradient_g(params, x).norm()
        if not lhs <= gradient_norm_bound(params, x) * (1.0 + SLACK):
            bad += 1
    return bad


def mlp_gradient_lipschitz_violations(draws: int, rng: np.random.Generator, activation) -> int:
    """|G(t,x) - G(t',x)| <= L1 (1+|x|)^3 (1+|t|+|t'|)^(2n+1) |t-t'|."""
    bad = 0
    for _ in range(draws):
        arch, params, x = _rand_mlp_point(rng, activation)
        meta = lipschitz_constants(arch)
        other = arch.unflatten(
            params.flatten() + rng.normal(size=arch.param_dim) * 10.0 ** rng.uniform(-3.0, 0.0)
        )
        g1 = gradient_g(params, x).flatten()
        g2 = gradient_g(other, x).flatten()
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
