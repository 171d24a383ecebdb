"""Acceptance gate: one test per shipping criterion. Each test evaluates all
of its clauses, prints one [PASS]/[FAIL] line per clause, then asserts them
together, so a red run still shows exactly which clauses hold.

Three clauses fail today and are left failing on purpose, with thresholds,
presets and inputs as stated. The paper's abstract gives no beta, step budget
or ADAM step size, so nothing shows whether the presets or the < 0.5 targets
are at fault. Their measured causes, over the 16 preset seeds:

  * criterion 1, s=2 TUSLA median |theta-0.1| = 13.73: the spread of an OU
    (Ornstein-Uhlenbeck) process. With r = s+10 the drift for |theta| >= 1 is
    about eta*theta/sqrt(lam) whatever G is: a linear pull towards 0 plus
    Gaussian noise, with stationary variance sqrt(lam)/(beta*eta) = 447 at
    beta = 0.05 (median |theta-0.1| about 14.3). The pooled variance of
    theta-0.1 over steps 5000-10000 is 416, and 96.1% of those steps take the
    saturated branch; test_harness.py pins both.
  * criterion 1, s=2 ADAM median 116.4: the 10k-step budget. ADAM takes no
    beta; the budget ends its descent from theta0 = 1e3 early. All 16 seeds
    end 56.8-763.9 away; with n_steps=100000 the median is 6.9e-13. A smaller
    alpha is slower still: alpha = 1 / 0.1 / 0.01 give 748 / 972 / 997.
  * criterion 2, s=26 TUSLA median 58.85, not the OU value of 14.3: jumps off
    the wall near theta = -1. The 16 chains take 79 single steps with
    |delta theta| > 50, all from theta in [-1.24, -0.92]. There the taming
    denominator, centred at 0, has barely grown (taming factor 9e-7 to 1,
    median 0.13), while the s=26 wall, centred at 0.1, already gives |G| of
    1.1e3 to 1.7e9 (median 7.1e4); single steps reach 4.6e3.

Run with -s (or -rA) to see the clause lines for passing criteria too.
"""
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import _mlp_reference as ref
from _suites import (
    dfnorm_violations,
    dissipativity_check,
    drift_lipschitz_violations,
    dsnorm_violations,
    g_growth_violations,
    h_growth_violations,
    mlp_gradient_growth_violations,
    sqr_growth_violations,
)
from tusla.diagnostics import (
    gaussian_quantiles,
    gibbs_sampler_1d,
    ks_vs_gaussian,
    theory_constants,
    tusla_terminal_law,
    wasserstein_p_1d,
)
from tusla.gradient_oracle import RegularizationParams
from tusla.harness import PRESETS, run_config
from tusla.neural_net import Architecture, MlpOracle, activation_by_name, risk
from tusla.optimizers import TuslaConfig, run
from tusla.problems import (
    ConstantDataSource,
    OneNeuronProblem,
    QuadraticProblem,
    UniformDataSource,
    UsProblem,
)


def _gate(clauses):
    print()
    for label, ok in clauses:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    failing = [label for label, ok in clauses if not ok]
    assert not failing, f"failing clauses: {failing}"


def _fmt(x):
    return "n/a" if x is None else f"{x:.4g}"


# ---------------------------------------------------------------------------
# 1. shallow double-well benchmark (s = 2)


def test_criterion_1_benchmark_s2():
    t0 = time.perf_counter()
    summary = run_config(PRESETS["paper-s2"], name="paper-s2")
    elapsed = time.perf_counter() - t0
    med = {a: summary.algorithms[a].median_final_distance for a in ("tusla", "adam")}
    _gate([
        (f"s=2 tusla median |theta-0.1| = {_fmt(med['tusla'])} < 0.5",
         med["tusla"] is not None and med["tusla"] < 0.5),
        (f"s=2 adam median |theta-0.1| = {_fmt(med['adam'])} < 0.5",
         med["adam"] is not None and med["adam"] < 0.5),
        (f"s=2 runtime {elapsed:.2f}s < 10s", elapsed < 10.0),
    ])


# ---------------------------------------------------------------------------
# 2. steep double-well benchmark (s = 26)


def test_criterion_2_benchmark_s26():
    t0 = time.perf_counter()
    summary = run_config(PRESETS["paper-s26"], name="paper-s26")
    elapsed = time.perf_counter() - t0
    tus = summary.algorithms["tusla"].median_final_distance
    adam = summary.algorithms["adam"].median_final_distance
    sgld = summary.algorithms["sgld"].results
    n_fast_blowups = sum(
        1 for r in sgld
        if r.diverged and r.divergence_step is not None and r.divergence_step <= 5
    )
    _gate([
        (f"s=26 tusla median |theta-0.1| = {_fmt(tus)} < 0.5",
         tus is not None and tus < 0.5),
        (f"s=26 adam median |theta-0.1| = {_fmt(adam)} > 1",
         adam is not None and adam > 1.0),
        (f"s=26 sgld diverges within 5 steps in {n_fast_blowups}/16 seeds (need >= 15)",
         n_fast_blowups >= 15),
        (f"s=26 runtime {elapsed:.2f}s < 10s", elapsed < 10.0),
    ])


# ---------------------------------------------------------------------------
# 3. overflow robustness of the drift evaluation


def test_criterion_3_overflow_robustness():
    oracle = UsProblem(s=26)
    reg = RegularizationParams(eta=0.01, r=36.0)
    cfg = TuslaConfig(lam=0.05, beta=0.05, reg=reg)
    rec = run(cfg, np.array([1e3]), oracle, UniformDataSource(),
              n_steps=10_000, rng_seed=0)
    # the final row's gradient is nan by contract (no step follows it)
    safe_ok = (
        not rec.diverged
        and rec.theta_norms.size == 10_001
        and bool(np.isfinite(rec.theta_norms).all())
        and bool(np.isfinite(rec.grad_norms[:-1]).all())
        and bool(np.isfinite(rec.final_theta).all())
    )

    # Plain two-stage evaluation, |theta|^(2r) first and then the ratio. The
    # guard matters in a window: from where |theta|^(2r) overflows,
    # DBL_MAX^(1/(2r)) ~ 1.91e4, the ratio is inf/inf = nan (1e3^72 = 1e216 is
    # still finite, so the start above lies below the window; the numerator
    # alone overflows to inf from ~1.78e4), up to where the s=26 oracle itself
    # overflows, |theta - 0.1| ~ (DBL_MAX / (11 * 2s))^(1/(2s-1)) ~ 9.78e5
    # (beyond it G = +-inf and the guarded drift is nan as well).
    big = sys.float_info.max
    lower = big ** (1.0 / (2.0 * reg.r))
    upper = (big / (11.0 * 2 * oracle.s)) ** (1.0 / (2 * oracle.s - 1))
    x_wall = 0.5  # multiplier 11, the largest |G|
    with np.errstate(over="ignore"):
        edges_ok = (
            bool(np.isfinite(np.float64(lower * (1.0 - 1e-6)) ** (2.0 * reg.r)))
            and not np.isfinite(np.float64(lower * (1.0 + 1e-6)) ** (2.0 * reg.r))
            and math.isfinite(oracle.evaluate_scalar(0.1 + upper * (1.0 - 1e-6), x_wall))
            and not math.isfinite(oracle.evaluate_scalar(0.1 + upper * (1.0 + 1e-6), x_wall))
        )
    theta_w = 1e5
    x1 = UniformDataSource().sample(np.random.default_rng(0))
    g1 = np.float64(oracle.evaluate_scalar(theta_w, x1))
    theta = np.float64(theta_w)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.abs(theta) ** np.float64(2.0 * reg.r)
        plain = (g1 + reg.eta * theta * t) / (1.0 + np.sqrt(np.float64(cfg.lam)) * t)
    rec_w = run(cfg, np.array([theta_w]), oracle, UniformDataSource(),
                n_steps=10_000, rng_seed=0)
    window_ok = (
        edges_ok
        and lower < theta_w and theta_w - 0.1 < upper
        and bool(np.isfinite(g1))
        and not np.isfinite(plain)
        and not rec_w.diverged
        and rec_w.theta_norms.size == 10_001
        and bool(np.isfinite(rec_w.theta_norms).all())
        and bool(np.isfinite(rec_w.grad_norms[:-1]).all())
        and bool(np.isfinite(rec_w.final_theta).all())
    )
    _gate([
        ("guarded drift finishes 1e4 steps from theta0=1e3 at r=36 with no "
         "non-finite values", safe_ok),
        (f"plain two-stage drift is {float(plain):.4g} from theta0=1e5, inside the "
         f"overflow window [{lower:.4g}, {upper:.4g}] (both edges exact), where the "
         f"guarded chain finishes 1e4 steps with no non-finite values", window_ok),
    ])


# ---------------------------------------------------------------------------
# 4. network gradient exactness against finite differences


def _fd_gradient(f, theta, h=1e-6):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        grad[i] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return grad


def _rel_err(analytic, fd):
    return float(np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(fd)))


def test_criterion_4_mlp_gradient_exactness():
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    worst_g = worst_h = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 9)) for _ in range(n + 1))
        act = activation_by_name("tanh" if rng.random() < 0.5 else "arctan")
        arch = Architecture(dims, act)
        flat = arch.init_params(rng)
        x = np.append(rng.uniform(-1.0, 1.0, size=dims[0]), rng.normal())
        eta, r = 0.1, float(n + 2)
        ga = MlpOracle(arch).evaluate(flat, x)
        ha = ref.gradient_h(ref.split(arch, flat), x, eta, r).flatten()
        gf = _fd_gradient(lambda v: risk(arch, v[None], x[None], 0.0, r)[0, 0], flat)
        hf = _fd_gradient(lambda v: risk(arch, v[None], x[None], eta, r)[0, 0], flat)
        worst_g = max(worst_g, _rel_err(ga, gf))
        worst_h = max(worst_h, _rel_err(ha, hf))
    elapsed = time.perf_counter() - t0
    _gate([
        (f"G vs central differences: worst rel err {worst_g:.2e} < 1e-5",
         worst_g < 1e-5),
        (f"H vs central differences: worst rel err {worst_h:.2e} < 1e-5",
         worst_h < 1e-5),
        (f"50 gradient checks in {elapsed:.2f}s < 5s", elapsed < 5.0),
    ])


# ---------------------------------------------------------------------------
# 5. growth and Lipschitz bound suites


def _us_sample(rng):
    return _US_SOURCE.sample(rng)


_US_SOURCE = UniformDataSource()


def _neuron_sample(rng):
    return np.array([rng.uniform(-2.0, 2.0), rng.normal() * 2.0])


def _same_us_branch(t1, t2):
    return (abs(t1[0] - 0.1) <= 1.0) == (abs(t2[0] - 0.1) <= 1.0)


def test_criterion_5_bound_suites():
    n = 1000
    us2 = UsProblem(s=2)
    us26 = UsProblem(s=26)
    neuron = OneNeuronProblem()
    quad = QuadraticProblem()
    reg2 = RegularizationParams(0.01, 12.0)
    reg26 = RegularizationParams(0.01, 36.0)
    regq = RegularizationParams(0.0, 1.5)
    regn = RegularizationParams(0.01, 2.5)
    rng = np.random.default_rng(515151)

    v_g = (g_growth_violations(us2, _us_sample, n, rng)
           + g_growth_violations(us26, _us_sample, n, rng)
           + g_growth_violations(neuron, _neuron_sample, n, rng))
    v_h = (h_growth_violations(us2, _us_sample, reg2, n, rng)
           + h_growth_violations(us26, _us_sample, reg26, n, rng)
           + h_growth_violations(quad, lambda rng: 0.0, regq, n, rng))
    v_sqr = (sqr_growth_violations(us2, _us_sample, reg2, n, rng)
             + sqr_growth_violations(us26, _us_sample, reg26, n, rng)
             + sqr_growth_violations(quad, lambda rng: 0.0, regq, n, rng))
    # the default (printed) u_s estimator jumps at its branch boundary, so
    # its polynomial Lipschitz constant is certified per branch only
    reg_lip = RegularizationParams(0.01, 3.0)
    v_lip = (drift_lipschitz_violations(
                 UsProblem(s=2, unbiased=True), _us_sample, reg_lip, n, rng)
             + drift_lipschitz_violations(
                 us2, _us_sample, reg_lip, n, rng, _same_us_branch)
             + drift_lipschitz_violations(neuron, _neuron_sample, regn, n, rng))
    tanh, arctan = activation_by_name("tanh"), activation_by_name("arctan")
    v_layer = (dfnorm_violations(n, rng, tanh) + dsnorm_violations(n, rng, tanh)
               + dfnorm_violations(n, rng, arctan) + dsnorm_violations(n, rng, arctan))
    v_mlp = (mlp_gradient_growth_violations(n, rng, tanh)
             + mlp_gradient_growth_violations(n, rng, arctan))

    _gate([
        (f"gradient growth envelope: {v_g} violations in 3x{n} draws", v_g == 0),
        (f"drift growth sqrt(lam)|H| <= K + eta|theta|: {v_h} violations", v_h == 0),
        (f"squared drift growth lam|H|^2 <= 4K^2 + 2eta^2|theta|^2: {v_sqr} violations",
         v_sqr == 0),
        (f"drift polynomial Lipschitz bound: {v_lip} violations", v_lip == 0),
        (f"network forward/jacobian norm bounds: {v_layer} violations", v_layer == 0),
        (f"network gradient growth envelope: {v_mlp} violations", v_mlp == 0),
    ])


# ---------------------------------------------------------------------------
# 6. dissipativity certificates


def test_criterion_6_dissipativity():
    oracle = UsProblem(s=2)
    reg = RegularizationParams(eta=0.01, r=12.0)
    tc = theory_constants(oracle.meta(), reg, k_mean=oracle.k_mean_exact(), p=2,
                          x_rho_mean=oracle.x_rho_mean_exact())
    pos = np.logspace(-3.0, 3.0, 13)
    grid = np.concatenate([-pos[::-1], pos])
    n_draws = 4000
    data = oracle.batch_data(UniformDataSource().sample_batch(np.random.default_rng(606), n_draws))
    means, tols = {}, []
    for th in grid:
        gs = oracle.evaluate_batch(np.full(n_draws, th), data)
        pen = reg.eta * th * abs(th) ** (2.0 * reg.r)
        means[float(th)] = float(gs.mean()) + pen
        # Monte-Carlo error of <theta, h> is |theta| times the sem of G
        tols.append(3.0 * abs(th) * float(gs.std(ddof=1)) / math.sqrt(n_draws))
    report = dissipativity_check(
        lambda t: np.array([means[float(np.atleast_1d(t)[0])]]),
        tc.A, tc.B, list(grid), tol=np.array(tols),
    )

    neuron = OneNeuronProblem(eta=0.01)
    w1 = neuron.w1_star
    ray = [np.array([w1, t]) for t in (10.0, 100.0, 1000.0)]
    inner = [float(neuron.evaluate(w, (1.0, 0.0)) @ w) for w in ray]
    certified = all(
        ip <= -2.0 * w[1] ** 2 + 2.0 * neuron.eta * w1 ** 2 + 1e-9
        for ip, w in zip(inner, ray)
    )
    # the quadratic-penalty candidate <w,h> >= |w|^2 - B cannot survive the
    # -2 w2^2 decay: every offset up to B = 1e6 is beaten somewhere on the ray
    candidates_fail = all(
        not dissipativity_check(
            lambda w: neuron.evaluate(np.asarray(w), (1.0, 0.0)),
            1.0, b_cand, ray,
        ).passed
        for b_cand in (0.0, 100.0, 1e4, 1e6)
    )

    _gate([
        (f"u_s certified (A, B) = ({tc.A:.4g}, {tc.B:.4g}) holds on the signed "
         f"log grid within 3 SEM (min slack {report.min_slack:.4g})", report.passed),
        ("one-neuron decay certificate <g, w> <= -2 w2^2 + 2 eta w1*^2 on the ray",
         certified),
        ("one-neuron quadratic-penalty candidates (A=1, B<=1e6) all violated "
         "along w2 in {10, 100, 1000}", candidates_fail),
    ])


# ---------------------------------------------------------------------------
# 7. sampling quality of the terminal law


def test_criterion_7_sampling_quality():
    t0 = time.perf_counter()
    reg = RegularizationParams(eta=0.0, r=1.5)
    quad, feed = QuadraticProblem(), ConstantDataSource()
    sigma = 0.5  # Gibbs law of u(x) = x^2/2 at beta = 4 is N(0, 1/beta)

    def w2_to_gaussian(lam, seed):
        law = tusla_terminal_law(TuslaConfig(lam=lam, beta=4.0, reg=reg), 0.0, quad, feed,
                                 n_steps=20_000, n_replicas=512, seed=seed)
        return wasserstein_p_1d(law, gaussian_quantiles(sigma, law.size))[1]

    w2_main = w2_to_gaussian(0.01, 0)

    def mean_w2(lam):
        return float(np.mean([w2_to_gaussian(lam, seed) for seed in (0, 1, 2)]))

    w2_coarse = mean_w2(0.04)
    w2_fine = mean_w2(0.0025)
    elapsed = time.perf_counter() - t0
    _gate([
        (f"W2(terminal law, N(0, 1/4)) = {w2_main:.4f} < 0.1 at lam=0.01", w2_main < 0.1),
        (f"discretization bias grows with lam: W2 {w2_coarse:.4f} at lam=0.04 "
         f"> {w2_fine:.4f} at lam=0.0025", w2_coarse > w2_fine),
        (f"sampling runtime {elapsed:.2f}s < 60s", elapsed < 60.0),
    ])


# ---------------------------------------------------------------------------
# 8. byte-level determinism of preset outputs


def test_criterion_8_determinism(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_config(PRESETS["paper-s26"], name="paper-s26", out_dir=a)
    run_config(PRESETS["paper-s26"], name="paper-s26", out_dir=b)
    csvs = sorted(f for f in os.listdir(a) if f.endswith(".csv"))
    identical = all(Path(a, f).read_bytes() == Path(b, f).read_bytes() for f in csvs)
    _gate([
        (f"preset wrote {len(csvs)} csv files (16 seeds x 3 algorithms)",
         len(csvs) == 48),
        ("repeated invocation is byte-identical across every csv", identical),
    ])


# ---------------------------------------------------------------------------
# 9. estimator correctness


def test_criterion_9_estimator_correctness():
    fixtures = [
        ([0.0, 1.0], [0.0, 3.0], 1, 1.0),
        ([0.0, 1.0], [0.0, 3.0], 2, math.sqrt(2.0)),
        ([0.0, 0.0, 4.0], [0.0, 2.0, 2.0], 1, 4.0 / 3.0),
        ([0.0, 0.0, 4.0], [0.0, 2.0, 2.0], 2, math.sqrt(8.0 / 3.0)),
        ([-1.0, 1.0], [0.0, 0.0], 1, 1.0),
        ([2.0], [-3.0], 2, 5.0),
        ([0.0, 1.0, 2.0], [5.0, 6.0, 7.0], 1, 5.0),
    ]
    exact = all(
        wasserstein_p_1d(np.array(xs), np.array(ys))[p - 1] == want
        for xs, ys, p, want in fixtures
    )
    dist = gibbs_sampler_1d(lambda x: 0.5 * x * x, beta=1.0, support=(-10.0, 10.0),
                            rng=np.random.default_rng(11), n_draws=100_000)
    ks = ks_vs_gaussian(dist, sigma=1.0)
    _gate([
        (f"wasserstein_p_1d matches {len(fixtures)} hand fixtures exactly", exact),
        (f"Gibbs sampler KS vs N(0,1) = {ks:.4f} < 0.01 at N=1e5", ks < 0.01),
    ])
