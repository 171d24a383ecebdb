"""Diagnostics tests: theory constants, dissipativity reports, Gibbs
sampling, Wasserstein distances, and the replica integrator."""
import math
import os
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _law_reference import (
    reference_gibbs_sampler_1d,
    reference_ks_vs_gaussian,
    reference_wasserstein_p_1d,
)
from _loop_reference import reference_terminal_law, us_evaluate_batch
from _suites import dissipativity_check, empirical_moment

from tusla import diagnostics, optimizers
from tusla.diagnostics import (
    _as_sorted,
    gaussian_quantiles,
    gibbs_sampler_1d,
    ks_vs_gaussian,
    theory_constants,
    tusla_terminal_law,
    wasserstein_p_1d,
)
from tusla.gradient_oracle import (
    GradientOracle,
    OracleMeta,
    RegularizationParams,
    lambda_max,
    overflow_safe_drift_batch,
)
from tusla.optimizers import AdamConfig, SgldConfig, TuslaConfig, run, run_seeds
from tusla.problems import (
    ConstantDataSource,
    OneNeuronProblem,
    QuadraticProblem,
    UniformDataSource,
    UsProblem,
    u_s_value_array,
)

UNIT_META = OracleMeta(q=1.0, rho=1.0, L1=1.0)


# ---------------------------------------------------------------------------
# theory constants


def test_theory_constants_hand_value():
    reg = RegularizationParams(eta=0.5, r=1.5)
    tc = theory_constants(UNIT_META, reg, k_mean=1.0, p=2)
    # B = (3A)^(q+2) / eta^(q+1) = 27 / 0.25
    assert math.isclose(tc.B, 108.0, rel_tol=1e-12)
    assert math.isclose(tc.log10_B, math.log10(108.0), rel_tol=1e-12)
    assert tc.A == 1.0 and tc.K_mean == 1.0
    assert tc.L2 == 1.0  # L1 * default x_rho_mean
    assert tc.L == 1.0 + 8.0 * 1.5 * 0.5
    assert tc.l == 4.0
    assert tc.lambda_max == lambda_max(0.5, 2)
    # R = max((2 L2 / eta)^(1/(2r - q)), (2 L2 / eta)^(1/(2r))) = max(2, 4^(1/3))
    assert math.isclose(tc.R, 2.0, rel_tol=1e-12)
    assert math.isclose(tc.a, 1.0, rel_tol=1e-12)  # log10 L2 + (q-1) log10(...) = 0


def test_theory_constants_x_rho_mean_enters_l2():
    reg = RegularizationParams(eta=0.5, r=1.5)
    tc = theory_constants(UNIT_META, reg, k_mean=1.0, p=2, x_rho_mean=6.5)
    assert tc.L2 == 6.5


def test_theory_constants_envelope_power():
    reg = RegularizationParams(eta=0.01, r=12.0)
    meta = OracleMeta(q=4.0, rho=1.0, L1=2.0)
    assert theory_constants(meta, reg, k_mean=3.0, p=2).l == 25.0


def test_theory_constants_log_companions_survive_overflow():
    prob = UsProblem(s=26)
    reg = RegularizationParams(eta=0.01, r=36.0)
    tc = theory_constants(prob.meta(), reg, k_mean=prob.k_mean_exact(), p=2,
                          x_rho_mean=prob.x_rho_mean_exact())
    assert tc.B == math.inf
    assert math.isfinite(tc.log10_B)
    assert math.isfinite(tc.log10_a)


def test_theory_constants_requires_penalty():
    reg = RegularizationParams(eta=0.0, r=2.0)
    with pytest.raises(ValueError, match="dissipativity must hold natively"):
        theory_constants(UNIT_META, reg, k_mean=1.0, p=2)


def test_theory_constants_validation():
    reg = RegularizationParams(eta=0.5, r=1.5)
    with pytest.raises(ValueError):
        theory_constants(UNIT_META, reg, k_mean=0.0, p=2)
    with pytest.raises(ValueError):
        theory_constants(UNIT_META, reg, k_mean=1.0, p=2, x_rho_mean=0.5)
    with pytest.raises(ValueError):
        # q = 4 demands r >= 3
        theory_constants(OracleMeta(q=4.0, rho=1.0, L1=1.0),
                         RegularizationParams(eta=0.5, r=1.0), k_mean=1.0, p=2)


# ---------------------------------------------------------------------------
# dissipativity


def test_dissipativity_exact_equality_case():
    # <theta, theta> - (1 |theta|^2 - 0) = 0 on every point
    grid = [np.array([t]) for t in (-3.0, -1.0, 0.5, 2.0)]
    rep = dissipativity_check(lambda t: t, A=1.0, B=0.0, grid=grid)
    assert rep.passed
    assert rep.min_slack == 0.0
    assert rep.violation_indices == ()


def test_dissipativity_flags_violations():
    grid = [np.array([t]) for t in (0.0, 1.0, 2.0, 3.0)]
    rep = dissipativity_check(lambda t: t, A=2.0, B=0.0, grid=grid)
    # slack = -|theta|^2: violations exactly at the nonzero points
    assert not rep.passed
    assert rep.violation_indices == (1, 2, 3)
    assert rep.argmin_index == 3
    assert rep.min_slack == -9.0


def test_dissipativity_tolerance_forms():
    grid = [np.array([1.0]), np.array([2.0])]
    h = lambda t: t
    assert dissipativity_check(h, A=2.0, B=0.0, grid=grid, tol=10.0).passed
    assert dissipativity_check(h, A=2.0, B=0.0, grid=grid, tol=np.array([10.0, 10.0])).passed
    assert dissipativity_check(h, A=2.0, B=0.0, grid=grid, tol=lambda t: 10.0).passed
    assert not dissipativity_check(h, A=2.0, B=0.0, grid=grid, tol=[10.0, 1.0]).passed
    with pytest.raises(ValueError):
        dissipativity_check(h, A=1.0, B=0.0, grid=grid, tol=-1.0)
    with pytest.raises(ValueError):
        dissipativity_check(h, A=1.0, B=0.0, grid=[])


def test_us_drift_satisfies_certified_envelope():
    # Monte-Carlo mean of the regularized drift H = G + eta theta |theta|^(2r)
    # against the (A, B) pair from theory_constants; B dwarfs every term on
    # this grid, so the inequality holds with slack
    prob = UsProblem(s=2)
    reg = RegularizationParams(eta=0.01, r=12.0)
    tc = theory_constants(prob.meta(), reg, k_mean=prob.k_mean_exact(), p=2,
                          x_rho_mean=prob.x_rho_mean_exact())
    stream = UniformDataSource()
    rng = np.random.default_rng(0)

    def h_mean(t):
        th = float(t[0])
        xs = stream.sample_batch(rng, 500)
        gs = prob.evaluate_batch(np.full(500, th), prob.batch_data(xs))
        pen = reg.eta * th * abs(th) ** (2.0 * reg.r)
        return np.array([float(gs.mean()) + pen])

    grid = [np.array([s * 10.0 ** k]) for s in (-1.0, 1.0) for k in (-3, -1, 0, 1, 3)]
    rep = dissipativity_check(h_mean, A=tc.A, B=tc.B, grid=grid, tol=0.0)
    assert rep.passed


def test_one_neuron_quadratic_candidates_fail_as_certified():
    # with A = 1 fixed, raising B only delays the violation along the w2 ray
    prob = OneNeuronProblem(eta=0.01)
    h = lambda w: prob.evaluate(w, (1.0, 0.0))
    grid = [np.array([prob.w1_star, t]) for t in (10.0, 100.0, 1000.0)]
    expected = {0.0: (0, 1, 2), 100.0: (0, 1, 2), 1e4: (1, 2), 1e6: (2,)}
    for B, want in expected.items():
        rep = dissipativity_check(h, A=1.0, B=B, grid=grid)
        assert rep.violation_indices == want, B
        assert not rep.passed


# ---------------------------------------------------------------------------
# empirical moments


def test_empirical_moment_running_mean():
    rec = SimpleNamespace(theta_norms=np.array([1.0, 2.0, 2.0]))
    assert np.array_equal(empirical_moment(rec, 1), np.array([1.0, 2.5, 3.0]))
    assert np.array_equal(empirical_moment(rec, 0), np.ones(3))
    const = SimpleNamespace(theta_norms=np.full(5, 3.0))
    assert np.allclose(empirical_moment(const, 2), 81.0)
    with pytest.raises(ValueError):
        empirical_moment(rec, -1)


# ---------------------------------------------------------------------------
# empirical distributions and the Gibbs sampler


_NOT_SAMPLES = [np.array([]), [], np.float64(1.0), 1.0, np.zeros((2, 2)), [[1.0], [2.0]]]


@pytest.mark.parametrize("bad", _NOT_SAMPLES,
                         ids=["empty", "empty-list", "0-d", "float", "2-d", "2-d-list"])
def test_distances_reject_what_is_not_a_non_empty_1d_sample_array(bad):
    # one ValueError from the one reader, before any numpy warning or
    # reduction error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: wasserstein_p_1d(bad, [0.0, 1.0]),
                     lambda: wasserstein_p_1d([0.0, 1.0], bad),
                     lambda: ks_vs_gaussian(bad)):
            with pytest.raises(ValueError, match="non-empty 1-D sample array"):
                call()


def test_sorted_samples_are_read_as_they_are_and_others_are_sorted():
    # the order check compares neighbours, so no np.diff can overflow, and
    # sorted input is the reader's result itself, never a copy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ok in ([-1e308, 1e308], [-np.inf, -1e308, 1e308, np.inf], [1.0, 1.0], [2.0]):
            s = np.array(ok)
            assert _as_sorted(s) is s
        for unsorted in ([1e308, -1e308], [np.inf, -np.inf], [0.0, 2.0, 1.0], [3.0, 1.0, 2.0]):
            s = np.array(unsorted)
            got = _as_sorted(s)
            assert got is not s and got.tobytes() == np.sort(s).tobytes()
            assert s.tobytes() == np.array(unsorted).tobytes()
        assert _as_sorted([3, 1, 2]).tobytes() == np.array([1.0, 2.0, 3.0]).tobytes()


def _is_law(v) -> bool:
    # a sorted 1-D float64 array, which the distances read without a copy
    return (type(v) is np.ndarray and v.dtype == np.float64 and v.ndim == 1
            and _as_sorted(v) is v)


def test_gibbs_sampler_recovers_gaussian():
    rng = np.random.default_rng(1)
    u = lambda x: 0.5 * x * x
    d1 = gibbs_sampler_1d(u, beta=1.0, support=None, rng=rng, n_draws=100_000)
    assert _is_law(d1) and d1.size == 100_000
    assert abs(d1.mean()) < 0.015
    assert abs(d1.var() - 1.0) < 0.02
    assert ks_vs_gaussian(d1, 1.0) < 0.01
    d4 = gibbs_sampler_1d(u, beta=4.0, support=None, rng=rng, n_draws=100_000)
    assert abs(d4.var() - 0.25) < 0.01
    assert wasserstein_p_1d(d4, gaussian_quantiles(0.5, d4.size))[1] < 0.02


def test_gibbs_sampler_us_density_centers_at_minimizer():
    rng = np.random.default_rng(2)
    d = gibbs_sampler_1d(lambda x: u_s_value_array(x, 2), beta=10.0, support=None,
                         rng=rng, n_draws=50_000)
    assert abs(d.mean() - 0.1) < 0.02  # density is symmetric about 0.1
    assert np.all(np.abs(d - 0.1) < 2.0)


def test_gibbs_sampler_explicit_support():
    rng = np.random.default_rng(3)
    d = gibbs_sampler_1d(lambda x: 0.5 * x * x, beta=2.0, support=(-1.0, 1.25),
                         rng=rng, n_draws=5_000)
    assert d.min() >= -1.0
    assert d.max() <= 1.25


def test_gibbs_sampler_validation():
    rng = np.random.default_rng(4)
    u = lambda x: 0.5 * x * x
    with pytest.raises(ValueError):
        gibbs_sampler_1d(u, beta=0.0, support=None, rng=rng, n_draws=10)
    with pytest.raises(ValueError):
        gibbs_sampler_1d(u, beta=1.0, support=None, rng=rng, n_draws=0)
    with pytest.raises(ValueError):
        gibbs_sampler_1d(u, beta=1.0, support=(2.0, 1.0), rng=rng, n_draws=10)
    with pytest.raises(ValueError):
        # exp(+beta x^2) is not integrable; auto-widening must give up
        gibbs_sampler_1d(lambda x: -x * x, beta=1.0, support=None, rng=rng, n_draws=10)
    with pytest.raises(ValueError):
        gibbs_sampler_1d(lambda x: np.sqrt(x), beta=1.0, support=(-2.0, 2.0),
                         rng=rng, n_draws=10)


# ---------------------------------------------------------------------------
# Wasserstein distances


def test_wasserstein_hand_values():
    assert wasserstein_p_1d([0.0, 1.0], [0.0, 3.0]) == (1.0, math.sqrt(2.0))
    assert wasserstein_p_1d([1.5, -2.0], [1.5, -2.0]) == (0.0, 0.0)
    assert wasserstein_p_1d([0.0, 1.0, 2.0], [5.0, 6.0, 7.0]) == (5.0, 5.0)
    w1, w2 = wasserstein_p_1d([0.0, 0.0, 4.0], [0.0, 2.0, 2.0])
    assert math.isclose(w1, 4.0 / 3.0)
    assert w2 == 1.632993161855452
    assert wasserstein_p_1d([-1.0, 1.0], [0.0, 0.0]) == (1.0, 1.0)
    assert wasserstein_p_1d([2.0], [-3.0]) == (5.0, 5.0)


def test_wasserstein_shift_property():
    rng = np.random.default_rng(5)
    a = rng.normal(size=40)
    for w in wasserstein_p_1d(a, a + 0.75):
        assert math.isclose(w, 0.75, rel_tol=1e-12)


def test_wasserstein_unequal_sizes():
    assert wasserstein_p_1d([0.0], [1.0, 1.0, 1.0]) == (1.0, 1.0)
    a, b = [0.0, 1.0], [0.0, 0.5, 1.0]
    assert wasserstein_p_1d(a, b) == wasserstein_p_1d(b, a)


@given(
    a=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=25),
    b=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=25),
)
@example(a=[0.0], b=[699051.3269081416] * 3)  # W1 lands one ulp above W2
@example(a=[0.0], b=[1e-200])  # diff * diff underflows to 0
@settings(max_examples=150, deadline=None)
def test_wasserstein_axioms(a, b):
    w1, w2 = wasserstein_p_1d(a, b)
    assert w1 >= 0.0 and w2 >= 0.0
    assert (w1, w2) == wasserstein_p_1d(b, a)
    assert wasserstein_p_1d(a, a) == (0.0, 0.0)
    # W1 <= W2 holds exactly (Jensen), but W1 = mean(x) and W2 = sqrt(mean(x * x))
    # round independently over the same n distances x >= 0. With u = eps / 2 and
    # s = 2**-1074 the smallest subnormal: the sum of nonnegative terms rounds
    # by at most (1 + u)**(n - 1), each product, division and the sqrt by one u,
    # and a product or quotient that underflows by s / 2 at most. So
    #   W1 <= (1 + u)**n * M1 + s / 2,
    #   W2 >= (1 - u)**((n + 3) / 2) * M2 - sqrt(s),  sqrt(s) = 2**-537,
    # for the exact means M1 <= M2, and since (1 + u)**n / (1 - u)**((n + 3) / 2)
    # is 1 + (1.5 n + 1.5) u to first order,
    #   W1 <= (W2 + 2**-536) * (1 + (2 n + 4) eps).
    n = max(len(a), len(b))
    eps = np.finfo(float).eps
    assert w1 <= (w2 + 2.0 ** -536) * (1 + (2 * n + 4) * eps)


@given(
    abc=st.integers(1, 20).flatmap(
        lambda n: st.tuples(*[st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)] * 3)
    ),
)
@settings(max_examples=100, deadline=None)
def test_wasserstein_triangle_inequality_equal_sizes(abc):
    a, b, c = abc
    for lhs, ab, bc in zip(wasserstein_p_1d(a, c), wasserstein_p_1d(a, b), wasserstein_p_1d(b, c)):
        assert lhs <= (ab + bc) * (1.0 + 1e-12) + 1e-9


# ---------------------------------------------------------------------------
# the law report's block forms against their one-shot references (_law_reference)


@pytest.mark.parametrize("support", [None, (-1.5, 2.0)])
@pytest.mark.parametrize("n_draws", [1, 4095, 4096, 4097, 100_000])
def test_gibbs_sampler_matches_its_one_shot_form_bitwise(n_draws, support):
    u = lambda x: u_s_value_array(x, 2)
    got = gibbs_sampler_1d(u, 4.0, support, np.random.default_rng(11), n_draws)
    want = reference_gibbs_sampler_1d(u, 4.0, support, np.random.default_rng(11), n_draws)
    assert _is_law(got) and got.tobytes() == want.tobytes()


def _read_only(values) -> np.ndarray:
    # the form of law_report's cached Gibbs reference
    law = np.sort(values)
    law.flags.writeable = False
    return law


@pytest.mark.parametrize("sizes", [
    (4097, 4097), (512, 512), (512, 100_000), (100_000, 512), (3, 4095), (7, 13), (1, 1),
    (1, 4097),
])
def test_wasserstein_matches_its_one_shot_form_bitwise_and_keeps_its_inputs(sizes):
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal(sizes[0]), rng.gamma(2.0, size=sizes[1])
    forms = [
        lambda v: v.copy(),  # unsorted
        lambda v: v.tolist(),
        np.sort,
        _read_only,
    ]
    for form_a in forms:
        for form_b in forms:
            x, y = form_a(a), form_b(b)
            before = [np.array(v) for v in (x, y)]
            got = [w.hex() for w in wasserstein_p_1d(x, y)]
            assert got == [reference_wasserstein_p_1d(x, y, p).hex() for p in (1, 2)]
            for v, old in zip((x, y), before):
                assert np.array(v).tobytes() == old.tobytes()


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 100_000])
def test_ks_matches_its_one_shot_form_bitwise(n):
    dist = _read_only(np.random.default_rng(13).standard_normal(n) * 1.3)
    assert ks_vs_gaussian(dist, 1.2).hex() == reference_ks_vs_gaussian(dist, 1.2).hex()
    raw = np.random.default_rng(14).standard_normal(n)
    before = raw.copy()
    assert ks_vs_gaussian(raw).hex() == reference_ks_vs_gaussian(raw).hex()
    assert raw.tobytes() == before.tobytes()


def test_gaussian_quantiles_and_exact_fit():
    q = gaussian_quantiles(2.0, 5)
    assert q.shape == (5,)
    assert q[2] == 0.0
    assert q[0] == -q[4]
    assert wasserstein_p_1d(q, gaussian_quantiles(2.0, q.size)) == (0.0, 0.0)
    assert ks_vs_gaussian(gaussian_quantiles(1.0, 100), 1.0) <= 1.0 / 100.0 + 1e-12


# ---------------------------------------------------------------------------
# replica integrator


def test_terminal_law_approaches_gaussian_target():
    # quadratic drift with eta = 0: the chain is an AR(1) whose stationary
    # law is N(0, 1/beta) up to O(lam) discretization error
    algorithm = TuslaConfig(lam=0.01, beta=4.0, reg=RegularizationParams(eta=0.0, r=1.5))
    law = tusla_terminal_law(
        algorithm, 0.0, QuadraticProblem(), ConstantDataSource(),
        n_steps=2000, n_replicas=64, seed=0,
    )
    assert _is_law(law) and law.size == 64
    sd = math.sqrt(law.var())
    assert 0.3 <= sd <= 0.7
    assert abs(law.mean()) < 0.3


def test_terminal_law_is_deterministic():
    algorithm = TuslaConfig(lam=0.01, beta=4.0, reg=RegularizationParams(eta=0.0, r=1.5))
    kw = dict(n_steps=50, n_replicas=16)
    a = tusla_terminal_law(algorithm, 0.0, QuadraticProblem(), ConstantDataSource(), seed=9, **kw)
    b = tusla_terminal_law(algorithm, 0.0, QuadraticProblem(), ConstantDataSource(), seed=9, **kw)
    assert np.array_equal(a, b)


class _NoDraws:
    """A stream for chains that must fail before their first draw."""

    def sample_batch(self, rng, n):
        raise AssertionError("the law drew data")


def test_terminal_law_rejects_multidimensional_oracles():
    reg = RegularizationParams(eta=0.0, r=1.5)
    with pytest.raises(ValueError):
        tusla_terminal_law(TuslaConfig(lam=0.01, beta=1.0, reg=reg), 0.0, QuadraticProblem(d=2),
                           ConstantDataSource(), n_steps=1, n_replicas=2, seed=0)
    # the law runs TUSLA only: any other config is a TypeError, before a draw
    for algorithm in (SgldConfig(lam=0.01, beta=1.0), AdamConfig(alpha=0.01)):
        with pytest.raises(TypeError, match=type(algorithm).__name__):
            tusla_terminal_law(algorithm, 0.0, QuadraticProblem(), _NoDraws(),
                               n_steps=1, n_replicas=2, seed=0)


@pytest.mark.parametrize("n_steps, n_replicas, match", [
    (-1, 2, "n_steps must be non-negative"),
    (1, 0, "n_replicas must be >= 1"),
])
def test_terminal_law_checks_its_bounds_before_a_draw(n_steps, n_replicas, match):
    # the chain is checked as run checks it, and the replica count after it;
    # either fails before the first chunk of draws
    algorithm = TuslaConfig(lam=0.01, beta=1.0, reg=RegularizationParams(eta=0.0, r=1.5))
    with pytest.raises(ValueError, match=match):
        tusla_terminal_law(algorithm, 0.0, QuadraticProblem(), _NoDraws(),
                           n_steps=n_steps, n_replicas=n_replicas, seed=0)


_TUSLA_S2 = TuslaConfig(lam=0.01, beta=1.0, reg=RegularizationParams(0.01, 12.0))
# algorithm, n_steps, record_every, divergence threshold, exception
_BAD_CHAINS = {
    "negative-steps": (_TUSLA_S2, -1, 1, 1e10, ValueError),
    # q = 4 for s = 2 demands r >= 3
    "penalty-order": (TuslaConfig(lam=0.01, beta=1.0, reg=RegularizationParams(0.01, 2.5)),
                      1, 1, 1e10, ValueError),
    "not-a-config": (object(), 1, 1, 1e10, TypeError),
    "record-every-0": (_TUSLA_S2, 1, 0, 1e10, ValueError),
    "threshold-0": (_TUSLA_S2, 1, 1, 0.0, ValueError),
}


@pytest.mark.parametrize("case", sorted(_BAD_CHAINS))
def test_every_chain_loop_rejects_a_bad_chain_alike(case):
    # run, run_seeds of one and of two seeds and the replica law check a
    # chain in one step: the same exception type and message, before a draw;
    # the law takes no record_every or threshold
    algorithm, n_steps, record_every, threshold, error = _BAD_CHAINS[case]
    oracle, stream = UsProblem(s=2), _NoDraws()
    chain = dict(record_every=record_every, divergence_threshold=threshold)
    calls = [
        lambda: run(algorithm, [0.5], oracle, stream, n_steps, 0, **chain),
        lambda: run_seeds(algorithm, [[0.5]], oracle, stream, n_steps, (0,), **chain),
        lambda: run_seeds(algorithm, [[0.5], [0.5]], oracle, stream, n_steps, (0, 1), **chain),
    ]
    if (record_every, threshold) == (1, 1e10):
        calls.append(lambda: tusla_terminal_law(algorithm, 0.5, oracle, stream, n_steps, 4, 0))
    raised = set()
    for call in calls:
        with pytest.raises(error) as info:
            call()
        raised.add((type(info.value), str(info.value)))
    assert len(raised) == 1, raised


# oracle, stream and penalty for each law the bitwise test covers; u_s runs
# at eta = 0.01 and r = s + 10, as `tusla gibbs` does
_LAWS = {
    **{
        f"us{s}{'-unbiased' if unbiased else ''}": (
            UsProblem(s=s, unbiased=unbiased), UniformDataSource(),
            RegularizationParams(0.01, s + 10.0),
        )
        for s in (0, 2, 3, 26)
        for unbiased in (False, True)
    },
    "quadratic-eta0": (QuadraticProblem(), ConstantDataSource(), RegularizationParams(0.0, 1.5)),
    "quadratic-eta": (QuadraticProblem(), ConstantDataSource(), RegularizationParams(0.3, 1.5)),
}


def _law_outcome(law, problem, theta0, n_steps, n_replicas, seed):
    # the samples' bit patterns (or the error), and the warnings raised
    oracle, stream, reg = _LAWS[problem]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            # built here: the eta = 0.3 config warns that lam exceeds lambda_max
            algorithm = TuslaConfig(lam=0.01, beta=4.0, reg=reg)
            out = law(algorithm, theta0, oracle, stream, n_steps=n_steps,
                      n_replicas=n_replicas, seed=seed).view(np.int64).tolist()
        except ValueError as e:
            out = str(e)
    return out, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=30, deadline=None)
# 512 replicas step 64 per chunk, so 65 and 4097 steps end on a one-step
# chunk; 5000 replicas step 6 per chunk, so 7 steps do; from 1e6 the s = 26
# oracle overflows, and some or all replicas are dropped with a warning
@example("us2", 0.0, 4097, 512, 0)
@example("us26", 1e6, 65, 512, 6)
@example("us3-unbiased", -7.0, 7, 5000, 1)
@example("quadratic-eta", 1e3, 4097, 3, 2)
@example("us26", 1e6, 9, 3, 3)
@example("us26", 1e6, 7, 3, 0)
@example("us26-unbiased", 1e6, 1, 512, 4)
@example("us0", 0.0, 0, 1, 5)
@given(
    problem=st.sampled_from(sorted(_LAWS)),
    theta0=st.sampled_from([0.0, -7.0, 1e3, 1e6]),
    n_steps=st.sampled_from([0, 1, 7, 8, 9, 65, 4097]),
    n_replicas=st.sampled_from([1, 3, 512, 5000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_terminal_law_matches_per_step_reference_bitwise(
    problem, theta0, n_steps, n_replicas, seed
):
    assume(n_steps * n_replicas <= 4097 * 512)  # keeps one example under a second
    got = _law_outcome(tusla_terminal_law, problem, theta0, n_steps, n_replicas, seed)
    want = _law_outcome(reference_terminal_law, problem, theta0, n_steps, n_replicas, seed)
    assert got == want
    assert all(category is RuntimeWarning for category, _ in got[1])


def test_terminal_law_drops_diverged_replicas():
    # from 1e6 the s = 26 oracle returns inf at the multiplier 11 (one draw
    # in 11), and a replica that meets it leaves float range; the law warns
    # once with the count
    oracle, stream, reg = _LAWS["us26"]
    kw = dict(algorithm=TuslaConfig(0.01, 4.0, reg), theta0=1e6, oracle=oracle, stream=stream,
              n_replicas=3, seed=0)
    with pytest.warns(RuntimeWarning, match="2 of 3 replicas diverged"):
        ref = reference_terminal_law(n_steps=2, **kw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        law = tusla_terminal_law(n_steps=2, **kw)
    assert [str(w.message) for w in caught] == ["2 of 3 replicas diverged; dropped"]
    assert law.size == 1 and np.array_equal(law, ref)
    with pytest.warns(RuntimeWarning, match="3 of 3 replicas diverged"):
        with pytest.raises(ValueError, match="all replicas diverged"):
            tusla_terminal_law(n_steps=5, **kw)


@pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
def test_terminal_law_rejects_a_non_finite_start(monkeypatch, theta0):
    # checked with steps and replicas, before the first step (TuslaConfig
    # has checked lam and beta)
    def no_step(*args):
        raise AssertionError("the law stepped")

    monkeypatch.setattr(UsProblem, "evaluate_batch", no_step)
    oracle, stream, reg = _LAWS["us2"]
    with pytest.raises(ValueError, match="theta0"):
        tusla_terminal_law(TuslaConfig(0.01, 4.0, reg), theta0, oracle, stream, n_steps=5,
                           n_replicas=4, seed=0)


def test_terminal_law_needs_evaluate_batch():
    # a 1-D oracle with only evaluate: the law names the missing method
    # before it draws a chunk, instead of failing inside its first step
    class EvaluateOnly(GradientOracle):
        def evaluate(self, theta, x):
            return np.array(theta, dtype=np.float64)

        def meta(self):
            return OracleMeta(q=1.0, rho=1.0, L1=1.0)

    with pytest.raises(ValueError, match="evaluate_batch"):
        tusla_terminal_law(TuslaConfig(0.01, 4.0, RegularizationParams(0.0, 1.5)), 0.0,
                           EvaluateOnly(), _NoDraws(), n_steps=5, n_replicas=4, seed=0)


@pytest.mark.parametrize("n_replicas", [1, 2, 3, 512, 5000])
@pytest.mark.parametrize("problem", ["us2", "us26", "quadratic-eta"])
def test_pooled_law_matches_the_in_process_law_bitwise(monkeypatch, problem, n_replicas):
    # the law runs in process whatever the usable CPUs, so it forks nothing
    # and gives the same bits and warnings at every count
    def no_fork():
        raise AssertionError("the replica law forked")

    monkeypatch.setattr(os, "fork", no_fork)
    outcomes = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(optimizers, "_usable_cpus", lambda: cpus)
        # 9 steps at -7: 5000 replicas step 6 per chunk, fewer take one chunk
        outcomes.append(_law_outcome(tusla_terminal_law, problem, -7.0, 9, n_replicas, 11))
    assert len(outcomes[0][0]) == n_replicas
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


@pytest.mark.parametrize("problem, theta0", [("us2", 0.0), ("us26", 1e6), ("quadratic-eta", 0.0)])
def test_the_chunk_size_does_not_change_the_law(monkeypatch, problem, theta0):
    # the producer draws k steps per chunk in one call per generator, the
    # values of k per-step calls: one step per chunk (the floor of a chunk
    # below n_replicas values), 7 steps, the default of 64 and one chunk for
    # all 65 steps give the same bits and the same drop warning
    n_steps, n_replicas = 65, 512
    assert n_steps > diagnostics._LAW_CHUNK // n_replicas
    outcomes = []
    for chunk in (1, 7 * n_replicas, diagnostics._LAW_CHUNK, n_steps * n_replicas + 1):
        monkeypatch.setattr(diagnostics, "_LAW_CHUNK", chunk)
        outcomes.append(_law_outcome(tusla_terminal_law, problem, theta0, n_steps, n_replicas, 7))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    dropped = [message for _, message in outcomes[0][1] if "diverged" in message]
    assert bool(dropped) == (problem == "us26"), outcomes[0]


class _CountingStream:
    """UniformDataSource's draws, counted; the call numbered fail_at raises."""

    def __init__(self, fail_at=None):
        self.calls, self.fail_at, self.error = 0, fail_at, RuntimeError("the stream failed")

    def sample_batch(self, rng, n):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.error
        return UniformDataSource().sample_batch(rng, n)


def _law_of(stream, n_steps=300, **kw):
    # 512 replicas step 64 per chunk, so 300 steps take 5 chunks
    args = dict(algorithm=TuslaConfig(0.01, 4.0, _LAWS["us2"][2]), theta0=0.0,
                oracle=UsProblem(s=2), stream=stream, n_steps=n_steps, n_replicas=512, seed=0)
    return tusla_terminal_law(**{**args, **kw})


def test_a_producer_error_is_raised_by_the_law():
    threads, stream = threading.active_count(), _CountingStream(fail_at=2)
    with pytest.raises(RuntimeError) as info:
        _law_of(stream)
    assert info.value is stream.error and stream.calls == 2
    assert threading.active_count() == threads


def test_a_stepping_error_stops_the_producer(monkeypatch):
    # at step 70 the law steps chunk 2; the producer has put chunk 3 and,
    # with chunk 4 drawn, waits on the full queue. The error is the law's,
    # and the producer stops there: it draws no fifth chunk
    threads, stream, steps = threading.active_count(), _CountingStream(), [0]
    evaluate_batch, error = UsProblem.evaluate_batch, RuntimeError("step 70 failed")

    def failing(self, thetas, x):
        steps[0] += 1
        if steps[0] == 70:
            deadline = time.monotonic() + 30.0
            while stream.calls < 4 and time.monotonic() < deadline:
                time.sleep(0.001)
            raise error
        return evaluate_batch(self, thetas, x)

    monkeypatch.setattr(UsProblem, "evaluate_batch", failing)
    with pytest.raises(RuntimeError) as info:
        _law_of(stream)
    assert info.value is error and stream.calls == 4
    assert threading.active_count() == threads


_NO_THREAD_CASES = {
    "no-steps": (dict(n_steps=0), None),
    "negative-steps": (dict(n_steps=-1), ValueError),
    "no-replicas": (dict(n_replicas=0), ValueError),
    "non-finite-start": (dict(theta0=math.nan), ValueError),
    "not-tusla": (dict(algorithm=SgldConfig(lam=0.01, beta=1.0)), TypeError),
    "two-dimensional": (dict(oracle=QuadraticProblem(d=2)), ValueError),
}


@pytest.mark.parametrize("case", sorted(_NO_THREAD_CASES))
def test_the_law_starts_no_thread_without_a_step_to_take(monkeypatch, case):
    def no_thread(*args, **kwargs):
        raise AssertionError("the law started a thread")

    monkeypatch.setattr(diagnostics, "threading",
                        SimpleNamespace(Thread=no_thread, Event=threading.Event))
    threads, (kw, error) = threading.active_count(), _NO_THREAD_CASES[case]
    if error is None:
        assert np.array_equal(_law_of(_NoDraws(), **kw), np.zeros(512))
    else:
        with pytest.raises(error):
            _law_of(_NoDraws(), **kw)
    assert threading.active_count() == threads


# the law's kernels reuse their temporaries in place; this grid holds every
# special value for the two branch edges |theta| = 1 and |d| = 1, an overflow
# of the odd power or of the penalty power, and the non-finite values
_SPECIAL = [0.0, -0.0, 5e-324, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 1e154, 1.7e308,
            math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("s", [0, 2, 26])
@pytest.mark.parametrize("unbiased", [False, True])
def test_law_kernels_leave_their_arguments_and_return_new_buffers(s, unbiased):
    # batch_data, evaluate_batch on its multipliers, and the drift: each
    # argument keeps its bits, and each call returns a buffer that no
    # argument and no earlier result shares
    values = np.array(_SPECIAL + [-v for v in _SPECIAL] + [0.1, 1.1, -0.9])
    thetas, xs = (a.ravel() for a in np.meshgrid(values, values))
    oracle = UsProblem(s=s, unbiased=unbiased)
    reg = RegularizationParams(0.01, s + 10.0)

    def unchanged(call, *args):
        before = [a.copy() for a in args]
        out = [call(*args), call(*args)]
        for a, b in zip(args, before):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        for arr in out:
            assert not any(np.shares_memory(arr, a) for a in args)
        assert not np.shares_memory(out[0], out[1])
        assert np.array_equal(out[0].view(np.int64), out[1].view(np.int64))
        return out[0]

    block = xs.reshape(1, -1).copy()
    (step,) = oracle.batch_data(block)
    assert np.array_equal(block[0].view(np.int64), xs.view(np.int64))
    assert not np.shares_memory(step, block)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller's, as in the law
        g = unchanged(oracle.evaluate_batch, thetas, step)
        want = us_evaluate_batch(oracle, thetas, xs)
        assert np.array_equal(g.view(np.int64), want.view(np.int64))
        for grad in (g, thetas[::-1].copy()):
            unchanged(lambda a, b: overflow_safe_drift_batch(a, b, 0.01, reg), grad, thetas)
