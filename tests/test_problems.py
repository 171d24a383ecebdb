"""Benchmark-problem tests: hand-computed values, estimator identities,
finite-difference checks, and the scalar/batch agreement contract."""
import dataclasses
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _loop_reference import (
    g_s_sample,
    g_s_unbiased,
    us_evaluate_batch,
    us_evaluate_batch_signed_pow,
    us_odd_power,
)
from _suites import data_norm, growth_envelope
from tusla.gradient_oracle import _guard_pow
from tusla.problems import (
    ConstantDataSource,
    OneNeuronProblem,
    QuadraticProblem,
    UniformDataSource,
    UsProblem,
    one_neuron_gradient,
    one_neuron_parameters,
    one_neuron_value,
    u_s_value,
    u_s_value_array,
)

EPS = np.finfo(np.float64).eps
CENTER = 0.1


def u_s_derivative(theta: float, s: int) -> float:
    """Exact derivative of u_s (continuous; the branches agree at |d| = 1)."""
    d = theta - CENTER
    pen = 0.0 if s == 0 else 2.0 * s * _guard_pow(d, 2 * s - 1)
    if abs(d) <= 1.0:
        return d / 11.0 + pen
    return math.copysign(1.0 / 11.0, d) + pen


# ---------------------------------------------------------------------------
# u_s values


def test_u_s_hand_values():
    assert u_s_value(1.1, 2) == 1.0454545454545454
    assert u_s_value(2.1, 2) == 16.136363636363637


def test_u_s_minimum_at_center():
    # s = 0 degenerates to a constant unit penalty: the minimum shifts to 1
    for s in (0, 1, 2, 26):
        floor = 1.0 if s == 0 else 0.0
        assert u_s_value(CENTER, s) == floor
        grid = CENTER + np.concatenate([np.linspace(-4.0, -0.01, 300), np.linspace(0.01, 4.0, 300)])
        vals = u_s_value_array(grid, s)
        assert np.all(vals > floor)


def test_u_s_branch_forms_coincide_at_boundary():
    # the two closed forms agree bitwise at |d| = 1 because the constants do
    assert 1.0 / 22.0 == 0.5 / 11.0
    for s in (0, 1, 2, 26):
        d = 1.0
        inner = d * d / 22.0 + d ** (2 * s)
        outer = (abs(d) - 0.5) / 11.0 + d ** (2 * s)
        assert inner == outer
        # value is continuous through the switch point theta = 1.1
        lo = u_s_value(math.nextafter(1.1, 0.0), s)
        hi = u_s_value(math.nextafter(1.1, 2.0), s)
        at = u_s_value(1.1, s)
        width = max(abs(at), 1.0)
        assert abs(lo - at) <= 64 * EPS * width
        assert abs(hi - at) <= 64 * EPS * width


def test_u_s_derivative_continuous_at_boundary():
    for s in (0, 1, 2, 5):
        at = u_s_derivative(1.1, s)
        below = u_s_derivative(math.nextafter(1.1, 0.0), s)
        above = u_s_derivative(math.nextafter(1.1, 2.0), s)
        width = max(abs(at), 1.0)
        assert abs(below - at) <= 64 * EPS * width
        assert abs(above - at) <= 64 * EPS * width


def test_u_s_derivative_matches_finite_difference():
    offsets = [-2.5, -1.5, -0.7, -0.3, -0.05, 0.05, 0.3, 0.7, 1.5, 2.5]
    for s in (0, 1, 2, 5):
        for off in offsets:
            theta = CENTER + off
            h = 1e-6 * max(1.0, abs(theta))
            fd = (u_s_value(theta + h, s) - u_s_value(theta - h, s)) / (2.0 * h)
            want = u_s_derivative(theta, s)
            assert math.isclose(fd, want, rel_tol=1e-6, abs_tol=1e-9)


def _u_s_bits(thetas: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    want = np.array([u_s_value(t, s) for t in thetas.tolist()], dtype=np.float64)
    return u_s_value_array(thetas, s).view(np.int64), want.view(np.int64)


@pytest.mark.parametrize("s", [0, 1, 2, 3, 26])
def test_u_s_value_array_is_u_s_value_bitwise(s):
    # random theta at each scale from 1e-3 to 1e200, one array per scale, so
    # the scales whose penalty fits float64 take the array pass; the branch
    # edges, +-0, +-inf and nan; and |theta| = 1e7 at s = 26, whose penalty
    # overflows, so that the array is taken by u_s_value
    rng = np.random.default_rng(s)
    for scale in 10.0 ** np.arange(-3, 201):
        got, want = _u_s_bits(rng.standard_normal(400) * scale, s)
        np.testing.assert_array_equal(got, want, err_msg=f"s = {s}, scale {scale:g}")
    edges = [CENTER, 1.1, -0.9, 0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    edges += [math.nextafter(t, d) for t in (1.1, -0.9) for d in (-2.0, 2.0)]
    np.testing.assert_array_equal(*_u_s_bits(np.array(edges), s))
    wall = np.array([1e7, -1e7, 0.5])
    if s == 26:
        with pytest.raises(OverflowError):
            math.pow(1e7 - CENTER, 2 * s)
    np.testing.assert_array_equal(*_u_s_bits(wall, s))


def test_u_s_overflow_saturates_to_inf():
    # (1e7)^52 and (1e7)^51 both exceed the float64 range; the python-float
    # pow path must saturate with the right sign instead of raising
    assert u_s_value(1e7, 26) == math.inf
    assert u_s_value(-1e7, 26) == math.inf
    assert u_s_derivative(1e7, 26) == math.inf
    assert u_s_derivative(-1e7, 26) == -math.inf


# ---------------------------------------------------------------------------
# gradient estimators


def test_g_s_hand_values():
    prob = UsProblem(s=2)
    assert prob.evaluate_scalar(1.1, 0.5) == 55.0
    assert prob.evaluate_scalar(1.1, 5.0) == -5.0


def test_estimators_vanish_at_minimizer():
    for s in (0, 1, 2, 26):
        for unbiased in (False, True):
            prob = UsProblem(s=s, unbiased=unbiased)
            for x in (0.0, 0.5, 1.0, 4.2, 11.0):
                assert prob.evaluate_scalar(CENTER, x) == 0.0


def test_unbiased_estimator_mean_is_exact_derivative():
    # E[multiplier] = 1/11, so the closed-form mean is lin/11 + pen
    for s in (0, 1, 2, 5):
        for theta in (-1.9, -0.4, 0.3, 0.9, 1.7, 3.2):
            d = theta - CENTER
            pen = 0.0 if s == 0 else 2.0 * s * d ** (2 * s - 1)
            lin = d if abs(d) <= 1.0 else math.copysign(1.0, d)
            mean = (1.0 / 11.0) * lin + pen
            want = u_s_derivative(theta, s)
            assert math.isclose(mean, want, rel_tol=1e-14, abs_tol=1e-300)


def test_unbiased_estimator_monte_carlo_mean():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.0, 11.0, 400_000)
    theta, s = 1.7, 2
    prob = UsProblem(s=s, unbiased=True)
    samples = np.array([prob.evaluate_scalar(theta, float(x)) for x in xs[:50_000]])
    sem = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - u_s_derivative(theta, s)) <= 4.0 * sem


def test_printed_estimator_is_biased():
    # mean is bracket/11, far from u_s' once the wall term dominates
    rng = np.random.default_rng(13)
    xs = rng.uniform(0.0, 11.0, 50_000)
    theta, s = 1.7, 2
    prob = UsProblem(s=s)
    samples = np.array([prob.evaluate_scalar(theta, float(x)) for x in xs])
    sem = samples.std(ddof=1) / math.sqrt(samples.size)
    d = theta - CENTER
    bracket = (abs(d) - 0.5) + 2.0 * s * d ** (2 * s - 1)
    assert abs(samples.mean() - bracket / 11.0) <= 4.0 * sem
    assert abs(bracket / 11.0 - u_s_derivative(theta, s)) > 1.0


def _printed_mean_field(theta: float, s: int) -> float:
    # mean of the default estimator over x ~ U[0, 11]: a midpoint grid of 1000
    # cells per unit weights the multiplier's [0, 1] branch by exactly 1/11
    xs = (np.arange(11_000) + 0.5) / 1000.0
    prob = UsProblem(s=s)
    return float(np.mean([prob.evaluate_scalar(theta, float(x)) for x in xs]))


@pytest.mark.parametrize("s", [2, 3])
def test_printed_estimator_mean_field_has_two_basin_zeros(s):
    # Inside the basin the mean field is (d^2 + 2s d^(2s-1))/11, d = theta - 0.1.
    # Its zero at d = 0 is only semi-stable (the field is >= 0 on both sides),
    # while d* = -(2s)^(-1/(2s-3)) is stable: for s = 2, theta = -0.15. A
    # low-temperature chain can settle there, |theta - 0.1| = 0.25, and still
    # pass a "median < 0.5" check without finding the minimizer.
    for theta in (-0.7, -0.3, 0.05, 0.4, 0.9):
        d = theta - CENTER
        want = (d * d + 2.0 * s * d ** (2 * s - 1)) / 11.0
        assert math.isclose(_printed_mean_field(theta, s), want, rel_tol=1e-12)

    assert _printed_mean_field(CENTER, s) == 0.0
    for h in (1e-3, 0.05, 0.1):
        assert _printed_mean_field(CENTER - h, s) > 0.0
        assert _printed_mean_field(CENTER + h, s) > 0.0

    d_star = -((2.0 * s) ** (-1.0 / (2 * s - 3)))
    if s == 2:
        assert d_star == -0.25 and math.isclose(CENTER + d_star, -0.15)
    theta_star = CENTER + d_star
    assert abs(_printed_mean_field(theta_star, s)) < 1e-15
    for h in (1e-3, 0.05):
        assert _printed_mean_field(theta_star - h, s) < 0.0  # drift -mean pushes theta up
        assert _printed_mean_field(theta_star + h, s) > 0.0  # and down: a stable zero


def test_printed_estimator_jumps_at_branch_switch():
    prob = UsProblem(s=0)
    lo = prob.evaluate_scalar(math.nextafter(1.1, 0.0), 0.5)
    hi = prob.evaluate_scalar(math.nextafter(1.1, 2.0), 0.5)
    assert abs(lo - hi) > 5.0  # bracket steps from d^2 = 1 to |d| - 0.5 = 1/2


def test_evaluate_batch_matches_scalar():
    rng = np.random.default_rng(5)
    for s in (0, 1, 2, 26):
        thetas = np.concatenate([rng.uniform(-3.0, 3.0, 800), rng.uniform(-8.0, 8.0, 800)])
        xs = rng.uniform(0.0, 11.0, thetas.size)
        d = np.abs(thetas - CENTER)
        with np.errstate(over="ignore"):
            pen = np.zeros_like(d) if s == 0 else 2.0 * s * d ** (2 * s - 1)
        # error measured before the final cancellation, through the 11x
        # multiplier; vectorized pow is not bitwise against libm pow
        scale = 11.0 * (d * d + d + 1.0 + pen)
        for unbiased in (False, True):
            prob = UsProblem(s=s, unbiased=unbiased)
            batch = prob.evaluate_batch(thetas, prob.batch_data(xs))
            scalar = np.array(
                [prob.evaluate_scalar(float(t), float(x)) for t, x in zip(thetas, xs)]
            )
            finite = np.isfinite(scalar)
            assert np.array_equal(batch[~finite], scalar[~finite])
            gap = np.abs(batch[finite] - scalar[finite])
            assert np.all(gap <= 4.0 * np.spacing(scale[finite]))


def test_evaluate_batch_is_the_out_of_place_form_bitwise():
    # the in-place add and multiply round as the reference form's, also at
    # theta* itself (d = +0, times -1), the branch edges and non-finite theta
    rng = np.random.default_rng(6)
    special = [CENTER, CENTER + 1.0, CENTER - 1.0, 0.0, -0.0, 1e300, -1e300,
               math.inf, -math.inf, math.nan]
    thetas = np.concatenate([rng.uniform(-8.0, 8.0, 400), np.repeat(special, 2)])
    xs = np.concatenate([rng.uniform(0.0, 11.0, 400), np.tile([0.5, 5.0], len(special))])
    for s in (0, 1, 2, 26):
        for unbiased in (False, True):
            prob = UsProblem(s=s, unbiased=unbiased)
            with np.errstate(over="ignore", invalid="ignore"):
                got = prob.evaluate_batch(thetas, prob.batch_data(xs))
            want = us_evaluate_batch(prob, thetas, xs)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (s, unbiased)


DBL_MAX = sys.float_info.max
_PEN_BASES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, DBL_MAX, -DBL_MAX,
                     5e-324, -5e-324, 2.2e-308, -2.2e-308]),
    st.floats(-8.0, 8.0, exclude_min=True, exclude_max=True),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 3, 26]), st.lists(_PEN_BASES, min_size=1, max_size=64))
def test_copysign_odd_power_is_the_signed_power_within_an_ulp(s, ds):
    # evaluate_batch takes the odd power on |d| and signs it; the signed-base
    # pow it replaced can differ in the last bit, for negative d only. The
    # scale by 2s rounds once more, so the whole pens may differ by 2 ulps
    d = np.array(ds)
    e = 2 * s - 1
    with np.errstate(over="ignore", invalid="ignore"):
        old, new = d ** e, us_odd_power(d, e)
        old_pen, new_pen = 2.0 * s * old, 2.0 * s * new
    for a, b, limit in ((old, new, 1), (old_pen, new_pen, 2)):
        ia, ib = a.view(np.int64), b.view(np.int64)
        exact = (d >= 0.0) | np.isnan(d) | ~(np.isfinite(a) & np.isfinite(b))
        exact |= (a == 0.0) | (b == 0.0)
        assert np.array_equal(ia[exact], ib[exact])
        assert np.all(np.sign(a[~exact]) == np.sign(b[~exact]))
        assert np.all(np.abs(ia[~exact] - ib[~exact]) <= limit)


def test_law_gradient_keeps_its_bits_where_d_is_not_negative():
    # the copysign form can move only lanes with d < 0, and none at s <= 1
    rng = np.random.default_rng(8)
    thetas = np.concatenate([rng.uniform(CENTER, 8.0, 400), rng.uniform(-8.0, 8.0, 400)])
    xs = rng.uniform(0.0, 11.0, thetas.size)
    for s in (0, 1, 2, 26):
        for unbiased in (False, True):
            prob = UsProblem(s=s, unbiased=unbiased)
            new = us_evaluate_batch(prob, thetas, xs).view(np.int64)
            old = us_evaluate_batch_signed_pow(prob, thetas, xs).view(np.int64)
            kept = slice(None) if s <= 1 else slice(0, 400)
            assert np.array_equal(new[kept], old[kept]), (s, unbiased)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _pow_overflow_edge(e: int) -> float:
    # the largest float d for which the float power d ** e does not raise
    d = math.exp(math.log(DBL_MAX) / e)
    while True:
        try:
            d ** e
            break
        except OverflowError:
            d = math.nextafter(d, 0.0)
    while True:
        up = math.nextafter(d, math.inf)
        try:
            up ** e
        except OverflowError:
            return d
        d = up


def _around(v: float, k: int = 3) -> list[float]:
    out = [v]
    lo = hi = v
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


_EDGE = _pow_overflow_edge(51)
_SCALAR_THETAS = sorted(
    set(_around(CENTER + 1.0) + _around(CENTER - 1.0) + _around(CENTER)
        + [t for a in (_EDGE, 9.78e5) for t in _around(CENTER + a) + _around(CENTER - a)]
        + [0.0, -0.0, 2.5, -2.5, 1e300, -1e300, math.inf, -math.inf])
) + [math.nan]
_SCALAR_XS = [0.0, math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0),
              1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 5.0, math.nan]


@pytest.mark.parametrize("s", [0, 1, 2, 26])
@pytest.mark.parametrize("unbiased", [False, True])
def test_evaluate_scalar_is_the_nested_estimator_bitwise(s, unbiased):
    # one frame, the same bits as g_s_sample/g_s_unbiased over _multiplier
    # and _guard_pow: at the branch edges, the multiplier's edges, nan, and
    # the s = 26 overflow edge, where d ** 51 raises and saturates to inf
    prob = UsProblem(s=s, unbiased=unbiased)
    ref = g_s_unbiased if unbiased else g_s_sample
    for theta in _SCALAR_THETAS:
        for x in _SCALAR_XS:
            got = prob.evaluate_scalar(theta, x)
            assert _bits(got) == _bits(ref(theta, x, s)), (theta, x)
    if s == 26:
        raised = 0
        for theta in _SCALAR_THETAS:
            d = theta - CENTER
            try:
                d ** 51
            except OverflowError:
                raised += 1
                for x in (0.5, 5.0):
                    got = prob.evaluate_scalar(theta, x)
                    sign = math.copysign(1.0, d) * (1.0 if unbiased or x <= 1.0 else -1.0)
                    assert got == sign * math.inf, (theta, x)
        assert raised >= 4  # both signs, past the edge


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0, 1, 2, 26]),
    st.booleans(),
    st.one_of(st.floats(-8.0, 8.0), st.floats(-2e6, 2e6), st.floats()),
    st.one_of(st.floats(0.0, 11.0), st.floats()),
)
def test_evaluate_scalar_matches_the_nested_estimator_anywhere(s, unbiased, theta, x):
    ref = g_s_unbiased if unbiased else g_s_sample
    assert _bits(UsProblem(s=s, unbiased=unbiased).evaluate_scalar(theta, x)) == _bits(
        ref(theta, x, s)
    )


@pytest.mark.parametrize("unbiased", [False, True])
def test_replaced_and_s0_oracles_evaluate_like_fresh_ones(unbiased):
    # the wall term's factor and exponent are set from s in __post_init__,
    # which replace runs again; they stay out of repr, equality and the hash
    replaced = dataclasses.replace(UsProblem(s=2, unbiased=unbiased), s=26)
    ref = g_s_unbiased if unbiased else g_s_sample
    for prob, s in ((replaced, 26), (UsProblem(s=0, unbiased=unbiased), 0)):
        fresh = UsProblem(s=s, unbiased=unbiased)
        assert prob == fresh and hash(prob) == hash(fresh)
        assert repr(prob) == repr(fresh) == (
            f"UsProblem(s={s}, unbiased={unbiased}, theta_star=0.1)"
        )
        for theta in _SCALAR_THETAS:
            for x in _SCALAR_XS:
                got = _bits(prob.evaluate_scalar(theta, x))
                assert got == _bits(fresh.evaluate_scalar(theta, x)) == _bits(ref(theta, x, s)), (
                    s, theta, x,
                )
    assert replaced != UsProblem(s=2, unbiased=unbiased)


def test_evaluate_wraps_scalar():
    prob = UsProblem(s=2)
    out = prob.evaluate(np.array([1.7]), 0.3)
    assert out.shape == (1,)
    assert out[0] == prob.evaluate_scalar(1.7, 0.3) == g_s_sample(1.7, 0.3, 2)


# ---------------------------------------------------------------------------
# data sources and oracle metadata


def test_uniform_source_statistics():
    src = UniformDataSource()
    rng = np.random.default_rng(2)
    xs = src.sample_batch(rng, 1_000_000)
    assert xs.min() >= 0.0 and xs.max() <= 11.0
    assert abs(xs.mean() - 5.5) < 0.02
    frac = np.mean((xs >= 0.0) & (xs <= 1.0))
    assert abs(frac - 1.0 / 11.0) < 0.002


def test_constant_source():
    src = ConstantDataSource(value=(1.0, -2.0))
    rng = np.random.default_rng(0)
    assert src.sample(rng) == (1.0, -2.0)
    batch = src.sample_batch(rng, 3)
    assert batch.shape == (3, 2)
    assert np.all(batch == np.array([1.0, -2.0]))


def test_us_meta_and_validation():
    assert UsProblem(s=0).meta().q == 1.0
    assert UsProblem(s=2).meta().q == 4.0
    assert UsProblem(s=26).meta().q == 52.0
    for s in (0, 1, 2, 26):  # degree() is meta().q without the L1 grid
        assert UsProblem(s=s).degree() == UsProblem(s=s).meta().q
    assert UsProblem(s=2).meta().rho == 1.0
    assert UsProblem(s=2).meta().L1 > 0.0
    assert UsProblem(s=2).theta_star == CENTER
    assert UsProblem(s=2).dim() == 1
    with pytest.raises(ValueError):
        UsProblem(s=-1)
    with pytest.raises(ValueError):
        UsProblem(s=2.0)  # type: ignore[arg-type]


def _us_l1_whole_grid(s: int, unbiased: bool) -> float:
    # the L1 grid maximization over all 400001 points in one pass
    q = max(2 * s, 1)
    xs = np.linspace(-8.0, 8.2, 400001)
    d = xs - CENTER
    with np.errstate(over="ignore"):
        pen_d = np.zeros_like(d) if s == 0 else 2.0 * s * (2 * s - 1) * d ** (2 * s - 2)
    inner = np.abs(d) <= 1.0
    if unbiased:
        deriv = 11.0 * inner.astype(float) + np.abs(pen_d)
    else:
        deriv = 11.0 * (np.where(inner, 2.0 * np.abs(d), 1.0) + np.abs(pen_d))
    return 1.1 * float(np.max(deriv / (1.0 + np.abs(xs)) ** (q - 1)))


@pytest.mark.parametrize("s", [0, 1, 2, 26])
@pytest.mark.parametrize("unbiased", [False, True])
def test_us_l1_grid_chunks_match_the_whole_grid(s, unbiased):
    assert UsProblem(s=s, unbiased=unbiased).meta().L1 == _us_l1_whole_grid(s, unbiased)


def _monte_carlo(f, n, seed):
    # (mean of f(X), standard error) over n draws of X ~ U[0, 11]
    stream, rng = UniformDataSource(), np.random.default_rng(seed)
    vals = np.array([f(stream.sample(rng)) for _ in range(n)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


def test_us_k_mean_exact_vs_monte_carlo():
    for unbiased in (False, True):
        prob = UsProblem(s=2, unbiased=unbiased)
        est, sem = _monte_carlo(lambda x: growth_envelope(prob, x), 20_000, seed=0)
        assert abs(est - prob.k_mean_exact()) <= 5.0 * sem


def test_us_x_rho_mean_exact_vs_monte_carlo():
    prob = UsProblem(s=2)
    assert prob.x_rho_mean_exact() == 6.5
    rho = prob.meta().rho
    est, sem = _monte_carlo(lambda x: (1.0 + data_norm(x)) ** rho, 20_000, seed=0)
    assert abs(est - 6.5) <= 5.0 * sem


def test_quadratic_problem():
    prob = QuadraticProblem(d=3)
    assert prob.dim() == 3
    assert prob.theta_star == 0.0
    m = prob.meta()
    assert (m.q, m.rho, m.L1) == (1.0, 1.0, 1.0)
    theta = np.array([3.0, 0.0, -4.0])
    g = prob.evaluate(theta, None)
    assert np.array_equal(g, theta)
    g[0] = 99.0  # returned array is a copy
    assert theta[0] == 3.0
    # the moments `tusla constants` reads, at the constant data 0 it runs on
    assert prob.k_mean_exact() == growth_envelope(QuadraticProblem(), 0.0) == 2.0
    assert prob.x_rho_mean_exact() == 1.0
    batch = prob.evaluate_batch(np.array([1.0, -2.0]), None)
    assert np.array_equal(batch, np.array([1.0, -2.0]))


# ---------------------------------------------------------------------------
# one-neuron example


def test_one_neuron_parameters_solve_the_offset_equation():
    for eta in (0.0, 0.01, 0.5):
        w1s, s_off = one_neuron_parameters(eta)
        assert w1s * 1.0 + s_off == -1.0
        assert w1s == (5.0 + eta) * (1.0 + math.pi ** 2 / 16.0)


def test_one_neuron_gradient_matches_finite_difference():
    rng = np.random.default_rng(21)
    for eta in (0.01, 0.3):
        for _ in range(50):
            w1, w2 = rng.uniform(-3.0, 3.0, 2)
            x, y = rng.uniform(-2.0, 2.0, 2)
            g = one_neuron_gradient(w1, w2, x, y, eta)
            h = 1e-6

            def val(a, b):
                return one_neuron_value(a, b, x, y, eta)

            fd = np.array(
                [
                    (val(w1 + h, w2) - val(w1 - h, w2)) / (2.0 * h),
                    (val(w1, w2 + h) - val(w1, w2 - h)) / (2.0 * h),
                ]
            )
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_one_neuron_structural_zero():
    # with w2 = 0 and no penalty the first component is exactly zero
    g = one_neuron_gradient(1.3, 0.0, 0.7, 2.0, 0.0)
    assert g[0] == 0.0


def test_one_neuron_escapes_quadratic_dissipativity():
    # along w = (w1_star, t) with sample (x, y) = (1, 0) the inner product
    # <grad, w> stays below -2 t^2 + 2 eta w1_star^2, so it outruns every
    # A |w|^2 - B envelope in the t -> infinity direction
    for eta in (0.01, 0.1, 0.5):
        prob = OneNeuronProblem(eta=eta)
        for t in (1.0, 10.0, 100.0, 1000.0):
            w = np.array([prob.w1_star, t])
            g = prob.evaluate(w, (1.0, 0.0))
            inner = float(g @ w)
            assert inner <= -2.0 * t * t + 2.0 * eta * prob.w1_star ** 2 + 1e-9


def test_one_neuron_meta_and_validation():
    prob = OneNeuronProblem()
    m = prob.meta()
    assert (m.q, m.rho, m.L1) == (3.0, 2.0, 12.0)
    assert prob.dim() == 2
    with pytest.raises(ValueError):
        OneNeuronProblem(eta=1.0)
    with pytest.raises(ValueError):
        OneNeuronProblem(eta=-0.1)
