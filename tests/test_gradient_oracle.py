"""Taming transform, growth envelopes, and step-size ceiling."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _loop_reference import (
    overflow_safe_drift_batch_two_power,
    overflow_safe_drift_scalar,
    regularized_gradient,
    tamed_gradient,
)
from _suites import (
    g_growth_violations,
    h_growth_violations,
    drift_lipschitz_violations,
    growth_envelope,
    sqr_growth_violations,
)
from tusla.gradient_oracle import (
    GradientOracle,
    OracleMeta,
    RegularizationParams,
    lambda_max,
    overflow_safe_drift,
    overflow_safe_drift_batch,
    parameter_vector,
    safe_norm,
    safe_row_norms,
)
from tusla.problems import (
    OneNeuronProblem,
    QuadraticProblem,
    UniformDataSource,
    UsProblem,
)

EPS = np.finfo(np.float64).eps


# ------------------------------------------------------- constructors, norms


def test_parameter_vector_accepts_and_copies():
    src = [1.0, -2.5, 3.0]
    v = parameter_vector(src)
    assert v.dtype == np.float64 and v.shape == (3,)
    arr = np.array(src)
    w = parameter_vector(arr)
    w[0] = 99.0
    assert arr[0] == 1.0  # must copy, never alias

    assert parameter_vector(2.0).shape == (1,)


@pytest.mark.parametrize("bad", [[1.0, math.nan], [math.inf], [[1.0, 2.0]]])
def test_parameter_vector_rejects(bad):
    with pytest.raises(ValueError):
        parameter_vector(bad)


def test_safe_norm_scalar_is_exact_abs():
    for x in [0.0, -0.0, 1.7, -3.3e200, 5e-310]:
        assert safe_norm(np.array([x])) == abs(x)


def test_safe_norm_survives_huge_components():
    v = np.array([3e160, 4e160])
    assert safe_norm(v) == pytest.approx(5e160, rel=1e-15)
    assert safe_norm(np.zeros(4)) == 0.0
    assert safe_norm(np.array([1e308, 1e308])) == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)


def test_safe_norm_keeps_precision_for_tiny_components():
    # squares of entries below ~1.5e-154 are subnormal; without rescaling,
    # |(0, 0, 0, 5.63e-159)| came out 3e-8 relatively too large, which broke
    # the second cap of test_taming_dominance
    assert safe_norm(np.array([3e-160, 4e-160])) == pytest.approx(5e-160, rel=1e-15)
    assert safe_norm(np.array([0.0, 0.0, 0.0, 5.63001137e-159])) == 5.63001137e-159
    assert safe_norm(np.array([5e-324, 0.0])) == 5e-324


def _reference_safe_norm(v: np.ndarray) -> float:
    # the fromnumeric-dispatch form, np.max(np.abs(v)), that safe_norm
    # replaced by np.abs(v).max(); same branches and arithmetic otherwise
    if v.size == 1:
        return abs(float(v[0]))
    m = float(np.max(np.abs(v)))
    if not math.isfinite(m):
        return math.inf
    if m == 0.0:
        return 0.0
    if m > 1e150 or m < 1e-150:
        w = v / m
        return m * math.sqrt(float(np.dot(w, w)))
    return math.sqrt(float(np.dot(v, v)))


_NORM_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0,
                     1e150, math.nextafter(1e150, 0.0), math.nextafter(1e150, math.inf)]),
    st.floats(1e149, 1e151),
    st.floats(-1e151, -1e149),
    st.floats(-1e-300, 1e-300),
    # within a factor of 10 of the max entries at safe_row_norms' cut points,
    # sqrt(1e299) and sqrt(1e-299)
    st.floats(3.2e148, 3.2e150),
    st.floats(-3.2e-149, -3.2e-151),
)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(_NORM_CELLS, min_size=1, max_size=9))
def test_safe_norm_matches_reference_bitwise(cells):
    v = np.array(cells, dtype=np.float64)
    got, want = safe_norm(v), _reference_safe_norm(v)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


_NORM_ROWS = st.integers(1, 9).flatmap(
    lambda d: st.lists(
        st.one_of(
            st.lists(_NORM_CELLS, min_size=d, max_size=d),
            # every entry below 1e-150, or one above 1e150: the rescaled branches
            st.lists(st.floats(-1e-150, 1e-150), min_size=d, max_size=d),
            st.lists(st.floats(-1e-300, 1e-300), min_size=d - 1, max_size=d - 1).map(
                lambda row: row + [1.7e308]
            ),
            # every entry near a cut point, or all in range: blocks that mix
            # rows either side of the cut points
            st.lists(st.floats(-3.2e150, 3.2e150).filter(lambda c: abs(c) > 3.2e148),
                     min_size=d, max_size=d),
            st.lists(st.floats(-3.2e-149, 3.2e-149).filter(lambda c: abs(c) > 3.2e-151),
                     min_size=d, max_size=d),
            st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d),
        ),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=300, deadline=None)
@given(rows=_NORM_ROWS)
def test_safe_row_norms_match_reference_bitwise(rows):
    v = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    got = safe_row_norms(v)
    want = np.array([_reference_safe_norm(row) for row in v])
    assert got.shape == (len(rows),)
    assert got.tobytes() == want.tobytes()


def test_meta_and_reg_validation():
    with pytest.raises(ValueError):
        OracleMeta(q=0.5, rho=1.0, L1=1.0)
    with pytest.raises(ValueError):
        OracleMeta(q=1.0, rho=0.0, L1=1.0)
    with pytest.raises(ValueError):
        OracleMeta(q=1.0, rho=1.0, L1=0.0)
    with pytest.raises(ValueError):
        RegularizationParams(eta=1.0, r=2.0)
    with pytest.raises(ValueError):
        RegularizationParams(eta=-0.1, r=2.0)
    with pytest.raises(ValueError):
        RegularizationParams(eta=0.5, r=0.0)

    reg = RegularizationParams(eta=0.5, r=3.0)
    reg.require_order(4.0)  # 3 >= 4/2 + 1
    with pytest.raises(ValueError):
        reg.require_order(4.1)


# ----------------------------------------------------------- hand-value pins


def test_regularized_gradient_hand_value():
    # |theta| = 5, eta |theta|^2 = 12.5, times theta
    g = np.zeros(2)
    theta = np.array([3.0, 4.0])
    out = regularized_gradient(g, theta, RegularizationParams(eta=0.5, r=1.0))
    assert out.tolist() == [37.5, 50.0]


def test_regularized_gradient_eta_zero_returns_copy():
    g = np.array([1.0, 2.0])
    out = regularized_gradient(g, np.array([5.0, 5.0]), RegularizationParams(eta=0.0, r=1.0))
    assert out.tolist() == [1.0, 2.0]
    assert out is not g


def test_tamed_gradient_hand_value():
    out = tamed_gradient(np.array([6.0]), np.array([2.0]), lam=0.25, r=1.0)
    assert out.tolist() == [2.0]


def test_drift_limit_fixture_eta_theta_over_sqrt_lam():
    # g = 0, theta = 1e8, lam = 0.01, eta = 0.01, r = 12: the safe branch
    # returns ~eta * theta / sqrt(lam) = 1e7 (checked to 60 digits offline,
    # deviation ~1e-54); the plain two-stage form is still finite here and
    # must agree.
    reg = RegularizationParams(eta=0.01, r=12.0)
    val = overflow_safe_drift_scalar(0.0, 1e8, 0.01, reg.eta, reg.r)
    assert val == pytest.approx(1e7, rel=1e-12)
    plain = tamed_gradient(
        regularized_gradient(np.array([0.0]), np.array([1e8]), reg), np.array([1e8]), 0.01, reg.r
    )
    assert plain[0] == pytest.approx(val, rel=1e-12)


def test_safe_drift_finishes_where_plain_form_overflows():
    # at theta = 1e5, r = 36 the penalty term eta*theta^73 ~ 1e363 overflows
    # the two-stage form to inf while the rescaled branch stays finite
    reg = RegularizationParams(eta=0.01, r=36.0)
    theta = np.array([1e5])
    g = np.array([0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        plain = tamed_gradient(regularized_gradient(g, theta, reg), theta, 0.05, reg.r)
    assert not np.isfinite(plain[0])
    safe = overflow_safe_drift(g, theta, [safe_norm(theta)], 0.05, reg)
    assert np.isfinite(safe[0])
    assert safe[0] == pytest.approx(0.01 * 1e5 / math.sqrt(0.05), rel=1e-12)


def test_drift_rejects_bad_step_size():
    reg = RegularizationParams(eta=0.1, r=2.0)
    for lam in [0.0, -1.0, math.inf, math.nan]:
        with pytest.raises(ValueError):
            overflow_safe_drift(np.array([1.0]), np.array([1.0]), [1.0], lam, reg)


_BOUNDARY = (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0))


@st.composite
def _stack_row(draw, d):
    # a signed basis vector of a boundary norm, or any row of norm 1e-3..1e3
    if draw(st.booleans()):
        row = np.zeros(d)
        row[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 1.0])) * draw(
            st.sampled_from(_BOUNDARY)
        )
        return row
    row = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
    assume(1e-3 <= safe_norm(row) <= 1e3)
    return row


@given(
    d=st.sampled_from([1, 2, 9]),
    data=st.data(),
    lam=st.floats(1e-4, 1.0),
    eta=st.floats(0.0, 0.9),
    r=st.floats(1.5, 12.0),
)
@settings(max_examples=150, deadline=None)
def test_drift_on_a_stack_is_bitwise_its_rows(d, data, lam, eta, r):
    # the stacked route's one call per step against one call per row: the
    # norms come as the route takes them, safe_row_norms over the stack
    rows = data.draw(st.lists(_stack_row(d), min_size=1, max_size=40))
    thetas = np.array(rows)
    g = np.array(data.draw(st.lists(
        st.lists(st.floats(-1e30, 1e30), min_size=d, max_size=d),
        min_size=len(rows), max_size=len(rows),
    )))
    reg = RegularizationParams(eta=eta, r=r)
    norms = safe_row_norms(thetas).tolist()
    stacked = overflow_safe_drift(g, thetas, norms, lam, reg)
    one = np.array([
        overflow_safe_drift(g[i], thetas[i], [safe_norm(thetas[i])], lam, reg)
        for i in range(len(rows))
    ])
    assert stacked.shape == thetas.shape
    assert np.array_equal(stacked.view(np.int64), one.view(np.int64))


def test_drift_stack_takes_both_branches_at_the_boundary():
    # a basis row's norm is its entry, so the three rows straddle |theta| = 1
    # exactly, and each row's own component is the scalar drift of its branch
    reg = RegularizationParams(eta=0.3, r=2.0)
    thetas = np.diag(_BOUNDARY)
    norms = safe_row_norms(thetas).tolist()
    assert norms == list(_BOUNDARY)
    out = overflow_safe_drift(np.full((3, 3), -7.5), thetas, norms, 0.25, reg)
    assert np.diag(out).tolist() == [
        overflow_safe_drift_scalar(-7.5, m, 0.25, reg.eta, reg.r) for m in _BOUNDARY
    ]


@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize("g", [math.inf, -math.inf])
def test_drift_batch_small_branch_passes_an_infinite_gradient(theta, g):
    # below |theta| = 1 the factor on g is 1.0: no 0 * inf is formed anywhere
    reg = RegularizationParams(eta=0.01, r=12.0)
    with np.errstate(all="raise"):
        out = overflow_safe_drift_batch(np.array([g, g]), np.array([theta, -theta]), 0.05, reg)
    assert out.tolist() == [g, g]


# ----------------------------------------------------- extended-precision oracle


def _mp_drift(g, theta, lam, eta, r):
    a = abs(mp.mpf(theta))
    num = mp.mpf(g) + mp.mpf(eta) * mp.mpf(theta) * a ** (2 * r)
    den = 1 + mp.sqrt(mp.mpf(lam)) * a ** (2 * r)
    return num / den


def test_drift_matches_mpmath_across_magnitudes():
    mp.mp.dps = 60
    rng = np.random.default_rng(11)
    for _ in range(250):
        theta = float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6, 12))
        g = float(rng.normal() * 10.0 ** rng.uniform(-3, 6))
        lam = float(10.0 ** rng.uniform(-4, 0))
        eta = float(rng.choice([0.0, 0.01, 0.5, 0.9]))
        r = float(rng.choice([1.5, 2.0, 4.0, 12.0]))
        got = overflow_safe_drift_scalar(g, theta, lam, eta, r)
        want = _mp_drift(g, theta, lam, eta, r)
        # relative to the pre-cancellation numerator scale: g and the penalty
        # term can cancel, which no single-formula float evaluation resolves
        scale = (abs(mp.mpf(g)) + abs(mp.mpf(eta) * theta) * abs(mp.mpf(theta)) ** (2 * r)) / (
            1 + mp.sqrt(mp.mpf(lam)) * abs(mp.mpf(theta)) ** (2 * r)
        )
        tol = max(float(scale), 1e-300) * 1e-13
        assert abs(got - float(want)) <= tol, (theta, g, lam, eta, r)


# --------------------------------------------------------- branch consistency

_theta_component = st.floats(-1e3, 1e3, allow_nan=False)


@given(
    d=st.integers(1, 3),
    data=st.data(),
    lam=st.floats(1e-4, 1.0),
    eta=st.floats(0.0, 0.9),
    r=st.floats(1.0, 6.0),
)
@settings(max_examples=150, deadline=None)
def test_drift_agrees_with_two_stage_form(d, data, lam, eta, r):
    theta = np.array(data.draw(st.lists(_theta_component, min_size=d, max_size=d)))
    a = safe_norm(theta)
    assume(1e-6 <= a <= 1e3)
    g = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d)))
    reg = RegularizationParams(eta=eta, r=r)

    safe = overflow_safe_drift(g, theta, [safe_norm(theta)], lam, reg)
    plain = tamed_gradient(regularized_gradient(g, theta, reg), theta, lam, r)
    assert np.all(np.isfinite(plain))

    # 8 ulps measured against the pre-cancellation magnitude of the numerator.
    # The absolute term covers subnormal numerators: there rounding happens at
    # fixed spacing 5e-324 and the final division (denominator >= sqrt(lam))
    # amplifies that absolute error by up to 1/sqrt(lam).
    den = 1.0 + math.sqrt(lam) * a ** (2.0 * r)
    scale = (np.abs(g) + eta * a ** (2.0 * r) * np.abs(theta)) / den
    assert np.all(np.abs(safe - plain) <= 8.0 * EPS * scale + 8 * 5e-324 / math.sqrt(lam))


# at |theta| near 1, where numpy's pow and libm's round these powers apart
# and so the scalar drift differs from the array drifts in its last bits
@example(g=1.0, theta=0.93, lam=0.1, eta=0.01, r=2.0)
@example(g=0.0, theta=1.07, lam=0.01, eta=0.5, r=2.75)
@example(g=1.0, theta=-1.3, lam=0.1, eta=0.01, r=5.5)
@given(
    g=st.floats(-1e6, 1e6),
    theta=st.builds(
        lambda mag, sign: sign * 10.0 ** mag,
        st.floats(-300.0, 300.0), st.sampled_from([-1.0, 1.0]),
    ),
    lam=st.floats(1e-4, 1.0),
    eta=st.floats(0.0, 0.9),
    r=st.floats(1.5, 12.0),  # every r that require_order admits
)
@settings(max_examples=200, deadline=None)
def test_drift_scalar_vector_batch_identical_bits(g, theta, lam, eta, r):
    reg = RegularizationParams(eta=eta, r=r)
    s = overflow_safe_drift_scalar(g, theta, lam, eta, r)
    v = overflow_safe_drift(np.array([g]), np.array([theta]), [abs(theta)], lam, reg)
    b = overflow_safe_drift_batch(np.array([g, g]), np.array([theta, theta]), lam, reg)
    # a width-1 row and the replicas share one numpy expression: bitwise
    assert np.array_equal(np.concatenate([v, v]), b, equal_nan=True)
    # numpy's vectorized array power can round differently from libm pow,
    # so the scalar form is only pinned to a few ulps of the term magnitudes
    assert _drift_close(v[0], s, g, theta, lam, eta, r)


def test_drift_of_one_element_at_r_1_is_the_documented_exception():
    # _tamed's caveat: at 2r = 2 numpy's exponent shortcut fires on a
    # one-element array, so its element rounds apart from the same element
    # of a longer call; r = 1 lies below every order require_order admits
    reg = RegularizationParams(eta=0.5, r=1.0)
    one = overflow_safe_drift_batch(np.array([0.0]), np.array([-0.1]), 1.0, reg)
    two = overflow_safe_drift_batch(np.array([0.0, 0.0]), np.array([-0.1, -0.1]), 1.0, reg)
    assert one[0].hex() == "-0x1.038c6b78247fdp-11"
    assert two.tolist() == [float.fromhex("-0x1.038c6b78247fcp-11")] * 2
    row = overflow_safe_drift(np.array([0.0]), np.array([-0.1]), [0.1], 1.0, reg)
    assert row.tolist() == one.tolist()  # the row drift shares the expression


def _drift_close(got, want, g, theta, lam, eta, r, ulps=8):
    """Allowance for the vectorized pow kernel rounding |theta|^(+-2r)
    differently from scalar libm pow. A 1-2 ulp gap there is amplified by any
    cancellation between the gradient and penalty terms in the numerator, so
    the bound is measured on the pre-cancellation term magnitudes; the
    absolute tail covers subnormal numerators, whose fixed-spacing rounding
    the final division can amplify by 1/den."""
    got, want = float(got), float(want)
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    if got == want:
        return True
    a = abs(theta)
    with np.errstate(over="ignore"):
        if a < 1.0:
            t = float(np.float64(a) ** np.float64(2.0 * r))
            num = abs(g) + eta * t * a
            den = 1.0 + math.sqrt(lam) * t
        else:
            ti = float(np.float64(a) ** np.float64(-2.0 * r))
            num = ti * abs(g) + eta * a
            den = ti + math.sqrt(lam)
    scale = num / den
    if not math.isfinite(scale):
        return True
    return abs(got - want) <= ulps * (float(np.spacing(scale)) + 5e-324 / den)


_SPECIAL = [0.0, -0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0, 1e154, 1.7e308, math.inf, math.nan]


def test_drift_batch_mixed_branches_elementwise():
    rng = np.random.default_rng(3)
    reg = RegularizationParams(eta=0.01, r=12.0)
    thetas = np.concatenate([rng.uniform(-0.999, 0.999, 40), rng.uniform(-1e8, 1e8, 40)])
    gs = rng.normal(size=80) * 100.0
    batch = overflow_safe_drift_batch(gs, thetas, 0.05, reg)
    for i in range(80):
        s = overflow_safe_drift_scalar(gs[i], thetas[i], 0.05, reg.eta, reg.r)
        assert _drift_close(batch[i], s, gs[i], thetas[i], 0.05, reg.eta, reg.r)
    # every pair of special values for theta and g, both signs of each, and
    # magnitudes at which the penalty term and the gradient compete
    special = np.array(_SPECIAL + [-v for v in _SPECIAL])
    gs = np.concatenate([gs, np.repeat(special, special.size),
                         rng.normal(size=400) * 10.0 ** rng.uniform(-4.0, 0.0, 400)])
    thetas = np.concatenate([thetas, np.tile(special, special.size), rng.uniform(-2.0, 2.0, 400)])
    for eta, r in ((0.0, 1.5), (0.01, 12.0), (0.3, 36.0)):
        reg = RegularizationParams(eta=eta, r=r)
        with np.errstate(all="ignore"):
            one = overflow_safe_drift_batch(gs, thetas, 0.05, reg)
            two = overflow_safe_drift_batch_two_power(gs, thetas, 0.05, reg)
        # one power per element builds both branches: bitwise the two-power form
        assert np.array_equal(one.view(np.int64), two.view(np.int64)), (eta, r)


def test_drift_branch_boundary_is_seamless():
    # both algebraic forms coincide exactly at |theta| = 1 and the function
    # values straddling the switch differ only by the local derivative scale
    reg = RegularizationParams(eta=0.3, r=2.0)
    for g in [0.0, 1.0, -7.5]:
        at = overflow_safe_drift_scalar(g, 1.0, 0.25, reg.eta, reg.r)
        below = overflow_safe_drift_scalar(g, math.nextafter(1.0, 0.0), 0.25, reg.eta, reg.r)
        above = overflow_safe_drift_scalar(g, math.nextafter(1.0, 2.0), 0.25, reg.eta, reg.r)
        width = max(abs(at), 1.0)
        assert abs(below - at) <= 8 * EPS * width
        assert abs(above - at) <= 8 * EPS * width


# ------------------------------------------------------------ taming dominance


@given(
    d=st.integers(1, 4),
    data=st.data(),
    lam=st.floats(1e-4, 1.0),
    r=st.floats(1.0, 4.0),
)
@settings(max_examples=150, deadline=None)
def test_taming_dominance(d, data, lam, r):
    h = np.array(data.draw(st.lists(st.floats(-1e4, 1e4), min_size=d, max_size=d)))
    theta = np.array(data.draw(st.lists(st.floats(-1e2, 1e2), min_size=d, max_size=d)))
    tamed = tamed_gradient(h, theta, lam, r)
    nh = safe_norm(h)
    assert safe_norm(tamed) <= nh * (1.0 + 1e-12)
    a = safe_norm(theta)
    denom = math.sqrt(lam) * a ** (2.0 * r)
    if denom > 0.0:  # underflow of a^(2r) makes the second cap vacuous
        assert safe_norm(tamed) <= (nh / denom) * (1.0 + 1e-12)


# ------------------------------------------------------------- envelope + caps


def test_growth_envelope_formula():
    class Const(GradientOracle):  # |G(0, x)| = 7 whatever x is
        def evaluate(self, theta, x):
            return np.array([7.0])

        def meta(self):
            return OracleMeta(q=3.0, rho=2.0, L1=1.5)

    # 2^3 (1.5 * (1+2)^2 + 7) = 8 * 20.5
    assert growth_envelope(Const(), 2.0) == 164.0
    assert growth_envelope(Const(), np.array([-2.0])) == 164.0


def test_lambda_max_hand_values():
    assert lambda_max(0.01, 1) == 1.0
    assert lambda_max(0.01, 2) == 0.2712673611111111
    assert lambda_max(1.0, 1) == 0.0009765625
    assert lambda_max(0.0, 5) == 1.0


def test_lambda_max_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lambda_max(0.5, 0)
    with pytest.raises(ValueError):
        lambda_max(0.5, 1.5)
    with pytest.raises(ValueError):
        lambda_max(-0.2, 1)
    with pytest.raises(ValueError):
        lambda_max(math.inf, 1)


def test_lambda_max_monotone_in_eta_and_p():
    vals_eta = [lambda_max(e, 2) for e in [0.01, 0.05, 0.2, 0.9]]
    assert all(a >= b for a, b in zip(vals_eta, vals_eta[1:]))
    vals_p = [lambda_max(0.9, p) for p in [1, 2, 3, 5]]
    assert all(a >= b for a, b in zip(vals_p, vals_p[1:]))


# ------------------------------------------------------- per-oracle bound suites

_US_SAMPLE = UniformDataSource()


def _one_neuron_sample(rng):
    return np.array([rng.uniform(-2.0, 2.0), rng.normal() * 2.0])


@pytest.mark.parametrize(
    "oracle,sample",
    [
        (UsProblem(s=2), _US_SAMPLE.sample),
        (UsProblem(s=26), _US_SAMPLE.sample),
        (UsProblem(s=0), _US_SAMPLE.sample),
        (UsProblem(s=2, unbiased=True), _US_SAMPLE.sample),
        (QuadraticProblem(), lambda rng: 0.0),
        (OneNeuronProblem(), _one_neuron_sample),
    ],
    ids=["us2", "us26", "us0", "us2-unbiased", "quadratic", "one-neuron"],
)
def test_gradient_growth_bound(oracle, sample):
    rng = np.random.default_rng(101)
    assert g_growth_violations(oracle, sample, 300, rng) == 0


@pytest.mark.parametrize(
    "oracle,sample,reg",
    [
        (UsProblem(s=2), _US_SAMPLE.sample, RegularizationParams(0.01, 12.0)),
        (UsProblem(s=26), _US_SAMPLE.sample, RegularizationParams(0.01, 36.0)),
        (QuadraticProblem(), lambda rng: 0.0, RegularizationParams(0.0, 1.5)),
        (OneNeuronProblem(), _one_neuron_sample, RegularizationParams(0.01, 2.5)),
    ],
    ids=["us2", "us26", "quadratic-eta0", "one-neuron"],
)
def test_tamed_drift_growth_bounds(oracle, sample, reg):
    rng = np.random.default_rng(55)
    assert h_growth_violations(oracle, sample, reg, 300, rng) == 0
    assert sqr_growth_violations(oracle, sample, reg, 300, rng) == 0


def _same_us_branch(t1, t2):
    return (abs(t1[0] - 0.1) <= 1.0) == (abs(t2[0] - 0.1) <= 1.0)


@pytest.mark.parametrize(
    "oracle,sample,reg,same_branch",
    [
        (UsProblem(s=2, unbiased=True), _US_SAMPLE.sample, RegularizationParams(0.01, 3.0), None),
        (UsProblem(s=2), _US_SAMPLE.sample, RegularizationParams(0.01, 3.0), _same_us_branch),
        (QuadraticProblem(), lambda rng: 0.0, RegularizationParams(0.5, 1.5), None),
        (OneNeuronProblem(), _one_neuron_sample, RegularizationParams(0.01, 2.5), None),
    ],
    ids=["us2-unbiased-global", "us2-printed-branchwise", "quadratic", "one-neuron"],
)
def test_drift_polynomial_lipschitz(oracle, sample, reg, same_branch):
    # |H - H'| <= (L1 + 8 r eta)(1+|x|)^rho (1+|t|+|t'|)^(2r+1) |t - t'|; the
    # default u_s estimator jumps at the branch boundary, so its constant is
    # certified per branch only
    rng = np.random.default_rng(77)
    assert drift_lipschitz_violations(oracle, sample, reg, 300, rng, same_branch) == 0
