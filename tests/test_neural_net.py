"""Feed-forward network tests: exact forward/gradient fixtures, finite
differences, activation constants, and the certified growth bounds.

The hand-value fixtures run on the per-sample reference forms in
``_mlp_reference.py``, which the kernels match bitwise
(``test_kernels_match_per_sample_reference_bitwise``); the bound checkers
are in ``_suites.py``."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _mlp_reference as ref
from _suites import (
    dfnorm_violations,
    drift_lipschitz_constants,
    dsnorm_violations,
    mlp_gradient_growth_violations,
    mlp_gradient_lipschitz_violations,
    operator_norm,
    partial_deriv_bound_check,
)
from tusla import neural_net
from tusla.neural_net import (
    ARCTAN,
    TANH,
    ActivationSpec,
    Architecture,
    MlpOracle,
    TeacherStream,
    activation_by_name,
    lipschitz_constants,
    risk,
)

EPS = np.finfo(np.float64).eps


def _tiny_net(phi=3.0, w=2.0):
    return Architecture(dims=(1, 1)), np.array([phi, w])


# ---------------------------------------------------------------------------
# forward / gradients


def test_forward_hand_value():
    params = ref.split(*_tiny_net())
    assert ref.forward(params, [0.5]) == 3.0 * math.tanh(1.0)
    assert ref.forward(params, [0.5]) == 2.2847824678672946


def test_forward_zero_params_is_zero():
    arch = Architecture(dims=(2, 3, 4))
    assert ref.forward(ref.split(arch, np.zeros(arch.param_dim)), [0.7, -0.2]) == 0.0
    # zero weights kill the signal even under a nonzero readout
    vec = np.zeros(arch.param_dim)
    vec[: arch.dims[2]] = 5.0
    assert ref.forward(ref.split(arch, vec), [0.7, -0.2]) == 0.0


def test_grad_f_hand_values():
    params = ref.split(*_tiny_net())
    g = ref.grad_f(params, [0.5])
    t = math.tanh(1.0)
    assert g.phi[0] == t
    assert math.isclose(g.weights[0][0, 0], 3.0 * (1.0 - t * t) * 0.5, rel_tol=1e-15)


def test_risk_hand_values():
    arch, theta = _tiny_net()
    x = np.array([0.5, ref.forward(ref.split(arch, theta), [0.5])])
    x1 = np.array([0.4, 3.0])
    # every theta row on every sample row: zero parameters give y^2 anywhere
    got = risk(arch, np.stack([theta, np.zeros(arch.param_dim)]), np.stack([x, x1]), 0.0, 1.0)
    assert got.tolist() == [[0.0, ref.risk(ref.split(arch, theta), x1, 0.0, 1.0)], [x[1] ** 2, 9.0]]
    # unit-norm parameters isolate the penalty term
    x2 = np.array([[0.7, 0.0]])  # f = tanh(0) = 0 = y
    eta, r = 0.3, 2.0
    assert risk(arch, np.array([[1.0, 0.0]]), x2, eta, r).tolist() == [[eta / (2.0 * (r + 1.0))]]


def test_gradient_g_matches_finite_difference():
    rng = np.random.default_rng(31)
    pool = [(1, 4), (2, 3, 1), (3, 2, 2), (2, 5, 3), (1, 2, 2, 2)]
    for dims in pool:
        for act in (TANH, ARCTAN):
            arch = Architecture(dims=dims, activation=act)
            theta = rng.uniform(-1.0, 1.0, arch.param_dim)
            x = np.concatenate([rng.uniform(-2.0, 2.0, dims[0]), [rng.normal()]])
            g = MlpOracle(arch).evaluate(theta, x)
            h = 1e-5 * (1.0 + float(np.linalg.norm(theta)))
            fd = np.empty_like(theta)
            for j in range(theta.size):
                e = np.zeros_like(theta)
                e[j] = h
                fd[j] = (
                    risk(arch, (theta + e)[None], x[None], 0.0, 1.0)[0, 0]
                    - risk(arch, (theta - e)[None], x[None], 0.0, 1.0)[0, 0]
                ) / (2.0 * h)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_gradient_h_matches_finite_difference_of_penalized_risk():
    rng = np.random.default_rng(37)
    arch = Architecture(dims=(2, 3, 2), activation=TANH)
    eta, r = 0.1, 3.0
    for _ in range(5):
        theta = rng.uniform(-1.0, 1.0, arch.param_dim)
        x = np.concatenate([rng.uniform(-2.0, 2.0, 2), [rng.normal()]])
        hvec = ref.gradient_h(ref.split(arch, theta), x, eta, r).flatten()
        step = 1e-5 * (1.0 + float(np.linalg.norm(theta)))
        fd = np.empty_like(theta)
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = step
            fd[j] = (
                risk(arch, (theta + e)[None], x[None], eta, r)[0, 0]
                - risk(arch, (theta - e)[None], x[None], eta, r)[0, 0]
            ) / (2.0 * step)
        assert np.allclose(hvec, fd, rtol=1e-5, atol=1e-7)


def test_gradient_h_reduces_to_g_without_penalty():
    rng = np.random.default_rng(41)
    arch = Architecture(dims=(2, 3))
    theta = rng.uniform(-1.0, 1.0, arch.param_dim)
    x = np.array([0.3, -0.4, 1.0])
    params = ref.split(arch, theta)
    assert np.array_equal(
        ref.gradient_h(params, x, 0.0, 2.0).flatten(), ref.gradient_g(params, x).flatten()
    )


def test_gradient_g_zero_readout_kills_weight_gradients():
    arch = Architecture(dims=(2, 3, 2))
    vec = np.zeros(arch.param_dim)
    vec[arch.dims[2]:] = 0.7  # nonzero weights, zero phi
    g = ref.split(arch, MlpOracle(arch).evaluate(vec, np.array([0.5, -0.25, 2.0])))
    for w in g.weights:
        assert np.all(w == 0.0)
    assert np.any(g.phi != 0.0)


# ---------------------------------------------------------------------------
# the flat parameter layout


def test_views_layout_is_phi_then_row_major_weights():
    arch = Architecture(dims=(2, 3, 1))
    vec = np.arange(1.0, 1.0 + arch.param_dim)
    phi, weights = arch._views(vec)
    assert np.array_equal(phi, [1.0])
    assert np.array_equal(weights[0], [[2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
    assert np.array_equal(weights[1], [[8.0, 9.0, 10.0]])
    assert all(np.shares_memory(w, vec) for w in weights)
    # a stack of flat vectors gives stacks of the same views, row by row
    stack = np.stack([vec, -vec])
    phis, stacked = arch._views(stack)
    assert np.array_equal(phis, [[1.0], [-1.0]])
    assert np.array_equal(stacked[0][1], -weights[0])


def test_container_validation():
    arch = Architecture(dims=(2, 3))
    for bad in (np.zeros(arch.param_dim + 1), np.zeros((2, 2, arch.param_dim))):
        with pytest.raises(ValueError):
            arch._views(bad)
        with pytest.raises(ValueError):
            risk(arch, bad, np.zeros((1, 3)), 0.0, 1.0)
    thetas = np.zeros((2, arch.param_dim))
    with pytest.raises(ValueError):
        risk(arch, thetas[0], np.zeros((1, 3)), 0.0, 1.0)  # one flat theta is not a stack
    with pytest.raises(ValueError):
        risk(arch, thetas, np.zeros(3), 0.0, 1.0)  # one packed sample is not a stack
    for k in (0, 2):  # no samples is a ValueError for any k, no ZeroDivisionError
        with pytest.raises(ValueError):
            risk(arch, thetas[:k], np.zeros((0, 3)), 0.0, 1.0)
    assert risk(arch, thetas, np.zeros((3, 3)), 0.0, 1.0).shape == (2, 3)
    assert risk(arch, thetas, np.zeros((6, 3)), 0.01, 1.0).shape == (2, 6)
    assert risk(arch, thetas[:0], np.zeros((6, 3)), 0.01, 1.0).shape == (0, 6)
    with pytest.raises(ValueError):
        Architecture(dims=(4,))
    with pytest.raises(ValueError):
        Architecture(dims=(0, 3))
    with pytest.raises(ValueError):
        Architecture(dims=(2.0, 3))  # type: ignore[arg-type]


def test_init_params_range():
    arch = Architecture(dims=(3, 8, 4))
    flat = arch.init_params(np.random.default_rng(0))
    assert flat.shape == (arch.param_dim,)
    assert flat.tobytes() == np.random.default_rng(0).uniform(-0.5, 0.5, arch.param_dim).tobytes()
    assert np.all(np.abs(flat) <= 0.5)
    assert np.std(flat) > 0.1


# ---------------------------------------------------------------------------
# growth metadata


def test_lipschitz_constants_hand_value():
    act = ActivationSpec(
        name="toy",
        apply=np.tanh,
        derivative=lambda a, h: 1.0 - h ** 2,
        sup_abs=0.5,
        sup_abs_deriv=0.3,
        lip_deriv=0.2,
    )
    assert act.sobolev_norm == 1.0
    meta = lipschitz_constants(Architecture(dims=(1, 1), activation=act))
    assert meta.L1 == 2048.0  # 16 * 2 * 1 * 2^6
    assert meta.q == 4.0 and meta.rho == 3.0
    assert lipschitz_constants(Architecture(dims=(2, 3, 1))).q == 6.0


def test_drift_lipschitz_constants_formula():
    arch = Architecture(dims=(2, 3, 1), activation=ARCTAN)
    eta, r = 0.25, 4.0
    dl = drift_lipschitz_constants(arch, eta, r)
    n, D, s = 2, 3, ARCTAN.sobolev_norm
    assert dl.L1 == 16.0 * 1.25 * 9.0 * 3 * D ** 1.5 * (1.0 + s) ** 8
    assert dl.rho == 3.0
    assert dl.envelope_power == 8.0  # max(2n + 1, 2r)
    assert drift_lipschitz_constants(arch, 0.0, 1.0).envelope_power == 5.0


# ---------------------------------------------------------------------------
# activations


@pytest.mark.parametrize("act", [TANH, ARCTAN], ids=lambda a: a.name)
def test_activation_constants(act):
    zs = np.linspace(-6.0, 6.0, 4001)
    vals = act.apply(zs)
    ders = act.derivative(zs, vals)
    assert np.max(np.abs(vals)) <= act.sup_abs + 1e-12
    assert np.max(np.abs(ders)) <= act.sup_abs_deriv + 1e-12
    # derivative matches finite differences
    h = 1e-6
    fd = (act.apply(zs + h) - act.apply(zs - h)) / (2.0 * h)
    assert np.allclose(ders, fd, rtol=1e-6, atol=1e-9)
    # lip_deriv bounds the difference quotients of sigma' and is attained
    quot = np.abs(np.diff(ders)) / np.diff(zs)
    assert np.max(quot) <= act.lip_deriv * (1.0 + 1e-9)
    assert np.max(quot) >= 0.95 * act.lip_deriv


def test_activation_fixture_values():
    assert TANH.lip_deriv == 4.0 / (3.0 * math.sqrt(3.0))
    assert ARCTAN.lip_deriv == 9.0 / (8.0 * math.sqrt(3.0))
    assert TANH.sobolev_norm == 2.7698003589195013
    assert ARCTAN.sobolev_norm == 3.2203153796332256


def test_activation_by_name():
    assert activation_by_name("tanh") is TANH
    assert activation_by_name("arctan") is ARCTAN
    with pytest.raises(ValueError):
        activation_by_name("relu")


# ---------------------------------------------------------------------------
# certified bounds (randomized suites; acceptance runs the large versions)


@pytest.mark.parametrize("act", [TANH, ARCTAN], ids=lambda a: a.name)
def test_gradient_norm_bound_holds(act):
    assert dfnorm_violations(200, np.random.default_rng(53), act) == 0


@pytest.mark.parametrize("act", [TANH, ARCTAN], ids=lambda a: a.name)
def test_layer_jacobian_bounds_hold(act):
    assert dsnorm_violations(200, np.random.default_rng(59), act) == 0


@pytest.mark.parametrize("act", [TANH, ARCTAN], ids=lambda a: a.name)
def test_full_gradient_growth_bound_holds(act):
    assert mlp_gradient_growth_violations(200, np.random.default_rng(61), act) == 0


@pytest.mark.parametrize("act", [TANH, ARCTAN], ids=lambda a: a.name)
def test_gradient_lipschitz_bound_holds(act):
    assert mlp_gradient_lipschitz_violations(200, np.random.default_rng(67), act) == 0


def test_bound_check_at_origin_and_random_points():
    rng = np.random.default_rng(71)
    arch = Architecture(dims=(2, 4, 3))
    x = np.array([0.4, -0.9, 1.2])
    assert partial_deriv_bound_check(ref.split(arch, np.zeros(arch.param_dim)), x).passed
    for _ in range(10):
        params = ref.split(arch, rng.normal(size=arch.param_dim))
        report = partial_deriv_bound_check(params, x)
        assert report.passed
        assert len(report.layer_measured) == arch.n


# ---------------------------------------------------------------------------
# operator norm


def test_operator_norm_exact_cases():
    assert operator_norm(np.zeros((3, 2))) == 0.0
    assert math.isclose(operator_norm(np.diag([3.0, -7.0, 2.0])), 7.0, rel_tol=1e-8)
    assert math.isclose(operator_norm(np.array([[3.0, 4.0], [0.0, 0.0]])), 5.0, rel_tol=1e-8)
    assert math.isclose(operator_norm(np.array([[1.0, 2.0, 2.0]])), 3.0, rel_tol=1e-8)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(73)
    for _ in range(20):
        k, l = rng.integers(1, 7, size=2)
        mat = rng.normal(size=(k, l))
        assert math.isclose(operator_norm(mat), float(np.linalg.norm(mat, 2)), rel_tol=1e-6)


def test_operator_frobenius_sandwich():
    # |W|_2 <= |W|_F <= sqrt(min(k, l)) |W|_2
    rng = np.random.default_rng(79)
    for _ in range(30):
        k, l = rng.integers(1, 7, size=2)
        mat = rng.normal(size=(k, l))
        op = operator_norm(mat)
        fro = float(np.linalg.norm(mat))
        assert op <= fro * (1.0 + 1e-6)
        assert fro <= math.sqrt(min(k, l)) * op * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# oracle adapter and data stream


def test_mlp_oracle_delegation():
    arch = Architecture(dims=(2, 3, 2), activation=ARCTAN)
    oracle = MlpOracle(arch)
    assert oracle.dim() == arch.param_dim
    assert oracle.meta() == lipschitz_constants(arch)
    rng = np.random.default_rng(83)
    theta = rng.normal(size=arch.param_dim)
    x = np.array([0.1, -0.3, 0.8])
    want = ref.gradient_g(ref.split(arch, theta), x).flatten()
    assert np.array_equal(oracle.evaluate(theta, x), want)


def test_teacher_stream():
    arch = Architecture(dims=(3, 4, 2))
    teacher = np.random.default_rng(89).normal(size=arch.param_dim)
    stream = TeacherStream(arch, teacher)
    rng = np.random.default_rng(97)
    for _ in range(20):
        sample = stream.sample(rng)
        assert sample.shape == (4,)
        z, y = sample[:3], sample[3]
        assert np.all(np.abs(z) <= 1.0)
        assert y == ref.forward(ref.split(arch, teacher), z)


# ---------------------------------------------------------------------------
# fused and stacked kernels against the per-sample reference forms


@settings(max_examples=150, deadline=None)
@given(
    dims=st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple),
    act=st.sampled_from([TANH, ARCTAN]),
    log_scale=st.floats(-3.0, 3.0),
    m=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_per_sample_reference_bitwise(dims, act, log_scale, m, seed):
    arch = Architecture(dims, act)
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=arch.param_dim) * 10.0 ** log_scale
    params = ref.split(arch, theta)
    xs = np.column_stack([rng.uniform(-2.0, 2.0, size=(m, dims[0])), rng.normal(size=m)])
    x = xs[0]

    want = ref.gradient_g(params, x).flatten()
    assert MlpOracle(arch).evaluate(theta, x).tobytes() == want.tobytes()

    # stacks of k theta rows, each on all m samples
    scales = rng.uniform(0.5, 2.0, size=(m, 1))
    for eta, r in ((0.0, 1.0), (0.01, 2.5)):
        for k in {1, 2, m}:
            thetas = theta * scales[:k]
            want = ref.per_probe_risks(arch, thetas, xs, eta, r)
            assert want.shape == (len(thetas), m)
            assert risk(arch, thetas, xs, eta, r).tobytes() == want.tobytes(), k

    stream = TeacherStream(arch, theta)
    batch = stream.sample_batch(np.random.default_rng(seed), m)
    rng_ref, rng_one = np.random.default_rng(seed), np.random.default_rng(seed)
    per_call = np.array([ref.teacher_sample(params, rng_ref) for _ in range(m)])
    assert batch.tobytes() == per_call.tobytes()
    assert np.array([stream.sample(rng_one) for _ in range(m)]).tobytes() == batch.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    dims=st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple),
    act=st.sampled_from([TANH, ARCTAN]),
    log_scale=st.floats(-3.0, 3.0),
    rows=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_rows_match_per_sample_reference_bitwise(dims, act, log_scale, rows, seed):
    # one stacked pass over R (theta, x) pairs; row i is the single-pair
    # gradient, against both evaluate and the per-sample reference
    arch = Architecture(dims, act)
    rng = np.random.default_rng(seed)
    thetas = rng.normal(size=(rows, arch.param_dim)) * 10.0 ** log_scale
    xs = np.column_stack([rng.uniform(-2.0, 2.0, size=(rows, dims[0])), rng.normal(size=rows)])
    oracle = MlpOracle(arch)
    got = oracle.evaluate_rows(thetas, xs)
    assert got.shape == (rows, arch.param_dim)
    for theta, x, g in zip(thetas, xs, got):
        assert g.tobytes() == oracle.evaluate(theta, x).tobytes()
        assert g.tobytes() == ref.gradient_g(ref.split(arch, theta), x).flatten().tobytes()


def test_evaluate_rows_rejects_misshapen_rows():
    arch, _ = _tiny_net()
    oracle = MlpOracle(arch)
    d, d0 = arch.param_dim, arch.dims[0]
    with pytest.raises(ValueError):
        oracle.evaluate_rows(np.zeros((2, d)), np.zeros((3, d0 + 1)))  # 2 thetas, 3 samples
    with pytest.raises(ValueError):
        oracle.evaluate_rows(np.zeros((2, d)), np.zeros((2, d0)))  # no label column
    with pytest.raises(ValueError):
        oracle.evaluate_rows(np.zeros((2, d + 1)), np.zeros((2, d0 + 1)))


@pytest.mark.parametrize("k,m", [(2 * neural_net._RISK_BLOCK + 7, 1), (70, 32), (3, 1500)])
def test_paired_risk_rows_do_not_depend_on_the_block(k, m):
    # more pairs than one stacked pass takes: every entry at a block's edge
    # is its single pair's risk, whichever block it is in
    arch = Architecture((3, 4, 4))
    rng = np.random.default_rng(5)
    thetas = rng.normal(size=(k, arch.param_dim))
    xs = np.column_stack([rng.uniform(-1.0, 1.0, size=(m, 3)), rng.normal(size=m)])
    got = risk(arch, thetas, xs, 0.01, 2.0)
    assert got.shape == (k, m)
    per = max(1, neural_net._RISK_BLOCK // m)  # theta rows per block
    for i in sorted({0, per - 1, per, k - 1} & set(range(k))):
        for j in sorted({0, m - 1}):
            assert got[i, j] == risk(arch, thetas[i : i + 1], xs[j : j + 1], 0.01, 2.0)[0, 0], (i, j)


@pytest.mark.parametrize("eta,scale", [(0.01, 1e200), (0.0, 1e200), (0.0, 1e308), (0.01, 1e308)])
def test_risk_beyond_dbl_max_is_inf_without_a_warning(eta, scale):
    # the penalty's |theta|^(2(r+1)) past DBL_MAX (a float ** OverflowError),
    # a squared residual past it, and a forward pass whose matmul overflows
    # all give inf, with no warning; the finite row keeps its bits
    arch = Architecture((3, 4, 4))
    rng = np.random.default_rng(9)
    xs = np.column_stack([rng.uniform(0.1, 1.0, size=(5, 3)), rng.normal(size=5)])
    p = arch.param_dim
    thetas = np.stack([rng.normal(size=p), np.full(p, scale), np.full(p, -scale)])
    got = risk(arch, thetas, xs, eta, 2.0)
    assert np.all(got[1:] == math.inf)
    assert got[:1].tobytes() == ref.per_probe_risks(arch, thetas[:1], xs, eta, 2.0).tobytes()


def test_risk_rejects_misshapen_samples():
    arch, theta = _tiny_net()
    with pytest.raises(ValueError):
        risk(arch, theta[None], np.zeros((1, 3)), 0.0, 1.0)
    with pytest.raises(ValueError):
        risk(arch, theta[None], np.zeros((4, 1)), 0.0, 1.0)
    with pytest.raises(ValueError):
        MlpOracle(arch).evaluate(np.zeros(3), np.zeros(2))
