"""Feed-forward network tests: exact forward/gradient fixtures, finite
differences, activation constants, and the certified growth bounds."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _mlp_reference as ref
from _suites import (
    dfnorm_violations,
    dsnorm_violations,
    mlp_gradient_growth_violations,
    mlp_gradient_lipschitz_violations,
)
from tusla.neural_net import (
    ARCTAN,
    TANH,
    ActivationSpec,
    Architecture,
    MlpOracle,
    MlpParams,
    TeacherStream,
    activation_by_name,
    drift_lipschitz_constants,
    forward,
    gradient_g,
    gradient_h,
    grad_f,
    lipschitz_constants,
    operator_norm,
    partial_deriv_bound_check,
    risk,
)

EPS = np.finfo(np.float64).eps


def _tiny_net(phi=3.0, w=2.0):
    arch = Architecture(dims=(1, 1))
    return arch, arch.unflatten(np.array([phi, w]))


# ---------------------------------------------------------------------------
# forward / gradients


def test_forward_hand_value():
    _, params = _tiny_net()
    assert forward(params, [0.5]) == 3.0 * math.tanh(1.0)
    assert forward(params, [0.5]) == 2.2847824678672946


def test_forward_zero_params_is_zero():
    arch = Architecture(dims=(2, 3, 4))
    assert forward(arch.zero_params(), [0.7, -0.2]) == 0.0
    # zero weights kill the signal even under a nonzero readout
    vec = np.zeros(arch.param_dim)
    vec[: arch.dims[2]] = 5.0
    assert forward(arch.unflatten(vec), [0.7, -0.2]) == 0.0


def test_grad_f_hand_values():
    _, params = _tiny_net()
    g = grad_f(params, [0.5])
    t = math.tanh(1.0)
    assert g.phi[0] == t
    assert math.isclose(g.weights[0][0, 0], 3.0 * (1.0 - t * t) * 0.5, rel_tol=1e-15)


def test_risk_hand_values():
    arch, params = _tiny_net()
    x = np.array([0.5, forward(params, [0.5])])
    assert risk(params, x, 0.0, 1.0) == 0.0
    zero = arch.zero_params()
    assert risk(zero, np.array([0.4, 3.0]), 0.0, 1.0) == 9.0
    # unit-norm parameters isolate the penalty term
    unit = arch.unflatten(np.array([1.0, 0.0]))
    x2 = np.array([0.7, 0.0])  # f = tanh(0) = 0 = y
    eta, r = 0.3, 2.0
    assert risk(unit, x2, eta, r) == eta / (2.0 * (r + 1.0))


def test_gradient_g_matches_finite_difference():
    rng = np.random.default_rng(31)
    pool = [(1, 4), (2, 3, 1), (3, 2, 2), (2, 5, 3), (1, 2, 2, 2)]
    for dims in pool:
        for act in (TANH, ARCTAN):
            arch = Architecture(dims=dims, activation=act)
            theta = rng.uniform(-1.0, 1.0, arch.param_dim)
            x = np.concatenate([rng.uniform(-2.0, 2.0, dims[0]), [rng.normal()]])
            params = arch.unflatten(theta)
            g = gradient_g(params, x).flatten()
            h = 1e-5 * (1.0 + float(np.linalg.norm(theta)))
            fd = np.empty_like(theta)
            for j in range(theta.size):
                e = np.zeros_like(theta)
                e[j] = h
                fd[j] = (
                    risk(arch.unflatten(theta + e), x, 0.0, 1.0)
                    - risk(arch.unflatten(theta - e), x, 0.0, 1.0)
                ) / (2.0 * h)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_gradient_h_matches_finite_difference_of_penalized_risk():
    rng = np.random.default_rng(37)
    arch = Architecture(dims=(2, 3, 2), activation=TANH)
    eta, r = 0.1, 3.0
    for _ in range(5):
        theta = rng.uniform(-1.0, 1.0, arch.param_dim)
        x = np.concatenate([rng.uniform(-2.0, 2.0, 2), [rng.normal()]])
        hvec = gradient_h(arch.unflatten(theta), x, eta, r).flatten()
        step = 1e-5 * (1.0 + float(np.linalg.norm(theta)))
        fd = np.empty_like(theta)
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = step
            fd[j] = (
                risk(arch.unflatten(theta + e), x, eta, r)
                - risk(arch.unflatten(theta - e), x, eta, r)
            ) / (2.0 * step)
        assert np.allclose(hvec, fd, rtol=1e-5, atol=1e-7)


def test_gradient_h_reduces_to_g_without_penalty():
    rng = np.random.default_rng(41)
    arch = Architecture(dims=(2, 3))
    theta = rng.uniform(-1.0, 1.0, arch.param_dim)
    x = np.array([0.3, -0.4, 1.0])
    params = arch.unflatten(theta)
    assert np.array_equal(
        gradient_h(params, x, 0.0, 2.0).flatten(), gradient_g(params, x).flatten()
    )


def test_gradient_g_zero_readout_kills_weight_gradients():
    arch = Architecture(dims=(2, 3, 2))
    vec = np.zeros(arch.param_dim)
    vec[arch.dims[2]:] = 0.7  # nonzero weights, zero phi
    params = arch.unflatten(vec)
    g = gradient_g(params, np.array([0.5, -0.25, 2.0]))
    for w in g.weights:
        assert np.all(w == 0.0)
    assert np.any(g.phi != 0.0)


# ---------------------------------------------------------------------------
# parameter container


def test_flatten_unflatten_roundtrip():
    rng = np.random.default_rng(43)
    for dims in [(1, 1), (3, 4, 2), (2, 5, 4, 3)]:
        arch = Architecture(dims=dims)
        vec = rng.normal(size=arch.param_dim)
        assert np.array_equal(arch.unflatten(vec).flatten(), vec)


def test_unflatten_layout_is_phi_then_row_major_weights():
    arch = Architecture(dims=(2, 2))
    params = arch.unflatten(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    assert np.array_equal(params.phi, [1.0, 2.0])
    assert np.array_equal(params.weights[0], [[3.0, 4.0], [5.0, 6.0]])


def test_params_norm_matches_flat_norm():
    rng = np.random.default_rng(47)
    arch = Architecture(dims=(3, 4, 2))
    vec = rng.normal(size=arch.param_dim)
    params = arch.unflatten(vec)
    assert math.isclose(params.norm(), float(np.linalg.norm(vec)), rel_tol=1e-15)


def test_container_validation():
    arch = Architecture(dims=(2, 3))
    with pytest.raises(ValueError):
        arch.unflatten(np.zeros(arch.param_dim + 1))
    with pytest.raises(ValueError):
        MlpParams(arch, np.zeros(2), (np.zeros((3, 2)),))  # phi wrong width
    with pytest.raises(ValueError):
        MlpParams(arch, np.zeros(3), ())  # missing weights
    with pytest.raises(ValueError):
        MlpParams(arch, np.zeros(3), (np.zeros((2, 3)),))  # transposed shape
    with pytest.raises(ValueError):
        Architecture(dims=(4,))
    with pytest.raises(ValueError):
        Architecture(dims=(0, 3))
    with pytest.raises(ValueError):
        Architecture(dims=(2.0, 3))  # type: ignore[arg-type]


def test_init_params_range():
    arch = Architecture(dims=(3, 8, 4))
    params = arch.init_params(np.random.default_rng(0))
    flat = params.flatten()
    assert flat.shape == (arch.param_dim,)
    assert np.all(np.abs(flat) <= 0.5)
    assert np.std(flat) > 0.1


# ---------------------------------------------------------------------------
# growth metadata


def test_lipschitz_constants_hand_value():
    act = ActivationSpec(
        name="toy",
        apply=np.tanh,
        derivative=lambda z: 1.0 - np.tanh(z) ** 2,
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
    ders = act.derivative(zs)
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
    assert partial_deriv_bound_check(arch.zero_params(), x).passed
    for _ in range(10):
        params = arch.unflatten(rng.normal(size=arch.param_dim))
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
    want = gradient_g(arch.unflatten(theta), x).flatten()
    assert np.array_equal(oracle.evaluate(theta, x), want)
    assert oracle.value(theta, x) == risk(arch.unflatten(theta), x, 0.0, 1.0)


def test_teacher_stream():
    arch = Architecture(dims=(3, 4, 2))
    teacher = arch.unflatten(np.random.default_rng(89).normal(size=arch.param_dim))
    stream = TeacherStream(teacher=teacher, half_width=1.5)
    rng = np.random.default_rng(97)
    for _ in range(20):
        sample = stream.sample(rng)
        assert sample.shape == (4,)
        z, y = sample[:3], sample[3]
        assert np.all(np.abs(z) <= 1.5)
        assert y == forward(teacher, z)


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
    params = arch.unflatten(theta)
    xs = np.column_stack([rng.uniform(-2.0, 2.0, size=(m, dims[0])), rng.normal(size=m)])
    x, z = xs[0], xs[0, :-1]

    want = ref.gradient_g(params, x).flatten()
    assert MlpOracle(arch).evaluate(theta, x).tobytes() == want.tobytes()
    assert gradient_g(params, x).flatten().tobytes() == want.tobytes()
    assert grad_f(params, z).flatten().tobytes() == ref.grad_f(params, z).flatten().tobytes()
    assert forward(params, z) == ref.forward(params, z)

    for eta, r in ((0.0, 1.0), (0.01, 2.5)):
        per_probe = np.array([ref.risk(params, row, eta, r) for row in xs])
        assert risk(params, xs, eta, r).tobytes() == per_probe.tobytes()
        assert risk(params, x, eta, r) == per_probe[0]
    assert MlpOracle(arch).value(theta, x) == ref.risk(params, x, 0.0, 1.0)

    stream = TeacherStream(params, half_width=1.5)
    batch = stream.sample_batch(np.random.default_rng(seed), m)
    rng_ref, rng_one = np.random.default_rng(seed), np.random.default_rng(seed)
    per_call = np.array([ref.teacher_sample(params, rng_ref, 1.5) for _ in range(m)])
    assert batch.tobytes() == per_call.tobytes()
    assert np.array([stream.sample(rng_one) for _ in range(m)]).tobytes() == batch.tobytes()


def test_risk_rejects_misshapen_samples():
    arch, params = _tiny_net()
    with pytest.raises(ValueError):
        risk(params, np.zeros(3), 0.0, 1.0)
    with pytest.raises(ValueError):
        risk(params, np.zeros((4, 3)), 0.0, 1.0)
    with pytest.raises(ValueError):
        MlpOracle(arch).evaluate(np.zeros(3), np.zeros(2))
