"""Optimizer step functions and the trajectory runner.

The base-case tests reconstruct the documented rng streams (data from
SeedSequence([seed, 0]), noise from SeedSequence([seed, 1, algo_id])) and pin
run() against the one-step reference functions bitwise, and the block-stepped
loop against the per-step loops it replaced (both in tests/_loop_reference.py).
"""
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _loop_reference import (
    AdamState,
    adam_step,
    overflow_safe_drift_scalar,
    records_equal,
    reference_run,
    sgld_step,
    tusla_step,
)
from _suites import empirical_moment, growth_envelope

from tusla import optimizers
from tusla.gradient_oracle import (
    GradientOracle,
    OracleMeta,
    RegularizationParams,
    overflow_safe_drift,
    safe_row_norms,
)
from tusla.harness import ExperimentConfig, _ProblemSetup
from tusla.optimizers import (
    AdamConfig,
    SgldConfig,
    TuslaConfig,
    _block_size,
    _rows,
    run,
    run_seeds,
)
from tusla.neural_net import Architecture, MlpOracle, TeacherStream
from tusla.problems import (
    ConstantDataSource,
    OneNeuronProblem,
    QuadraticProblem,
    UniformDataSource,
    UsProblem,
    u_s_value,
)


class ConstantGradient(GradientOracle):
    """G(theta, x) = c regardless of inputs, on d parameters; for
    hand-computed fixtures."""

    def __init__(self, c: float, d: int = 1) -> None:
        self.c, self.d = float(c), d

    def dim(self) -> int:
        return self.d

    def evaluate(self, theta, x):
        return np.full_like(np.asarray(theta, dtype=np.float64), self.c)

    def meta(self) -> OracleMeta:
        return OracleMeta(q=1.0, rho=1.0, L1=1.0)


class VectorOnlyUs(GradientOracle):
    """UsProblem stripped of its scalar fast path; forces the vector route."""

    def __init__(self, s: int) -> None:
        self.inner = UsProblem(s=s)

    def evaluate(self, theta, x):
        return self.inner.evaluate(theta, x)

    def meta(self) -> OracleMeta:
        return self.inner.meta()


class PairStream:
    """Uniform (x, y) pairs for the two-parameter neuron, per call or in blocks."""

    def sample(self, rng):
        return rng.uniform(-1.0, 1.0, 2)

    def sample_batch(self, rng, n):
        return rng.uniform(-1.0, 1.0, (n, 2))


def _data_rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))


_ALGO_IDS = {"tusla": 0, "sgld": 1, "adam": 2}  # the documented noise substreams


def _noise_rng(seed, algo):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, 1, _ALGO_IDS[algo]]))
    )


# ---------------------------------------------------------------------------
# step functions


def test_tusla_step_hand_value():
    # drift = 6 / (1 + sqrt(.25) * 2^2) = 2; theta' = 2 - .5 + .5 = 2
    cfg = TuslaConfig(lam=0.25, beta=2.0, reg=RegularizationParams(eta=0.0, r=1.0))
    out = tusla_step(np.array([2.0]), None, ConstantGradient(6.0), cfg, np.array([1.0]))
    assert out.shape == (1,)
    assert out[0] == 2.0


def test_tusla_step_fixed_point_at_origin():
    cfg = TuslaConfig(lam=1e-4, beta=1.0, reg=RegularizationParams(eta=0.5, r=2.0))
    out = tusla_step(np.zeros(3), None, QuadraticProblem(d=3), cfg, np.zeros(3))
    assert np.array_equal(out, np.zeros(3))


def test_sgld_step_cancels_gradient():
    cfg = SgldConfig(lam=1.0, beta=4.0)
    out = sgld_step(np.array([1.0]), None, QuadraticProblem(), cfg, np.zeros(1))
    assert out[0] == 0.0


def test_step_size_zero_is_rejected():
    # the lam -> 0 limit (H_lam -> G + penalty) lies outside the config
    # domain: every config type requires a strictly positive step
    with pytest.raises(ValueError):
        TuslaConfig(lam=0.0, beta=1.0, reg=RegularizationParams(eta=0.0, r=1.0))
    with pytest.raises(ValueError):
        SgldConfig(lam=0.0, beta=1.0)
    with pytest.raises(ValueError):
        AdamConfig(alpha=0.0)


def test_adam_first_step_is_signed_alpha():
    # with eps = 0 the bias corrections cancel exactly: theta' = -alpha
    cfg = AdamConfig(alpha=1.0, eps=0.0)
    state = adam_step(AdamState.initial(np.zeros(1), cfg), None, ConstantGradient(1.0))
    assert state.theta[0] == -1.0
    assert state.n == 1


def test_adam_ignores_zero_gradient():
    cfg = AdamConfig(alpha=0.7)
    state = AdamState.initial(np.array([3.0, -1.5]), cfg)
    for _ in range(4):
        state = adam_step(state, None, ConstantGradient(0.0))
    assert np.array_equal(state.theta, np.array([3.0, -1.5]))
    assert state.n == 4


def test_adam_state_validation():
    with pytest.raises(ValueError):
        AdamState(np.zeros(2), np.zeros(3), np.zeros(2), 0, 0.1, 0.9, 0.999, 1e-8)
    with pytest.raises(ValueError):
        AdamState(np.zeros(2), np.zeros(2), -np.ones(2), 0, 0.1, 0.9, 0.999, 1e-8)
    with pytest.raises(ValueError):
        AdamState(np.zeros(2), np.zeros(2), np.zeros(2), -1, 0.1, 0.9, 0.999, 1e-8)
    with pytest.raises(ValueError):
        AdamConfig(alpha=0.1, beta1=1.0)


def test_tusla_equals_sgld_when_penalty_underflows():
    # with r = 600 and |theta| <= 0.5 the factor |theta|^(2r) underflows to
    # exactly 0.0, so the tamed drift degenerates to the raw gradient and the
    # two updates must agree bitwise under a shared noise draw
    reg = RegularizationParams(eta=0.3, r=600.0)
    with warnings.catch_warnings():
        # deliberately above the moment-bound ceiling; equality still holds
        warnings.simplefilter("ignore", RuntimeWarning)
        cfg_t = TuslaConfig(lam=0.1, beta=1.0, reg=reg)
    cfg_s = SgldConfig(lam=0.1, beta=1.0)
    oracle = QuadraticProblem()
    rng = np.random.default_rng(17)
    for _ in range(200):
        theta = rng.uniform(-0.5, 0.5, 1)
        xi = rng.standard_normal(1)
        a = tusla_step(theta, None, oracle, cfg_t, xi)
        b = sgld_step(theta, None, oracle, cfg_s, xi)
        assert np.array_equal(a, b)


def test_tusla_config_warns_above_step_ceiling():
    reg = RegularizationParams(eta=0.01, r=12.0)
    with pytest.warns(RuntimeWarning):
        TuslaConfig(lam=0.5, beta=1.0, reg=reg)  # cap is ~0.271 at p = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TuslaConfig(lam=0.05, beta=1.0, reg=reg)


# ---------------------------------------------------------------------------
# run(): base cases against the step functions


def test_run_one_step_matches_step_functions_scalar_route():
    oracle = UsProblem(s=2)
    stream = UniformDataSource()
    theta0, seed = 1.5, 42
    reg = RegularizationParams(eta=0.01, r=12.0)
    cfgs = {
        "tusla": TuslaConfig(lam=0.05, beta=0.05, reg=reg),
        "sgld": SgldConfig(lam=0.05, beta=0.05),
        "adam": AdamConfig(alpha=0.1),
    }
    for name, cfg in cfgs.items():
        rec = run(cfg, [theta0], oracle, stream, n_steps=1, rng_seed=seed)
        x1 = float(stream.sample_batch(_data_rng(seed), 4096)[0])
        if name == "adam":
            state = adam_step(AdamState.initial([theta0], cfg), x1, oracle)
            want = state.theta
        else:
            xi1 = np.array([_noise_rng(seed, name).standard_normal(4096)[0]])
            step = tusla_step if name == "tusla" else sgld_step
            want = step(np.array([theta0]), x1, oracle, cfg, xi1)
        assert np.array_equal(rec.final_theta, want), name


def test_run_one_step_matches_step_functions_vector_route():
    oracle = OneNeuronProblem()
    stream = ConstantDataSource(value=(1.0, 0.5))
    theta0, seed = np.array([2.0, -1.0]), 7
    reg = RegularizationParams(eta=0.01, r=2.5)
    cfgs = {
        "tusla": TuslaConfig(lam=0.02, beta=1.0, reg=reg),
        "sgld": SgldConfig(lam=0.02, beta=1.0),
        "adam": AdamConfig(alpha=0.1),
    }
    for name, cfg in cfgs.items():
        rec = run(cfg, theta0, oracle, stream, n_steps=1, rng_seed=seed)
        x1 = stream.sample(_data_rng(seed))
        if name == "adam":
            want = adam_step(AdamState.initial(theta0, cfg), x1, oracle).theta
        else:
            xi1 = _noise_rng(seed, name).standard_normal(2)
            step = tusla_step if name == "tusla" else sgld_step
            want = step(theta0, x1, oracle, cfg, xi1)
        assert np.array_equal(rec.final_theta, want), name


def test_scalar_and_vector_routes_agree_bitwise():
    # same streams, same arithmetic: hiding the scalar fast path must not
    # change a single bit of the record, across blocks. TUSLA is left out:
    # the stacked drift takes numpy's pow and the scalar loop libm's, and
    # each route's TUSLA record is pinned to its own reference loop instead
    stream = UniformDataSource()
    for cfg in (SgldConfig(lam=0.001, beta=1.0), AdamConfig(alpha=0.1)):
        fast = run(cfg, [0.7], UsProblem(s=2), stream, n_steps=5000, rng_seed=3, record_every=3)
        slow = run(cfg, [0.7], VectorOnlyUs(s=2), stream, n_steps=5000, rng_seed=3, record_every=3)
        assert not fast.diverged, type(cfg).__name__
        assert records_equal(fast, slow), type(cfg).__name__


# run() against the per-step loops: (route, algorithm, theta0, n_steps,
# record_every, divergence threshold, seed). The routes are "scalar"
# (UsProblem s=2), "vector" (VectorOnlyUs s=2, d = 1), "neuron"
# (OneNeuronProblem, d = 2, 2048-row blocks) and "quadratic-1"/"quadratic-2"
# (QuadraticProblem, scalar and vector route, G = theta). The quadratic
# routes use a penalty strong enough that eta * |theta|^(2r) * theta and G
# round together, so the drift's operation order shows in the last bits; it
# lies above the advisory step-size ceiling, which bitwise equality ignores.
_REG_S2 = RegularizationParams(eta=0.01, r=12.0)
_REG_NEURON = RegularizationParams(eta=0.01, r=2.5)
_REG_QUADRATIC = RegularizationParams(eta=0.3, r=1.5)
_ALGOS = {
    "tusla": lambda reg: TuslaConfig(lam=0.05, beta=0.05, reg=reg),
    "tusla-cold": lambda reg: TuslaConfig(lam=0.01, beta=10.0, reg=reg),
    "sgld": lambda reg: SgldConfig(lam=0.05, beta=0.1),
    "sgld-small": lambda reg: SgldConfig(lam=0.001, beta=1.0),
    "adam": lambda reg: AdamConfig(alpha=0.1),
    "adam-eps0": lambda reg: AdamConfig(alpha=0.1, eps=0.0),
}
_ROUTES = {
    "scalar": (lambda: UsProblem(s=2), UniformDataSource, _REG_S2, 1),
    "vector": (lambda: VectorOnlyUs(s=2), UniformDataSource, _REG_S2, 1),
    "neuron": (OneNeuronProblem, PairStream, _REG_NEURON, 2),
    "quadratic-1": (QuadraticProblem, ConstantDataSource, _REG_QUADRATIC, 1),
    "quadratic-2": (lambda: QuadraticProblem(d=2), ConstantDataSource, _REG_QUADRATIC, 2),
}
_REFERENCE_CASES = {
    # n_steps past one block: 4096 scalar rows, 2048 rows at d = 2
    "scalar-blocks": ("scalar", "tusla", 0.0, 5000, 7, 1e10, 0),
    "vector-blocks": ("vector", "adam", 0.7, 4500, 1000, 1e10, 3),
    "neuron-blocks": ("neuron", "tusla", 0.5, 2500, 3, 1e10, 1),
    "quadratic-1-blocks": ("quadratic-1", "tusla", 0.3, 4097, 7, 1e10, 1),
    "quadratic-2-blocks": ("quadratic-2", "tusla", 0.3, 4097, 7, 1e10, 1),
    # a divergence in the middle of the second block
    "scalar-diverges-in-block-2": ("scalar", "tusla", 0.0, 6000, 7, 50.0, 2),
    "neuron-diverges-in-block-2": ("neuron", "sgld", 0.0, 3000, 7, 30.0, 0),
    # ADAM with eps = 0: a zero gradient gives 0/0 = nan, a gradient whose
    # square underflows gives -alpha * inf
    "adam-0/0-scalar": ("quadratic-1", "adam-eps0", 0.0, 10, 1, 1e10, 0),
    "adam-0/0-vector": ("quadratic-2", "adam-eps0", 0.0, 10, 1, 1e10, 0),
    "adam-x/0-scalar": ("quadratic-1", "adam-eps0", 1e-170, 10, 1, 1e10, 0),
    "adam-x/0-vector": ("quadratic-2", "adam-eps0", 1e-170, 10, 1, 1e10, 0),
}


def _reference_pair(route, algo, theta0, n_steps, record_every, threshold, seed):
    make_oracle, make_stream, reg, d = _ROUTES[route]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cfg = _ALGOS[algo](reg)
    args = (
        cfg, np.full(d, theta0), make_oracle(), make_stream(), n_steps, seed,
        record_every, threshold,
    )
    return run(*args), reference_run(*args)


def _with_reference_cases(test):
    for case in _REFERENCE_CASES.values():
        test = example(*case)(test)
    return test


@settings(max_examples=60, deadline=None)
@_with_reference_cases
@given(
    route=st.sampled_from(sorted(_ROUTES)),
    algo=st.sampled_from(sorted(_ALGOS)),
    theta0=st.sampled_from([0.0, 0.3, -0.7, 1.5, 40.0, 1e-170]),
    n_steps=st.one_of(st.integers(0, 60), st.sampled_from([2047, 2049, 4095, 4096, 4097])),
    record_every=st.sampled_from([1, 2, 3, 7, 1000]),
    threshold=st.sampled_from([1e10, 3.0, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_matches_per_step_reference_bitwise(
    route, algo, theta0, n_steps, record_every, threshold, seed
):
    fast, slow = _reference_pair(route, algo, theta0, n_steps, record_every, threshold, seed)
    assert records_equal(fast, slow)


def test_reference_cases_reach_their_targets():
    # the explicit examples above must keep exercising what they are named for
    def rec(name):
        fast, slow = _reference_pair(*_REFERENCE_CASES[name])
        assert records_equal(fast, slow), name
        return fast

    for name, block in (
        ("scalar-blocks", 4096), ("vector-blocks", 4096), ("neuron-blocks", 2048),
        ("quadratic-1-blocks", 4096), ("quadratic-2-blocks", 2048),
    ):
        r = rec(name)
        assert not r.diverged and r.step_indices[-1] > block, name
    for name, block in (("scalar-diverges-in-block-2", 4096), ("neuron-diverges-in-block-2", 2048)):
        r = rec(name)
        assert r.diverged and block < r.divergence_step < 2 * block, name
        assert r.divergence_step % _REFERENCE_CASES[name][4] != 0, name  # off the record grid
    for name in ("adam-0/0-scalar", "adam-0/0-vector"):
        r = rec(name)
        assert r.divergence_step == 1 and np.all(np.isnan(r.final_theta)), name
    for name in ("adam-x/0-scalar", "adam-x/0-vector"):
        r = rec(name)
        assert r.divergence_step == 1 and np.all(r.final_theta == -math.inf), name


# run_seeds() against per-seed run() and the per-step loops: (route,
# algorithm, per-row theta0 scales, n_steps, record_every, divergence
# threshold, first seed). Row i starts from scale_i * the route's base theta
# and runs with seed first_seed + i. The routes are the oracles that stack:
# the nn-demo network (MlpOracle, d = 32, 128-row blocks), the two-parameter
# neuron and VectorOnlyUs, the width-1 stacked case (u_s without
# evaluate_scalar); all but the network have no evaluate_rows of their own,
# so they go through the stacked default.
_MLP = Architecture((3, 4, 4))
_STACKED_ROUTES = {
    "mlp": (
        lambda: MlpOracle(_MLP),
        lambda: TeacherStream(_MLP, _MLP.init_params(np.random.default_rng(5))),
        RegularizationParams(eta=0.01, r=4.0),
        _MLP.init_params(np.random.default_rng(6)),  # |theta| = 1.65
    ),
    "neuron": (OneNeuronProblem, PairStream, _REG_NEURON, np.array([1.0, -1.0])),
    "vector": (lambda: VectorOnlyUs(s=2), UniformDataSource, _REG_S2, np.array([1.0])),
}
_NN_SCALES = (1.0, 0.3, 3.0, 1.0, 0.0, 1.0, 0.3, 1.0)
_STACKED_CASES = {
    # n_steps past one block on each route, record_every not dividing it
    "mlp-blocks": ("mlp", "tusla-cold", _NN_SCALES, 300, 7, 1e10, 0),
    "neuron-blocks": ("neuron", "adam", (1.0, 0.3, -2.0), 2049, 1000, 1e10, 4),
    "vector-blocks": ("vector", "sgld-small", (0.3, -0.7), 4097, 3, 1e10, 9),
    # the 3.0 row starts beyond the threshold; row 1 diverges at step 148,
    # inside the second 128-row block and off the 7-grid; the rest run on
    "mlp-diverges-mid-block": ("mlp", "adam", _NN_SCALES, 300, 7, 2.5, 0),
}


def _stacked_and_single(route, algo, scales, n_steps, record_every, threshold, seed):
    make_oracle, make_stream, reg, base = _STACKED_ROUTES[route]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cfg = _ALGOS[algo](reg)
    oracle, stream = make_oracle(), make_stream()
    theta0s = np.array([scale * base for scale in scales])
    seeds = [seed + i for i in range(len(scales))]
    chain = dict(record_every=record_every, divergence_threshold=threshold)
    stacked = run_seeds(cfg, theta0s, oracle, stream, n_steps, seeds, **chain)
    for theta0, s, rec in zip(theta0s, seeds, stacked):
        assert records_equal(rec, run(cfg, theta0, oracle, stream, n_steps, s, **chain))
        assert records_equal(rec, reference_run(cfg, theta0, oracle, stream, n_steps, s, **chain))
    return stacked


def _with_stacked_cases(test):
    for case in _STACKED_CASES.values():
        test = example(*case)(test)
    return test


@settings(max_examples=40, deadline=None)
@_with_stacked_cases
@given(
    route=st.sampled_from(sorted(_STACKED_ROUTES)),
    algo=st.sampled_from(sorted(_ALGOS)),
    scales=st.sampled_from([1, 2, 3, 8, 17]).flatmap(
        lambda r: st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.0, 3.0, 40.0]),
                           min_size=r, max_size=r).map(tuple)
    ),
    n_steps=st.one_of(st.integers(0, 40), st.sampled_from([127, 129, 300])),
    record_every=st.sampled_from([1, 3, 7]),
    threshold=st.sampled_from([1e10, 2.5, 30.0]),
    seed=st.integers(0, 2**32 - 17),
)
def test_run_seeds_rows_match_single_seed_runs_bitwise(
    route, algo, scales, n_steps, record_every, threshold, seed
):
    # records_equal covers steps, grad norms, thetas, final theta and the
    # divergence fields, and the record's derived norms against the norms
    # the reference loop computed
    _stacked_and_single(route, algo, scales, n_steps, record_every, threshold, seed)


def test_stacked_cases_reach_their_targets():
    for name, block in (("mlp-blocks", 128), ("neuron-blocks", 2048), ("vector-blocks", 4096)):
        recs = _stacked_and_single(*_STACKED_CASES[name])
        n_steps, record_every = _STACKED_CASES[name][3:5]
        assert n_steps > block and n_steps % record_every != 0, name
        assert not any(r.diverged for r in recs), name
    recs = _stacked_and_single(*_STACKED_CASES["mlp-diverges-mid-block"])
    steps = [r.divergence_step for r in recs]
    assert steps[2] == 0  # beyond the threshold at step 0
    assert 128 < steps[1] < 256 and steps[1] % 7 != 0  # mid-block, off the grid
    assert sum(s is None for s in steps) >= 5  # the others run on to the end
    assert all(r.step_indices[-1] == 300 for r, s in zip(recs, steps) if s is None)


# ---------------------------------------------------------------------------
# run(): recording contract


def test_record_row_indices():
    cfg = SgldConfig(lam=0.01, beta=1.0)
    rec = run(cfg, [0.0], UsProblem(s=2), UniformDataSource(), n_steps=10,
              rng_seed=0, record_every=3)
    assert list(rec.step_indices) == [0, 3, 6, 9, 10]
    assert rec.n_recorded == 5
    assert rec.grad_norms.shape == (5,)
    assert math.isnan(rec.grad_norms[-1])
    assert np.all(np.isfinite(rec.grad_norms[:-1]))


def test_record_every_step_gives_n_plus_one_rows():
    cfg = SgldConfig(lam=0.01, beta=1.0)
    rec = run(cfg, [0.0], UsProblem(s=2), UniformDataSource(), n_steps=25, rng_seed=1)
    assert rec.n_recorded == 26
    assert list(rec.step_indices) == list(range(26))


def test_run_zero_steps():
    cfg = SgldConfig(lam=0.01, beta=1.0)
    rec = run(cfg, [0.25], UsProblem(s=2), UniformDataSource(), n_steps=0, rng_seed=0)
    assert rec.n_recorded == 1
    assert rec.final_theta[0] == 0.25
    assert not rec.diverged
    assert math.isnan(rec.grad_norms[0])


def test_grad_norm_column_is_raw_oracle_gradient():
    oracle = UsProblem(s=2)
    stream = UniformDataSource()
    seed = 5
    cfg = TuslaConfig(lam=0.05, beta=0.05, reg=RegularizationParams(eta=0.01, r=12.0))
    rec = run(cfg, [1.5], oracle, stream, n_steps=5, rng_seed=seed)
    xs = stream.sample_batch(_data_rng(seed), 4096)
    for i in range(5):
        want = abs(oracle.evaluate_scalar(float(rec.thetas[i, 0]), float(xs[i])))
        assert rec.grad_norms[i] == want
    assert math.isnan(rec.grad_norms[5])


def test_objective_column():
    # the objective column is the harness's u_s on the record's state stack,
    # one value per recorded state
    oracle = UsProblem(s=2)
    cfg = SgldConfig(lam=0.01, beta=1.0)
    rec = run(cfg, [0.3], oracle, UniformDataSource(), n_steps=4, rng_seed=2)
    values = _ProblemSetup(ExperimentConfig(problem="us", s=2)).objective(rec.thetas)
    assert len(values) == rec.n_recorded == 5
    for i in range(rec.n_recorded):
        assert values[i] == u_s_value(float(rec.thetas[i, 0]), 2)


def _expected_rows(rec, n_steps, record_every):
    # the rule the benchmark's artifact check enforces per chain
    last = n_steps if rec.divergence_step is None else rec.divergence_step
    return -(-last // record_every) + 1


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize(
    "oracle,theta0,lam,diverges",
    [
        (UsProblem(s=2), [0.3], 0.001, False),  # scalar route
        (VectorOnlyUs(s=2), [0.3], 0.001, False),  # vector route, d = 1
        (UsProblem(s=2), [1.5], 0.01, True),  # diverges at step 113, off the 7-grid
    ],
)
def test_recorded_objective_is_evaluated_on_recorded_rows(
    oracle, theta0, lam, diverges, record_every
):
    # the caller evaluates the objective on the record's (k, d) state stack,
    # which holds every recorded state, the final (or divergent) one included
    n_steps = 200
    rec = run(SgldConfig(lam=lam, beta=1.0), theta0, oracle, UniformDataSource(),
              n_steps=n_steps, rng_seed=0, record_every=record_every)
    assert rec.diverged == diverges
    if diverges:
        assert rec.divergence_step % 7 != 0
    assert rec.n_recorded == _expected_rows(rec, n_steps, record_every)
    assert rec.thetas.shape == (rec.n_recorded, 1)
    assert rec.thetas[-1].tobytes() == rec.final_theta.tobytes()
    # d = 1: the derived norms are the loop's abs, bitwise
    assert rec.theta_norms.tobytes() == np.abs(rec.thetas[:, 0]).tobytes()
    values = _ProblemSetup(ExperimentConfig(problem="us", s=2)).objective(rec.thetas)
    for i in range(rec.n_recorded):
        want = np.float64(u_s_value(float(rec.thetas[i, 0]), 2))
        assert np.float64(values[i]).tobytes() == want.tobytes()


def test_recorded_objective_rows_above_dimension_eight():
    # a wider chain keeps its (k, 9) stack too, and the record's norms are
    # its row norms, bitwise
    cfg = SgldConfig(lam=0.01, beta=1.0)
    rec = run(cfg, np.full(9, 0.5), QuadraticProblem(d=9), ConstantDataSource(),
              n_steps=20, rng_seed=0, record_every=7)
    assert rec.n_recorded == _expected_rows(rec, 20, 7)
    assert rec.thetas.shape == (rec.n_recorded, 9)
    assert rec.theta_norms.tobytes() == safe_row_norms(rec.thetas).tobytes()


def test_thetas_kept_at_every_dimension():
    cfg = SgldConfig(lam=0.001, beta=1.0)
    for d in (1, 2, 8, 9, 33):
        rec = run(cfg, np.zeros(d), QuadraticProblem(d=d), ConstantDataSource(),
                  n_steps=3, rng_seed=0)
        assert rec.thetas.shape == (4, d) and rec.theta_norms.shape == (4,), d
        assert rec.final_theta.shape == (d,), d


def test_record_columns_derive_from_the_state_stack():
    # final_theta is the stack's last row and theta_norms its safe row norms,
    # bitwise: on the scalar route, the vector route and stacked rows, for
    # chains that finish and chains that diverge mid-block
    recs = [_reference_pair(*_REFERENCE_CASES[name])[0] for name in (
        "scalar-blocks", "scalar-diverges-in-block-2", "neuron-blocks",
        "neuron-diverges-in-block-2",
    )]
    recs += _stacked_and_single(*_STACKED_CASES["mlp-diverges-mid-block"])
    assert sum(r.diverged for r in recs) >= 3 and sum(not r.diverged for r in recs) >= 3
    for rec in recs:
        assert rec.final_theta.tobytes() == rec.thetas[-1].tobytes()
        assert rec.theta_norms.tobytes() == safe_row_norms(rec.thetas).tobytes()


# ---------------------------------------------------------------------------
# run(): divergence handling


def test_sgld_diverges_fast_on_steep_wall():
    cfg = SgldConfig(lam=0.05, beta=0.05)
    rec = run(cfg, [1e3], UsProblem(s=26), UniformDataSource(), n_steps=100, rng_seed=0)
    assert rec.diverged
    assert rec.divergence_step is not None and rec.divergence_step <= 5
    # final recorded row is the divergent state itself
    assert rec.step_indices[-1] == rec.divergence_step


def test_initial_state_beyond_threshold():
    cfg = SgldConfig(lam=0.01, beta=1.0)
    rec = run(cfg, [1e12], UsProblem(s=2), UniformDataSource(), n_steps=50,
              rng_seed=0, divergence_threshold=1e10)
    assert rec.diverged and rec.divergence_step == 0
    assert rec.n_recorded == 1
    assert math.isnan(rec.grad_norms[0])


# ---------------------------------------------------------------------------
# run() and run_seeds(): the divergence rule, not |theta| <= min(threshold, DBL_MAX)


class NanGradient(GradientOracle):
    """G = nan on d parameters, so the first step's norm is nan; d = 1 takes
    the scalar route, any wider d the stacked one."""

    def __init__(self, d: int) -> None:
        self.d = d

    def dim(self) -> int:
        return self.d

    def evaluate(self, theta, x):
        return np.full_like(np.asarray(theta, dtype=np.float64), math.nan)

    def evaluate_scalar(self, theta, x):
        return math.nan

    def meta(self) -> OracleMeta:
        return OracleMeta(q=1.0, rho=1.0, L1=1.0)


def _run_both(cfg, theta0, oracle, stream, n_steps, threshold):
    # the chain through run, and through run_seeds beside a second seed
    single = run(cfg, theta0, oracle, stream, n_steps, 0, divergence_threshold=threshold)
    stacked = run_seeds(cfg, [theta0, theta0], oracle, stream, n_steps, (0, 1),
                        divergence_threshold=threshold)
    return single, stacked[0]


_SGLD = SgldConfig(lam=0.01, beta=1.0)
_EDGE_ROUTES = {
    # theta0 with a norm that float64 holds exactly, oracle, stream
    "scalar": ([2.5], UsProblem(s=2), UniformDataSource()),
    "vector": ([1.5, 2.0], QuadraticProblem(d=2), ConstantDataSource(0.0)),
}


@pytest.mark.parametrize("route", sorted(_EDGE_ROUTES))
def test_norm_equal_to_the_threshold_does_not_diverge(route):
    theta0, oracle, stream = _EDGE_ROUTES[route]
    assert safe_row_norms(np.array([theta0]))[0] == 2.5
    for rec in _run_both(_SGLD, theta0, oracle, stream, 0, 2.5):
        assert not rec.diverged and rec.divergence_step is None
    for rec in _run_both(_SGLD, theta0, oracle, stream, 5, math.nextafter(2.5, 0.0)):
        assert rec.diverged and rec.divergence_step == 0 and rec.n_recorded == 1
    if route == "scalar":  # one ulp above the threshold, from theta0's side
        for rec in _run_both(_SGLD, [math.nextafter(2.5, math.inf)], oracle, stream, 5, 2.5):
            assert rec.diverged and rec.divergence_step == 0
    # the same edge after a step from 0: step 1's norm (the noise's) as the
    # threshold, and one ulp below it
    zero = [0.0] * len(theta0)
    first = run(_SGLD, zero, oracle, stream, 1, 0, divergence_threshold=math.inf)
    edge = float(first.theta_norms[1])
    for rec in _run_both(_SGLD, zero, oracle, stream, 1, edge):
        assert not rec.diverged and rec.theta_norms[1] == edge
    for rec in _run_both(_SGLD, zero, oracle, stream, 1, math.nextafter(edge, 0.0)):
        assert rec.diverged and rec.divergence_step == 1


@pytest.mark.parametrize("theta0", [[sys.float_info.max], [sys.float_info.max, 0.0]])
def test_infinite_threshold_runs_from_dbl_max(theta0):
    oracle, stream = QuadraticProblem(d=len(theta0)), ConstantDataSource(0.0)
    for rec in _run_both(_SGLD, theta0, oracle, stream, 3, math.inf):
        assert not rec.diverged and rec.n_recorded == 4
        assert rec.theta_norms[0] == sys.float_info.max
        assert np.all(np.isfinite(rec.theta_norms))
    for rec in _run_both(_SGLD, theta0, oracle, stream, 3, 1e10):
        assert rec.diverged and rec.divergence_step == 0
    # an infinite norm still diverges: the s = 26 gradient is inf at 1e7
    oracle = UsProblem(s=26) if len(theta0) == 1 else ConstantGradient(math.inf, 2)
    for rec in _run_both(_SGLD, [1e7] * len(theta0), oracle, UniformDataSource(), 3, math.inf):
        assert rec.diverged and rec.divergence_step == 1 and rec.theta_norms[-1] == math.inf


@pytest.mark.parametrize("theta0", [[0.5], [0.5, -0.5]])  # scalar and vector route
@pytest.mark.parametrize("threshold", [1e10, math.inf])
def test_nan_norm_diverges(theta0, threshold):
    # a width-1 norm is abs, so nan; safe_row_norms gives a wider nan row inf
    want = math.isnan if len(theta0) == 1 else math.isinf
    oracle = NanGradient(len(theta0))
    for rec in _run_both(_SGLD, theta0, oracle, ConstantDataSource(0.0), 5, threshold):
        assert rec.diverged and rec.divergence_step == 1
        assert want(rec.theta_norms[-1]) and np.all(np.isnan(rec.final_theta))


def test_tusla_survives_where_sgld_diverges():
    reg = RegularizationParams(eta=0.01, r=36.0)
    cfg = TuslaConfig(lam=0.05, beta=0.05, reg=reg)
    rec = run(cfg, [1e3], UsProblem(s=26), UniformDataSource(), n_steps=500, rng_seed=0)
    assert not rec.diverged
    assert np.all(np.isfinite(rec.theta_norms))


# ---------------------------------------------------------------------------
# run(): determinism and stream layout


def test_runs_are_deterministic():
    stream = UniformDataSource()
    reg = RegularizationParams(eta=0.01, r=12.0)
    for cfg in (
        TuslaConfig(lam=0.05, beta=0.05, reg=reg),
        SgldConfig(lam=0.01, beta=0.5),
        AdamConfig(alpha=0.1),
    ):
        a = run(cfg, [1.0], UsProblem(s=2), stream, n_steps=200, rng_seed=9)
        b = run(cfg, [1.0], UsProblem(s=2), stream, n_steps=200, rng_seed=9)
        assert records_equal(a, b)
        c = run(cfg, [1.0], UsProblem(s=2), stream, n_steps=200, rng_seed=10)
        assert not records_equal(a, c)


def test_block_draws_match_per_call_draws():
    # run draws k noise rows at once and scales the block once: the rows are
    # bitwise noise_scale * xi of k per-step draws, across blocks, as native
    # floats for d = 1 and as row views for d > 1; data blocks likewise match
    # per-step samples
    n_steps = 9000
    for d in (1, 3):
        k = _block_size(n_steps, d)
        shape = () if d == 1 else (d,)
        for scale in (math.sqrt(2.0 * 0.05 / 0.05), math.sqrt(2.0 * 1e-3 / 7.0), 0.1):
            rng_a, rng_b = np.random.default_rng(123), np.random.default_rng(123)
            blocked = []
            for start in range(0, n_steps, k):
                xi = rng_a.standard_normal((min(k, n_steps - start), *shape))
                blocked.extend(_rows(scale * xi))
            single = [scale * rng_b.standard_normal(shape) for _ in range(n_steps)]
            if d == 1:
                assert all(type(v) is float for v in blocked)
                single = [float(v) for v in single]
            assert np.array(blocked).tobytes() == np.array(single).tobytes()
    for stream, width in ((UniformDataSource(), 1), (PairStream(), 2)):
        k = _block_size(n_steps, width)
        rng_a, rng_b = np.random.default_rng(321), np.random.default_rng(321)
        blocked = [row for start in range(0, n_steps, k)
                   for row in _rows(stream.sample_batch(rng_a, min(k, n_steps - start)))]
        single = [stream.sample(rng_b) for _ in range(n_steps)]
        assert np.array(blocked).tobytes() == np.array(single).tobytes()


def test_noise_streams_differ_between_algorithms():
    a = _noise_rng(0, "tusla").standard_normal(8)
    b = _noise_rng(0, "sgld").standard_normal(8)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# run(): stability properties


def test_tamed_drift_displacement_bounded_along_trajectory():
    # sqrt(lam) |H_lam| <= K(x) + eta |theta| at every visited state
    oracle = UsProblem(s=2)
    stream = UniformDataSource()
    eta, r, lam = 0.01, 12.0, 0.05
    rng = np.random.default_rng(0)
    th = 1e3
    scale = math.sqrt(2.0 * lam / 0.05)
    for _ in range(300):
        x = stream.sample(rng)
        g = oracle.evaluate_scalar(th, x)
        drift = overflow_safe_drift_scalar(g, th, lam, eta, r)
        assert math.sqrt(lam) * abs(drift) <= (growth_envelope(oracle, x) + eta * abs(th)) * (1.0 + 1e-12)
        th = th - lam * drift + scale * rng.standard_normal()


def test_second_moment_stays_bounded():
    reg = RegularizationParams(eta=0.01, r=12.0)
    cfg = TuslaConfig(lam=0.05, beta=0.05, reg=reg)
    rec = run(cfg, [0.0], UsProblem(s=2), UniformDataSource(), n_steps=10_000, rng_seed=4)
    assert not rec.diverged
    running = empirical_moment(rec, 1)
    assert np.max(running) < 1e4


# ---------------------------------------------------------------------------
# run(): validation


def test_run_validation():
    cfg = SgldConfig(lam=0.01, beta=1.0)
    oracle = UsProblem(s=2)
    stream = UniformDataSource()
    with pytest.raises(ValueError):
        run(cfg, [0.0], oracle, stream, n_steps=-1, rng_seed=0)
    with pytest.raises(ValueError):
        run(cfg, [0.0], oracle, stream, n_steps=1, rng_seed=0, record_every=0)
    with pytest.raises(ValueError):
        run(cfg, [0.0], oracle, stream, n_steps=1, rng_seed=0, divergence_threshold=0.0)
    with pytest.raises(TypeError):
        run(object(), [0.0], oracle, stream, n_steps=1, rng_seed=0)


def test_run_enforces_penalty_order():
    # q = 4 for s = 2 demands r >= 3; r = 1 must be rejected up front
    cfg = TuslaConfig(lam=0.01, beta=1.0, reg=RegularizationParams(eta=0.01, r=1.0))
    with pytest.raises(ValueError):
        run(cfg, [0.0], UsProblem(s=2), UniformDataSource(), n_steps=1, rng_seed=0)


@pytest.mark.parametrize("r", [1, 2, 8])
@pytest.mark.parametrize("problem", ["us", "quadratic"])
def test_run_seeds_runs_every_scalar_route_seed_on_the_scalar_loop(monkeypatch, problem, r):
    # the oracle alone picks the loop: any number of seeds of u_s or the 1-D
    # quadratic runs the scalar loop, whose drift is inline, so no
    # overflow_safe_drift call; each record is bitwise the run of its seed
    # and the per-step reference
    if problem == "us":
        oracle, stream = UsProblem(s=2), UniformDataSource()
    else:
        oracle, stream = QuadraticProblem(d=1), ConstantDataSource(0.0)
    cfg, n_steps = TuslaConfig(0.01, 1.0, _REG_S2), 300
    theta0s = [[1.5 - 0.5 * i] for i in range(r)]
    seeds = tuple(range(3, 3 + r))
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return overflow_safe_drift(*args, **kwargs)

    monkeypatch.setattr(optimizers, "overflow_safe_drift", counted)
    recs = run_seeds(cfg, theta0s, oracle, stream, n_steps, seeds)
    singles = [run(cfg, t, oracle, stream, n_steps, s) for t, s in zip(theta0s, seeds)]
    assert calls == [0] and len(recs) == r
    for rec, single, t, s in zip(recs, singles, theta0s, seeds):
        assert not rec.diverged and records_equal(rec, single)
        assert records_equal(rec, reference_run(cfg, t, oracle, stream, n_steps, s))


@pytest.mark.parametrize("make_oracle,theta0", [
    (lambda: UsProblem(s=2), [1.0, 2.0]),
    (lambda: QuadraticProblem(d=3), [1.0]),
    (OneNeuronProblem, [1.0]),
], ids=["us", "quadratic-d3", "one-neuron"])
def test_theta0_of_another_width_than_the_oracle_is_refused(make_oracle, theta0):
    # refused before any draw: a stream whose every draw fails is never called
    class NoDraws:
        def sample_batch(self, rng, n):
            raise AssertionError("drew data")

    oracle = make_oracle()
    size = f"size {oracle.dim()} "
    with pytest.raises(ValueError, match=size):
        run(_SGLD, theta0, oracle, NoDraws(), 5, 0)
    with pytest.raises(ValueError, match=size):
        run_seeds(_SGLD, [theta0, theta0], oracle, NoDraws(), 5, (0, 1))
