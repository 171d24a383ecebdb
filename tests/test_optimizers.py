"""Optimizer step functions and the trajectory runner.

The base-case tests reconstruct the documented rng streams (data from
SeedSequence([seed, 0]), noise from SeedSequence([seed, 1, algo_id])) and pin
run() against the one-step functions bitwise.
"""
import math
import warnings

import numpy as np
import pytest

from tusla.diagnostics import empirical_moment
from tusla.gradient_oracle import (
    GradientOracle,
    OracleMeta,
    RegularizationParams,
    overflow_safe_drift_scalar,
    safe_norm,
)
from tusla.optimizers import (
    ALGO_IDS,
    AdamConfig,
    AdamState,
    SgldConfig,
    TuslaConfig,
    _BlockDraws,
    adam_bias_corrected,
    adam_step,
    records_equal,
    run,
    sgld_step,
    tusla_step,
)
from tusla.problems import (
    ConstantDataSource,
    OneNeuronProblem,
    QuadraticProblem,
    UniformDataSource,
    UsProblem,
)


class ConstantGradient(GradientOracle):
    """G(theta, x) = c regardless of inputs; for hand-computed fixtures."""

    def __init__(self, c: float) -> None:
        self.c = float(c)

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


def _data_rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))


def _noise_rng(seed, algo):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, 1, ALGO_IDS[algo]]))
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


def test_adam_bias_corrected_matches_formula():
    cfg = AdamConfig(alpha=0.1)
    state = AdamState.initial(np.zeros(2), cfg)
    with pytest.raises(ValueError):
        adam_bias_corrected(state)
    for _ in range(3):
        state = adam_step(state, None, ConstantGradient(2.0))
    mhat, vhat = adam_bias_corrected(state)
    assert np.array_equal(mhat, state.m / (1.0 - cfg.beta1 ** 3))
    assert np.array_equal(vhat, state.v / (1.0 - cfg.beta2 ** 3))


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
    # change a single bit of the record
    reg = RegularizationParams(eta=0.01, r=12.0)
    cfg = TuslaConfig(lam=0.05, beta=0.5, reg=reg)
    stream = UniformDataSource()
    fast = run(cfg, [0.7], UsProblem(s=2), stream, n_steps=400, rng_seed=3)
    slow = run(cfg, [0.7], VectorOnlyUs(s=2), stream, n_steps=400, rng_seed=3)
    assert records_equal(fast, slow)


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
    oracle = UsProblem(s=2)
    cfg = SgldConfig(lam=0.01, beta=1.0)
    rec = run(cfg, [0.3], oracle, UniformDataSource(), n_steps=4, rng_seed=2,
              objective=lambda th: oracle.value(float(th[0])))
    assert rec.objectives is not None
    for i in range(rec.n_recorded):
        assert rec.objectives[i] == oracle.value(float(rec.thetas[i, 0]))
    rec2 = run(cfg, [0.3], oracle, UniformDataSource(), n_steps=4, rng_seed=2)
    assert rec2.objectives is None


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
    n_steps = 200
    u_s = UsProblem(s=2).value
    calls = []

    def objective(v):
        calls.append(v.shape)
        return u_s(float(v[0]))

    rec = run(SgldConfig(lam=lam, beta=1.0), theta0, oracle, UniformDataSource(),
              n_steps=n_steps, rng_seed=0, record_every=record_every, objective=objective)
    assert rec.diverged == diverges
    if diverges:
        assert rec.divergence_step % 7 != 0
    assert rec.n_recorded == _expected_rows(rec, n_steps, record_every)
    assert calls == [(1,)] * rec.n_recorded  # once per recorded row, on a theta row
    for i in range(rec.n_recorded):
        want = np.float64(u_s(float(np.array([rec.thetas[i, 0]])[0])))
        assert rec.objectives[i].tobytes() == want.tobytes()
    assert rec.thetas[-1].tobytes() == rec.final_theta.tobytes()


def test_recorded_objective_rows_above_dimension_eight():
    # thetas are dropped for d > 8 but the objective still sees each recorded
    # state: with the norm as objective the two columns agree bitwise
    cfg = SgldConfig(lam=0.01, beta=1.0)
    rec = run(cfg, np.full(9, 0.5), QuadraticProblem(d=9), ConstantDataSource(),
              n_steps=20, rng_seed=0, record_every=7, objective=safe_norm)
    assert rec.thetas is None
    assert rec.n_recorded == _expected_rows(rec, 20, 7)
    assert rec.objectives.tobytes() == rec.theta_norms.tobytes()


def test_thetas_dropped_above_dimension_eight():
    cfg = SgldConfig(lam=0.001, beta=1.0)
    small = run(cfg, np.zeros(2), QuadraticProblem(d=2), ConstantDataSource(),
                n_steps=3, rng_seed=0)
    assert small.thetas is not None and small.thetas.shape == (4, 2)
    big = run(cfg, np.zeros(9), QuadraticProblem(d=9), ConstantDataSource(),
              n_steps=3, rng_seed=0)
    assert big.thetas is None
    assert big.theta_norms.shape == (4,)


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
    rng_a = np.random.default_rng(123)
    rng_b = np.random.default_rng(123)
    block = _BlockDraws(lambda n: rng_a.standard_normal(n))
    buffered = [block.next() for _ in range(5000)]  # crosses a block boundary
    single = [float(rng_b.standard_normal()) for _ in range(5000)]
    assert buffered == single
    # row blocks, as the vector route draws noise and data rows: a (k, d)
    # draw gives the rows of k per-step size-d calls, across refills too
    for block in (1, 7, 4096):
        for draw in (lambda g, size: g.standard_normal(size),
                     lambda g, size: g.uniform(-1.0, 1.0, size)):
            rng_a, rng_b = np.random.default_rng(321), np.random.default_rng(321)
            rows = _BlockDraws(lambda k: draw(rng_a, (k, 3)), block)
            buffered = np.array([rows.next() for _ in range(50)])
            single = np.array([draw(rng_b, 3) for _ in range(50)])
            assert buffered.tobytes() == single.tobytes()


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
        assert math.sqrt(lam) * abs(drift) <= (oracle.k_of(x) + eta * abs(th)) * (1.0 + 1e-12)
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
