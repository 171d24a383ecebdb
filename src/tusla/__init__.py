"""Taming-based stochastic gradient Langevin optimization.

The package centers on TUSLA, a Langevin-type algorithm whose drift is tamed
so that polynomially growing stochastic gradients cannot blow the iterates
up, together with SGLD and ADAM baselines, benchmark problems with verified
growth/smoothness constants, and diagnostics for stability and sampling
accuracy.
"""
from .gradient_oracle import (
    GradientOracle,
    OracleMeta,
    ParameterVector,
    RegularizationParams,
    growth_envelope,
    lambda_max,
    overflow_safe_drift,
    overflow_safe_drift_batch,
    overflow_safe_drift_scalar,
    parameter_vector,
    regularized_gradient,
    safe_norm,
    tamed_gradient,
)
from .optimizers import (
    ALGO_IDS,
    AdamConfig,
    AdamState,
    RunRecord,
    SgldConfig,
    TuslaConfig,
    adam_bias_corrected,
    adam_step,
    records_equal,
    run,
    sgld_step,
    tusla_step,
)
from .problems import (
    ConstantDataSource,
    OneNeuronProblem,
    QuadraticProblem,
    UniformDataSource,
    UsProblem,
    g_s_sample,
    g_s_unbiased,
    one_neuron_gradient,
    one_neuron_parameters,
    one_neuron_value,
    u_s_derivative,
    u_s_value,
    u_s_value_batch,
)
from .neural_net import (
    ARCTAN,
    TANH,
    ActivationSpec,
    Architecture,
    BoundCheckReport,
    DriftLipschitz,
    MlpOracle,
    MlpParams,
    TeacherStream,
    activation_by_name,
    drift_lipschitz_constants,
    forward,
    grad_f,
    gradient_g,
    gradient_h,
    gradient_norm_bound,
    lipschitz_constants,
    operator_norm,
    partial_deriv_bound_check,
    risk,
)
from .diagnostics import (
    DissipativityReport,
    EmpiricalDistribution1D,
    TheoryConstants,
    dissipativity_check,
    empirical_moment,
    estimate_k_mean,
    estimate_x_rho_mean,
    gaussian_quantiles,
    gibbs_sampler_1d,
    ks_vs_gaussian,
    theory_constants,
    tusla_terminal_law,
    wasserstein_p_1d,
    wasserstein_to_gaussian,
)
from .harness import (
    PRESETS,
    AlgoSummary,
    ExperimentConfig,
    RunSummary,
    SeedResult,
    export_csv,
    load_config,
    parse_csv,
    run_config,
    run_preset,
)

__version__ = "0.1.0"
