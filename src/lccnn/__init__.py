"""Log-concave coupling for Bayesian single-hidden-layer networks.

Posterior densities over l1-constrained neuron weights, the auxiliary
Gaussian coupling that decomposes them into log-concave components, a
two-stage nested MCMC sampler with exact small-scale oracles, and the
full set of regret / statistical-risk bound calculators.
"""

from .nnmodel import (
    Activation,
    Dataset,
    NetworkConfig,
    eval_network,
    eval_network_many,
    log_posterior_unnorm,
    loss,
    posterior_hessian_quadform,
    posterior_score,
    residuals,
    squared_relu,
    tanh_scaled,
)
from .priors import (
    ContinuousL1Prior,
    DiscreteGridPrior,
    dirichlet_moment,
    discretize_weights,
    enumerate_grid,
    grid_cardinality,
    l1_ball_rows,
    prior_moment_bound,
    sample_continuous,
)
from .coupling import (
    ConditionReport,
    CouplingParams,
    check_logconcavity_conditions,
    compute_C_n,
    compute_delta,
    compute_rho,
    estimate_Z_and_check,
    holder_variance_bound,
    in_B,
    marginal_concavity_estimate,
    marginal_score,
    reverse_hessian_quadform,
    reverse_logdensity_unnorm,
    reverse_score,
    sample_xi_given_w,
)
from .samplers import (
    ChainConfig,
    ChainDiagnostics,
    CouplingOracle1D,
    PosteriorQuadrature,
    SamplerError,
    TargetDensity,
    TwoStageBudgets,
    ess_estimate,
    independence_chain,
    mala_chain,
    sample_marginal_xi,
    sample_reverse_conditional,
    sample_reverse_conditional_prior_mh,
    two_stage_sample,
)
from .estimators import (
    PosteriorSnapshot,
    cesaro_mean,
    cesaro_predictive,
    exact_discrete_posterior,
    grid_psi_table,
    log_predictive_density,
    posterior_mean,
    predictive_density,
    product_f_table,
    sequential_discrete_posteriors,
)
from .risk import (
    BoundInputs,
    RegretLedger,
    RegretRecord,
    approximation_witness,
    bayes_factor_telescope,
    bound_calculator,
    hull_project,
    optimal_hyperparams,
    pythagorean_check,
    regret_ledger,
    resolvability_bound,
    streamed_regret_ledger,
)

__version__ = "0.1.0"
