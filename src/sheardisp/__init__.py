"""sheardisp: random shear dispersion in a channel.

Exact OU sampling, closed-form effective diffusivities, pathwise Aris
moments with ergodic estimators, particle Monte Carlo, and the long-time
invariant measures of the advected scalar.
"""

from .ou_process import (
    time_grid,
    OUParams,
    OUPath,
    sample_ou,
    sample_brownian_scaled,
    integral_variance,
    realization_seed,
)
from .spectral_core import (
    GridFunction,
    HermiteSeries,
    SolvabilityError,
    helmholtz_inverse,
    hermite_norm,
    hermite_project,
    cosine_project,
)
from .eff_diffusivity import (
    FlowSpec,
    EigenData,
    RepresentationMismatchError,
    TruncationError,
    lambda2_general,
    lambda11_general,
    kappa_eff_general,
    lambda_multiplicative,
    lambda_white,
    taylor_steady,
    small_gamma_asymptotic,
    kappa_eff_dimensional_linear,
    linear_profile,
    cosine_profile,
)
from .aris_solver import (
    ArisRecord,
    EstimatorDomainError,
    solve_aris,
    kappa_from_realization,
    ou_integral_identity,
    estimate_gamma,
    nth_moment_prediction,
    npoint_correlator,
    lambda_from_moments,
)
from .monte_carlo import (
    SimConfig,
    InitialData,
    ForwardResult,
    PDFEstimate,
    simulate_forward,
    evaluate_point_backward,
    wind_model_solution,
    simulate_random_wave,
    ensemble_pdf,
)
from .invariant_measure import (
    BetaSpec,
    pdf_deterministic,
    cdf_deterministic,
    beta_finite_time,
    moment_function,
    reconstruct_pdf_from_moments,
    talbot_inverse,
    pdf_random_wave,
    pdf_random_wave_tail,
    cdf_random_wave,
    gaussian_variance_spectral,
)

__version__ = "0.1.0"
