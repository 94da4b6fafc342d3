"""sheardisp: random shear dispersion in a channel.

Exact OU sampling, closed-form effective diffusivities, pathwise Aris
moments with ergodic estimators, particle Monte Carlo, and the long-time
invariant measures of the advected scalar.

``import sheardisp`` loads no layer module: each public name below is
imported from its module on first access (PEP 562), so ``from sheardisp
import solve_aris`` loads ``aris_solver`` and what it imports, and a CLI
subcommand pays only for the layers it runs.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "ou_process": "time_grid OUParams OUPath sample_ou integral_variance "
                  "realization_seed",
    "spectral_core": "GridFunction HermiteSeries helmholtz_inverse "
                     "hermite_norm hermite_project cosine_project",
    "eff_diffusivity": "FlowSpec EigenData RepresentationMismatchError TruncationError "
                       "lambda2_general lambda11_general kappa_eff_general "
                       "lambda_multiplicative lambda_white taylor_steady "
                       "small_gamma_asymptotic kappa_eff_dimensional_linear "
                       "linear_profile cosine_profile",
    "aris_solver": "ArisRecord EstimatorDomainError solve_aris kappa_from_realization "
                   "ou_integral_identity estimate_gamma",
    "monte_carlo": "SimConfig InitialData ForwardResult PDFEstimate simulate_forward "
                   "evaluate_point_backward wind_model_solution simulate_random_wave "
                   "ensemble_pdf",
    "invariant_measure": "nth_moment_prediction npoint_correlator lambda_from_moments "
                         "BetaSpec pdf_deterministic cdf_deterministic beta_finite_time "
                         "moment_function reconstruct_pdf_from_moments talbot_inverse "
                         "pdf_random_wave cdf_random_wave gaussian_variance_spectral",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an exported name's module on first access and keep the name.

    Any other name raises AttributeError, so ``from sheardisp import
    aris_solver`` falls back to importing the submodule.
    """
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
