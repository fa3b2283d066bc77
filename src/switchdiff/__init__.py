"""Simulation and certification toolkit for state-dependent regime-switching diffusions.

The package simulates coupled processes (X_t, regime_t) on R^d x {1, 2, ...}
where X follows a per-regime stochastic differential equation and the regime
switches at state-dependent rates, realized by classifying uniform Poisson
marks against per-regime interval layouts.  Alongside the solver it ships
grid checkers for Lyapunov-style non-explosion certificates and Monte Carlo
probes (moment bounds, exit tails, coupled continuity profiles, and a
matrix-exponential law oracle for the switching mechanism).
"""

__version__ = "0.1.0"

from .certify import (BetaSumReport, CertificateReport, ExponentialCertificate,
                      GridSpec, PolynomialCertificate, PowerLawRates,
                      check_condition_exp, check_condition_poly,
                      check_local_bounded_beta_sum, default_grid,
                      gronwall_bound_poly, tau_tail_bound_poly, zeta_partial)
from .errors import (ConfigError, SwitchDiffError, TailUnresolvable,
                     TruncationLeak)
from .hybrid import (HybridPath, PathStatus, SimConfig, Switch, auto_truncation,
                     simulate)
from .jumps import JumpStream, extend_stream, sample_stream
from .model import (DenseRates, FunctionRates, RateMatrix, RegimeModel,
                    mark_displacement, truncate_coefficients)
from .models import list_models, make_model, model_names
from .probe import (ProbeReport, ctmc_oracle, estimate_moment,
                    estimate_tau_tail, feller_probe, run_ensemble)

__all__ = [
    "__version__",
    "BetaSumReport", "CertificateReport", "ConfigError",
    "DenseRates", "ExponentialCertificate", "FunctionRates", "GridSpec",
    "HybridPath", "JumpStream", "PathStatus", "PolynomialCertificate",
    "PowerLawRates", "ProbeReport", "RateMatrix", "RegimeModel", "SimConfig",
    "Switch", "SwitchDiffError", "TailUnresolvable", "TruncationLeak",
    "auto_truncation", "check_condition_exp", "check_condition_poly",
    "check_local_bounded_beta_sum", "ctmc_oracle", "default_grid",
    "estimate_moment", "estimate_tau_tail", "extend_stream", "feller_probe",
    "gronwall_bound_poly", "list_models", "make_model",
    "mark_displacement", "model_names", "run_ensemble", "sample_stream",
    "simulate", "tau_tail_bound_poly", "truncate_coefficients",
    "zeta_partial",
]
