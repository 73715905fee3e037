"""Coverage and rate analysis for open-loop MIMO cellular downlinks.

Base stations form a homogeneous Poisson point process; each transmits
independent spatial-multiplexing streams with per-antenna power control.
The package evaluates the exact SINR coverage probability and ergodic-rate
laws for partial zero-forcing (PZF) and linear MMSE receivers, and ships a
seeded Monte Carlo simulator used to validate every analytic law.

Typical entry points:

    >>> from cellmimo import NetworkConfig, coverage_mmse, coverage_pzf
    >>> config = NetworkConfig(lam=1.0, alpha=4.0, sigma2=0.0, n_t=2, n_r=4)
    >>> coverage_mmse(config, 1.0)  # doctest: +ELLIPSIS
    0.81285...
    >>> coverage_pzf(config, 1.0, m=1)  # doctest: +ELLIPSIS
    0.71499...
"""

from .errors import (
    CellMimoError,
    ConditioningError,
    ConfigError,
    NumericError,
    SizeGuardError,
)
from .geometry import NetworkConfig
from .mmse import coverage_mmse
from .montecarlo import (
    McEstimate,
    estimate_coverage,
    estimate_coverage_curve,
    estimate_rate,
    simulate_sinr,
)
from .pzf import (
    coverage_pzf,
    default_m,
    mean_inverse_sinr,
    optimal_m,
)
from .rate import (
    RateProfile,
    ergodic_rate,
    mean_sum_rate,
    rate_profile,
    rate_quantile,
    sinr_ccdf,
)
from .specfun import hyp2f1_negz, lambda_kernel, theta_kernel

__version__ = "0.1.0"

__all__ = [
    "CellMimoError",
    "ConditioningError",
    "ConfigError",
    "McEstimate",
    "NetworkConfig",
    "NumericError",
    "RateProfile",
    "SizeGuardError",
    "__version__",
    "coverage_mmse",
    "coverage_pzf",
    "default_m",
    "ergodic_rate",
    "estimate_coverage",
    "estimate_coverage_curve",
    "estimate_rate",
    "hyp2f1_negz",
    "lambda_kernel",
    "mean_inverse_sinr",
    "mean_sum_rate",
    "optimal_m",
    "rate_profile",
    "rate_quantile",
    "simulate_sinr",
    "sinr_ccdf",
    "theta_kernel",
]
