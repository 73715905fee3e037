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
from .montecarlo import simulate_sinr
from .pzf import (
    coverage_pzf,
    default_m,
    mean_inverse_sinr,
    optimal_m,
)
from .rate import (
    RateProfile,
    rate_profile,
    sinr_ccdf,
)

__version__ = "0.1.0"

__all__ = [
    "CellMimoError",
    "ConditioningError",
    "ConfigError",
    "NetworkConfig",
    "NumericError",
    "RateProfile",
    "SizeGuardError",
    "__version__",
    "coverage_mmse",
    "coverage_pzf",
    "default_m",
    "mean_inverse_sinr",
    "optimal_m",
    "rate_profile",
    "simulate_sinr",
    "sinr_ccdf",
]
