"""Exception types shared across the package.

The split matters for the command-line tool, which maps these onto distinct
exit codes: configuration problems (bad parameters, unsupported sizes) exit
with 2, numerical failures (quadrature that cannot reach tolerance,
ill-conditioned covariance) exit with 3, and I/O problems exit with 4.
"""


class CellMimoError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CellMimoError, ValueError):
    """A parameter is outside the supported domain."""


class PoleError(ConfigError):
    """A special function was evaluated at a pole."""


class SizeGuardError(ConfigError):
    """A size guard tripped: the input lies beyond the range a law is
    checked for.

    For coverage laws this means an antenna count above the analytic-law
    guards (n_r > 16 for MMSE, delta > 20 for PZF); the Monte Carlo
    estimator has no such limit.
    """


class NumericError(CellMimoError, ArithmeticError):
    """A numerical routine could not meet its accuracy target."""


class ConditioningError(NumericError):
    """A covariance solve was refused because the matrix is near-singular."""
