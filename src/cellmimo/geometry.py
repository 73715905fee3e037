"""Network configuration of the Poisson cellular model.

Base stations form a homogeneous Poisson field of intensity ``lam`` per unit
area; the user attaches to the nearest one.  :class:`NetworkConfig` holds
the static parameters every law and the simulator take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["NetworkConfig"]


@dataclass(frozen=True)
class NetworkConfig:
    """Static model parameters.

    lam     : base-station intensity (per unit area), > 0
    alpha   : path-loss exponent, > 2
    sigma2  : receiver noise power (0 for the interference-limited regime)
    n_t     : transmit antennas per base station (= streams per cell)
    n_r     : receive antennas at the user
    """

    lam: float
    alpha: float
    sigma2: float
    n_t: int
    n_r: int

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ConfigError(f"intensity must be positive and finite, got {self.lam!r}")
        if not (self.alpha > 2.0 and math.isfinite(self.alpha)):
            raise ConfigError(f"path-loss exponent must exceed 2, got {self.alpha!r}")
        if not (self.sigma2 >= 0.0 and math.isfinite(self.sigma2)):
            raise ConfigError(f"noise power must be >= 0, got {self.sigma2!r}")
        for name in ("n_t", "n_r"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
