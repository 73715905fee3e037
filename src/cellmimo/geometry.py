"""Network configuration of the Poisson cellular model.

Base stations form a homogeneous Poisson field of intensity ``lam`` per unit
area; the user attaches to the nearest one.  :class:`NetworkConfig` holds
the static parameters every law and the simulator take, :func:`_is_int`
the rule for their integer parameters, :func:`_over_thresholds` the
threshold contract both coverage laws share, and :func:`_noise_scale` the
noise scale both laws and the mean inverse SINR read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = ["NetworkConfig"]

# Thresholds per law call, which bounds the laws' work arrays, above all
# the PZF distance-ratio average's nodes (15 per panel, several panels per
# threshold): at 10000 thresholds the PZF 1x12 m = 3 law peaked at 38.1 MB
# of numpy allocations in one call and at 5.6 MB in blocks of 1024 without
# noise, and at 38.4 against 7.1 MB at sigma2 1.  The noisy MMSE 4x16 law,
# whose table :func:`cellmimo.specfun._conditional_law` blocks itself,
# peaked at 4.0 against 2.7 MB.
_THRESHOLD_BLOCK = 1024


def _is_int(value) -> bool:
    """An int or numpy integer, not a bool: the one rule for every integer
    parameter of the laws and the simulator."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def _noise_scale(config: NetworkConfig) -> float:
    """κ = n_t sigma2 (pi lam)^(-alpha/2), the receiver noise against the
    interference at the typical serving distance.  Exactly 0 when
    sigma2 = 0, so the zero-noise laws never read lam; raises ConfigError
    where it overflows."""
    if config.sigma2 == 0.0:
        return 0.0
    try:
        kappa = config.n_t * config.sigma2 * (math.pi * config.lam) ** (-config.alpha / 2.0)
    except OverflowError:
        kappa = math.inf
    if kappa == math.inf:
        raise ConfigError(f"noise scale n_t sigma2 (pi lam)^(-alpha/2) overflows for {config}")
    return kappa


def _over_thresholds(z, law: Callable[[np.ndarray], np.ndarray]) -> float | np.ndarray:
    """A coverage law at every threshold of ``z``, a float or an array.

    ``law`` takes the positive entries as a 1-d array, at most 1024 at a
    time, and returns their coverages; z = 0 gives 1 without a call.  The
    result is a float for a scalar z and an array of z's shape otherwise.
    Raises ConfigError unless every entry is finite and >= 0.
    """
    zv = np.asarray(z, dtype=float)
    # The comparison runs only on finite entries, so NaN raises no warning.
    if not (np.isfinite(zv).all() and (zv >= 0.0).all()):
        raise ConfigError(f"thresholds must be finite and >= 0, got {z!r}")
    flat = zv.ravel()
    out = np.ones(flat.size)
    positive = np.flatnonzero(flat)
    for start in range(0, positive.size, _THRESHOLD_BLOCK):
        blk = positive[start:start + _THRESHOLD_BLOCK]
        out[blk] = np.clip(law(flat[blk]), 0.0, 1.0)
    return float(out[0]) if zv.ndim == 0 else out.reshape(zv.shape)
