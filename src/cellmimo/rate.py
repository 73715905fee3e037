"""Ergodic rate and rate-distribution summaries.

The per-stream ergodic rate is the integral of the SINR CCDF over
t = log2(1 + z), taken on the graded panels [0, 1], [1, 2], [2, 4], ...
by the package's one adaptive rule, the G7/K15 bisection
:func:`cellmimo.specfun._kronrod`, and cut where the CCDF drops below 1e-8
(see :func:`ergodic_rate`).  The coverage laws take an array of
thresholds, so each round of a panel's bisection goes to the law in one
call.  Rate quantiles invert the
CCDF at a fixed probability: brentq solves in a bracket taken from the
CCDF values the rate integral already computed.  :func:`rate_profile`
summarizes both for one of two transmission schemes, and is the one place
that reads a scheme:

* ``sm`` (spatial multiplexing): the base station sends n_t streams, one
  per user; each user decodes its own stream, so the cell sum rate is
  n_t times the per-stream ergodic rate, and the rate-CDF quantile maps a
  SINR threshold through c = n_t * log2(1 + z).
* ``sst`` (single-stream transmission): one stream, users share the channel
  by time/frequency division; the sum rate is the single-stream ergodic
  rate C(1, n_r) and quantiles map through c = log2(1 + z).

That quantile mapping is the ``calibrated`` convention; a ``per-stream``
alternative (no n_t factor for sm, a 1/n_t share for sst) is exposed for
users who want per-user numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import optimize as _optimize

from .errors import ConfigError, NumericError
from .geometry import NetworkConfig
from .mmse import coverage_mmse
from .pzf import _receiver_order, coverage_pzf
from .specfun import _kronrod, _kronrod_nodes

__all__ = [
    "RateProfile",
    "sinr_ccdf",
    "ergodic_rate",
    "rate_profile",
]

_SCHEMES = ("sm", "sst")
_CONVENTIONS = ("calibrated", "per-stream")
# ergodic_rate truncates the rate integral where the CCDF drops below
# _CCDF_FLOOR, and gives up if that takes t = log2(1 + z) beyond _T_MAX.
_CCDF_FLOOR = 1e-8
_T_MAX = 256.0
# The rate integral's bound on |K15 - G7| per panel, absolute.
_PANEL_TOL = 1e-9


@dataclass(frozen=True)
class RateProfile:
    """Summary of the user rate distribution for one scheme/receiver pair.

    ``quantiles`` maps each requested level to its rate; ``m`` is the PZF
    cancellation order the law ran at, and None for MMSE.
    """

    mean_rate: float
    quantiles: dict[float, float]
    scheme: str
    receiver: str
    m: int | None


def sinr_ccdf(config: NetworkConfig, receiver: str, m: int | None = None) -> Callable:
    """SINR CCDF z -> P[SINR > z] for the given receiver, at a threshold or
    an array of them (a float or an array of z's shape, as the laws return).

    For ``pzf``, ``m`` picks the cancellation order (default:
    :func:`cellmimo.pzf.default_m`).
    """
    # An infeasible m fails here, not at the first call.
    m = _receiver_order(config, (receiver,), m)
    if m is None:
        return lambda z: coverage_mmse(config, z)
    return lambda z: coverage_pzf(config, z, m)


def ergodic_rate(coverage_fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """Per-stream ergodic rate E[log2(1 + SINR)] in bits/s/Hz.

    ``coverage_fn`` takes a 1-d array of thresholds and returns the CCDF at
    each.  The integral runs over t = log2(1 + z) with the Gauss-Kronrod
    G7/K15 rule on the panels [0, 1], [1, 2], [2, 4], [4, 8], ...: a panel's
    K15 value is kept when it is within 1e-9 (absolute) of its G7 value,
    and the panel is bisected otherwise; 12 rounds of bisection without
    that raise :class:`NumericError`.  The K15 value's own error is far
    below that difference for a smooth CCDF.  Each round of a top-level
    panel's bisection is one call, and the panel's end rides along in its
    first.  Panels stop at the first panel end T where the CCDF is below
    1e-8; the neglected tail is below 1e-8 * alpha/(2 ln 2) for every law
    in this package.  Raises :class:`NumericError` if no such T exists up
    to T = 256.
    """

    def ccdf_t(t: np.ndarray, _owner=None) -> np.ndarray:
        return coverage_fn(2.0**t - 1.0)

    total, lo, hi = 0.0, 0.0, 1.0
    while True:
        fx = ccdf_t(np.append(_kronrod_nodes(lo, hi), hi))
        total += _kronrod(ccdf_t, np.array([lo]), np.array([hi]), np.zeros(1, int), _PANEL_TOL, 0.0,
                          fx[None, :-1])[0]
        if fx[-1] < _CCDF_FLOOR:
            return total
        if hi >= _T_MAX:
            raise NumericError(
                f"rate integral truncation budget exhausted (T > {_T_MAX}); "
                "the CCDF decays too slowly"
            )
        lo, hi = hi, 2.0 * hi


def _sinr_quantile(
    coverage_fn: Callable[[float], float], q: float, z_seen: np.ndarray, ccdf_seen: np.ndarray
) -> float:
    """SINR threshold z_q with P[SINR <= z_q] = q, by brentq.

    The bracket comes from the thresholds ``z_seen`` where the CCDF is
    already known to be ``ccdf_seen``: the smallest one where the CCDF is at
    most 1 - q, and the largest below it where it is above 1 - q (or 0).
    Only when no known CCDF is at most 1 - q is the bracket [0, 4^k]
    widened until the CCDF falls there.
    """
    target = 1.0 - q  # CCDF value at the quantile threshold

    def shifted(z: float) -> float:
        return coverage_fn(z) - target

    past = ccdf_seen <= target
    if past.any():
        hi = float(z_seen[past].min())
        before = z_seen[~past & (z_seen < hi)]
        lo = float(before.max()) if before.size else 0.0
    else:
        lo, hi = 0.0, 1.0
        while shifted(hi) > 0.0:
            hi *= 4.0
            if hi > 2.0**256:
                raise NumericError("quantile bracket search ran away; CCDF decays too slowly")
    return _optimize.brentq(shifted, lo, hi, xtol=1e-14, rtol=1e-12)


def rate_profile(
    config: NetworkConfig,
    receiver: str,
    scheme: str,
    *,
    m: int | None = None,
    quantiles: Sequence[float] = (0.05, 0.8),
    convention: str = "calibrated",
) -> RateProfile:
    """Mean sum rate and rate quantiles of a cell, in bits/s/Hz.

    ``scheme`` sets the SINR law the streams see, the sum-rate factor and,
    with ``convention``, the quantile factor, as the module docstring
    states.  Each level q in ``quantiles`` (0.05 is the usual cell-edge
    number, 0.8 a near-peak one) solves P[SINR <= z_q] = q on that law.
    For ``pzf``, ``m`` defaults to :func:`cellmimo.pzf.default_m` of the
    law the streams see.
    """
    if scheme not in _SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {_SCHEMES}")
    if convention not in _CONVENTIONS:
        raise ConfigError(f"unknown convention {convention!r}; expected one of {_CONVENTIONS}")
    if any(not 0.0 < q < 1.0 for q in quantiles):
        raise ConfigError(f"quantile levels must lie in (0, 1), got {quantiles!r}")
    n_t = int(config.n_t)
    stream = config if scheme == "sm" else replace(config, n_t=1)
    m = _receiver_order(stream, (receiver,), m)
    ccdf = sinr_ccdf(stream, receiver, m=m)
    seen = []

    def recorded(z: np.ndarray) -> np.ndarray:
        seen.append((z, ccdf(z)))
        return seen[-1][1]

    mean = ergodic_rate(recorded)
    z_seen, ccdf_seen = (np.concatenate(v) for v in zip(*seen))
    rates = {q: math.log2(1.0 + _sinr_quantile(ccdf, q, z_seen, ccdf_seen)) for q in quantiles}
    if scheme == "sm":
        mean = n_t * mean
        if convention == "calibrated":
            rates = {q: n_t * c for q, c in rates.items()}
    elif convention == "per-stream":
        rates = {q: c / n_t for q, c in rates.items()}
    return RateProfile(mean, rates, scheme, receiver, m)
