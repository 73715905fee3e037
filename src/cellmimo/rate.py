"""Ergodic rate and rate-distribution summaries.

The per-stream ergodic rate is the integral of the SINR CCDF over
t = log2(1 + z), taken by a fixed Gauss-Kronrod rule on the graded panels
[0, 1], [1, 2], [2, 4], ... and cut where the CCDF drops below 1e-8 (see
:func:`ergodic_rate`); rate quantiles invert the CCDF at a fixed
probability.  :func:`rate_profile` summarizes both for one of two
transmission schemes, and is the one place that reads a scheme:

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
# Gauss-Kronrod G7/K15 on [-1, 1] (QUADPACK's qk15): the 15 Kronrod nodes in
# increasing order, their weights, and the weights of the 7 Gauss nodes,
# which are every other Kronrod node.  A panel is accepted when
# |K15 - G7| <= _PANEL_TOL and otherwise bisected, at most _PANEL_DEPTH times.
_KRONROD_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
              0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
              0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
              0.207784955007898467600689403773245)
_KRONROD_W = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
              0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
              0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
              0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GAUSS_W = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
            0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_NODES = np.array([-x for x in _KRONROD_X] + [0.0] + list(reversed(_KRONROD_X)))
_WK15 = np.array(_KRONROD_W + _KRONROD_W[-2::-1])
_WG7 = np.array(_GAUSS_W + _GAUSS_W[-2::-1])
_PANEL_TOL = 1e-9
_PANEL_DEPTH = 12


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


def sinr_ccdf(config: NetworkConfig, receiver: str, m: int | None = None) -> Callable[[float], float]:
    """SINR CCDF z -> P[SINR > z] for the given receiver.

    For ``pzf``, ``m`` picks the cancellation order (default:
    :func:`cellmimo.pzf.default_m`).
    """
    # An infeasible m fails here, not at the first call.
    m = _receiver_order(config, (receiver,), m)
    if m is None:
        return lambda z: coverage_mmse(config, z)
    return lambda z: coverage_pzf(config, z, m)


def ergodic_rate(coverage_fn: Callable[[float], float]) -> float:
    """Per-stream ergodic rate E[log2(1 + SINR)] in bits/s/Hz.

    Integrates the CCDF over t = log2(1 + z) with the Gauss-Kronrod G7/K15
    rule on the panels [0, 1], [1, 2], [2, 4], [4, 8], ...: a panel's K15
    value is taken when it is within 1e-9 of its G7 value, and the panel is
    bisected otherwise; 12 levels of bisection without that raise
    :class:`NumericError`.  The K15 value's own error is far below that
    difference for a smooth CCDF.  Panels stop at the first panel end T
    where the CCDF is below 1e-8; the neglected tail is below
    1e-8 * alpha/(2 ln 2) for every law in this package.  Raises
    :class:`NumericError` if no such T exists up to T = 256.
    """

    def ccdf_t(t: float) -> float:
        return coverage_fn(2.0**t - 1.0)

    total, lo, hi = 0.0, 0.0, 1.0
    while True:
        total += _kronrod_panel(ccdf_t, lo, hi, 0)
        if ccdf_t(hi) < _CCDF_FLOOR:
            return total
        if hi >= _T_MAX:
            raise NumericError(
                f"rate integral truncation budget exhausted (T > {_T_MAX}); "
                "the CCDF decays too slowly"
            )
        lo, hi = hi, 2.0 * hi


def _kronrod_panel(f: Callable[[float], float], lo: float, hi: float, depth: int) -> float:
    """Integral of f over [lo, hi] by K15, bisected until |K15 - G7| <= 1e-9."""
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    fx = np.array([f(mid + half * x) for x in _NODES])
    k15 = half * float(fx @ _WK15)
    if abs(k15 - half * float(fx[1::2] @ _WG7)) <= _PANEL_TOL:
        return k15
    if depth == _PANEL_DEPTH:
        raise NumericError(
            f"rate integral did not converge on t in [{lo:.6g}, {hi:.6g}] "
            f"after {_PANEL_DEPTH} bisections; the CCDF is not smooth there"
        )
    return _kronrod_panel(f, lo, mid, depth + 1) + _kronrod_panel(f, mid, hi, depth + 1)


def _sinr_quantile(coverage_fn: Callable[[float], float], q: float) -> float:
    """SINR threshold z_q with P[SINR <= z_q] = q: the bracket [0, 4^k] is
    widened until the CCDF falls to 1 - q, then brentq solves."""
    target = 1.0 - q  # CCDF value at the quantile threshold

    def shifted(z: float) -> float:
        return coverage_fn(z) - target

    hi = 1.0
    while shifted(hi) > 0.0:
        hi *= 4.0
        if hi > 2.0**256:
            raise NumericError("quantile bracket search ran away; CCDF decays too slowly")
    return _optimize.brentq(shifted, 0.0, hi, xtol=1e-14, rtol=1e-12)


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
    mean = ergodic_rate(ccdf)
    rates = {q: math.log2(1.0 + _sinr_quantile(ccdf, q)) for q in quantiles}
    if scheme == "sm":
        mean = n_t * mean
        if convention == "calibrated":
            rates = {q: n_t * c for q, c in rates.items()}
    elif convention == "per-stream":
        rates = {q: c / n_t for q, c in rates.items()}
    return RateProfile(mean, rates, scheme, receiver, m)
