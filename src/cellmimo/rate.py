"""Ergodic rate and rate-distribution summaries.

The per-stream ergodic rate is the integral of the SINR CCDF over
t = log2(1 + z), taken by a fixed Gauss-Kronrod rule on the graded panels
[0, 1], [1, 2], [2, 4], ... and cut where the CCDF drops below 1e-8 (see
:func:`ergodic_rate`); rate quantiles invert the CCDF at a fixed
probability.
Two transmission schemes are summarized:

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
from typing import Callable

import numpy as np
from scipy import optimize as _optimize

from .errors import ConfigError, NumericError
from .geometry import NetworkConfig
from .mmse import coverage_mmse
from .pzf import _split_delta, coverage_pzf, default_m

__all__ = [
    "RateProfile",
    "stream_config",
    "sinr_ccdf",
    "ergodic_rate",
    "rate_quantile",
    "mean_sum_rate",
    "rate_profile",
]

_SCHEMES = ("sm", "sst")
_RECEIVERS = ("pzf", "mmse")
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
    """Summary of the user rate distribution for one scheme/receiver pair."""

    mean_rate: float
    q05: float
    q80: float
    scheme: str
    receiver: str


def stream_config(config: NetworkConfig, scheme: str) -> NetworkConfig:
    """Configuration whose SINR law a scheme's streams see.

    ``sm`` keeps all n_t streams; ``sst`` serves one stream at a time, so
    its SINR law is the n_t = 1 one.
    """
    if scheme not in _SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {_SCHEMES}")
    return config if scheme == "sm" else replace(config, n_t=1)


def sinr_ccdf(config: NetworkConfig, receiver: str, m: int | None = None) -> Callable[[float], float]:
    """SINR CCDF z -> P[SINR > z] for the given receiver.

    For ``pzf``, ``m`` picks the cancellation order (default:
    :func:`cellmimo.pzf.default_m`).
    """
    if receiver not in _RECEIVERS:
        raise ConfigError(f"unknown receiver {receiver!r}; expected one of {_RECEIVERS}")
    if receiver == "mmse":
        if m is not None:
            raise ConfigError("the MMSE receiver takes no cancellation order")
        return lambda z: coverage_mmse(config, z)

    m = default_m(config) if m is None else m
    _split_delta(config.n_t, config.n_r, m)  # an infeasible m fails here, not at the first call
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


def rate_quantile(
    scheme: str,
    coverage_fn: Callable[[float], float],
    n_t: int,
    q: float,
    *,
    convention: str = "calibrated",
) -> float:
    """q-quantile of the user rate distribution, in bits/s/Hz.

    Solves P[SINR <= z_q] = q on the SINR axis, then maps through the
    scheme's rate function.  q = 0.05 is the usual cell-edge number, q = 0.8
    a near-peak one.
    """
    if scheme not in _SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {_SCHEMES}")
    if convention not in _CONVENTIONS:
        raise ConfigError(f"unknown convention {convention!r}; expected one of {_CONVENTIONS}")
    if not (0.0 < q < 1.0):
        raise ConfigError(f"quantile level must be in (0, 1), got {q!r}")
    if not isinstance(n_t, int) or n_t < 1:
        raise ConfigError(f"n_t must be a positive integer, got {n_t!r}")

    target = 1.0 - q  # CCDF value at the quantile threshold

    def shifted(z: float) -> float:
        return coverage_fn(z) - target

    hi = 1.0
    while shifted(hi) > 0.0:
        hi *= 4.0
        if hi > 2.0**256:
            raise NumericError("quantile bracket search ran away; CCDF decays too slowly")
    z_q = _optimize.brentq(shifted, 0.0, hi, xtol=1e-14, rtol=1e-12)

    per_stream = math.log2(1.0 + z_q)
    if scheme == "sm":
        return n_t * per_stream if convention == "calibrated" else per_stream
    return per_stream if convention == "calibrated" else per_stream / n_t


def mean_sum_rate(
    scheme: str,
    n_t: int,
    n_r: int,
    receiver: str,
    *,
    alpha: float = 4.0,
    sigma2: float = 0.0,
    lam: float = 1.0,
    m: int | None = None,
) -> float:
    """Mean downlink sum rate of a cell, in bits/s/Hz.

    ``sm``: n_t streams to n_t users, sum rate n_t * C(n_t, n_r).
    ``sst``: one stream shared by time division, sum rate C(1, n_r).
    """
    config = NetworkConfig(lam=lam, alpha=alpha, sigma2=sigma2, n_t=n_t, n_r=n_r)
    ccdf = sinr_ccdf(stream_config(config, scheme), receiver, m=m)
    return _sum_rate(scheme, n_t, ergodic_rate(ccdf))


def _sum_rate(scheme: str, n_t: int, per_stream: float) -> float:
    """Cell sum rate from the per-stream ergodic rate: n_t streams for
    ``sm``, one for ``sst``."""
    return n_t * per_stream if scheme == "sm" else per_stream


def rate_profile(
    scheme: str,
    n_t: int,
    n_r: int,
    receiver: str,
    *,
    alpha: float = 4.0,
    sigma2: float = 0.0,
    lam: float = 1.0,
    m: int | None = None,
    convention: str = "calibrated",
) -> RateProfile:
    """Mean sum rate plus the 5% (cell-edge) and 80% rate quantiles."""
    config = NetworkConfig(lam=lam, alpha=alpha, sigma2=sigma2, n_t=n_t, n_r=n_r)
    ccdf = sinr_ccdf(stream_config(config, scheme), receiver, m=m)
    return RateProfile(
        mean_rate=_sum_rate(scheme, n_t, ergodic_rate(ccdf)),
        q05=rate_quantile(scheme, ccdf, n_t, 0.05, convention=convention),
        q80=rate_quantile(scheme, ccdf, n_t, 0.80, convention=convention),
        scheme=scheme,
        receiver=receiver,
    )
