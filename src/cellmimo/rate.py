"""Ergodic rate and rate-distribution summaries.

The per-stream ergodic rate E[log2(1 + SINR)] takes one of two routes,
both by the package's one adaptive rule, the G7/K15 bisection
:func:`cellmimo.specfun._kronrod`:

* for any CCDF, the integral over t = log2(1 + z) on the graded panels
  [0, 1], [1, 2], [2, 4], ..., cut where the CCDF drops below 1e-8
  (:func:`ergodic_rate`).  The coverage laws take an array of thresholds,
  so each round of a panel's bisection goes to the law in one call.
  :func:`rate_profile` takes this route for MMSE and for PZF at m = 1;
* for PZF at m >= 2, one integral over the kernel argument x of the
  conditional law at u = 1 against the distance-ratio weight
  :func:`cellmimo.pzf._ratio_weight` (:func:`_pzf_mean_rate`), which
  needs no u-average per node and has no CCDF floor.

Rate quantiles invert the CCDF at a fixed probability: brentq solves in a
bracket taken from CCDF values already known, those the t-route computed
or, for PZF at m >= 2, those of one law call on 16 fixed thresholds.
:func:`rate_profile` summarizes both for one of two transmission schemes,
and is the one place that reads a scheme:

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
from .geometry import NetworkConfig, _noise_scale
from .mmse import coverage_mmse
from .pzf import _conditional_coverage_u, _law_delta, _ratio_weight, _receiver_order, coverage_pzf
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
# The PZF m >= 2 mean's integral over the kernel argument x, in log s,
# s = x^(2/alpha): panels of width _LOG_S_PANEL from _LOG_S_HEAD below to
# _LOG_S_TAIL above the knee s = (1 + kappa)^(-2/alpha), their G7/K15
# bound relative to the mean, and the largest law value allowed at the top.
_LOG_S_HEAD = 40.0
_LOG_S_TAIL = 20.0
_LOG_S_PANEL = 2.0
_MEAN_TOL = 1e-11
_TOP_LAW = 1e-15
# The thresholds whose CCDF brackets the quantiles of the PZF m >= 2 law,
# t = log2(1 + z) from 2^-4 to 2^3.5 in steps of a factor sqrt(2).
_BRACKET_Z = 2.0 ** (2.0 ** (0.5 * np.arange(-8, 8))) - 1.0


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
    """Per-stream ergodic rate E[log2(1 + SINR)] in bits/s/Hz, for any
    CCDF: the route :func:`rate_profile` takes for MMSE and PZF at m = 1,
    and, over :func:`cellmimo.pzf.coverage_pzf`, the second quadrature
    route to the PZF mean at m >= 2.

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
    in this package, and nothing is cut at t = 0.  Raises
    :class:`NumericError` if no such T exists up to T = 256.
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


def _pzf_mean_rate(config: NetworkConfig, m: int) -> float:
    """Per-stream mean rate E[log2(1 + SINR)] of the PZF law at m >= 2,
    in bits/s/Hz, as one integral over the kernel argument x.

    The conditional law L depends on the distance ratio u only through
    x = z u^alpha, so swapping the integrals over z and u gives

        R = (1 / ln 2) ∫_0^∞ L(x) w(x) dx,    w(x) = E_u[1 / (u^alpha + x)],

    L :func:`cellmimo.pzf._conditional_coverage_u` at u = 1 and w from
    :func:`cellmimo.pzf._ratio_weight`, which takes no law call.  In
    log s, s = x^(2/alpha), the integral runs on panels of width 2 from 40
    below to 20 above the knee s_c = (1 + kappa)^(-2/alpha), where the law
    turns, by the G7/K15 bisection of :func:`cellmimo.specfun._kronrod`
    to 1e-11 of the mean per panel; the top end rides along in the first
    law call.  Both cuts are bounded:

    * below, L <= 1 and w(x) <= (m - 1) (pi/a) / sin(pi/a) x^(1/a - 1),
      a = alpha/2, so the head is below
      (m - 1) pi / sin(2 pi / alpha) e^-40 s_c / ln 2;
    * above, L falls like x^(-2m/alpha) and w(x) <= 1/x, so the tail is
      below L(top) alpha / (4 ln 2); NumericError unless L(top) <= 1e-15.

    Raises NumericError, too, where the top x exceeds the float range
    (alpha above about 71).
    """
    delta = _law_delta(config, m)
    n_t, alpha, kappa = config.n_t, config.alpha, _noise_scale(config)
    a = 0.5 * alpha
    knee = -math.log1p(kappa) / a
    lo, hi = knee - _LOG_S_HEAD, knee + _LOG_S_TAIL
    if a * hi >= math.log(np.finfo(float).max):
        raise NumericError(f"rate integral: x = e^{a * hi:.6g} exceeds the float range")
    edges = np.linspace(lo, hi, round((hi - lo) / _LOG_S_PANEL) + 1)

    def law(log_s: np.ndarray) -> np.ndarray:
        return _conditional_coverage_u(n_t, m, delta, alpha, np.exp(a * log_s), kappa, np.ones(1))

    def integrand(log_s: np.ndarray, _owner=None) -> np.ndarray:
        return law(log_s) * _ratio_weight(a * log_s, alpha, m)

    panels = edges.size - 1
    nodes = _kronrod_nodes(edges[:-1], edges[1:]).ravel()
    values = law(np.append(nodes, hi))
    if values[-1] > _TOP_LAW:
        raise NumericError(
            f"rate integral: the law is {values[-1]:.3g} at its top, x = e^{a * hi:.6g}")
    first = (values[:-1] * _ratio_weight(a * nodes, alpha, m)).reshape(panels, -1)
    total = _kronrod(integrand, edges[:-1], edges[1:], np.zeros(panels, int), 0.0, _MEAN_TOL, first)
    return a * total[0] / math.log(2.0)


def _sinr_quantile(
    coverage_fn: Callable[[float], float], q: float, z_seen: np.ndarray, ccdf_seen: np.ndarray
) -> float:
    """SINR threshold z_q with P[SINR <= z_q] = q, by brentq.

    The bracket comes from the thresholds ``z_seen`` where the CCDF is
    already known to be ``ccdf_seen``: the smallest one where the CCDF is at
    most 1 - q, and the largest below it where it is above 1 - q (or 0).
    Only when no known CCDF is at most 1 - q is the bracket [0, 4^k]
    widened until the CCDF falls there.  No threshold costs a second law
    call, and z = 0, where the CCDF is 1, costs none.
    """
    target = 1.0 - q  # CCDF value at the quantile threshold
    known = dict(zip(z_seen.tolist(), ccdf_seen.tolist()))
    known[0.0] = 1.0

    def shifted(z: float) -> float:
        if z not in known:
            known[z] = coverage_fn(z)
        return known[z] - target

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

    The per-stream mean of MMSE and of PZF at m = 1 is :func:`ergodic_rate`
    over the law, cut at t = log2(1 + z) where the CCDF first falls below
    1e-8: nothing is cut below, and at most 1e-8 alpha / (2 ln 2) above.
    That of PZF at m >= 2 is :func:`_pzf_mean_rate`, the integral over the
    kernel argument x, cut at s = x^(2/alpha) = e^-40 s_c below and
    e^20 s_c above the knee s_c = (1 + kappa)^(-2/alpha), kappa the noise
    scale: the head it leaves out is below
    (m - 1) pi / sin(2 pi / alpha) e^-40 s_c / ln 2, and the tail below
    1e-15 alpha / (4 ln 2).  Its quantiles are bracketed by one law call at
    t = 2^-4, 2^-3.5, ..., 2^3.5.  With quantiles=() that call is not
    made.
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

    if m is None or m == 1:
        mean = ergodic_rate(recorded)
    else:
        mean = _pzf_mean_rate(stream, m)
        if quantiles:
            recorded(_BRACKET_Z)
    rates = {}
    if quantiles:
        z_seen, ccdf_seen = (np.concatenate(v) for v in zip(*seen))
        rates = {q: math.log2(1.0 + _sinr_quantile(ccdf, q, z_seen, ccdf_seen)) for q in quantiles}
    if scheme == "sm":
        mean = n_t * mean
        if convention == "calibrated":
            rates = {q: n_t * c for q, c in rates.items()}
    elif convention == "per-stream":
        rates = {q: c / n_t for q, c in rates.items()}
    return RateProfile(mean, rates, scheme, receiver, m)
