"""Ergodic rate and rate-distribution summaries.

The per-stream ergodic rate E[log2(1 + SINR)] of every receiver takes one
route (:func:`_mean_rate`): one integral over the kernel argument x of the
conditional law at u = 1 against the distance-ratio weight
:func:`cellmimo.pzf._ratio_weight`, by the package's one adaptive rule,
the G7/K15 bisection :func:`cellmimo.specfun._kronrod`.  For PZF the law
is :func:`cellmimo.pzf._law`, the one factory that the PZF coverage
averages too; for MMSE it is the CCDF itself, as it is for PZF at m = 1.
The integral needs no u-average per node and has no CCDF floor; both of
its cuts are bounded relative to the mean.

Rate quantiles invert the CCDF at a fixed probability: brentq solves in
log z, in a bracket taken from one law call on 16 fixed thresholds.
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
from .pzf import _law, _ratio_weight, _receiver_order, coverage_pzf
from .specfun import _kronrod, _kronrod_nodes

__all__ = [
    "RateProfile",
    "sinr_ccdf",
    "rate_profile",
]

_SCHEMES = ("sm", "sst")
_CONVENTIONS = ("calibrated", "per-stream")
# The mean's integral over the kernel argument x, in log s, s = x^(2/alpha):
# from _LOG_S_HEAD below the noise knee to _LOG_S_TAIL above s = 1 (half
# that at m >= 2) or to x = e^_LOG_X_MAX, whichever is lower, panel edges
# _KNEE_STEPS from each knee, the G7/K15 bound relative to the mean, and
# the largest share of the mean the tail cut may leave out.
_LOG_S_HEAD = 40.0
_LOG_S_TAIL = 40.0
_KNEE_STEPS = 0.25 * np.cumsum(1.6 ** np.arange(10))
_MEAN_TOL = 1e-11
_CUT_TOL = 1e-12
_LOG_X_MAX = math.log(np.finfo(float).max) - 1.0
# The thresholds whose CCDF brackets the quantiles, t = log2(1 + z) from
# 2^-4 to 2^3.5 in steps of a factor sqrt(2); past them the bracket widens
# by a first step of log 4 in log z, doubled at each step, within
# _LOG_Z_RANGE.
_BRACKET_Z = 2.0 ** (2.0 ** (0.5 * np.arange(-8, 8))) - 1.0
_LOG_WIDEN = math.log(4.0)
_LOG_Z_RANGE = (-744.0, 256.0 * math.log(2.0))


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


def _mean_rate(
    law: Callable[[np.ndarray], np.ndarray], alpha: float, kappa: float, m: int
) -> float:
    """Per-stream mean rate E[log2(1 + SINR)] in bits/s/Hz, as one integral
    over the kernel argument x.

    ``law`` takes a 1-d array of x and returns the conditional law L at
    u = 1 there; kappa is its noise scale.  L depends on the distance
    ratio u only through x = z u^alpha, so swapping the integrals over z
    and u gives

        R = (1 / ln 2) ∫_0^∞ L(x) w(x) dx,    w(x) = E_u[1 / (u^alpha + x)],

    u^2 ~ Beta(1, m - 1), w from :func:`cellmimo.pzf._ratio_weight`, the
    PZF coverage's average over u, which takes no law call.  At m = 1 u
    is 1, so L is the CCDF and w(x) = 1 / (1 + x).  In log s,
    s = x^(2/alpha), the panels grow by a factor 1.6 from 1/4 wide away
    from two knees, the noise knee
    s_c = (1 + kappa)^(-2/alpha) and s = 1, from lo = log s_c - 40 to
    top = 40 above s = 1 at m = 1 and 20 above it at m >= 2, or where
    that x would pass the largest float (alpha above about 35.5 at m = 1,
    71 at m >= 2), to x = e^708.8.  One G7/K15 bisection of
    :func:`cellmimo.specfun._kronrod` takes them all, to 1e-11 of the mean
    per panel, and the top end rides along in the first law call.  Both
    cuts are bounded:

    * below, L <= 1, and w(x) <= 1 at m = 1 and
      w(x) <= (m - 1) (pi/a) / sin(pi/a) x^(1/a - 1) at m >= 2, a = alpha/2,
      so the head is below e^(a lo) / ln 2 at m = 1 and
      (m - 1) pi / sin(pi/a) e^lo / ln 2 at m >= 2, about e^-40 times
      the mean's own scale, s_c^a or s_c.  The largest share of the mean
      seen is 6.5e-13, for PZF 1x40 at m = 39 and alpha 2.01, where
      pi / sin(pi/a) is 200;
    * above, L falls like s^-m and w(x) <= 1/x, so the tail is below
      L(top) alpha / (2 m ln 2), and NumericError unless that is below
      1e-12 of the mean.  Where the noise cuts the law off below the top,
      L(top) is 0; at zero noise the law at m = 1 fails this check from
      alpha about 49 (MMSE 1x10) to 51 (PZF m = 1), where the top is
      clipped.
    """
    a = 0.5 * alpha
    noise = -math.log1p(kappa) / a
    lo = noise - _LOG_S_HEAD
    top = min(_LOG_S_TAIL / min(m, 2), _LOG_X_MAX / a)
    # Edges 0.25, 0.65, 1.29, 2.31, ... away from each knee, each on its
    # own knee's side of the midpoint between the two: panels 1.6 times
    # wider at each step, narrow enough that G7 and K15 agree to the bound
    # on most of them in the first round.
    steps = np.concatenate([-_KNEE_STEPS, [0.0], _KNEE_STEPS])
    edges = np.concatenate([noise + steps[np.abs(steps) <= np.abs(noise + steps)],
                            steps[np.abs(steps) <= np.abs(steps - noise)], [lo, top]])
    edges = np.unique(np.clip(edges, lo, top))

    def integrand(log_s: np.ndarray, _owner=None) -> np.ndarray:
        return law(np.exp(a * log_s)) * _ratio_weight(a * log_s, alpha, m)

    panels = edges.size - 1
    nodes = _kronrod_nodes(edges[:-1], edges[1:]).ravel()
    values = law(np.exp(a * np.append(nodes, top)))
    first = (values[:-1] * _ratio_weight(a * nodes, alpha, m)).reshape(panels, -1)
    total = _kronrod(integrand, edges[:-1], edges[1:], np.zeros(panels, int), _MEAN_TOL, first)
    mean = a * total[0] / math.log(2.0)
    if not values[-1] * alpha / (2.0 * m) <= _CUT_TOL * math.log(2.0) * mean:
        raise NumericError(f"rate integral: the tail above x = e^{a * top:.6g}, where the law is "
                           f"{values[-1]:.3g}, may hold more than {_CUT_TOL:g} of the mean "
                           f"{mean:.6g}")
    return mean


def _sinr_quantile(coverage_fn: Callable[[float], float], q: float, ccdf_seen: np.ndarray) -> float:
    """SINR threshold z_q with P[SINR <= z_q] = q, by brentq in log z.

    The bracket comes from the thresholds _BRACKET_Z, where the CCDF is
    already known to be ``ccdf_seen``: the smallest one where the
    CCDF is at most 1 - q, and the largest below it where it is above
    1 - q.  Where no known threshold has such a neighbour, the bracket
    widens, by factors of 4, 16, 256, ... in z, up to 2^256 or down to
    e^-744, near the smallest float, until the CCDF crosses 1 - q.  No
    threshold costs a second law call.
    """
    target = 1.0 - q  # CCDF value at the quantile threshold
    v_seen = np.log(_BRACKET_Z)
    known = dict(zip(v_seen.tolist(), ccdf_seen.tolist()))

    def shifted(v: float) -> float:
        if v not in known:
            known[v] = coverage_fn(math.exp(v))
        return known[v] - target

    past = ccdf_seen <= target
    hi = v_seen[past].min() if past.any() else v_seen.max()
    before = v_seen[~past & (v_seen < hi)]
    lo = before.max() if before.size else hi
    bottom, top = _LOG_Z_RANGE
    step = _LOG_WIDEN
    while shifted(hi) > 0.0:
        if hi == top:
            raise NumericError("quantile bracket search ran away; CCDF decays too slowly")
        lo, hi, step = hi, min(hi + step, top), 2.0 * step
    step = _LOG_WIDEN
    while shifted(lo) <= 0.0:
        if lo == bottom:
            raise NumericError("quantile bracket search ran away; CCDF falls near z = 0")
        lo, hi, step = max(lo - step, bottom), lo, 2.0 * step
    return math.exp(_optimize.brentq(shifted, lo, hi, xtol=1e-12))


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

    The per-stream mean of every receiver is :func:`_mean_rate`, the
    integral over the kernel argument x of the law at u = 1: the CCDF for
    MMSE, :func:`cellmimo.pzf._law` for PZF at every m.  It is cut at
    s = x^(2/alpha) = e^-40 s_c below the noise knee
    s_c = (1 + kappa)^(-2/alpha), kappa the noise scale, and at e^40 (MMSE
    and PZF at m = 1) or e^20 (PZF at m >= 2) above s = 1, or lower, at
    the largest float x.  The head the cuts leave out stays near e^-40 of
    the mean, and the tail below 1e-12 of it, or NumericError.  The
    quantiles are bracketed by one law call at t = log2(1 + z) = 2^-4,
    2^-3.5, ..., 2^3.5, and solved in log z.  With quantiles=() that call
    is not made.  A level at or below 2^-54, where 1 - q rounds to 1,
    raises ConfigError.
    """
    if scheme not in _SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {_SCHEMES}")
    if convention not in _CONVENTIONS:
        raise ConfigError(f"unknown convention {convention!r}; expected one of {_CONVENTIONS}")
    if any(not 0.0 < q < 1.0 for q in quantiles):
        raise ConfigError(f"quantile levels must lie in (0, 1), got {quantiles!r}")
    if any(1.0 - q == 1.0 for q in quantiles):
        # No CCDF value can cross a target 1 - q that rounds to 1.
        raise ConfigError(f"quantile levels must exceed 2^-54 (about 5.6e-17), or 1 - q rounds "
                          f"to 1; got {quantiles!r}")
    n_t = int(config.n_t)
    stream = config if scheme == "sm" else replace(config, n_t=1)
    m = _receiver_order(stream, (receiver,), m)
    ccdf = sinr_ccdf(stream, receiver, m=m)
    law = ccdf if m is None else _law(stream, m)
    mean = _mean_rate(law, stream.alpha, _noise_scale(stream), m or 1)
    rates = {}
    if quantiles:
        bracket = ccdf(_BRACKET_Z)
        rates = {q: math.log1p(_sinr_quantile(ccdf, q, bracket)) / math.log(2.0)
                 for q in quantiles}
    if scheme == "sm":
        mean = n_t * mean
        if convention == "calibrated":
            rates = {q: n_t * c for q, c in rates.items()}
    elif convention == "per-stream":
        rates = {q: c / n_t for q, c in rates.items()}
    return RateProfile(mean, rates, scheme, receiver, m)
