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

Rate quantiles invert the CCDF at a fixed probability, read from the law
values the mean already holds: :func:`_interpolant` turns them into a
piecewise barycentric interpolant of log L, checked at every panel edge,
and every level is solved on it in log z, through the PZF u-average at
m >= 2, with no further law call inside the mean's panels.
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

from .errors import ConfigError, NumericError
from .geometry import NetworkConfig, _noise_scale
from .mmse import coverage_mmse
from .pzf import _law, _ratio_average, _ratio_weight, _receiver_order, coverage_pzf
from .specfun import _KRONROD_NODES, _kronrod, _kronrod_nodes

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
# The law's interpolant on the mean's panels: the barycentric weights of
# the 15 Kronrod nodes on [-1, 1], scaled to a largest of 1, the Lagrange
# basis of those nodes at the panel edges -1 and 1, the bound on the
# difference of two estimates of log L at an edge, and how often a panel
# that misses it is halved.
_BARY_W = 1.0 / np.prod(np.subtract.outer(_KRONROD_NODES, _KRONROD_NODES)
                        + np.eye(_KRONROD_NODES.size), axis=1)
_BARY_W /= np.abs(_BARY_W).max()
_EDGE_BASIS = (_BARY_W / np.subtract.outer([-1.0, 1.0], _KRONROD_NODES)).T
_EDGE_BASIS /= _EDGE_BASIS.sum(axis=0)
_READ_TOL = 2e-13
_HALVINGS = 4
# Quantiles: the solve's absolute bound in log z and its step cap; where
# the CCDF the mean's panels give does not bracket a level, the bracket
# widens by a first step of log 4 in log z, doubled at each step, within
# _LOG_Z_RANGE.
_QUANTILE_XTOL = 1e-15
_QUANTILE_STEPS = 100
_EPS = np.finfo(float).eps
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
) -> tuple[float, tuple]:
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

    Returns the mean and what the quantiles read the law from: the panels
    the rule kept, as (lo, hi, L at their Kronrod nodes, L at the top).
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

    panels = edges.size - 1
    nodes = _kronrod_nodes(edges[:-1], edges[1:]).ravel()
    values = law(np.exp(a * np.append(nodes, top)))
    seen = [values[:-1]]

    def integrand(log_s: np.ndarray, _owner=None) -> np.ndarray:
        seen.append(law(np.exp(a * log_s)))
        return seen[-1] * _ratio_weight(a * log_s, alpha, m)

    first = (values[:-1] * _ratio_weight(a * nodes, alpha, m)).reshape(panels, -1)
    total, lo_k, hi_k, rows = _kronrod(integrand, edges[:-1], edges[1:], np.zeros(panels, int),
                                       _MEAN_TOL, first)
    mean = a * total[0] / math.log(2.0)
    if not values[-1] * alpha / (2.0 * m) <= _CUT_TOL * math.log(2.0) * mean:
        raise NumericError(f"rate integral: the tail above x = e^{a * top:.6g}, where the law is "
                           f"{values[-1]:.3g}, may hold more than {_CUT_TOL:g} of the mean "
                           f"{mean:.6g}")
    return mean, (lo_k, hi_k, np.concatenate(seen).reshape(-1, _KRONROD_NODES.size)[rows],
                  values[-1])


def _interpolant(law: Callable[[np.ndarray], np.ndarray], a: float, lo: np.ndarray,
                 hi: np.ndarray, values: np.ndarray, at_top: float):
    """The law L read from its values at the 15 Kronrod nodes of the panels
    [lo_i, hi_i] in log s, s = x^(1/a), which tile [lo_0, top]: on each
    panel the degree-14 barycentric interpolant of log L through them
    (Berrut and Trefethen, SIAM Review 46, 2004).

    Each panel's interpolant is carried to its two edges, where the
    interpolation error of these nodes peaks, and checked there against an
    independent value: its neighbour's interpolant at the shared edge, 0
    (L = 1) at the head cut lo_0, and the law's own L(top), ``at_top``, at
    the top.  Where that value is not finite, beside a panel where the law
    is 0 at a node or below a top where L = 0, the law at the edge is read
    instead, in one law call per round; an edge where it is 0 misses.
    Panels that miss by more than 2e-13 (1 + |log L|) are halved, their
    halves' nodes in one law call, and all are checked again, at most
    _HALVINGS times.

    Returns the read, a function of a 1-d x >= 0, and every node's log x
    and law value, in increasing x.  The read is 1 below the panels, the
    interpolant on them, and the law itself above them, on a panel where
    the law is 0 at a node, and on one still missing the check.
    """
    log_top = math.log(at_top) if at_top > 0.0 else -math.inf
    for level in range(_HALVINGS + 1):
        order = np.argsort(lo)
        lo, hi, values = lo[order], hi[order], values[order]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_v = np.log(values)
            ends = np.einsum("pk,ke->pe", log_v, _EDGE_BASIS)
            refs = np.stack([np.append(0.0, ends[:-1, 1]), np.append(ends[1:, 0], log_top)],
                            axis=1)
            live = np.isfinite(log_v).all(axis=1)
            # A live panel's edge beside a dead one, or below a top where
            # L = 0, is checked against the law there.
            open_ = live[:, None] & ~np.isfinite(refs)
            if open_.any():
                refs[open_] = np.log(law(np.exp(a * np.stack([lo, hi], axis=1)[open_])))
            # An edge where the law is 0 misses.
            hit = np.isfinite(refs) & (np.abs(ends - refs) <= _READ_TOL * (1.0 - refs))
        bad = live & ~hit.all(axis=1)
        if level == _HALVINGS or not bad.any():
            break
        # The halves share the centre node as an edge.
        mid = 0.5 * (lo[bad] + hi[bad])
        halves = np.append(lo[bad], mid), np.append(mid, hi[bad])
        new = law(np.exp(a * _kronrod_nodes(*halves).ravel())).reshape(mid.size * 2, -1)
        lo, hi = np.append(lo[~bad], halves[0]), np.append(hi[~bad], halves[1])
        values = np.concatenate([values[~bad], new])
    dead, top = ~live | bad, hi[-1]
    log_v[dead] = np.nan

    def read(x: np.ndarray) -> np.ndarray:
        t = np.full(x.size, -np.inf)
        np.log(x, out=t, where=x > 0.0)
        t /= a
        k = np.searchsorted(lo, t, side="right") - 1
        np.clip(k, 0, lo.size - 1, out=k)
        # Reference coordinates on [-1, 1]; a node hit exactly is moved off
        # by 1e-300, where its weight outweighs the others by 1e280.
        r = np.clip((2.0 * t - lo[k] - hi[k]) / (hi[k] - lo[k]), -1.0, 1.0)
        d = r[:, None] - _KRONROD_NODES
        d[d == 0.0] = 1e-300
        weights = np.divide(_BARY_W, d, out=d)
        out = np.exp(np.einsum("ij,ij->i", weights, log_v[k]) / weights.sum(axis=1))
        out[t < lo[0]] = 1.0
        direct = (t > top) | dead[k]
        if direct.any():
            out[direct] = law(x[direct])
        return out

    return read, a * _kronrod_nodes(lo, hi).ravel(), values.ravel()


def _sinr_quantiles(coverage: Callable[[np.ndarray], np.ndarray], levels: np.ndarray,
                    v_seen: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """log z_q with P[SINR <= z_q] = q, for each q of the 1-d ``levels``.

    ``coverage`` takes a 1-d log z and returns the CCDF there, and ``seen``
    is its value at the increasing log z ``v_seen``.  Each level's bracket
    is the smallest of those where the CCDF is at most 1 - q, and the
    largest below it where it is above 1 - q.  Where no point of v_seen has
    such a neighbour, the bracket widens, by factors of 4, 16, 256, ... in
    z, up to 2^256 or down to e^-744, near the smallest float, until the
    CCDF crosses 1 - q.  The levels are then solved together by
    Chandrupatla's method (Advances in Engineering Software 28, 1997), one
    coverage call per step, to 2 eps |log z| + 1e-15 in log z.
    """
    target = 1.0 - levels  # CCDF values at the quantile thresholds
    i_lo, i_hi = np.empty(levels.size, int), np.empty(levels.size, int)
    for i, t in enumerate(target):
        past = seen <= t
        i_hi[i] = np.flatnonzero(past)[0] if past.any() else v_seen.size - 1
        before = np.flatnonzero(~past[:i_hi[i]])
        i_lo[i] = before[-1] if before.size else i_hi[i]
    lo, hi = v_seen[i_lo], v_seen[i_hi]
    f_lo, f_hi = seen[i_lo] - target, seen[i_hi] - target
    bottom, top = _LOG_Z_RANGE
    step = np.full(levels.size, _LOG_WIDEN)
    while (up := np.flatnonzero(f_hi > 0.0)).size:
        if (hi[up] == top).any():
            raise NumericError("quantile bracket search ran away; CCDF decays too slowly")
        lo[up], f_lo[up], hi[up] = hi[up], f_hi[up], np.minimum(hi[up] + step[up], top)
        f_hi[up], step[up] = coverage(hi[up]) - target[up], 2.0 * step[up]
    step[:] = _LOG_WIDEN
    while (down := np.flatnonzero(f_lo <= 0.0)).size:
        if (lo[down] == bottom).any():
            raise NumericError("quantile bracket search ran away; CCDF falls near z = 0")
        hi[down], f_hi[down] = lo[down], f_lo[down]
        lo[down] = np.maximum(lo[down] - step[down], bottom)
        f_lo[down], step[down] = coverage(lo[down]) - target[down], 2.0 * step[down]
    # Chandrupatla: x1 is the newest point, [x1, x2] the bracket, x3 the
    # point it dropped; t places the next point, by inverse quadratic
    # interpolation where that is safe, else by bisection.
    out, idx = np.empty(levels.size), np.arange(levels.size)
    x1, f1, x2, f2 = hi, f_hi, lo, f_lo
    t = np.full(levels.size, 0.5)
    for _ in range(_QUANTILE_STEPS):
        xt = x1 + t * (x2 - x1)
        ft = coverage(xt) - target[idx]
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        near = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(near, x1, x2), np.where(near, f1, f2)
        tl = (2.0 * _EPS * np.abs(xm) + _QUANTILE_XTOL) / np.abs(x2 - x1)
        done = (tl > 0.5) | (fm == 0.0)
        out[idx[done]] = xm[done]
        if done.all():
            return out
        idx, x1, f1, x2, f2, x3, f3, tl = (v[~done] for v in (idx, x1, f1, x2, f2, x3, f3, tl))
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            t = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi),
                         f1 / (f2 - f1) * f3 / (f2 - f3)
                         + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)
        t = np.clip(t, tl, 1.0 - tl)
    raise NumericError(f"quantile solve did not converge in {_QUANTILE_STEPS} steps")


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
    the mean, and the tail below 1e-12 of it, or NumericError.

    The quantiles read the law from the mean's own values at the Kronrod
    nodes of its panels, through :func:`_interpolant`: a degree-14
    barycentric interpolant of log L per panel.  At each panel edge, where
    its error peaks, it must agree with the neighbour's (or with L = 1 at
    the head cut, and with the law at the top and beside a panel where the
    law is 0) to 2e-13 (1 + |log L|); a panel that misses is halved.  So
    a level's threshold z is off by about that miss over the slope
    |d log L / d log z|.  MMSE and PZF at m = 1 read
    it as the CCDF; PZF at m >= 2 averages it over u as
    :func:`cellmimo.pzf.coverage_pzf` averages the law.  Below the panels
    the read is 1, above them the law itself.  The levels are bracketed by
    the CCDF at the nodes (m = 1) or at the panels' centres (m >= 2) and
    solved together in log z, to 2 eps |log z| + 1e-15; on a fixed grid of
    receivers, splits, noise, path loss and levels they are within 2e-14
    relative of brentq on the direct law.  With quantiles=() none of this
    runs.  A level at or below 2^-54, where 1 - q rounds to 1, raises
    ConfigError.
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
    law = sinr_ccdf(stream, receiver) if m is None else _law(stream, m)
    alpha, kappa = stream.alpha, _noise_scale(stream)
    mean, panels = _mean_rate(law, alpha, kappa, m or 1)
    rates = {}
    if quantiles:
        read, v_seen, seen = _interpolant(law, 0.5 * alpha, *panels)

        def coverage(log_z: np.ndarray) -> np.ndarray:
            if (m or 1) == 1:
                return read(np.exp(log_z))
            return _ratio_average(read, log_z, alpha, m, kappa)

        if (m or 1) > 1:
            # The CCDF at the panels' centre nodes brackets the levels.
            v_seen = v_seen[_KRONROD_NODES.size // 2::_KRONROD_NODES.size]
            seen = coverage(v_seen)
        z = np.exp(_sinr_quantiles(coverage, np.asarray(quantiles, dtype=float), v_seen, seen))
        rates = {q: math.log1p(v) / math.log(2.0) for q, v in zip(quantiles, z.tolist())}
    if scheme == "sm":
        mean = n_t * mean
        if convention == "calibrated":
            rates = {q: n_t * c for q, c in rates.items()}
    elif convention == "per-stream":
        rates = {q: c / n_t for q, c in rates.items()}
    return RateProfile(mean, rates, scheme, receiver, m)
