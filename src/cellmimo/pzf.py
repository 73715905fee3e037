"""Coverage laws for the partial zero-forcing (PZF) receiver.

The receiver cancels the m-1 nearest interfering base stations (all their
streams) plus the serving station's cross-streams and uses the remaining
delta + 1 = n_r - m*n_t + 1 dimensions for array gain.  Conditioned on the
network geometry, the post-filter SINR mixes a chi-squared signal gain with
exponential per-interferer gains, and averaging over the Poisson field
leaves expressions built from the interference kernels in
:mod:`cellmimo.specfun`.

The coverage is an average over the scale-free distance ratio u = r/R of a
finite sum over the set partitions of {1..k}, k <= delta (the
composite-derivative expansion of the interference functional), and, with
receiver noise, over the noise order.  That conditional law is the one
both receivers share, :func:`cellmimo.specfun._conditional_law`, at the
kernel argument x = z u^alpha.  One factory, :func:`_law`, supplies its
inputs and guards its size; the coverage integrates that law on panels
graded toward u = 0 with the package's one adaptive rule, the G7/K15
bisection :func:`cellmimo.specfun._kronrod`.  Receiver noise enters only
through the noise scale :func:`cellmimo.geometry._noise_scale`, which is
0 without noise.  The PZF mean rate reads the same law against the
weight E_u[1 / (u^alpha + x)] of :func:`_ratio_weight`, 1 / (1 + x) at
m = 1 and a fixed rule that needs no law call at m >= 2 (see
:func:`cellmimo.rate.rate_profile`).

The mean inverse SINR in closed form and the optimal-split rule derived
from it live here too, with the one rule that picks the order a run of
the PZF or MMSE receiver uses (:func:`_receiver_order`), which the CCDF
factories and the simulator share.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import special as _sp

from .errors import ConfigError, SizeGuardError
from .geometry import NetworkConfig, _is_int, _noise_scale, _over_thresholds
from .specfun import _MAX_A, _WK15, _conditional_law, _kronrod, _kronrod_nodes

__all__ = [
    "coverage_pzf",
    "mean_inverse_sinr",
    "optimal_m",
    "default_m",
    "argmin_mean_inverse_sinr",
]

# Distance-ratio average: each panel's G7/K15 bound, relative to the coverage.
_RATIO_TOL = 1e-10

# The law is checked up to this many surplus dimensions; beyond it, use the
# Monte Carlo estimator.
_MAX_DELTA = 20

# The rate weight's fixed rule (:func:`_ratio_weight`), in r = log v: fixed
# edges (the left tail e^r and the turn of (1 - v)^(m-2) at v = 1), edges
# on both sides of the knee in units of 1/a, near it and then far from it,
# and the rows per block.  The first fixed edge is the cut below the knee.
_WEIGHT_FIXED = np.array([-40.0, -20.0, -8.0, -3.0, -1.0])
_WEIGHT_KNEE = np.array([1.5, 5.0])
_WEIGHT_RISE = np.array([20.0, 80.0, 640.0])
_WEIGHT_ROWS = 64


def _split_delta(n_t: int, n_r: int, m: int) -> int:
    """Surplus dimensions delta = n_r - m*n_t left after nulling the m - 1
    nearest interferers and the serving station's other streams.

    Raises ConfigError unless m is a positive integer with delta >= 0.
    """
    if not _is_int(m) or m < 1:
        raise ConfigError(f"m must be a positive integer, got {m!r}")
    delta = n_r - m * n_t
    if delta < 0:
        raise ConfigError(
            f"infeasible split: m={m} needs {m * n_t} receive dimensions but n_r={n_r}"
        )
    return int(delta)


def _law(config: NetworkConfig, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """The PZF conditional law L(x) of split m, on a 1-d x >= 0, the kernel
    argument x = z u^alpha at the distance ratio u = r/R.

    It is the shared conditional law :func:`cellmimo.specfun._conditional_law`
    with the step-1 kernels and the own-cell polynomial 1, at the noise
    scale κ of :func:`cellmimo.geometry._noise_scale`; at m = 1 (u = 1) it
    is the coverage itself.  Its g_j is |c_j| lambda_j x^j / (j! lambda0),
    c_j = (n_t)_j (-s)_j / (1 - s)_j, s = 2/alpha: (-s)_j / (1 - s)_j
    telescopes to -s / (j - s), so |c_j| / j! = C(n_t + j - 1, j)
    2 / (alpha j - 2), and the sign of c_j cancels the partition sign
    (-1)^blocks of the composite-derivative expansion.  delta above 20 or
    n_t + delta (the kernels' largest first parameter) above 40 raises
    SizeGuardError here, before any call.
    """
    delta = _split_delta(config.n_t, config.n_r, m)
    if delta > _MAX_DELTA or config.n_t + delta > _MAX_A:
        raise SizeGuardError(
            f"delta={delta} or n_t + delta={config.n_t + delta} exceeds the analytic-law guard "
            f"({_MAX_DELTA} or {_MAX_A}); use the Monte Carlo estimator for larger arrays"
        )
    n_t, m, alpha, kappa = config.n_t, int(m), config.alpha, _noise_scale(config)
    own = np.eye(delta + 1, 1)
    return lambda x: _conditional_law(n_t, alpha, x, kappa, delta, 1, own, m)


def coverage_pzf(config: NetworkConfig, z, m: int) -> float | np.ndarray:
    """PZF coverage probability P[SINR > z] for the typical user.

    ``z`` is a threshold or an array of them, each finite and >= 0; the
    result is a float for a scalar and an array of z's shape otherwise.
    An average over the inverse distance ratio u = r/R (degenerate at 1 for
    m = 1, where no interferer is cancelled) of the conditional law
    :func:`_law` at x = z u^alpha.  The average takes the panels
    [2^-(k+1), 2^-k] down to below (z (1 + kappa))^(-1/alpha)/4, kappa the
    noise scale, and one panel from 0 to there, each by the G7/K15 rule: a
    panel's K15 value is kept when it is within 1e-10 times that z's
    current coverage estimate of its G7 value, and the panel is bisected
    otherwise; 12 rounds of bisection without that raise NumericError.
    So small coverages are as accurate as large ones.  The panels of all
    thresholds are evaluated together, round by round.  Receiver noise
    enters only through the combination z n_t sigma2 (pi lam)^(-alpha/2);
    with sigma2 = 0 the law is scale-free and the base-station intensity
    drops out entirely.  ``m`` is the cancellation order (the m - 1
    nearest interferers are nulled).  delta above 20 or n_t + delta (the
    kernels' largest first parameter) above 40 raises SizeGuardError.
    """
    law = _law(config, m)
    if m == 1:
        return _over_thresholds(z, law)
    m, alpha, kappa = int(m), config.alpha, _noise_scale(config)

    def average(z: np.ndarray) -> np.ndarray:
        # The conditional law turns from ~1 to its decay where x = z u^alpha
        # passes 1, at u ~ z^(-1/alpha), or, where noise dominates (its
        # factor exp(-c), c ~ kappa x for x <= 1), at u ~ (kappa z)^(-1/alpha):
        # the panels halve down to a quarter of (z (1 + kappa))^(-1/alpha),
        # so every node sits where the integrand varies.  Summed as logs,
        # z (1 + kappa) cannot overflow.
        log2_noise = math.log2(1.0 + kappa)
        edges = [np.append(0.0, 2.0 ** -np.arange(p, -1.0, -1.0)) for p in
                 (max(1, math.floor(2.0 + (math.log2(v) + log2_noise) / alpha) + 1) for v in z)]
        owner = np.repeat(np.arange(z.size), [e.size - 1 for e in edges])

        def integrand(u: np.ndarray, k: np.ndarray) -> np.ndarray:
            # Where u^alpha is below the smallest normal float, x is formed
            # as exp(log z + alpha log u): u^alpha would lose its bits or
            # underflow to 0 there, while x itself may still be a normal
            # float.  log 0 = -inf at z = 0 gives x = 0.
            u_alpha = u**alpha
            x = z[k] * u_alpha
            deep = u_alpha < np.finfo(float).tiny
            with np.errstate(divide="ignore"):
                x[deep] = np.exp(np.log(z[k[deep]]) + alpha * np.log(u[deep]))
            return 2.0 * (m - 1) * u * (1.0 - u * u) ** (m - 2) * law(x)

        return _kronrod(integrand, np.concatenate([e[:-1] for e in edges]),
                        np.concatenate([e[1:] for e in edges]), owner, _RATIO_TOL)

    return _over_thresholds(z, average)


def _ratio_weight(t: np.ndarray, alpha: float, m: int) -> np.ndarray:
    """x E_u[1 / (u^alpha + x)] at x = e^t, for the 1-d t: the weight with
    which the conditional law at argument x enters the PZF mean rate (see
    :func:`cellmimo.rate.rate_profile`), times x.

    With v = u^2 ~ Beta(1, m - 1) and r = log v it is

        (m - 1) ∫_-inf^0 (1 - e^r)^(m-2) e^r expit(t - a r) dr,    a = alpha/2,

    a step of width 1/a at the knee r_c = t/a, from e^r below it to 1 above.
    One fixed rule takes it, the 15 Kronrod nodes and weights of
    :func:`cellmimo.specfun._kronrod` on each panel.  Its edges move away
    from the step in multiples of 1/a, up to 640/a: down from min(r_c, 0)
    to the cut and, where r_c < 0, up from r_c to v = 1.  Fixed edges add
    the left tail and the turn of (1 - v)^(m-2) toward v = 1, and the
    panels that clipping leaves with zero width are dropped.  The
    integrand is at most (m - 1) e^r and the weight at least half the mass
    of v below min(e^r_c, 1), so the cut 40 below min(r_c, 0) leaves out
    less than 2 (m - 1) e^-40 of it.  Against mpmath the rule is within
    5e-14 relative for m in {2, 3, 8, 20}, alpha from 2.05 to 8 and t from
    -80 to 120, and within 4e-14 at alpha 2.01, 20 and 60.  Every factor
    lies in [0, 1], so nothing overflows; the terms in e^r underflow only
    where the weight is below the smallest float.  At m = 1 u is 1, and
    the weight is x / (1 + x) = expit(t).
    """
    if m == 1:
        return _sp.expit(t)
    a = 0.5 * alpha
    above = np.concatenate([_WEIGHT_KNEE, _WEIGHT_RISE]) / a
    below = np.concatenate([_WEIGHT_FIXED, np.maximum(-above, _WEIGHT_FIXED[0]), [0.0]])
    out = np.empty(t.size)
    for start in range(0, t.size, _WEIGHT_ROWS):
        # Edges as offsets d = r - r_c from the knee, clipped to r <= 0.
        # expit(t - a r) is expit(-a d): with q = e^(-a |d|), q / (1 + q)
        # above the knee and 1 / (1 + q) below it.
        knee = t[start:start + _WEIGHT_ROWS, None] / a
        top = -np.maximum(knee, 0.0)
        edges = np.sort(np.concatenate([top + below, np.minimum(above, -knee),
                                        np.maximum(_WEIGHT_FIXED - knee, top), -knee], axis=1))
        lo, hi = edges[:, :-1], edges[:, 1:]
        keep = hi > lo
        rows = np.nonzero(keep)[0]
        d = _kronrod_nodes(lo[keep], hi[keep])
        r = knee[rows] + d
        q = np.exp(-a * np.abs(d))
        f = np.exp(r) * np.where(d > 0.0, q, 1.0) / (1.0 + q)
        if m > 2:
            f *= (-np.expm1(r)) ** (m - 2)
        panels = 0.5 * (hi[keep] - lo[keep]) * (f @ _WK15)
        out[start:start + knee.shape[0]] = np.bincount(rows, panels, minlength=knee.shape[0])
    return (m - 1) * out


def mean_inverse_sinr(config: NetworkConfig, m: int) -> float:
    """Average inverse SINR of the PZF receiver in closed form.

    The m-1 nearest interferers are nulled, so stations j > m interfere.
    The signal gain is Gamma(delta+1, 1), whose inverse has mean 1/delta;
    each interferer leaks a Gamma(n_t, 1) gain; and for Poisson ordered
    distances (R_1/R_j)^2 ~ Beta(1, j-1), so with s = alpha/2
    E[(R_1/R_j)^alpha] = Gamma(1+s) Gamma(j) / Gamma(j+s).  The sum over
    j > m telescopes, and E[R_1^alpha] = Gamma(1+s) (pi lam)^-s, giving

        n_t Gamma(1+s) / delta * [Gamma(m+1) / ((s-1) Gamma(m+s)) + sigma2 (pi lam)^-s]

    for every alpha > 2.  Infinite when delta = n_r - m*n_t is zero (the
    inverse signal gain then has a divergent mean); raises for infeasible
    splits.
    """
    delta = _split_delta(config.n_t, config.n_r, m)
    if delta == 0:
        return math.inf
    s = config.alpha / 2.0
    interference = config.n_t * math.exp(_sp.gammaln(m + 1.0) - _sp.gammaln(m + s)) / (s - 1.0)
    return math.gamma(1.0 + s) / delta * (interference + _noise_scale(config))


def _feasible_m_range(config: NetworkConfig) -> int:
    """Largest m with delta >= 1, or raise if none exists."""
    m_max = (config.n_r - 1) // config.n_t
    if m_max < 1:
        raise ConfigError(
            f"no feasible split with delta >= 1 for n_t={config.n_t}, n_r={config.n_r}"
        )
    return m_max


def optimal_m(config: NetworkConfig) -> int:
    """Cancellation order minimizing the exact mean inverse SINR.

    Interference-limited case (sigma2 = 0): by the ratio test on
    :func:`mean_inverse_sinr`, f(m+1) <= f(m) exactly when
    m <= (1 - 2/alpha) n_r/n_t - 1, so the argmin with ties broken toward
    the larger m is floor((alpha - 2) n_r / (alpha n_t)).  It is evaluated
    in that form because (1 - 2/alpha) n_r/n_t rounds below exact ties
    (alpha = 2.5, say).  With noise the result is the largest member of
    :func:`argmin_mean_inverse_sinr`.  The result is clipped to the
    feasible range {1, ..., (n_r-1)//n_t}; configurations with no
    delta >= 1 split raise ConfigError.
    """
    if config.sigma2 != 0.0:
        return argmin_mean_inverse_sinr(config)[-1]
    m_max = _feasible_m_range(config)
    m = math.floor((config.alpha - 2.0) * config.n_r / (config.alpha * config.n_t))
    return int(min(max(m, 1), m_max))


def default_m(config: NetworkConfig) -> int:
    """Default cancellation order for rate sweeps and simulations.

    :func:`optimal_m` where a delta >= 1 split exists, otherwise m = 1
    (delta = 0); raises ConfigError when not even that is feasible
    (n_r < n_t).
    """
    try:
        m = optimal_m(config)
    except ConfigError:
        m = 1
    _split_delta(config.n_t, config.n_r, m)
    return m


_RECEIVERS = ("pzf", "mmse")


def _receiver_order(config: NetworkConfig, receivers: tuple, m: int | None) -> int | None:
    """The PZF cancellation order a run of ``receivers`` uses.

    Where "pzf" is among them: ``m``, checked by :func:`_split_delta`, or
    :func:`default_m` when ``m`` is None.  Otherwise None.  Raises
    ConfigError on an empty tuple, an unknown receiver name, or an order
    given without "pzf".
    """
    if not receivers:
        raise ConfigError("at least one receiver is required")
    for r in receivers:
        if r not in _RECEIVERS:
            raise ConfigError(f"unknown receiver {r!r}; expected one of {_RECEIVERS}")
    if "pzf" not in receivers:
        if m is not None:
            raise ConfigError("the MMSE receiver takes no cancellation order")
        return None
    if m is None:
        return default_m(config)
    _split_delta(config.n_t, config.n_r, m)
    return m


def argmin_mean_inverse_sinr(config: NetworkConfig) -> tuple[int, ...]:
    """All m minimizing the exact mean inverse SINR (ties included)."""
    m_max = _feasible_m_range(config)
    values = [mean_inverse_sinr(config, m) for m in range(1, m_max + 1)]
    best = min(values)
    return tuple(
        m for m, v in zip(range(1, m_max + 1), values) if v <= best * (1.0 + 1e-12)
    )
