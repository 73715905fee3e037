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
kernel argument x = z u^alpha; this module supplies its inputs and
integrates it with Gauss-Legendre rules on panels graded toward u = 0.
Receiver noise enters only through the noise scale
:func:`cellmimo.geometry._noise_scale`, which is 0 without noise.

The mean inverse SINR in closed form and the optimal-split rule derived
from it live here too, with the one rule that picks the order a run of
the PZF or MMSE receiver uses (:func:`_receiver_order`), which the CCDF
factories and the simulator share.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import ConfigError, NumericError, SizeGuardError
from .geometry import NetworkConfig, _is_int, _noise_scale, _over_thresholds
from .specfun import _MAX_A, _conditional_law

__all__ = [
    "coverage_pzf",
    "mean_inverse_sinr",
    "optimal_m",
    "default_m",
    "argmin_mean_inverse_sinr",
]

# Distance-ratio average: Gauss-Legendre nodes per panel, doubled from
# _GL_FIRST up to _GL_LAST until two rules agree to _GL_TOL relative.
_GL_FIRST = 8
_GL_LAST = 256
_GL_TOL = 1e-10

# The law is checked up to this many surplus dimensions; beyond it, use the
# Monte Carlo estimator.
_MAX_DELTA = 20


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


@lru_cache(maxsize=None)
def _ratio_rule(n: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, 1), n per panel, over the
    graded panels [2^-(k+1), 2^-k], k < panels, and [0, 2^-panels]."""
    x, w = np.polynomial.legendre.leggauss(n)
    edges = np.concatenate(([0.0], 2.0 ** -np.arange(panels, -1, -1.0)))
    half = 0.5 * np.diff(edges)[:, None]
    u = edges[:-1, None] + half * (x + 1.0)
    return u.ravel(), (half * w).ravel()


def _conditional_coverage_u(
    n_t: int, m: int, delta: int, alpha: float, z, kappa: float, u: np.ndarray
) -> np.ndarray:
    """Coverage conditioned on u = r/R (the inverse distance ratio), on the
    (z, u) grid: an array of shape z.shape + u.shape.

    u is 1-d with entries in (0, 1] and κ is
    :func:`cellmimo.geometry._noise_scale`.  It is the shared conditional
    law :func:`cellmimo.specfun._conditional_law` at x = z u^alpha with the
    step-1 kernels and the own-cell polynomial 1.  Its g_j is
    |c_j| lambda_j x^j / (j! lambda0), c_j = (n_t)_j (-s)_j / (1 - s)_j,
    s = 2/alpha: (-s)_j / (1 - s)_j telescopes to -s / (j - s), so
    |c_j| / j! = C(n_t + j - 1, j) 2 / (alpha j - 2), and the sign of c_j
    cancels the partition sign (-1)^blocks of the composite-derivative
    expansion.
    """
    x = np.multiply.outer(z, u**alpha)
    law = _conditional_law(n_t, alpha, x.ravel(), kappa, delta, 1, np.eye(delta + 1, 1), m)
    return law.reshape(x.shape)


def _ratio_average(
    n_t: int, m: int, delta: int, alpha: float, z: np.ndarray, kappa: float, panels: int
) -> np.ndarray:
    """The average over u of the conditional law, for m >= 2, at the 1-d
    thresholds z that share one u-panel count.

    The Gauss-Legendre rule doubles from 8 nodes per panel for all of z at
    once; each z takes the first level that agrees with the one before to
    1e-10 relative, and only the others go on to the next level.  Raises
    NumericError if some z does not converge by 256 nodes per panel.
    """
    out = np.empty(z.size)
    pending = np.arange(z.size)
    prev = None
    n = _GL_FIRST
    while n <= _GL_LAST:
        u, w = _ratio_rule(n, panels)
        density = 2.0 * (m - 1) * u * (1.0 - u * u) ** (m - 2)
        conditional = _conditional_coverage_u(n_t, m, delta, alpha, z[pending], kappa, u)
        val = (density * conditional) @ w
        if prev is not None:
            done = np.abs(val - prev) <= _GL_TOL * val
            out[pending[done]] = val[done]
            pending, val = pending[~done], val[~done]
            if not pending.size:
                return out
        prev = val
        n *= 2
    raise NumericError(
        f"distance-ratio average did not converge to {_GL_TOL} relative "
        f"(n_t={n_t}, m={m}, delta={delta}, alpha={alpha}, z={z[pending[0]]})"
    )


def coverage_pzf(config: NetworkConfig, z, m: int) -> float | np.ndarray:
    """PZF coverage probability P[SINR > z] for the typical user.

    ``z`` is a threshold or an array of them, each finite and >= 0; the
    result is a float for a scalar and an array of z's shape otherwise.
    An average over the inverse distance ratio u = r/R (degenerate at 1 for
    m = 1, where no interferer is cancelled) of the conditional law.  The
    average takes Gauss-Legendre panels [2^-(k+1), 2^-k] down to below
    (z (1 + kappa))^(-1/alpha)/4, kappa the noise scale, and one panel from
    0 to there, with 8, 16, 32, ... nodes on every panel until two rules
    agree to 1e-10 relative for that z; it raises NumericError if 256 nodes
    per panel do not get there.  So small
    coverages are as accurate as large ones.  The thresholds with one panel
    count are evaluated together, level by level.  Receiver noise enters
    only through the combination z n_t sigma2 (pi lam)^(-alpha/2); with
    sigma2 = 0 the law is scale-free and the base-station intensity drops
    out entirely.  ``m`` is the cancellation order (the m - 1 nearest
    interferers are nulled).  delta above 20 or n_t + delta (the kernels'
    largest first parameter) above 40 raises SizeGuardError.
    """
    delta = _split_delta(config.n_t, config.n_r, m)
    if delta > _MAX_DELTA or config.n_t + delta > _MAX_A:
        raise SizeGuardError(
            f"delta={delta} or n_t + delta={config.n_t + delta} exceeds the analytic-law guard "
            f"({_MAX_DELTA} or {_MAX_A}); use the Monte Carlo estimator for larger arrays"
        )
    n_t, m, alpha, kappa = config.n_t, int(m), config.alpha, _noise_scale(config)

    def law(z: np.ndarray) -> np.ndarray:
        if m == 1:
            return _conditional_coverage_u(n_t, m, delta, alpha, z, kappa, np.ones(1))[:, 0]
        # The conditional law turns from ~1 to its decay where x = z u^alpha
        # passes 1, at u ~ z^(-1/alpha), or, where noise dominates (its
        # factor exp(-c), c ~ kappa x for x <= 1), at u ~ (kappa z)^(-1/alpha):
        # the panels halve down to a quarter of (z (1 + kappa))^(-1/alpha),
        # so every node sits where the integrand varies.  Summed as logs,
        # z (1 + kappa) cannot overflow.
        log2_noise = math.log2(1.0 + kappa)
        panels = np.array([max(1, math.floor(2.0 + (math.log2(v) + log2_noise) / alpha) + 1)
                           for v in z])
        out = np.empty(z.size)
        for count in np.unique(panels):
            group = np.flatnonzero(panels == count)
            out[group] = _ratio_average(n_t, m, delta, alpha, z[group], kappa, int(count))
        return out

    return _over_thresholds(z, law)


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
