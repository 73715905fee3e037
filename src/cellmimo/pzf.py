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
receiver noise, over the noise order.  A term depends on its partition only
through a product over the blocks and the block count, so the partition sum
is one coefficient table of a polynomial power
(:func:`cellmimo.specfun._power_table`), built by a recurrence that adds
positive numbers only; the noise order picks a column of that table.  The
result is integrated with Gauss-Legendre rules on panels graded toward
u = 0, with vectorized kernel evaluations.  Receiver noise enters each term
only through the radial moment :func:`cellmimo.specfun.radial_moment`,
which is an exact gamma moment without noise.

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
from .geometry import NetworkConfig, _over_thresholds
from .specfun import _MAX_A, _log_kernel_table, _power_table, pochhammer, radial_moment

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
# Cells of one block's power table, (delta + 1)^2 per (z, u) grid point:
# 0.5 MB of float64, however many thresholds one call takes.
_TABLE_CELLS = 1 << 16

# The law is checked up to this many surplus dimensions; beyond it, use the
# Monte Carlo estimator.
_MAX_DELTA = 20


def _split_delta(n_t: int, n_r: int, m: int) -> int:
    """Surplus dimensions delta = n_r - m*n_t left after nulling the m - 1
    nearest interferers and the serving station's other streams.

    Raises ConfigError unless m is a positive integer with delta >= 0.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
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


@lru_cache(maxsize=None)
def _static_terms(n_t: int, m: int, delta: int, alpha: float, noisy: bool):
    """The z-independent data of the conditional law; callers must not
    modify the arrays.

    log_c: log(|c_j| / j!) for j = 0..delta (-inf at j = 0), where
    c_j = (n_t)_j (-2/alpha)_j / (1 - 2/alpha)_j is negative for every
    j >= 1 (exactly one negative factor); combined with the partition sign
    (-1)^blocks of the composite-derivative expansion, every term ends up
    positive.  ell, q: the (block count, noise order) pairs with a term,
    ell + q <= delta (q = 0 only without noise).  p, pair_p: the distinct
    radial orders p = m - 1 + ell + alpha q / 2 and each pair's index into
    them.  log_w: log(1 / (q! Gamma(m))) per pair.
    """
    s = 2.0 / alpha
    log_c = [-math.inf] + [
        math.log(abs(pochhammer(n_t, j) * pochhammer(-s, j) / pochhammer(1.0 - s, j)))
        - math.lgamma(j + 1.0)
        for j in range(1, delta + 1)
    ]
    ell, q = np.nonzero(
        np.add.outer(np.arange(delta + 1), np.arange(delta + 1 if noisy else 1)) <= delta
    )
    p, pair_p = np.unique(m - 1 + ell + 0.5 * alpha * q, return_inverse=True)
    return np.array(log_c), ell, q, p, pair_p, -_sp.gammaln(q + 1.0) - _sp.gammaln(m)


def _conditional_coverage_u(
    n_t: int, m: int, delta: int, alpha: float, z, noise, u: np.ndarray
) -> np.ndarray:
    """Coverage conditioned on u = r/R (the inverse distance ratio), on the
    (z, u) grid: an array of shape z.shape + u.shape.

    z and noise share one shape, and u is 1-d with entries in (0, 1].  The
    term of block count ell and noise order q is S[ell, delta - q] times the
    radial factor J(p, c) c^q / q! / (Gamma(m) lambda0^m),
    p = m - 1 + ell + alpha q / 2, where S is the power table of
    g_j = |c_j| lambda_j x^j / (j! lambda0)
    (:func:`cellmimo.specfun._power_table`) and J the radial moment.  The
    kernels lambda_j come as logs, every order at every grid point from one
    :func:`cellmimo.specfun._log_kernel_table` call, so none underflows at
    large x = z u^alpha.  Noise enters only through
    c(u) = noise * (u^2 / lambda0)^(alpha/2), the noise scale in units of
    the radial variable; at zero noise only q = 0 occurs and
    J(p, 0) = Gamma(p + 1).
    """
    noisy = bool(np.any(noise))
    log_c, ell, q, p, pair_p, log_w = _static_terms(n_t, m, delta, alpha, noisy)
    x = np.multiply.outer(z, u**alpha)
    shape, x = x.shape, x.ravel()
    if noisy:
        noise = np.broadcast_to(np.asarray(noise)[..., None], shape).ravel()
        uu = np.broadcast_to(u * u, shape).ravel()
    out = np.empty(x.size)
    # Blocks of grid points bound the power table's cells.
    cols = max(1, _TABLE_CELLS // (delta + 1) ** 2)
    for start in range(0, x.size, cols):
        blk = slice(start, start + cols)
        log_lam = _log_kernel_table(n_t, alpha, x[blk], delta, 1)
        g = np.exp(
            log_c[:, None] + log_lam + np.outer(np.arange(delta + 1), np.log(x[blk])) - log_lam[0]
        )
        table = _power_table(g, np.eye(delta + 1, 1))
        # Without noise the radial moments are the constants Gamma(p + 1).
        c = noise[blk] * (uu[blk] / np.exp(log_lam[0])) ** (alpha / 2.0) if noisy else 0.0
        with np.errstate(divide="ignore"):  # J underflows only for negligible terms
            log_radial = np.log(radial_moment(p[:, None], c, alpha))[pair_p]
        radial = np.exp(log_radial + _sp.xlogy(q[:, None], c) + (log_w[:, None] - m * log_lam[0]))
        out[blk] = (table[ell, delta - q] * radial).sum(axis=0)
    return out.reshape(shape)


def _ratio_average(
    n_t: int, m: int, delta: int, alpha: float, z: np.ndarray, noise: np.ndarray, panels: int
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
        conditional = _conditional_coverage_u(n_t, m, delta, alpha, z[pending], noise[pending], u)
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
    z^(-1/alpha)/4 and one panel from 0 to there, with 8, 16, 32, ... nodes
    on every panel until two rules agree to 1e-10 relative for that z; it
    raises NumericError if 256 nodes per panel do not get there.  So small
    coverages are as accurate as large ones.  The thresholds with one panel
    count are evaluated together, level by level.  Receiver noise enters
    only through the combination z n_t sigma2 / (pi lam)^(alpha/2); with
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
    n_t, m, alpha = config.n_t, int(m), config.alpha

    def law(z: np.ndarray) -> np.ndarray:
        noise = z * n_t * config.sigma2 / (math.pi * config.lam) ** (alpha / 2.0)
        if m == 1:
            return _conditional_coverage_u(n_t, m, delta, alpha, z, noise, np.ones(1))[:, 0]
        # The conditional law turns from ~1 to its decay where x = z u^alpha
        # passes 1, at u ~ z^(-1/alpha): the panels halve down to a quarter
        # of that, so every node sits where the integrand varies.
        panels = np.array([max(1, math.floor(2.0 + math.log2(v) / alpha) + 1) for v in z])
        out = np.empty(z.size)
        for count in np.unique(panels):
            group = np.flatnonzero(panels == count)
            out[group] = _ratio_average(n_t, m, delta, alpha, z[group], noise[group], int(count))
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
    interference = math.exp(_sp.gammaln(m + 1.0) - _sp.gammaln(m + s)) / (s - 1.0)
    noise = config.sigma2 * (math.pi * config.lam) ** (-s)
    return config.n_t * math.gamma(1.0 + s) / delta * (interference + noise)


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
