"""Coverage laws for the partial zero-forcing (PZF) receiver.

The receiver cancels the m-1 nearest interfering base stations (all their
streams) plus the serving station's cross-streams and uses the remaining
delta + 1 = n_r - m*n_t + 1 dimensions for array gain.  Conditioned on the
network geometry, the post-filter SINR mixes a chi-squared signal gain with
exponential per-interferer gains, and averaging over the Poisson field
leaves expressions built from the interference kernels in
:mod:`cellmimo.specfun`.

The coverage is an average over the scale-free distance ratio u = r/R of a
finite sum over set-partition signatures (the composite-derivative
expansion of the interference functional) and, with receiver noise, over
the noise order.  Every term in that sum is positive, so it is assembled in
log space and integrated with Gauss-Legendre rules on panels graded toward
u = 0, with vectorized kernel evaluations.  Receiver noise enters each
term only through the radial moment :func:`cellmimo.specfun.radial_moment`,
which is an exact gamma moment without noise.

The mean inverse SINR in closed form and the optimal-split rule derived
from it live here too.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .combinatorics import set_partition_signatures
from .errors import ConfigError, NumericError
from .geometry import NetworkConfig
from .specfun import lambda_kernel, pochhammer, radial_moment

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
def _log_faa_coeff(j: int, n_t: int, alpha: float) -> float:
    """log |c_j| for the composite-derivative coefficients.

    c_j = (n_t)_j (-2/alpha)_j / (1 - 2/alpha)_j is negative for every
    j >= 1 (exactly one negative factor); combined with the partition-sign
    (-1)^blocks of the expansion, all coverage terms end up positive.
    """
    c = pochhammer(n_t, j) * pochhammer(-2.0 / alpha, j) / pochhammer(1.0 - 2.0 / alpha, j)
    return math.log(abs(c))


@lru_cache(maxsize=None)
def _signature_terms(n_t: int, m: int, delta: int, alpha: float, noisy: bool):
    """Static (z-independent) data of the partition expansion.

    The conditional coverage at u is a sum over set-partition signatures of
    {1..k}, k <= delta, and, with noise, over the noise order q <= delta - k.
    Each term's radial average is J(p, c(u)) with p = m - 1 + blocks +
    alpha q / 2 (:func:`cellmimo.specfun.radial_moment`); its zero-noise
    value Gamma(p + 1), over the Gamma(m) of the distance-ratio density, is
    baked into log_static, so the zero-noise law needs no J at all.

    Each entry: (k, q, log_static, blocks, size_multiplicity, p).
    """
    terms = []
    for k in range(delta + 1):
        for sig in set_partition_signatures(k):
            for q in range(delta - k + 1 if noisy else 1):
                p = m - 1 + sig.block_count + 0.5 * alpha * q
                log_static = (
                    math.log(sig.weight)
                    + _sp.gammaln(p + 1.0)
                    - _sp.gammaln(m)
                    - _sp.gammaln(k + 1.0)
                    - _sp.gammaln(q + 1.0)
                    + sum(cnt * _log_faa_coeff(j, n_t, alpha) for j, cnt in sig.size_multiplicity)
                )
                terms.append((k, q, log_static, sig.block_count, sig.size_multiplicity, p))
    return tuple(terms)


def _conditional_coverage_u(
    n_t: int, m: int, delta: int, alpha: float, z: float, noise: float, u: np.ndarray
) -> np.ndarray:
    """Coverage conditioned on u = r/R (the inverse distance ratio).

    u is an array with entries in (0, 1]; all partition terms are positive
    and at most 1, so the log-space sum is overflow-free for any z.  Noise
    enters through c(u) = noise * (u^2 / lambda0)^(alpha/2), the noise
    scale in units of the radial variable, raised to the noise order q and
    as the argument of the radial moment.
    """
    x = z * u**alpha
    l0 = lambda_kernel(0, n_t, alpha, x)
    log_l0 = np.log(l0)
    log_lj = {j: np.log(lambda_kernel(j, n_t, alpha, x)) for j in range(1, delta + 1)}
    log_x = np.log(x)
    if noise:
        c = noise * (u * u / l0) ** (alpha / 2.0)
        log_c = np.log(c)
        log_radial: dict[float, np.ndarray] = {}
    total = np.zeros_like(u)
    terms = _signature_terms(n_t, m, delta, alpha, noise > 0.0)
    for k, q, log_static, blocks, size_mult, p in terms:
        expo = log_static - (m + blocks) * log_l0
        if k:
            expo = expo + k * log_x
        for j, cnt in size_mult:
            expo = expo + cnt * log_lj[j]
        if noise:
            if p not in log_radial:
                with np.errstate(divide="ignore"):  # J underflows only for negligible terms
                    log_radial[p] = np.log(radial_moment(p, c, alpha)) - _sp.gammaln(p + 1.0)
            expo = expo + q * log_c + log_radial[p]
        total += np.exp(expo)
    return total


def coverage_pzf(config: NetworkConfig, z: float, m: int) -> float:
    """PZF coverage probability P[SINR > z] for the typical user.

    An average over the inverse distance ratio u = r/R (degenerate at 1 for
    m = 1, where no interferer is cancelled) of the conditional law.  The
    average takes Gauss-Legendre panels [2^-(k+1), 2^-k] down to below
    z^(-1/alpha)/4 and one panel from 0 to there, with 8, 16, 32, ... nodes
    on every panel until two rules agree to 1e-10 relative; it raises
    NumericError if 256 nodes per panel do not get there.  So small
    coverages are as accurate as large ones.  Receiver noise enters only
    through the combination z n_t sigma2 / (pi lam)^(alpha/2); with
    sigma2 = 0 the law is scale-free and the base-station intensity drops
    out entirely.  ``m`` is the cancellation order (the m - 1 nearest
    interferers are nulled); z must be finite and >= 0.
    """
    delta = _split_delta(config.n_t, config.n_r, m)
    if not (z >= 0.0 and math.isfinite(z)):
        raise ConfigError(f"threshold must be finite and >= 0, got {z!r}")
    z = float(z)
    if z == 0.0:
        return 1.0
    n_t, m, alpha = config.n_t, int(m), config.alpha
    noise = z * n_t * config.sigma2 / (math.pi * config.lam) ** (alpha / 2.0)
    if m == 1:
        val = _conditional_coverage_u(n_t, m, delta, alpha, z, noise, np.ones(1))[0]
        return float(min(max(val, 0.0), 1.0))

    # The conditional law turns from ~1 to its decay where x = z u^alpha
    # passes 1, at u ~ z^(-1/alpha): the panels halve down to a quarter of
    # that, so every node sits where the integrand varies.
    panels = max(1, math.floor(2.0 + math.log2(z) / alpha) + 1)
    prev = None
    n = _GL_FIRST
    while n <= _GL_LAST:
        u, w = _ratio_rule(n, panels)
        density = 2.0 * (m - 1) * u * (1.0 - u * u) ** (m - 2)
        conditional = _conditional_coverage_u(n_t, m, delta, alpha, z, noise, u)
        val = float(np.dot(w, density * conditional))
        if prev is not None and abs(val - prev) <= _GL_TOL * val:
            return float(min(max(val, 0.0), 1.0))
        prev = val
        n *= 2
    raise NumericError(
        f"distance-ratio average did not converge to {_GL_TOL} relative "
        f"(n_t={n_t}, m={m}, delta={delta}, alpha={alpha}, z={z})"
    )


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


def argmin_mean_inverse_sinr(config: NetworkConfig) -> tuple[int, ...]:
    """All m minimizing the exact mean inverse SINR (ties included)."""
    m_max = _feasible_m_range(config)
    values = [mean_inverse_sinr(config, m) for m in range(1, m_max + 1)]
    best = min(values)
    return tuple(
        m for m, v in zip(range(1, m_max + 1), values) if v <= best * (1.0 + 1e-12)
    )
