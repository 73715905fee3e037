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
inputs and guards its size.  One average over u, :func:`_ratio_average`,
takes it on panels graded toward u = 0 with the package's one adaptive
rule, the G7/K15 bisection :func:`cellmimo.specfun._kronrod`.  Receiver
noise enters only through the noise scale
:func:`cellmimo.geometry._noise_scale`, which is 0 without noise.  The
PZF mean rate reads the same law against the weight
E_u[1 / (u^alpha + x)] of :func:`_ratio_weight`: 1 / (1 + x) at m = 1,
and at m >= 2 the same average, of 1 / (1 + y) in place of the law, with
no law call (see :func:`cellmimo.rate.rate_profile`).

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
from .specfun import _MAX_A, _conditional_law, _kronrod

__all__ = [
    "coverage_pzf",
    "mean_inverse_sinr",
    "optimal_m",
    "default_m",
    "argmin_mean_inverse_sinr",
]

# Distance-ratio average: each panel's G7/K15 bound, relative to the average.
_RATIO_TOL = 1e-10

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
    ``m`` is the cancellation order (the m - 1 nearest interferers are
    nulled).  The conditional law :func:`_law` at x = z where m = 1 (u = 1),
    and otherwise its average :func:`_ratio_average` over u = r/R.  With
    sigma2 = 0 the law is scale-free and the base-station intensity drops
    out.  delta above 20 or n_t + delta above 40 raises SizeGuardError.
    """
    law = _law(config, m)
    if m == 1:
        return _over_thresholds(z, law)
    alpha, kappa = config.alpha, _noise_scale(config)
    return _over_thresholds(z, lambda z: _ratio_average(law, np.log(z), alpha, int(m), kappa))


def _ratio_average(f: Callable[[np.ndarray], np.ndarray], log_z: np.ndarray, alpha: float,
                   m: int, kappa: float) -> np.ndarray:
    """E_u[f(z u^alpha)], u^2 ~ Beta(1, m - 1), m >= 2, for each entry of
    the 1-d log z.

    ``f``, a law on a 1-d array of arguments >= 0, turns toward its decay
    where its argument passes 1, or 1/kappa with the noise scale kappa: so
    at u ~ (z (1 + kappa))^(-1/alpha).  Each z takes the panels
    [2^-(k+1), 2^-k] down to below a quarter of that, and one from 0 to
    there; the G7/K15 bisection :func:`cellmimo.specfun._kronrod` takes
    all of them together, to 1e-10 of each z's average per panel, so small
    averages are as accurate as large ones.  The argument is
    exp(log z + alpha log u), which keeps its bits where u^alpha
    underflows; the rate weight passes a log z whose e^(log z) overflows.
    """
    # Summed as logs, z (1 + kappa) cannot overflow.
    log2_knee = log_z / math.log(2.0) + math.log2(1.0 + kappa)
    panels = np.maximum(1, np.floor(2.0 + log2_knee / alpha) + 1).astype(int) + 1
    owner = np.repeat(np.arange(log_z.size), panels)
    # Panel k of a z's `panels` ends at 2^(k + 1 - panels) and starts at
    # half that, or at 0 for k = 0.
    k = np.arange(owner.size) - np.repeat(np.cumsum(panels) - panels, panels)
    hi = 2.0 ** (k + 1 - panels[owner])
    lo = np.where(k > 0, 0.5 * hi, 0.0)

    def integrand(u: np.ndarray, owner: np.ndarray) -> np.ndarray:
        # x overflows only where z does: for the rate weight, whose f is 0 there.
        with np.errstate(over="ignore"):
            x = np.exp(log_z[owner] + alpha * np.log(u))
        return 2.0 * (m - 1) * u * (1.0 - u * u) ** (m - 2) * f(x)

    return _kronrod(integrand, lo, hi, owner, _RATIO_TOL)


def _ratio_weight(t: np.ndarray, alpha: float, m: int) -> np.ndarray:
    """x E_u[1 / (u^alpha + x)] at x = e^t, for the 1-d t: the weight with
    which the conditional law at argument x enters the PZF mean rate (see
    :func:`cellmimo.rate.rate_profile`), times x.

    At m = 1 u is 1, and it is x / (1 + x) = expit(t).  Otherwise, as
    x / (u^alpha + x) = 1 / (1 + u^alpha / x), it is the coverage's average
    :func:`_ratio_average` of y -> 1 / (1 + y) at log z = -t, without
    noise.  Against mpmath it is within 3.1e-14 relative for m in
    {2, 3, 8, 20}, alpha 2.05 to 8 and t from -80 to 120, and 9.8e-12 at
    alpha 20, m 20, t = -5, inside the average's 1e-10 bound per panel.
    """
    return _sp.expit(t) if m == 1 else _ratio_average(lambda y: 1 / (1 + y), -t, alpha, m, 0.0)


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
    inverse signal gain then has a divergent mean), and where the value
    passes the float range; raises for infeasible splits.
    """
    _split_delta(config.n_t, config.n_r, m)
    # inf at delta = 0 (the log holds -log 0) and past the float range.
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.exp(_log_mean_inverse_sinr(config, m)[-1]))


def _log_mean_inverse_sinr(config: NetworkConfig, m_max: int) -> np.ndarray:
    """log :func:`mean_inverse_sinr` at m = 1..m_max, each with delta >= 0.
    Gamma(1+s) Gamma(m+1) / Gamma(m+s) = m! / ((1+s)(2+s)...(m-1+s)) is
    summed term by term: log-gamma differences lose every digit at large s.
    """
    s = config.alpha / 2.0
    m = np.arange(1.0, m_max + 1.0)
    interference = np.cumsum(np.log(m) - np.log(s + m - 1.0)) + math.log(
        config.n_t * (s / (s - 1.0)))
    kappa = _noise_scale(config)
    noise = _sp.gammaln(1.0 + s) + math.log(kappa) if kappa else -math.inf
    return np.logaddexp(interference, noise) - np.log(config.n_r - m * config.n_t)


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
    """All m minimizing the exact mean inverse SINR (ties included), as
    logs, which rank values past the float range too."""
    m_max = _feasible_m_range(config)
    values = _log_mean_inverse_sinr(config, m_max)
    return tuple(int(m) for m in np.flatnonzero(values <= values.min() + math.log1p(1e-12)) + 1)
