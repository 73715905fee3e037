"""Coverage laws for the linear MMSE receiver.

The MMSE filter maximizes post-combining SINR against the full
interference-plus-noise covariance, and its SINR distribution conditioned
on the interferer geometry has a rational-function structure: a ratio of a
polynomial in z (whose coefficients are symmetric functions of the
per-interferer gain ratios) to a product of (1 + gain * z) factors.
Averaging over the Poisson field term by term leaves finite sums over
integer partitions with the moment kernels of :mod:`cellmimo.specfun`, and
one radial integral per (partition length, noise order) pair.

``coverage_mmse`` evaluates the law with and without receiver noise; noise
enters only through the radial moments of :mod:`cellmimo.specfun`, which
are exact gamma moments at zero noise (the law is then scale-free: the
base-station intensity cancels).

A term depends on its integer partition (parts at most n_t) only through a
product over the parts and the partition length, so each sum over
partitions is one coefficient of a polynomial power, read from the table of
:func:`cellmimo.specfun._power_table`; its recurrence adds positive numbers
only.  The law is checked up to n_r = 16 and n_t = 40, hence the guards;
beyond them, use the Monte Carlo estimator, which has no such limit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import SizeGuardError
from .geometry import NetworkConfig, _over_thresholds
from .specfun import _MAX_A, _log_kernel_table, _power_table, radial_moment

__all__ = ["coverage_mmse"]

_MAX_NR = 16


def coverage_mmse(config: NetworkConfig, z) -> float | np.ndarray:
    """MMSE coverage probability P[SINR > z] for the typical user.

    ``z`` is a threshold or an array of them, each finite and >= 0; the
    result is a float for a scalar and an array of z's shape otherwise, and
    every threshold's kernels come from one table.  The numerator of the
    conditional law is a polynomial of degree n_r - 1 in z.  Averaged over
    the Poisson field, its coefficients of order <= n_r - 1 - v with
    partition length ell sum to the entry S[ell, n_r - 1 - v] of the power
    table (:func:`cellmimo.specfun._power_table`) of
    g_p = 2 C(n_t, p) Theta_p z^p / (Theta_0 (alpha p - 2)), p <= n_t,
    times the own-cell polynomial C(n_t - 1, k) z^k / (1 + z)^(n_t - 1).
    The coverage sums those entries over ell and the noise order v, each
    times the radial factor b^v / v! J(ell + v alpha / 2, b) / Theta_0 with
    the radial moment J (:func:`cellmimo.specfun.radial_moment`) and
    b = z n_t sigma2 / (pi lam Theta_0)^(alpha/2).  Without noise only
    v = 0 occurs and J(ell, 0) = ell!, which is why the zero-noise law is
    intensity-free.  n_r above 16 or n_t (the kernels' first parameter)
    above 40 raises SizeGuardError.
    """
    n_t, n_r, alpha = config.n_t, config.n_r, config.alpha
    if n_r > _MAX_NR or n_t > _MAX_A:
        raise SizeGuardError(
            f"n_r={n_r} or n_t={n_t} exceeds the analytic-law guard ({_MAX_NR} or {_MAX_A}); "
            "use the Monte Carlo estimator for larger arrays"
        )

    def law(z: np.ndarray) -> np.ndarray:
        # log Theta_p = log F(n_t, p - 2/alpha; p - 2/alpha + 1; -z), which never underflows.
        log_theta = _log_kernel_table(n_t, alpha, z, min(n_t, n_r - 1), 0)
        log_z, log_1pz = np.log(z), np.log1p(z)
        p = np.arange(1, len(log_theta))[:, None]
        g = np.zeros((n_r, z.size))
        g[1:len(log_theta)] = np.exp(
            np.log(2.0 * _sp.comb(n_t, p) / (alpha * p - 2.0))
            + log_theta[1:] + p * log_z - log_theta[0]
        )
        k = np.arange(min(n_t, n_r))[:, None]
        first = np.zeros((n_r, z.size))
        first[:len(k)] = _sp.comb(n_t - 1, k) * np.exp(k * log_z - (n_t - 1) * log_1pz)
        table = _power_table(g, first)

        theta0 = np.exp(log_theta[0])
        b = z * n_t * config.sigma2 / (math.pi * config.lam * theta0) ** (alpha / 2.0)
        # The (partition length, noise order) pairs with a term: ell + v <= n_r - 1.
        ell, v = np.nonzero(
            np.add.outer(np.arange(n_r), np.arange(n_r if b.any() else 1)) < n_r
        )
        with np.errstate(divide="ignore"):  # J underflows only for negligible terms
            log_radial = np.log(radial_moment(ell[:, None] + 0.5 * alpha * v[:, None], b, alpha))
        radial = np.exp(
            log_radial + _sp.xlogy(v[:, None], b) - _sp.gammaln(v + 1.0)[:, None] - log_theta[0]
        )
        return (table[ell, n_r - 1 - v] * radial).sum(axis=0)

    return _over_thresholds(z, law)
