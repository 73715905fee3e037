"""Coverage laws for the linear MMSE receiver.

The MMSE filter maximizes post-combining SINR against the full
interference-plus-noise covariance, and its SINR distribution conditioned
on the interferer geometry has a rational-function structure: a ratio of a
polynomial in z (whose coefficients are symmetric functions of the
per-interferer gain ratios) to a product of (1 + gain * z) factors.
Averaging over the Poisson field term by term leaves finite sums over
integer partitions with the moment kernels of :mod:`cellmimo.specfun`, and
one radial integral per (partition length, noise order) pair.

That average is the conditional law the PZF receiver also uses,
:func:`cellmimo.specfun._conditional_law`, at m = 1 with the MMSE kernels
and the own-cell polynomial; this module supplies those inputs.
``coverage_mmse`` evaluates the law with and without receiver noise; noise
enters only through the noise scale :func:`cellmimo.geometry._noise_scale`,
which is 0 without noise (the law is then scale-free: the base-station
intensity cancels).  The law is checked up to n_r = 16 and n_t = 40, hence
the guards; beyond them, use the Monte Carlo estimator, which has no such
limit.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import SizeGuardError
from .geometry import NetworkConfig, _noise_scale, _over_thresholds
from .specfun import _MAX_A, _conditional_law

__all__ = ["coverage_mmse"]

_MAX_NR = 16


def coverage_mmse(config: NetworkConfig, z) -> float | np.ndarray:
    """MMSE coverage probability P[SINR > z] for the typical user.

    ``z`` is a threshold or an array of them, each finite and >= 0; the
    result is a float for a scalar and an array of z's shape otherwise.
    The numerator of the conditional law is a polynomial of degree n_r - 1
    in z.  Averaged over the Poisson field it is the shared conditional law
    :func:`cellmimo.specfun._conditional_law` at x = z and m = 1, with the
    kernels Theta_p (step 0), g_p = 2 C(n_t, p) Theta_p z^p /
    (Theta_0 (alpha p - 2)) for p <= n_t, and the own-cell polynomial
    C(n_t - 1, k) z^k / (1 + z)^(n_t - 1).  Without noise only the noise
    order 0 occurs, with J(ell, 0) = ell!, which is why the zero-noise law
    is intensity-free.  n_r above 16 or n_t (the kernels' first parameter)
    above 40 raises SizeGuardError.
    """
    n_t, n_r, alpha = config.n_t, config.n_r, config.alpha
    if n_r > _MAX_NR or n_t > _MAX_A:
        raise SizeGuardError(
            f"n_r={n_r} or n_t={n_t} exceeds the analytic-law guard ({_MAX_NR} or {_MAX_A}); "
            "use the Monte Carlo estimator for larger arrays"
        )

    kappa = _noise_scale(config)
    k = np.arange(min(n_t, n_r))[:, None]

    def law(z: np.ndarray) -> np.ndarray:
        first = np.zeros((n_r, z.size))
        first[:len(k)] = _sp.comb(n_t - 1, k) * np.exp(k * np.log(z) - (n_t - 1) * np.log1p(z))
        return _conditional_law(n_t, alpha, z, kappa, min(n_t, n_r - 1), 0, first, 1)

    return _over_thresholds(z, law)
