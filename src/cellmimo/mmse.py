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

All terms of the partition sums are positive, so they are assembled in log
space and accumulated with exact summation.  The partition enumeration
grows quickly with the receive antenna count, hence the n_r <= 16 guard;
beyond that, use the Monte Carlo estimator, which has no such limit.
"""

from __future__ import annotations

import math

from .combinatorics import integer_partitions
from .errors import ConfigError, SizeGuardError
from .geometry import NetworkConfig
from .specfun import radial_moment, theta_kernel

__all__ = ["coverage_mmse"]

_MAX_NR = 16


def _partition_log_weight(parts, n_t: int, alpha: float, log_theta) -> float | None:
    """log of prod_j C(n_t, p_j) Theta_{p_j}(z) / (alpha p_j - 2), divided by
    the multiplicity factorials; None when a part exceeds n_t (binomial = 0).
    """
    total = 0.0
    for p in parts.parts:
        if p > n_t:
            return None
        total += math.log(math.comb(n_t, p)) + log_theta[p] - math.log(alpha * p - 2.0)
    total -= math.log(parts.multiplicity_factorial())
    return total


def coverage_mmse(config: NetworkConfig, z: float) -> float:
    """MMSE coverage probability P[SINR > z] for the typical user.

    The sum runs over the coefficient order m of the conditional SINR law,
    a noise order nv, an own-cell split k, and integer partitions of m - k
    with parts at most n_t.  Each (partition length, noise order) pair
    takes one radial moment (:func:`cellmimo.specfun.radial_moment`).
    Without noise only nv = 1 occurs and the radial moments are gamma
    moments, which is why the zero-noise law is intensity-free.  z must be
    finite and >= 0; n_r above 16 raises SizeGuardError.
    """
    if not (z >= 0.0 and math.isfinite(z)):
        raise ConfigError(f"threshold must be finite and >= 0, got {z!r}")
    n_t, n_r, alpha = config.n_t, config.n_r, config.alpha
    if n_r > _MAX_NR:
        raise SizeGuardError(
            f"n_r={n_r} exceeds the analytic-law guard ({_MAX_NR}); "
            "use the Monte Carlo estimator for larger arrays"
        )
    z = float(z)
    if z == 0.0:
        return 1.0

    log_theta = {s: math.log(theta_kernel(s, n_t, alpha, z)) for s in range(n_r)}
    theta0 = math.exp(log_theta[0])
    # Noise enters only through b = z n_t sigma2 / (pi lam Theta0)^(alpha/2).
    b = z * n_t * config.sigma2 / (math.pi * config.lam * theta0) ** (alpha / 2.0)
    nv_max = n_r if b > 0.0 else 1
    log_b = math.log(b) if b > 0.0 else 0.0
    # Radial factor for partition length ell and noise order nv = v + 1:
    # 2^ell / Theta0^(ell+1) * b^v / v! * J(ell + v alpha/2, b), in logs.
    moments = radial_moment(
        [[ell + 0.5 * alpha * v for v in range(nv_max)] for ell in range(n_r)], b, alpha
    )
    log_radial = [
        [
            math.log(j) + v * log_b - math.lgamma(v + 1.0)
            + ell * math.log(2.0) - (ell + 1) * log_theta[0]
            if j > 0.0 else -math.inf  # J underflows only for negligible terms
            for v, j in enumerate(row)
        ]
        for ell, row in enumerate(moments.tolist())
    ]
    log_pref = (1.0 - n_t) * math.log1p(z)
    log_z = math.log(z)

    log_terms = []
    for m in range(n_r):
        for nv in range(1, min(nv_max, n_r - m) + 1):
            for k in range(min(m, n_t - 1) + 1):
                log_own = math.log(math.comb(n_t - 1, k))
                for parts in integer_partitions(m - k):
                    lw = _partition_log_weight(parts, n_t, alpha, log_theta)
                    if lw is None:
                        continue
                    lr = log_radial[parts.length][nv - 1]
                    if lr == -math.inf:
                        continue
                    log_terms.append(log_pref + m * log_z + log_own + lw + lr)
    total = math.fsum(math.exp(t) for t in log_terms)
    return float(min(max(total, 0.0), 1.0))
