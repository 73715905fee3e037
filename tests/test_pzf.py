"""Partial zero-forcing coverage laws and the cancellation-order rule.

Independent oracles used here:

* m = 1, n_t = 1, delta = 0 has the elementary closed form
  1 / (1 + sqrt(z) atan(sqrt(z))) at alpha = 4.
* For m = 1, n_t = 1 and general delta, coverage equals an average of
  derivatives of the interference Laplace transform; the test evaluates
  those derivatives by finite differences, bypassing the partition
  machinery entirely.
* Vanishing noise must reproduce the zero-noise law: the radial moments
  then come from the quadrature branch of the radial-moment rule instead
  of its exact gamma branch.
* Noisy values are pinned to the nested scipy ``quad`` route that the
  package used up to commit 9a3f446.
* Small coverages are checked against adaptive scipy ``quad`` in the
  distance ratio u, with breakpoints at z^(-1/alpha) 2^k.
* For delta <= 6 the conditional law is checked against its partition sum
  taken term by term over every set partition of {1..k}.
* The rate weight x E_u[1 / (u^alpha + x)] is checked against mpmath: the
  closed form F(1, 2/alpha; 1 + 2/alpha; -1/x) at m = 2, and quadrature
  in log u^2 with breakpoints around the knee otherwise.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from cellmimo import pzf, specfun
from cellmimo.errors import ConfigError, NumericError, SizeGuardError
from cellmimo.geometry import NetworkConfig
from cellmimo.pzf import (
    _conditional_coverage_u,
    _ratio_weight,
    _split_delta,
    argmin_mean_inverse_sinr,
    coverage_pzf,
    mean_inverse_sinr,
    optimal_m,
)
from cellmimo.specfun import _log_kernel_table


def _config(n_t, n_r, alpha=4.0, sigma2=0.0, lam=1.0):
    return NetworkConfig(lam=lam, alpha=alpha, sigma2=sigma2, n_t=n_t, n_r=n_r)


# ----------------------------------------------------------------------
# Interference-limited law

def test_single_antenna_closed_form():
    # 1/(1 + sqrt(z) atan(sqrt(z))) at alpha = 4, including the z of the
    # classic 0.5601 coverage figure.
    for z in (0.3, 1.0, 7.0, 40.0):
        expected = 1.0 / (1.0 + math.sqrt(z) * math.atan(math.sqrt(z)))
        assert coverage_pzf(_config(1, 1), z, 1) == pytest.approx(
            expected, rel=1e-10
        )
    assert coverage_pzf(_config(1, 1), 1.0, 1) == pytest.approx(
        0.560099, abs=1e-6
    )


def test_reference_curve_values():
    # 1x4 with m = 2 and m = 4 at 0 dB, and the 2-antenna delta = 0 sweep
    # point (m = 3); high-precision values frozen from this implementation
    # after cross-validation against Monte Carlo.
    assert coverage_pzf(_config(1, 4), 1.0, 2) == pytest.approx(
        0.919708, abs=2e-6
    )
    assert coverage_pzf(_config(1, 4), 1.0, 4) == pytest.approx(
        0.766596, abs=2e-6
    )
    assert coverage_pzf(_config(2, 6), 1.0, 3) == pytest.approx(
        0.606318, abs=2e-6
    )


def test_coverage_at_zero_threshold_is_one():
    assert coverage_pzf(_config(1, 4), 0.0, 2) == 1.0


def test_coverage_decreasing_in_threshold():
    values = [
        coverage_pzf(_config(2, 5), z, 2)
        for z in (0.1, 0.5, 1.0, 5.0, 20.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_coverage_improves_with_array_gain():
    # More surplus dimensions at fixed m can only help.
    by_delta = [
        coverage_pzf(_config(1, 1 + d), 2.0, 1) for d in range(4)
    ]
    assert all(a < b for a, b in zip(by_delta, by_delta[1:]))


def laplace_interference(s, R: float, lam: float, n_t: int, alpha: float):
    """Laplace transform E[exp(-s I)] of the interference from beyond radius
    R: a Poisson field of intensity lam, each station sending n_t unit-power
    streams through independent Rayleigh channels with path-loss exponent
    alpha.  The oracle of the finite-difference check below."""
    log_grown = _log_kernel_table(n_t, alpha, np.array([R ** (-alpha) * s]), 0, 1)[0, 0]
    return math.exp(-lam * math.pi * R**2 * math.expm1(log_grown))


def test_laplace_interference_anchor():
    # lam = R = s = 1, alpha = 4: exponent is -pi * atan(1) = -pi^2/4.
    assert laplace_interference(1.0, 1.0, 1.0, 1, 4.0) == pytest.approx(
        math.exp(-math.pi**2 / 4.0), rel=1e-12
    )
    # No interferers inside the exclusion disk: L(0) = 1.
    assert laplace_interference(0.0, 2.0, 1.5, 2, 3.0) == 1.0


def test_matches_laplace_derivative_oracle():
    """m = 1, n_t = 1, delta = 2 coverage via finite differences of the
    interference Laplace transform, no partition sums involved."""
    z, alpha, lam = 1.0, 4.0, 1.0

    def conditional(r):
        s = z * r**alpha
        L = lambda t: laplace_interference(t, r, lam, 1, alpha)
        h = 1e-3 * s
        f_m2, f_m1 = L(s - 2 * h), L(s - h)
        f_0, f_p1, f_p2 = L(s), L(s + h), L(s + 2 * h)
        d1 = (f_m2 - 8 * f_m1 + 8 * f_p1 - f_p2) / (12 * h)
        d2 = (-f_m2 + 16 * f_m1 - 30 * f_0 + 16 * f_p1 - f_p2) / (12 * h * h)
        return f_0 - s * d1 + 0.5 * s * s * d2

    oracle, _ = integrate.quad(
        lambda r: 2 * math.pi * lam * r * math.exp(-lam * math.pi * r * r) * conditional(r),
        0.0, np.inf, limit=200,
    )
    assert coverage_pzf(_config(1, 3, alpha=alpha), z, 1) == pytest.approx(oracle, rel=1e-8)


def _adaptive_u_average(n_t, n_r, m, alpha, z):
    """Zero-noise coverage by adaptive quad over u = r/R, breaking the range
    at z^(-1/alpha) 2^k, where the conditional law turns over and decays."""
    delta = _split_delta(n_t, n_r, m)

    def integrand(u):
        conditional = _conditional_coverage_u(n_t, m, delta, alpha, z, 0.0, np.array([u]))[0]
        return 2.0 * (m - 1) * u * (1.0 - u * u) ** (m - 2) * conditional

    knee = z ** (-1.0 / alpha)
    points = [knee * 2.0**k for k in range(-40, 80) if knee * 2.0**k < 1.0]
    value, _ = integrate.quad(integrand, 0.0, 1.0, points=points, epsabs=0.0,
                              epsrel=1e-12, limit=1000)
    return value


@pytest.mark.parametrize("n_t,n_r,m,alpha,z", [
    # 160, 180 and 140 dB: coverages of 1e-9 to 4e-8, where a stopping
    # rule on an absolute difference converges before it resolves the knee.
    (1, 8, 4, 4.0, 1e16),
    (1, 4, 2, 4.0, 1e18),
    (1, 12, 2, 3.0, 1e14),
    # z = 2^64 across alpha.
    (2, 8, 2, 3.0, 2.0**64),
    (2, 6, 2, 5.0, 2.0**64),
    (1, 6, 3, 3.5, 2.0**64),
    (1, 4, 2, 2.05, 2.0**64),
])
def test_small_coverage_matches_adaptive_quadrature(n_t, n_r, m, alpha, z):
    expected = _adaptive_u_average(n_t, n_r, m, alpha, z)
    got = coverage_pzf(_config(n_t, n_r, alpha=alpha), z, m)
    assert got == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_ratio_average_raises_at_the_bisection_cap(monkeypatch):
    # With no tolerance a panel is kept only where its G7 and K15 values
    # agree to the last bit; some panel never does, so the average bisects
    # to the cap and gives up.
    monkeypatch.setattr(pzf, "_RATIO_TOL", 0.0)
    with pytest.raises(NumericError, match="bisections"):
        coverage_pzf(_config(1, 4), 1e3, 2)


def test_tail_slope_with_underflowing_kernels():
    # For m = 1 the coverage at alpha = 4 falls as z^(-1/2) at large z.  The
    # higher-order kernels are far below the smallest float64 there; in
    # logs they keep every term of the sum.
    config = _config(1, 11)
    lo, hi = coverage_pzf(config, 2.0**112, 1), coverage_pzf(config, 2.0**128, 1)
    assert math.log2(hi / lo) / 16.0 == pytest.approx(-0.5, abs=1e-4)


def _mpmath_ratio_weight(log_x, alpha, m):
    """x E_u[1 / (u^alpha + x)], u^2 ~ Beta(1, m - 1), at 40 digits (at
    30, the quadrature is off by 5e-9 at alpha 2.05, x = e^-80)."""
    with mp.workdps(40):
        a, t = mp.mpf(alpha) / 2, mp.mpf(log_x)
        if m == 2:
            return mp.hyp2f1(1, 1 / a, 1 + 1 / a, -mp.exp(-t))
        # In r = log u^2 the integrand steps down from e^r at the knee t/a.
        knee = t / a
        cuts = [knee + d for d in (-40, -10, -3, 0, 3, 10, 30, 100, 300) if knee + d < -8]
        return mp.quad(lambda r: (m - 1) * (-mp.expm1(r)) ** (m - 2) * mp.exp(r)
                       / (1 + mp.exp(a * r - t)), [-mp.inf] + cuts + [-8, -4, -1, -0.25, 0])


@pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0, 8.0])
@pytest.mark.parametrize("m", [2, 3, 8, 20])
def test_ratio_weight_matches_mpmath(alpha, m):
    log_x = np.array([-80.0, -30.0, -5.0, 0.0, 5.0, 30.0, 120.0])
    got = _ratio_weight(log_x, alpha, m)
    for t, value in zip(log_x, got):
        expected = float(_mpmath_ratio_weight(t, alpha, m))
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0), t


# ----------------------------------------------------------------------
# Conditional law given the distance ratio

def test_conditional_coverage_monotone_in_interferer_distance():
    # u = r/R = 1/beta: the nearest uncancelled interferer recedes as u falls.
    u = 1.0 / np.array([1.0, 1.5, 2.0, 8.0])
    values = _conditional_coverage_u(1, 2, 2, 4.0, 1.0, 0.0, u)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-6)


def _set_partitions(items):
    """Every set partition of the tuple ``items``, as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for size in range(len(rest) + 1):
        for companions in itertools.combinations(rest, size):
            remaining = tuple(i for i in rest if i not in companions)
            for sub in _set_partitions(remaining):
                yield [(first,) + companions] + sub


def _partition_sum(n_t, m, delta, alpha, z, noise, u):
    """Conditional coverage at one u, term by term over every set partition
    of {1..k}, k <= delta, and every noise order q <= delta - k."""
    s = 2.0 / alpha
    x = z * u**alpha
    kernels = np.exp(_log_kernel_table(n_t, alpha, np.array([x]), delta, 1)[:, 0])
    l0 = kernels[0]
    c = noise * (u * u / l0) ** (alpha / 2.0)
    # |c_j| |(n_t)_j (-2/alpha)_j / (1 - 2/alpha)_j| times lambda_j x^j, per block size j.
    block = {
        j: abs(math.prod((n_t + i) * (i - s) / (i + 1.0 - s) for i in range(j)))
        * kernels[j] * x**j
        for j in range(1, delta + 1)
    }
    total = 0.0
    for k in range(delta + 1):
        for partition in _set_partitions(tuple(range(k))):
            blocks = len(partition)
            weight = math.prod(block[len(b)] for b in partition) / math.factorial(k)
            for q in range(delta - k + 1 if noise else 1):
                p = m - 1 + blocks + 0.5 * alpha * q
                log_j = specfun._log_radial_moment(np.array([p]), np.array([c]), alpha)[0, 0]
                total += (weight / l0 ** (m + blocks) * math.exp(log_j)
                          * c**q / math.factorial(q) / math.gamma(m))
    return total


@pytest.mark.parametrize("n_t", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_conditional_coverage_matches_partition_sum(n_t, m):
    u = np.array([1.0, 0.6, 0.17])
    for delta, alpha in ((6, 3.7), (3, 2.5)):
        for z in (0.2, 3.0, 1e4):
            for noise in (0.0, 0.7):
                got = _conditional_coverage_u(n_t, m, delta, alpha, z, noise / z, u)
                expected = [_partition_sum(n_t, m, delta, alpha, z, noise, v) for v in u]
                assert got == pytest.approx(expected, rel=1e-13, abs=0.0), (delta, z, noise)


# ----------------------------------------------------------------------
# Noisy law

_NOISE_EQUIV_GRID = [
    # (n_t, n_r, m): vanishing noise must reproduce the zero-noise law
    (1, 2, 1),
    (1, 4, 2),
    (2, 4, 1),
    (2, 5, 2),
    (3, 7, 2),
]


@pytest.mark.parametrize("n_t,n_r,m", _NOISE_EQUIV_GRID)
def test_noisy_law_reduces_to_interference_limited(n_t, n_r, m):
    for z in (0.5, 2.0):
        faint = coverage_pzf(_config(n_t, n_r, sigma2=1e-12), z, m)
        exact = coverage_pzf(_config(n_t, n_r), z, m)
        assert faint == pytest.approx(exact, rel=1e-9)


# (n_t, n_r, m, z, sigma2, coverage) from the nested-quad route at 9a3f446.
_NOISY_PINS = [
    (1, 2, 1, 1.0, 0.4, 0.7471432366157242),
    (2, 4, 1, 2.0, 0.4, 0.5300480930745418),
    (1, 4, 2, 1.0, 0.4, 0.9065043084323655),
    (2, 5, 2, 0.5, 0.4, 0.8253616236158552),
    (1, 2, 1, 1.0, 1.0, 0.7277870762749233),
    (2, 4, 1, 2.0, 1.0, 0.5125321925838693),
    (1, 4, 2, 1.0, 1.0, 0.8879534497419319),
    (2, 5, 2, 0.5, 1.0, 0.8029521182808315),
]


@pytest.mark.parametrize("n_t,n_r,m,z,sigma2,expected", _NOISY_PINS)
def test_noisy_law_pinned_values(n_t, n_r, m, z, sigma2, expected):
    config = _config(n_t, n_r, sigma2=sigma2)
    assert coverage_pzf(config, z, m) == pytest.approx(expected, abs=1e-8)


def test_noisy_law_raises_when_radial_moment_unresolved(monkeypatch):
    monkeypatch.setattr(specfun, "_RADIAL_STEP", 2.0)
    monkeypatch.setattr(specfun, "_RADIAL_STRIP_STEP", 2.0)
    config = _config(1, 4, sigma2=1.0)
    with pytest.raises(NumericError):
        coverage_pzf(config, 1.0, 2)


def test_noise_hurts_and_density_helps():
    def cov(sigma2, lam):
        return coverage_pzf(_config(1, 4, sigma2=sigma2, lam=lam), 1.0, 2)

    quiet, noisy, noisier = cov(0.0, 1.0), cov(0.4, 1.0), cov(1.5, 1.0)
    assert quiet > noisy > noisier
    # With noise present, densifying the network raises the received power
    # faster than the interference penalty at alpha = 4.
    assert cov(0.4, 4.0) > cov(0.4, 1.0)


def test_zero_noise_density_invariance():
    z = 1.3
    values = [
        coverage_pzf(_config(1, 4, lam=lam), z, 2)
        for lam in (1e-300, 0.25, 1.0, 5.0, 1e300)
    ]
    assert max(values) - min(values) < 1e-8


def test_request_validation():
    config = _config(2, 5)
    for m in (0, 3, 2.0):  # m = 3 would need 6 receive dimensions
        with pytest.raises(ConfigError):
            coverage_pzf(config, 1.0, m)
    for z in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            coverage_pzf(config, z, 2)
        with pytest.raises(ConfigError):  # anywhere in an array
            coverage_pzf(config, np.array([[1.0, 0.0], [2.0, z]]), 2)


# The law at alpha = 100 as 5b55bef computed it, where these same values came
# with a divide-by-zero warning from the log of the underflowed x.
_LARGE_ALPHA_PINS = {
    0.0: [0.9999999999999034, 0.9999719801894007, 0.9885836736343445],
    1.0: [0.9746110386838573, 0.9591972794844174, 0.9317471675653304],
}


@pytest.mark.parametrize("sigma2", sorted(_LARGE_ALPHA_PINS))
def test_law_at_large_alpha_takes_the_underflow_limit(sigma2):
    """At alpha = 100 the kernel argument x = z u^alpha underflows to 0 at
    the u-average's small u, where g_j = 0 is its exact limit: the law
    raises no warning (the suite makes RuntimeWarning an error) and keeps
    its values."""
    got = coverage_pzf(_config(1, 4, alpha=100.0, sigma2=sigma2), np.array([1e-3, 1.0, 1e3]), 2)
    np.testing.assert_allclose(got, _LARGE_ALPHA_PINS[sigma2], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n_t,n_r,m,sigma2", [
    (1, 4, 2, 0.0), (1, 4, 2, 1.0), (1, 8, 4, 0.5), (2, 4, 1, 0.0), (2, 4, 1, 1.0),
])
def test_array_thresholds_equal_scalar_calls(n_t, n_r, m, sigma2):
    config = _config(n_t, n_r, sigma2=sigma2)
    # At alpha = 4 these thresholds take u-panel counts 1 to 9.
    zs = np.array([[0.0, 1e-3, 0.5, 3.0], [40.0, 1e3, 0.0, 1e8]])
    want = np.array([[coverage_pzf(config, z, m) for z in row] for row in zs])
    got = coverage_pzf(config, zs, m)
    assert got.shape == zs.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(coverage_pzf(config, zs.ravel(), m), want.ravel(),
                               rtol=1e-14, atol=0.0)
    point = coverage_pzf(config, np.array(3.0), m)
    assert isinstance(point, float) and point == want[0, 3]


def test_surplus_dimension_guard():
    for n_r, m in ((22, 1), (23, 2)):  # delta = 21
        with pytest.raises(SizeGuardError):
            coverage_pzf(_config(1, n_r), 1.0, m)
    coverage_pzf(_config(1, 22), 1.0, 2)  # delta = 20 stays supported
    with pytest.raises(SizeGuardError):  # n_t + delta = 41
        coverage_pzf(_config(21, 41), 1.0, 1)
    assert 0.0 < coverage_pzf(_config(20, 40), 1.0, 1) < 1.0  # n_t + delta = 40


# ----------------------------------------------------------------------
# Mean inverse SINR and the cancellation-order rule

def test_mean_inverse_sinr_values():
    config = _config(1, 10)
    # 1 * Gamma(3)/5 * Gamma(6)/Gamma(7) = 1/15.
    assert mean_inverse_sinr(config, 5) == pytest.approx(1.0 / 15.0, rel=1e-12)
    # delta = 0 leaves no surplus dimension: the mean diverges.
    assert mean_inverse_sinr(config, 10) == math.inf
    with pytest.raises(ConfigError):
        mean_inverse_sinr(config, 11)


@pytest.mark.parametrize("n_t,n_r,m,alpha", [
    (1, 6, 2, 3.0),
    (2, 7, 1, 3.0),
    (2, 10, 2, 4.0),
    (1, 4, 2, 5.0),
    (1, 5, 1, 5.0),
])
def test_mean_inverse_sinr_matches_coverage_law(n_t, n_r, m, alpha):
    # E[1/SINR] = int_0^inf P[1/SINR > t] dt = int_0^inf (1 - P[SINR > 1/t]) dt,
    # integrated over the zero-noise coverage law.  alpha = 4 alone cannot
    # tell a stray Gamma(1 + alpha/2)/2 factor, which is 1 there.
    def outage(t):
        return 1.0 - coverage_pzf(_config(n_t, n_r, alpha=alpha), 1.0 / t, m)

    head, _ = integrate.quad(outage, 0.0, 1.0, epsabs=1e-12, epsrel=1e-9, limit=200)
    tail, _ = integrate.quad(outage, 1.0, np.inf, epsabs=1e-12, epsrel=1e-9, limit=200)
    assert mean_inverse_sinr(_config(n_t, n_r, alpha=alpha), m) == pytest.approx(
        head + tail, rel=1e-6
    )


def test_mean_inverse_sinr_with_noise_exceeds_quiet():
    quiet = mean_inverse_sinr(_config(1, 10), 4)
    noisy = mean_inverse_sinr(_config(1, 10, sigma2=0.5), 4)
    assert noisy > quiet


def test_optimal_m_anchors():
    assert optimal_m(_config(1, 10)) == 5
    assert optimal_m(_config(2, 10)) == 2
    assert optimal_m(_config(1, 4)) == 2
    assert optimal_m(_config(1, 2)) == 1
    with pytest.raises(ConfigError):
        optimal_m(_config(2, 2))  # no m with surplus dimension exists


def test_optimal_m_matches_argmin_on_reference_cells():
    # Zero-noise cells go through the closed form, noisy ones through the
    # exhaustive search.
    cells = [
        (1, 10, 4.0, 0.0),
        (2, 10, 4.0, 0.0),
        (1, 4, 4.0, 0.0),
        (2, 12, 4.0, 1.0),
        (1, 8, 3.0, 0.2),
        (2, 10, 4.0, 3.0),
    ]
    for n_t, n_r, alpha, sigma2 in cells:
        config = _config(n_t, n_r, alpha=alpha, sigma2=sigma2)
        assert optimal_m(config) in argmin_mean_inverse_sinr(config), config


def test_optimal_m_is_largest_argmin():
    # The closed form is the exact argmin, ties broken toward the larger m,
    # on every grid cell, including alpha = 2.5 where (1 - 2/alpha) n_r/n_t
    # rounds below its exact integer ties.
    for alpha in (2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0):
        for n_t in (1, 2, 3, 4):
            for n_r in range(n_t + 1, 17):
                for sigma2 in (0.0, 0.5):
                    config = _config(n_t, n_r, alpha=alpha, sigma2=sigma2)
                    m_star = optimal_m(config)
                    assert m_star == argmin_mean_inverse_sinr(config)[-1], config


def test_argmin_handles_ties():
    # (1 - 2/alpha) n_r/n_t = 5 is an integer: m = 4 and m = 5 tie exactly.
    ties = argmin_mean_inverse_sinr(_config(1, 10))
    assert ties == (4, 5)
    assert optimal_m(_config(1, 10)) == 5
