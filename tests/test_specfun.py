"""Special-function layer: Gauss 2F1 at negative argument and the coverage
kernels built on it.

The frozen oracle values below were computed with mpmath at 40 decimal
digits; the evaluator contract is 1e-12 relative accuracy over the library's
parameter domain (c = b + 1, z >= 0), which scipy's hyp2f1 does not meet at
large z.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from cellmimo import specfun
from cellmimo.errors import ConfigError, NumericError, PoleError
from cellmimo.geometry import NetworkConfig
from cellmimo.mmse import coverage_mmse
from cellmimo.pzf import coverage_pzf
from cellmimo.specfun import (
    hyp2f1_negz,
    lambda_kernel,
    pochhammer,
    radial_moment,
    theta_kernel,
)

# (a, b, z) -> 2F1(a, b; b+1; -z), 22 significant digits.  The cases span
# all three evaluation paths: the transformed series (z <= 24), the
# large-z connection formula, and the near-degenerate fallback.
_HYP_ORACLES = {
    (2.0, -0.5, 4.0): 4.721446153382271509051,
    (3.5, 0.25, 0.5): 0.7834315665760718291929,
    (5.0, 1.5, 24.0): 0.001565566660514945217576,
    (2.5, 0.5, 1.0e6): 0.0006666666666664166670833,
    (4.25, 1.75, 300.0): 1.193326781842561429259e-5,
    (3.0000001, 1.0, 100.0): 0.004999509602226026005299,
}

_KERNEL_ORACLES = [
    # (kernel, order, n_t, alpha, z, value)
    (lambda_kernel, 0, 2, 4.0, 3.0, 4.095699046351326775891),
    (lambda_kernel, 1, 2, 4.0, 2.0, 0.4060943498487927639092),
    (lambda_kernel, 2, 3, 3.0, 10.0, 0.009236358449036510442202),
    (theta_kernel, 2, 3, 4.0, 5.0, 0.04691429340762426600475),
    (theta_kernel, 1, 4, 3.5, 0.3, 0.7509892386210761826407),
]


def test_hyp2f1_frozen_oracles():
    for (a, b, z), expected in _HYP_ORACLES.items():
        got = hyp2f1_negz(a, b, b + 1.0, z)
        assert got == pytest.approx(expected, rel=1e-13), (a, b, z)


def test_kernel_frozen_oracles():
    for kernel, order, n_t, alpha, z, expected in _KERNEL_ORACLES:
        assert kernel(order, n_t, alpha, z) == pytest.approx(expected, rel=1e-13)


def test_hyp2f1_at_zero_is_one():
    assert hyp2f1_negz(3.7, 0.25, 1.25, 0.0) == 1.0


def test_gamma_oracles():
    # Without noise the radial moment is the gamma function, J(p, 0) = Gamma(p + 1).
    assert radial_moment(6.5, 0.0, 4.0) == pytest.approx(1871.254305797788346476, rel=1e-14)
    assert radial_moment(0.5, 0.0, 3.0) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)
    assert radial_moment(4.0, 0.0, 2.5) == 24.0


def test_pochhammer_values():
    assert pochhammer(-0.5, 3) == pytest.approx(-0.375, rel=1e-15)
    assert pochhammer(2.0, 4) == 120.0
    assert pochhammer(3.3, 0) == 1.0


def test_hyp2f1_domain_errors():
    with pytest.raises(ConfigError):
        hyp2f1_negz(2.0, 0.5, 2.0, 1.0)  # c != b + 1
    with pytest.raises(ConfigError):
        hyp2f1_negz(2.0, 0.5, 1.5, -0.5)  # negative z
    with pytest.raises(ConfigError):
        hyp2f1_negz(2.0, -1.0, 0.0, 1.0)  # c at a pole


@settings(deadline=None, max_examples=80)
@given(
    n_t=st.integers(min_value=1, max_value=8),
    order=st.integers(min_value=0, max_value=6),
    alpha=st.floats(min_value=2.1, max_value=6.0),
    log_z=st.floats(min_value=-3.0, max_value=8.0),
)
def test_hyp2f1_matches_mpmath(n_t, order, alpha, log_z):
    """1e-12 relative agreement with mpmath over the kernel parameter range."""
    z = 10.0**log_z
    b = order - 2.0 / alpha
    a = n_t + order
    got = hyp2f1_negz(float(a), b, b + 1.0, z)
    with mp.workdps(30):
        want = float(mp.hyp2f1(a, b, b + 1.0, -z))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(deadline=None, max_examples=80)
@given(
    a=st.integers(min_value=1, max_value=specfun._QUAD_MAX_A_POSITIVE),
    order=st.integers(min_value=1, max_value=specfun._QUAD_MAX_A_POSITIVE),
    alpha=st.floats(min_value=2.01, max_value=2.1, exclude_max=True),
    log_z=st.floats(min_value=-3.0, max_value=4.0),
)
def test_hyp2f1_near_alpha_two_matches_mpmath(a, order, alpha, log_z):
    """1e-12 relative agreement with mpmath where 2/alpha is within 0.05 of
    1, over the orders and first parameters of the Euler-integral route
    (lambda kernels have a = n_t + order, theta kernels a = n_t)."""
    z = 10.0**log_z
    b = order - 2.0 / alpha
    got = hyp2f1_negz(float(a), b, b + 1.0, z)
    with mp.workdps(30):
        want = float(mp.hyp2f1(a, b, b + 1.0, -z))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(deadline=None, max_examples=40)
@given(
    n_t=st.integers(min_value=1, max_value=6),
    alpha=st.floats(min_value=2.1, max_value=6.0),
    z1=st.floats(min_value=0.0, max_value=1e4),
    z2=st.floats(min_value=0.0, max_value=1e4),
)
# Neighbouring floats at which the transformed series stepped down an ulp.
@example(n_t=1, alpha=3.0, z1=2.1000000000000005, z2=2.1)
def test_lambda0_monotone_and_bounded(n_t, alpha, z1, z2):
    lo, hi = sorted((z1, z2))
    v_lo, v_hi = lambda_kernel(0, n_t, alpha, lo), lambda_kernel(0, n_t, alpha, hi)
    assert v_lo >= 1.0 and v_hi >= v_lo


def test_lambda0_subnormal_argument_is_silent():
    # P(x) = (1+x)^a - 1 is subnormal here, so 1/P overflows to inf; the
    # quadrature still gets g = 1/(1 + inf) = 0 right and must not warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lambda_kernel(0, 1, 3.0, 1e-305) == 1.0


@pytest.mark.parametrize("n_t", [1, 3, 8])
@pytest.mark.parametrize("alpha", [2.05, 3.0, 5.0])
def test_lambda0_monotone_between_neighbouring_floats(n_t, alpha):
    """Exact monotonicity at ulp scale, and the same value whether z comes
    alone or in an array."""
    rng = np.random.default_rng(7)
    z = np.concatenate([10.0 ** rng.uniform(-6.0, 4.0, 2000), rng.uniform(0.0, 30.0, 2000)])
    v = lambda_kernel(0, n_t, alpha, z)
    assert np.all(lambda_kernel(0, n_t, alpha, np.nextafter(z, np.inf)) >= v)
    order = np.argsort(z)
    assert np.all(np.diff(v[order]) >= 0.0)
    for i in range(0, z.size, 401):
        assert lambda_kernel(0, n_t, alpha, float(z[i])) == v[i]


@settings(deadline=None, max_examples=40)
@given(
    n_t=st.integers(min_value=1, max_value=6),
    order=st.integers(min_value=1, max_value=5),
    alpha=st.floats(min_value=2.1, max_value=6.0),
    z=st.floats(min_value=0.0, max_value=1e4),
)
def test_higher_kernels_in_unit_interval(n_t, order, alpha, z):
    for kernel in (lambda_kernel, theta_kernel):
        value = kernel(order, n_t, alpha, z)
        assert 0.0 < value <= 1.0


@pytest.mark.parametrize("alpha", [2.01, 2.05, 2.5, 3.0, 4.0, 6.0])
def test_higher_kernels_in_unit_interval_near_zero(alpha):
    # The positive Euler sum b sum_i c_i is 1 only up to rounding.
    for z in (0.0, 1e-300, 1e-12):
        for order in range(1, 17):
            for n_t in range(1, 13):
                for kernel in (lambda_kernel, theta_kernel):
                    value = kernel(order, n_t, alpha, z)
                    assert 0.0 < value <= 1.0, (kernel.__name__, order, n_t, z)


def test_kernels_skip_mpmath_below_the_euler_bound(monkeypatch):
    """Near alpha = 2 (2/alpha within 0.05 of 1) every kernel the zero-noise
    laws need up to z = 1e4 comes from the Euler integral, not mpmath."""

    def refuse(a, b, z):
        raise AssertionError(f"mpmath reached: a={a}, b={b}")

    monkeypatch.setattr(specfun, "_mpmath_pointwise", refuse)
    zs = [10.0 ** (db / 10.0) for db in range(-5, 21)]
    pzf_config = NetworkConfig(lam=1.0, alpha=2.05, sigma2=0.0, n_t=1, n_r=4)
    mmse_config = NetworkConfig(lam=1.0, alpha=2.05, sigma2=0.0, n_t=4, n_r=16)
    pzf_curve = [coverage_pzf(pzf_config, z, 2) for z in zs]
    mmse_curve = [coverage_mmse(mmse_config, z) for z in zs]
    for curve in (pzf_curve, mmse_curve):
        assert all(1.0 >= v > w > 0.0 for v, w in zip(curve, curve[1:]))


@settings(deadline=None, max_examples=40)
@given(
    x=st.floats(min_value=-5.0, max_value=5.0),
    n=st.integers(min_value=0, max_value=8),
)
def test_pochhammer_recurrence(x, n):
    assert pochhammer(x, n + 1) == pytest.approx(
        pochhammer(x, n) * (x + n), rel=1e-12, abs=1e-12
    )


def test_theta_equals_lambda_at_order_zero():
    for z in (0.1, 1.0, 50.0):
        assert theta_kernel(0, 3, 4.0, z) == pytest.approx(
            lambda_kernel(0, 3, 4.0, z), rel=1e-15
        )


# ----------------------------------------------------------------------
# Radial moment J(p, b) = int_0^inf y^p exp(-y - b y^(alpha/2)) dy

_RADIAL_P = np.array([0.0, 0.25, 1.0, 2.5, 7.0, 20.0, 41.5, 64.0])
_RADIAL_B = np.array([1e-8, 1e-5, 1e-3, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4])


def _mp_radial_moment_pcfd(p, b):
    """alpha = 4 in closed form (Gradshteyn-Ryzhik 3.462.1):
    (2b)^(-nu/2) Gamma(nu) e^(1/(8b)) D_(-nu)(1/sqrt(2b)), nu = p + 1."""
    with mp.workdps(40):
        nu, b = mp.mpf(p) + 1, mp.mpf(b)
        return (2 * b) ** (-nu / 2) * mp.gamma(nu) * mp.exp(1 / (8 * b)) * mp.pcfd(
            -nu, 1 / mp.sqrt(2 * b)
        )


def _mp_radial_moment_quad(p, b, alpha):
    """mpmath quadrature in t = log y, divided by the integrand's peak so
    that mpmath's error target is relative, and cut where the integrand is
    below exp(-80) of its peak."""
    with mp.workdps(30):
        q, b, s = mp.mpf(p) + 1, mp.mpf(b), mp.mpf(alpha) / 2

        def phi(t):
            return q * t - mp.exp(t) - b * mp.exp(s * t)

        start = min(mp.log(q), (mp.log(q) - mp.log(s * b)) / s)
        mode = mp.findroot(lambda t: q - mp.exp(t) - s * b * mp.exp(s * t), start)
        width = 1 / mp.sqrt(mp.exp(mode) + s * s * b * mp.exp(s * mode))
        peak = phi(mode)
        steps = (-8, -4, -2, -1, 0, 1, 2, 4, 8, 14)
        cuts = [mode - 1 - 80 / q] + [mode + width * k for k in steps]
        return mp.exp(peak) * mp.quad(lambda t: mp.exp(phi(t) - peak), cuts)


@pytest.mark.parametrize("alpha", [2.05, 4.0, 6.0])
def test_radial_moment_without_noise_is_gamma(alpha):
    values = radial_moment(_RADIAL_P, 0.0, alpha)
    assert values.shape == _RADIAL_P.shape
    for p, value in zip(_RADIAL_P, values):
        assert radial_moment(p, 0.0, alpha) == value == special.gamma(p + 1.0)
        assert value == pytest.approx(math.gamma(p + 1.0), rel=1e-15)


def test_radial_moment_matches_parabolic_cylinder_oracle():
    values = radial_moment(_RADIAL_P[:, None], _RADIAL_B[None, :], 4.0)
    for i, p in enumerate(_RADIAL_P):
        for j, b in enumerate(_RADIAL_B):
            expected = _mp_radial_moment_pcfd(p, b)
            assert values[i, j] == pytest.approx(float(expected), rel=1e-11), (p, b)


@pytest.mark.parametrize("alpha", [2.05, 3.0, 6.0])
def test_radial_moment_matches_mpmath_quadrature(alpha):
    p_grid, b_grid = _RADIAL_P[::2], _RADIAL_B[::2]
    values = radial_moment(p_grid[:, None], b_grid[None, :], alpha)
    for i, p in enumerate(p_grid):
        for j, b in enumerate(b_grid):
            expected = _mp_radial_moment_quad(p, b, alpha)
            assert values[i, j] == pytest.approx(float(expected), rel=1e-11), (p, b)


def test_radial_moment_domain_errors():
    for p, b, alpha in [(-0.5, 1.0, 4.0), (1.0, -1e-3, 4.0), (math.nan, 1.0, 4.0),
                        (1.0, math.inf, 4.0), (1.0, 1.0, 2.0)]:
        with pytest.raises(ConfigError):
            radial_moment(p, b, alpha)


def test_radial_moment_raises_when_the_rule_cannot_resolve(monkeypatch):
    # A step far too coarse for the peak fails the rule's own error check.
    monkeypatch.setattr(specfun, "_RADIAL_STEP", 2.0)
    monkeypatch.setattr(specfun, "_RADIAL_STRIP_STEP", 2.0)
    with pytest.raises(NumericError):
        radial_moment(0.0, 1.0, 4.0)
    assert radial_moment(3.0, 0.0, 4.0) == 6.0
