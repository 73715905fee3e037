"""Special-function layer: the log-kernel table of both coverage laws,
F(a, b; b+1; -z) at b = j - 2/alpha with a = n_t + j (PZF) or a = n_t
(MMSE), and the radial moment.

The frozen oracle values below were computed with mpmath at 40 decimal
digits; the evaluator contract is 1e-12 relative accuracy over the laws'
domain (c = b + 1, z >= 0), which scipy's hyp2f1 does not meet at large z.
"""

import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import cellmimo
from cellmimo import mmse, pzf, specfun
from cellmimo.errors import NumericError
from cellmimo.geometry import NetworkConfig
from cellmimo.mmse import coverage_mmse
from cellmimo.pzf import coverage_pzf

# (n_t, alpha, order, step, z) -> F(n_t + step order, order - 2/alpha;
# order - 2/alpha + 1; -z), 22 significant digits.  The cases span both
# evaluation paths: the Euler-integral panel rule (z <= 1e4, or z <= 4 for
# a > 28 and b > 0) and the 1/z identity beyond it.
_HYP_ORACLES = {
    (2, 4.0, 0, 0, 4.0): 4.721446153382271509051,  # (a, b) = (2, -0.5)
    (3, 4.0, 2, 1, 24.0): 0.001565566660514945217576,  # (5, 1.5)
    (3, 4.0, 1, 0, 1.0e6): 0.0005890486225480860322122,  # (3, 0.5)
    (27, 4.0, 3, 1, 100.0): 7.84021169594643110767e-9,  # (30, 2.5)
    (1, 4.0, 0, 1, 1.0e30): 1570796326794896.634849,  # (1, -0.5)
    (8, 4.0, 7, 0, 1.0e8): 3.290388789971367106492e-53,  # (8, 6.5)
    (40, 8.0 / 3.0, 0, 1, 1.0e5): 323526.8513530546887396,  # (40, -0.75)
}

_KERNEL_ORACLES = [
    # (n_t, alpha, order, step, z, value): Lambda_order (step 1), Theta_order (step 0)
    (2, 4.0, 0, 1, 3.0, 4.095699046351326775891),
    (2, 4.0, 1, 1, 2.0, 0.4060943498487927639092),
    (3, 3.0, 2, 1, 10.0, 0.009236358449036510442202),
    (3, 4.0, 2, 0, 5.0, 0.04691429340762426600475),
    (4, 3.5, 1, 0, 0.3, 0.7509892386210761826407),
]


def _log_kernel(n_t, alpha, order, step, z):
    """Row ``order`` of the kernel table at (n_t, alpha, step): log F at z,
    a float for scalar z, else an array."""
    row = specfun._log_kernel_table(n_t, alpha, np.atleast_1d(np.asarray(z, dtype=float)),
                                    order, step)[order]
    return float(row[0]) if np.ndim(z) == 0 else row


def _in_law_domain(n_t, order, step):
    """Whether a law reads this cell: PZF (step 1) has order = j <= delta
    <= 20 and n_t + delta <= 40, MMSE (step 0) order <= min(n_t, n_r - 1)
    with n_r <= 16 and n_t <= 40."""
    if step:
        return order <= pzf._MAX_DELTA and n_t + order <= specfun._MAX_A
    return order <= min(n_t, mmse._MAX_NR - 1) and n_t <= specfun._MAX_A


def _log_cells(a, order, alpha, z):
    """log F(a, order - 2/alpha; order - 2/alpha + 1; -z) from each table
    shape whose law reads it: the PZF table at n_t = a - order and the
    MMSE table at n_t = a."""
    return [_log_kernel(n_t, alpha, order, step, z)
            for n_t, step in ((a - order, 1), (a, 0))
            if n_t >= 1 and _in_law_domain(n_t, order, step)]


def test_hyp2f1_frozen_oracles():
    for (n_t, alpha, order, step, z), expected in _HYP_ORACLES.items():
        got = math.exp(_log_kernel(n_t, alpha, order, step, z))
        assert got == pytest.approx(expected, rel=1e-13), (n_t, alpha, order, step, z)


def test_kernel_frozen_oracles():
    for n_t, alpha, order, step, z, expected in _KERNEL_ORACLES:
        got = math.exp(_log_kernel(n_t, alpha, order, step, z))
        assert got == pytest.approx(expected, rel=1e-13), (n_t, alpha, order, step, z)


def test_hyp2f1_at_zero_is_one():
    # (a, b) = (4, 0.25) in both shapes and (4, -0.25).  Higher orders
    # can sit an ulp below 0, as test_higher_kernels_in_unit_interval_near_zero allows.
    assert _log_kernel(3, 8.0 / 3.0, 1, 1, 0.0) == _log_kernel(4, 8.0 / 3.0, 1, 0, 0.0) == 0.0
    assert _log_kernel(4, 8.0, 0, 1, 0.0) == 0.0


def test_gamma_oracles():
    # Without noise the radial moment is the gamma function, J(p, 0) = Gamma(p + 1).
    def log_j(p, alpha):
        return specfun._log_radial_moment(np.array([p]), np.zeros(1), alpha)[0, 0]

    assert math.exp(log_j(6.5, 4.0)) == pytest.approx(1871.254305797788346476, rel=1e-14)
    assert math.exp(log_j(0.5, 3.0)) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)
    assert log_j(4.0, 2.5) == np.log(24.0)


@settings(deadline=None, max_examples=80)
@given(
    n_t=st.integers(min_value=1, max_value=40),
    order=st.integers(min_value=0, max_value=20),
    alpha=st.floats(min_value=2.1, max_value=6.0),
    log_z=st.floats(min_value=-3.0, max_value=8.0),
)
# a = 40 at z = 100: the panel rule itself is 4e-12 off here, so a > 28
# must switch to the 1/z identity above z = 4.
@example(n_t=20, order=20, alpha=4.0, log_z=2.0)
def test_hyp2f1_matches_mpmath(n_t, order, alpha, log_z):
    """1e-12 relative agreement with mpmath over the kernel parameter range."""
    z = 10.0**log_z
    b = order - 2.0 / alpha
    a = n_t + order
    got = _log_cells(a, order, alpha, z)
    assume(got)
    with mp.workdps(30):
        want = float(mp.hyp2f1(a, b, b + 1.0, -z))
    for log_f in got:
        assert math.exp(log_f) == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(deadline=None, max_examples=80)
@given(
    a=st.integers(min_value=1, max_value=40),
    order=st.integers(min_value=0, max_value=20),
    alpha=st.floats(min_value=2.05, max_value=1000.0),
    log_z=st.floats(min_value=-2.0, max_value=77.0),
)
# Lambda_9(2^128) and Theta_15(2^100), Theta_15(1.3e30) are below the
# smallest float64.
@example(a=10, order=9, alpha=5.0, log_z=128 * math.log10(2.0))
@example(a=16, order=15, alpha=3.0, log_z=100 * math.log10(2.0))
@example(a=16, order=15, alpha=3.0, log_z=math.log10(1.3e30))
def test_log_kernels_match_mpmath(a, order, alpha, log_z):
    """The logs of the lambda (a = n_t + order) and theta (a = n_t) kernels
    that both laws read agree with mpmath to 1e-12 relative, also where the
    kernel itself underflows."""
    z = 10.0**log_z
    b = order - 2.0 / alpha
    got = _log_cells(a, order, alpha, z)
    assume(got)
    with mp.workdps(40):
        want = float(mp.log(mp.hyp2f1(a, b, b + 1, -mp.mpf(z))))
    for log_f in got:
        assert log_f == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0, 5.0])
def test_kernel_table_shapes_agree(alpha):
    """Row j of the PZF table at n_t and row j of the MMSE table at n_t + j
    hold the same kernel.  Their direct sides are the same sums; on the
    reflected side c = a - b rounds differently in the two shapes.  Both
    routes are crossed on both sides of each order's switch point: the
    panel rule up to 1e4 (up to 4 where n_t + order > 28) and the 1/z
    identity beyond."""
    x = 10.0 ** np.linspace(-300.0, 12.0, 105)
    for n_t in range(1, 13):
        table = specfun._log_kernel_table(n_t, alpha, x, 20, 1)
        for order in range(21):
            np.testing.assert_allclose(table[order], _log_kernel(n_t + order, alpha, order, 0, x),
                                       rtol=1e-15, atol=0.0, err_msg=f"n_t={n_t}, order={order}")


@settings(deadline=None, max_examples=80)
@given(
    a=st.integers(min_value=1, max_value=specfun._MAX_A),
    order=st.integers(min_value=1, max_value=pzf._MAX_DELTA),
    alpha=st.floats(min_value=2.01, max_value=2.1, exclude_max=True),
    log_z=st.floats(min_value=-3.0, max_value=77.0),
)
def test_hyp2f1_near_alpha_two_matches_mpmath(a, order, alpha, log_z):
    """Agreement of log F with mpmath where 2/alpha is within 0.05 of 1,
    over the orders and first parameters of both laws' kernels
    (lambda kernels have a = n_t + order, theta kernels a = n_t)."""
    z = 10.0**log_z
    b = order - 2.0 / alpha
    got = _log_cells(a, order, alpha, z)
    assume(got)
    with mp.workdps(40):
        want = float(mp.log(mp.hyp2f1(a, b, b + 1, -mp.mpf(z))))
    for log_f in got:
        if z <= 1e4:
            # F to 1e-12 relative, which is log F to 1e-12 absolute.
            assert log_f == pytest.approx(want, rel=0.0, abs=1e-12)
        else:
            # |log F| reaches thousands here, where its own rounding exceeds
            # 1e-12 absolute, so log F is checked relative to itself.
            assert log_f == pytest.approx(want, rel=1e-12, abs=0.0)


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
    v_lo, v_hi = _log_kernel(n_t, alpha, 0, 1, lo), _log_kernel(n_t, alpha, 0, 1, hi)
    assert v_lo >= 0.0 and v_hi >= v_lo


def test_lambda0_subnormal_argument_is_silent():
    # P(x) = (1+x)^a - 1 is subnormal here, so 1/P overflows to inf; the
    # quadrature still gets g = 1/(1 + inf) = 0 right and must not warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.exp(_log_kernel(1, 3.0, 0, 1, 1e-305)) == 1.0


@pytest.mark.parametrize("n_t", [1, 3, 8])
@pytest.mark.parametrize("alpha", [2.05, 3.0, 5.0])
def test_lambda0_monotone_between_neighbouring_floats(n_t, alpha):
    """Exact monotonicity at ulp scale, and the same value whether z comes
    alone or in an array."""
    rng = np.random.default_rng(7)
    z = np.concatenate([10.0 ** rng.uniform(-6.0, 4.0, 2000), rng.uniform(0.0, 30.0, 2000)])
    v = _log_kernel(n_t, alpha, 0, 1, z)
    assert np.all(_log_kernel(n_t, alpha, 0, 1, np.nextafter(z, np.inf)) >= v)
    order = np.argsort(z)
    assert np.all(np.diff(v[order]) >= 0.0)
    for i in range(0, z.size, 401):
        assert _log_kernel(n_t, alpha, 0, 1, float(z[i])) == v[i]


@settings(deadline=None, max_examples=40)
@given(
    n_t=st.integers(min_value=1, max_value=6),
    order=st.integers(min_value=1, max_value=5),
    alpha=st.floats(min_value=2.1, max_value=6.0),
    z=st.floats(min_value=0.0, max_value=1e4),
)
def test_higher_kernels_in_unit_interval(n_t, order, alpha, z):
    # log F in (-inf, 0] is F in (0, 1].
    assert -math.inf < _log_kernel(n_t, alpha, order, 1, z) <= 0.0
    # Theta orders stop at n_t, the last one the MMSE law reads.
    assert -math.inf < _log_kernel(n_t, alpha, min(order, n_t), 0, z) <= 0.0


@pytest.mark.parametrize("alpha", [2.01, 2.05, 2.5, 3.0, 4.0, 6.0])
def test_higher_kernels_in_unit_interval_near_zero(alpha):
    # The positive Euler sum b sum_i c_i is 1 only up to rounding.
    z = np.array([0.0, 1e-300, 1e-12])
    for n_t in range(1, 13):
        for step, orders in ((1, 16), (0, min(n_t, 16))):
            logs = specfun._log_kernel_table(n_t, alpha, z, orders, step)[1:]
            assert np.all((logs > -math.inf) & (logs <= 0.0)), (step, n_t)


def test_laws_run_without_mpmath():
    """No module of the package needs mpmath at run time: both laws near
    alpha = 2, a kernel far beyond the panel rule and the MMSE law at a
    large alpha and threshold run with the import blocked."""
    code = """
import math
import sys
sys.modules["mpmath"] = None
import numpy as np
from cellmimo import NetworkConfig, coverage_mmse, coverage_pzf
from cellmimo.specfun import _log_kernel_table
zs = [10.0 ** (db / 10.0) for db in range(-5, 21)]
pzf_config = NetworkConfig(lam=1.0, alpha=2.05, sigma2=0.0, n_t=1, n_r=4)
mmse_config = NetworkConfig(lam=1.0, alpha=2.05, sigma2=0.0, n_t=4, n_r=16)
for curve in ([coverage_pzf(pzf_config, z, 2) for z in zs],
              [coverage_mmse(mmse_config, z) for z in zs]):
    assert all(1.0 >= v > w > 0.0 for v, w in zip(curve, curve[1:])), curve
assert -math.inf < _log_kernel_table(1, 2.02, np.array([1e30]), 1, 1)[1, 0] < 0.0
steep = NetworkConfig(lam=1.0, alpha=100.0, sigma2=0.0, n_t=2, n_r=4)
assert 0.0 < coverage_mmse(steep, 1e6) < 1.0
"""
    src = os.path.dirname(os.path.dirname(cellmimo.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


# Both sides of both switch points.
_SWITCH_X = np.concatenate([np.nextafter(4.0, [0.0, np.inf]), np.nextafter(1e4, [0.0, np.inf])])


def test_theta_equals_lambda_at_order_zero():
    """Order 0 has a = n_t in both shapes, and the same sums to the last
    bit.  It shares the two sides of its table with the other orders; its
    row is the same for no other order, one, or the most the law reads."""
    x = np.concatenate([[0.0, 1e-300], _SWITCH_X, 10.0 ** np.linspace(-12.0, 77.0, 90)])
    for alpha in (2.01, 4.0, 30.0, 1000.0):
        for n_t in (1, 3, 12, 16, 28, 29, 39):
            tops = {1: min(pzf._MAX_DELTA, specfun._MAX_A - n_t), 0: min(n_t, mmse._MAX_NR - 1)}
            rows = [specfun._log_kernel_table(n_t, alpha, x, orders, step)[0]
                    for step, top in tops.items() for orders in (0, 1, top)]
            for row in rows[1:]:
                assert np.array_equal(row, rows[0]), (alpha, n_t)


@pytest.mark.parametrize("alpha", [2.01, 4.0, 1000.0])
@pytest.mark.parametrize("a", [1, 28, 29, 40])
def test_log_kernels_match_mpmath_at_the_switch_points(a, alpha):
    """log F against mpmath on both sides of x = 4 and x = 1e4, for the
    first parameters on both sides of a = 28, where the b > 0 orders'
    switch point falls from 1e4 to 4."""
    for order in (0, 1, 2, 15, 20):
        b = order - 2.0 / alpha
        for z in _SWITCH_X:
            got = _log_cells(a, order, alpha, float(z))
            with mp.workdps(40):
                want = float(mp.log(mp.hyp2f1(a, b, b + 1, -mp.mpf(float(z)))))
            for log_f in got:
                assert log_f == pytest.approx(want, rel=1e-12, abs=0.0), (order, z)


# ----------------------------------------------------------------------
# Radial moment J(p, b) = int_0^inf y^p exp(-y - b y^(alpha/2)) dy

_RADIAL_P = np.array([0.0, 0.25, 1.0, 2.5, 7.0, 20.0, 41.5, 64.0])
_RADIAL_B = np.array([1e-8, 1e-5, 1e-3, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4])
# The noise-to-interference ratios the laws pass reach 1e-17 at ordinary
# noise, so both oracles also take these.
_RADIAL_SMALL_B = np.array([1e-18, 1e-16, 1e-12])


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
    """log J(p, 0) is log Gamma(p + 1) exactly, the form the laws consume,
    also beyond p = 170, where Gamma(p + 1) itself overflows."""
    p_grid = np.concatenate([_RADIAL_P, [200.0, 750.0]])
    values = specfun._log_radial_moment(p_grid, np.zeros(1), alpha)
    assert values.shape == (p_grid.size, 1)
    for p, value in zip(p_grid, values[:, 0]):
        alone = specfun._log_radial_moment(np.array([p]), np.zeros(1), alpha)[0, 0]
        assert alone == value == special.gammaln(p + 1.0)
        assert value == pytest.approx(math.lgamma(p + 1.0), rel=1e-15)


def test_radial_moment_matches_parabolic_cylinder_oracle():
    b_grid = np.concatenate([_RADIAL_SMALL_B, _RADIAL_B])
    values = np.exp(specfun._log_radial_moment(_RADIAL_P, b_grid, 4.0))
    for i, p in enumerate(_RADIAL_P):
        for j, b in enumerate(b_grid):
            expected = _mp_radial_moment_pcfd(p, b)
            assert values[i, j] == pytest.approx(float(expected), rel=1e-11), (p, b)


@pytest.mark.parametrize("alpha", [2.05, 3.0, 6.0])
def test_radial_moment_matches_mpmath_quadrature(alpha):
    p_grid, b_grid = _RADIAL_P[::2], np.concatenate([_RADIAL_SMALL_B, _RADIAL_B[::2]])
    values = np.exp(specfun._log_radial_moment(p_grid, b_grid, alpha))
    for i, p in enumerate(p_grid):
        for j, b in enumerate(b_grid):
            expected = _mp_radial_moment_quad(p, b, alpha)
            assert values[i, j] == pytest.approx(float(expected), rel=1e-11), (p, b)


@pytest.mark.parametrize("alpha", [2.05, 4.0, 6.0])
@pytest.mark.parametrize("b", [1e8, 1e30])
def test_log_radial_moment_matches_mpmath_where_it_underflows(alpha, b):
    """The rule returns log J, which stays exact where J is below the
    smallest float64 (p = 64 at b = 1e30)."""
    p_grid = _RADIAL_P[::2]
    got = specfun._radial_trapezoid(p_grid + 1.0, np.full(p_grid.size, b), 0.5 * alpha)
    for p, log_j in zip(p_grid, got):
        with mp.workdps(30):
            want = float(mp.log(_mp_radial_moment_quad(p, b, alpha)))
        # log J to 1e-11 absolute is J to 1e-11 relative.
        assert log_j == pytest.approx(want, rel=0.0, abs=1e-11), (p, b)


@pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0, 6.0])
def test_radial_rows_do_not_depend_on_their_neighbours(alpha):
    """Each row of one call sizes its own grid: mixed orders and noise
    ratios give the values each row gives alone."""
    rng = np.random.default_rng(11)
    q = np.concatenate([[1.0, 65.0, 1.0, 65.0], rng.uniform(1.0, 65.0, 60)])
    b = np.concatenate([[1e-18, 1e-18, 1e4, 1e4], 10.0 ** rng.uniform(-18.0, 4.0, 60)])
    s = 0.5 * alpha
    together = specfun._radial_trapezoid(q, b, s)
    alone = np.array([specfun._radial_trapezoid(q[i:i + 1], b[i:i + 1], s)[0]
                      for i in range(q.size)])
    # log J to 1e-13 absolute is J to 1e-13 relative.
    np.testing.assert_allclose(together, alone, rtol=0.0, atol=1e-13)


_LATTICE_C = np.concatenate([[0.0], np.logspace(-18.0, 30.0, 25)])


@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0, 6.0, 8.0])
def test_radial_lattice_matches_the_rule_on_every_order(alpha):
    """The recurrence from the top anti-diagonal gives every lower point
    of the noisy lattice as the rule gives it on that order alone."""
    for m in (1, 2, 5):
        for top in (0, 1, 3, 8, 20):
            p = specfun._law_terms(1, alpha, 0, 1, top, m, True)[3]
            lattice = specfun._log_radial_lattice(p, _LATTICE_C, alpha)
            for i in range(p.size):
                alone = specfun._log_radial_moment(p[i:i + 1], _LATTICE_C, alpha)[0]
                bound = 1e-13 * np.maximum(1.0, np.abs(alone))
                assert np.all(np.abs(lattice[i] - alone) <= bound), (m, top, p[i])


# ----------------------------------------------------------------------
# Both noisy laws at vanishing intensity, against the noise-only law

def _noise_only_coverage(d, alpha, noise, lam):
    """U = 1 - E[exp(-pi lam (G / noise)^(2/alpha))], G ~ Gamma(d), by 1-d
    adaptive quadrature in G: the coverage with the interference removed,
    an upper bound of both noisy laws, where noise = n_t sigma2 z."""
    scale = math.pi * lam * noise ** (-2.0 / alpha)

    def integrand(g):
        return -math.expm1(-scale * g ** (2.0 / alpha)) * math.exp((d - 1.0) * math.log(g) - g)

    value, error = integrate.quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=2e-14, limit=200)
    assert error <= 1e-13 * value
    return value / math.gamma(d)


def _noise_limited_laws(lam, z):
    """MMSE 1x4 and PZF 1x4 m=1 at alpha = 4, sigma2 = 1: both have the
    noise-only law of d = 4 receive dimensions."""
    config = NetworkConfig(lam=lam, alpha=4.0, sigma2=1.0, n_t=1, n_r=4)
    return coverage_mmse(config, z), coverage_pzf(config, z, 1)


@pytest.mark.parametrize("lam", [1e-20, 1e-40, 1e-60, 1e-80, 1e-120])
def test_noisy_laws_keep_every_noise_order(lam):
    """At vanishing intensity both laws approach the noise-only leading
    term pi lam Gamma(d + 1/2) / Gamma(d) (n_t sigma2 z)^(-1/2).  The terms
    of high noise order carry it although their radial moment underflows."""
    z = 1e3
    lead = math.pi * lam * math.gamma(4.5) / math.gamma(4.0) / math.sqrt(z)
    for value in _noise_limited_laws(lam, z):
        assert value == pytest.approx(lead, rel=1e-10, abs=0.0)


_BOUND_LAMS = [1e-5, 1e-8, 1e-12, 1e-20, 1e-40, 1e-60, 1e-80, 1e-120]
_BOUND_ZS = [1e-2, 1.0, 1e2, 1e4]


@pytest.mark.parametrize("lam", _BOUND_LAMS)
def test_noisy_laws_below_noise_only_coverage(lam):
    """Interference only lowers the SINR, so neither law exceeds the
    noise-only coverage U(z): of 4 receive dimensions for MMSE and PZF
    m=1, and of 3 for PZF m=2."""
    config = NetworkConfig(lam=lam, alpha=4.0, sigma2=1.0, n_t=1, n_r=4)
    for z in _BOUND_ZS:
        bound = _noise_only_coverage(4.0, 4.0, z, lam)
        for value in _noise_limited_laws(lam, z):
            assert value <= bound * (1.0 + 1e-12), (z, value / bound)
        value = coverage_pzf(config, z, 2)
        bound = _noise_only_coverage(3.0, 4.0, z, lam)
        assert value <= bound * (1.0 + 1e-12), (z, value / bound)


@pytest.mark.parametrize("lam", [1e-6, 1e-10, 1e-20, 1e-40, 1e-150])
def test_noisy_pzf_resolves_noise_dominated_thresholds(lam):
    """Where noise dominates, the PZF u-average still resolves the law:
    its panels reach down to where the noise factor turns, at u of about
    (kappa z)^(-1/alpha), and every value stays below the noise-only U(z)
    of 3 receive dimensions."""
    config = NetworkConfig(lam=lam, alpha=4.0, sigma2=1.0, n_t=1, n_r=4)
    for z in (1e-3, 1.0, 1e3, 1e10, 1e30):
        # At lam = 1e-150 and z = 1e30, kappa z is about 1e329: the noise
        # factor turns where u^alpha is about 1e-329, below the smallest
        # float, while x = z u^alpha is still about 1e-299 there.
        value = coverage_pzf(config, z, 2)
        bound = _noise_only_coverage(3.0, 4.0, z, lam)
        assert 0.0 < value <= bound * (1.0 + 1e-12), (z, value / bound)


@pytest.mark.parametrize("rx, z", [("pzf", 1.0), ("pzf", 1e10), ("mmse", 1e-300), ("mmse", 1.0)])
def test_noisy_laws_at_steep_path_loss(rx, z):
    """At alpha = 100 the radial lattice reaches orders p > 170, whose
    Gamma(p + 1) overflows, and meets c = 0 where x underflows.  Both laws
    still give a finite value at or below the noise-only U(z), of 11
    receive dimensions for PZF 1x12 m=2 and 16 for MMSE 1x16, without a
    warning."""
    config = NetworkConfig(lam=1.0, alpha=100.0, sigma2=1.0, n_t=1, n_r=12 if rx == "pzf" else 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = coverage_pzf(config, z, 2) if rx == "pzf" else coverage_mmse(config, z)
    bound = _noise_only_coverage(11.0 if rx == "pzf" else 16.0, 100.0, z, 1.0)
    assert math.isfinite(value) and value <= bound * (1.0 + 1e-12), (value, bound)


def test_radial_moment_raises_when_the_rule_cannot_resolve(monkeypatch):
    # A step far too coarse for the peak fails the rule's own error check.
    monkeypatch.setattr(specfun, "_RADIAL_STEP", 2.0)
    monkeypatch.setattr(specfun, "_RADIAL_STRIP_STEP", 2.0)
    with pytest.raises(NumericError):
        specfun._log_radial_moment(np.zeros(1), np.ones(1), 4.0)
    assert specfun._log_radial_moment(np.array([3.0]), np.zeros(1), 4.0)[0, 0] == np.log(6.0)
