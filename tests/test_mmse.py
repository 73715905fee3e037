"""Linear MMSE coverage law, with and without receiver noise.

For n_r <= 8 the law is checked against its sum taken term by term over
every integer partition.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from cellmimo import specfun
from cellmimo.errors import ConfigError, SizeGuardError
from cellmimo.geometry import NetworkConfig
from cellmimo.mmse import coverage_mmse
from cellmimo.pzf import coverage_pzf
from cellmimo.specfun import _log_kernel_table, radial_moment


def _config(n_t, n_r, alpha=4.0, sigma2=0.0, lam=1.0):
    return NetworkConfig(lam=lam, alpha=alpha, sigma2=sigma2, n_t=n_t, n_r=n_r)


# Reference coverage at z = 1 (0 dB), alpha = 4, no noise.
_ANCHORS = [
    (1, 2, 0.80649),
    (2, 2, 0.52086),
    (1, 4, 0.96255),
    (4, 4, 0.50362),
]


@pytest.mark.parametrize("n_t,n_r,expected", _ANCHORS)
def test_reference_points(n_t, n_r, expected):
    assert coverage_mmse(_config(n_t, n_r), 1.0) == pytest.approx(
        expected, abs=1e-5
    )


def test_reference_point_off_zero_db():
    assert coverage_mmse(_config(2, 4), 10.0 ** 0.5) == pytest.approx(
        0.5369888237024917, rel=1e-10
    )


def test_single_antenna_equals_pzf():
    # With one antenna on each side there is nothing to null or combine:
    # both receivers reduce to the same scalar SINR law.
    for z in (0.5, 1.0, 10.0):
        assert coverage_mmse(_config(1, 1), z) == pytest.approx(
            coverage_pzf(_config(1, 1), z, 1), rel=1e-12
        )


@pytest.mark.parametrize("n_t,n_r", [(1, 4), (2, 4), (3, 6)])
def test_dominates_every_pzf_split(n_t, n_r):
    mmse = coverage_mmse(_config(n_t, n_r), 1.0)
    for m in range(1, n_r // n_t + 1):
        pzf = coverage_pzf(_config(n_t, n_r), 1.0, m)
        assert mmse >= pzf


def test_edge_thresholds():
    assert coverage_mmse(_config(2, 4), 0.0) == 1.0
    assert coverage_mmse(_config(2, 4), 1e8) < 2e-4
    values = [
        coverage_mmse(_config(2, 4), z) for z in (0.1, 1.0, 10.0, 100.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_noisy_route_reduces_to_interference_limited():
    # Vanishing noise takes the quadrature branch of the radial moments;
    # zero noise takes their exact gamma branch.
    for n_t, n_r in [(1, 2), (2, 4), (3, 5)]:
        for z in (0.5, 2.0):
            faint = coverage_mmse(_config(n_t, n_r, sigma2=1e-12), z)
            assert faint == pytest.approx(
                coverage_mmse(_config(n_t, n_r), z), rel=1e-9
            )


# (n_t, n_r, z, sigma2, coverage) from the per-term quad route at 9a3f446.
_NOISY_PINS = [
    (2, 4, 1.0, 0.4, 0.793270026662932),
    (1, 4, 3.0, 0.4, 0.8008021352785238),
    (2, 4, 1.0, 1.0, 0.7681241754197276),
    (1, 4, 3.0, 1.0, 0.768291164389659),
]


@pytest.mark.parametrize("n_t,n_r,z,sigma2,expected", _NOISY_PINS)
def test_noisy_law_pinned_values(n_t, n_r, z, sigma2, expected):
    assert coverage_mmse(_config(n_t, n_r, sigma2=sigma2), z) == pytest.approx(expected, abs=1e-8)


def _integer_partitions(total, largest):
    """Every partition of ``total`` into nonincreasing parts <= ``largest``."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _integer_partitions(total - first, first):
            yield (first,) + rest


def _partition_sum(config, z):
    """MMSE coverage term by term: coefficient order m, noise order v, own-cell
    split k and every partition of m - k into parts <= n_t."""
    n_t, n_r, alpha = config.n_t, config.n_r, config.alpha
    theta = np.exp(_log_kernel_table(n_t, alpha, np.array([z]), n_t, 0)[:, 0])
    b = z * n_t * config.sigma2 / (math.pi * config.lam * theta[0]) ** (alpha / 2.0)
    total = 0.0
    for m in range(n_r):
        for v in range(n_r - m if b > 0.0 else 1):
            for k in range(min(m, n_t - 1) + 1):
                own = math.comb(n_t - 1, k) * z**m / (1.0 + z) ** (n_t - 1)
                for parts in _integer_partitions(m - k, n_t):
                    weight = math.prod(
                        math.comb(n_t, p) * theta[p] / (alpha * p - 2.0) for p in parts
                    ) / math.prod(math.factorial(parts.count(p)) for p in set(parts))
                    ell = len(parts)
                    radial = (2.0**ell / theta[0] ** (ell + 1) * b**v / math.factorial(v)
                              * radial_moment(ell + 0.5 * alpha * v, b, alpha))
                    total += own * weight * radial
    return total


@pytest.mark.parametrize("n_t,n_r", [(1, 1), (1, 5), (2, 4), (2, 8), (3, 7), (4, 8), (6, 3)])
def test_law_matches_partition_sum(n_t, n_r):
    for alpha, sigma2 in ((4.0, 0.0), (3.1, 0.0), (4.0, 0.6), (2.5, 0.3)):
        config = _config(n_t, n_r, alpha=alpha, sigma2=sigma2)
        for z in (0.05, 1.0, 40.0, 1e5):
            assert coverage_mmse(config, z) == pytest.approx(
                _partition_sum(config, z), rel=1e-13, abs=0.0
            ), (alpha, sigma2, z)


@pytest.mark.parametrize("z", [2.0**100, 1.3e30])
def test_law_with_underflowing_kernels_matches_mpmath_kernels(monkeypatch, z):
    # Theta_15(16, 3, z) is below the smallest float64 here, but its term
    # Theta_15 z^15 is of the order of the coverage.
    config = _config(16, 16, alpha=3.0)
    got = coverage_mmse(config, z)
    calls = []

    def mp_log_kernel_table(n_t, alpha, x, orders, step):
        calls.append(x.size)
        with mp.workdps(40):
            rows = []
            for j in range(orders + 1):
                b = j - 2.0 / alpha
                rows.append([float(mp.log(mp.hyp2f1(n_t + step * j, b, b + 1, -mp.mpf(v))))
                             for v in x])
            return np.array(rows)

    monkeypatch.setattr(specfun, "_log_kernel_table", mp_log_kernel_table)
    assert got == pytest.approx(coverage_mmse(config, z), rel=1e-10, abs=0.0)
    assert calls == [1]  # the law read the mpmath table, not its own


def test_noise_hurts_and_density_helps():
    def cov(sigma2, lam=1.0):
        return coverage_mmse(_config(2, 4, sigma2=sigma2, lam=lam), 1.0)

    assert cov(0.0) > cov(0.3) > cov(1.0)
    assert cov(0.3, lam=4.0) > cov(0.3, lam=1.0)


def test_zero_noise_density_invariance():
    values = [
        coverage_mmse(_config(2, 4, lam=lam), 1.7)
        for lam in (1e-300, 0.2, 1.0, 6.0, 1e300)
    ]
    assert max(values) - min(values) < 1e-8


def test_request_validation():
    for z in (-0.5, math.nan, math.inf):
        with pytest.raises(ConfigError):
            coverage_mmse(_config(2, 4), z)
        with pytest.raises(ConfigError):  # anywhere in an array
            coverage_mmse(_config(2, 4), np.array([[z, 1.0], [0.0, 2.0]]))


@pytest.mark.parametrize("n_t,n_r,sigma2", [(2, 4, 0.0), (2, 4, 1.0), (4, 16, 0.0), (1, 8, 0.5)])
def test_array_thresholds_equal_scalar_calls(n_t, n_r, sigma2):
    config = _config(n_t, n_r, sigma2=sigma2)
    zs = np.array([[0.0, 1e-3, 0.5, 3.0], [40.0, 1e3, 0.0, 1e8]])
    want = np.array([[coverage_mmse(config, z) for z in row] for row in zs])
    got = coverage_mmse(config, zs)
    assert got.shape == zs.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(coverage_mmse(config, zs.ravel()), want.ravel(),
                               rtol=1e-14, atol=0.0)
    point = coverage_mmse(config, np.array(3.0))
    assert isinstance(point, float) and point == want[0, 3]


def test_threshold_array_longer_than_one_block():
    # The laws take at most 1024 thresholds per call; longer arrays go in blocks.
    config = _config(2, 4)
    zs = np.concatenate([[0.0], 10.0 ** np.linspace(-2.0, 4.0, 1500)])
    want = np.array([coverage_mmse(config, z) for z in zs])
    np.testing.assert_allclose(coverage_mmse(config, zs), want, rtol=1e-14, atol=0.0)


def test_antenna_count_guard():
    with pytest.raises(SizeGuardError):
        coverage_mmse(_config(1, 17), 1.0)
    coverage_mmse(_config(1, 16), 1.0)  # boundary stays supported
    with pytest.raises(SizeGuardError):  # first kernel parameter n_t = 41
        coverage_mmse(_config(41, 8), 1.0)
    assert 0.0 < coverage_mmse(_config(40, 8), 1.0) < 1.0  # n_t = 40 stays supported
