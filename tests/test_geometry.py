"""Distance laws of the Poisson network seen from the typical user.

The program uses these laws without spelling them out: the Monte Carlo
engine draws ordered station distances, the PZF coverage law averages over
the distance ratio, and the PZF mean inverse SINR takes a moment of the
serving distance.  The closed-form densities below are test oracles, and
each test ties one of them to the code path that relies on it.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special, stats

from cellmimo.errors import ConfigError
from cellmimo.geometry import NetworkConfig
from cellmimo.montecarlo import _chunk_geometry, simulate_sinr
from cellmimo.pzf import _conditional_coverage_u, _split_delta, coverage_pzf, mean_inverse_sinr


def _pdf_serving_distance(r, lam):
    """Nearest-station distance density 2 pi lam r exp(-pi lam r^2)."""
    return 2.0 * math.pi * lam * r * math.exp(-lam * math.pi * r * r)


def _pdf_conditional_interferer(R, r, m, lam):
    """Density of the m-th nearest station distance R given the nearest at r
    (m >= 2): the annulus area pi lam (R^2 - r^2) is Gamma(m - 1)."""
    if R <= r:
        return 0.0
    area = math.pi * lam * (R * R - r * r)
    return 2.0 * math.pi * lam * R * math.exp(-area) * area ** (m - 2) / math.factorial(m - 2)


def _pdf_beta(b, m):
    """Density of beta = R_m/R_1 (m >= 2): 2 (m-1) b^(1-2m) (b^2 - 1)^(m-2), b > 1."""
    return 2.0 * (m - 1) * b ** (1 - 2 * m) * (b * b - 1.0) ** (m - 2)


def _beta_inverse_moment(m, nu):
    """E[beta^-nu] = Gamma(nu/2 + 1) Gamma(m) / Gamma(m + nu/2)."""
    return math.exp(
        special.gammaln(nu / 2.0 + 1.0) + special.gammaln(m) - special.gammaln(m + nu / 2.0)
    )


def _squared_ratio_draws(m):
    """(R_1/R_m)^2 = beta^-2 over 4096 trials of the batched engine's geometry
    (intensity 1, window radius 8, about 200 stations per trial)."""
    r2 = _chunk_geometry(np.random.default_rng(20240817), 1.0, 8.0, 4096, m)
    return r2[:, 0] / r2[:, m - 1]


def test_network_config_validation():
    NetworkConfig(lam=1.0, alpha=4.0, sigma2=0.0, n_t=2, n_r=4)  # fine
    with pytest.raises(ConfigError):
        NetworkConfig(lam=0.0, alpha=4.0, sigma2=0.0, n_t=2, n_r=4)
    with pytest.raises(ConfigError):
        NetworkConfig(lam=1.0, alpha=2.0, sigma2=0.0, n_t=2, n_r=4)
    with pytest.raises(ConfigError):
        NetworkConfig(lam=1.0, alpha=4.0, sigma2=-0.1, n_t=2, n_r=4)
    with pytest.raises(ConfigError):
        NetworkConfig(lam=1.0, alpha=4.0, sigma2=0.0, n_t=0, n_r=4)


_CONFIG_1X4 = NetworkConfig(lam=1.0, alpha=4.0, sigma2=0.0, n_t=1, n_r=4)


@pytest.mark.parametrize("call", [
    lambda: NetworkConfig(lam=1.0, alpha=4.0, sigma2=0.0, n_t=True, n_r=4),
    lambda: coverage_pzf(_CONFIG_1X4, 1.0, True),
    lambda: simulate_sinr(_CONFIG_1X4, "pzf", 128, 0, m=True),
], ids=["NetworkConfig", "coverage_pzf", "simulate_sinr"])
def test_integer_parameters_refuse_bools(call):
    """Every integer parameter follows one rule: a bool is refused, although
    Python counts it as an int."""
    with pytest.raises(ConfigError):
        call()


def test_pzf_split_for_config():
    # n_t = 2, n_r = 7: m = 3 leaves delta = 1, m = 4 would leave -1.
    assert _split_delta(2, 7, 3) == 1
    for m in (4, 0, 1.0):
        with pytest.raises(ConfigError):
            _split_delta(2, 7, m)


@pytest.mark.parametrize("lam", [0.25, 1.0, 3.0])
def test_serving_distance_pdf_normalizes(lam):
    total, _ = integrate.quad(lambda r: _pdf_serving_distance(r, lam), 0.0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-10)
    # Mean nearest-neighbour distance of a PPP is 1/(2 sqrt(lam)).
    mean, _ = integrate.quad(lambda r: r * _pdf_serving_distance(r, lam), 0.0, np.inf)
    assert mean == pytest.approx(0.5 / math.sqrt(lam), rel=1e-9)
    # The noise term of the PZF mean inverse SINR is n_t sigma2 E[R_1^alpha] / delta.
    noisy = NetworkConfig(lam=lam, alpha=3.0, sigma2=0.7, n_t=1, n_r=3)
    moment, _ = integrate.quad(
        lambda r: r**3.0 * _pdf_serving_distance(r, lam), 0.0, np.inf, epsrel=1e-12
    )
    noise_term = mean_inverse_sinr(noisy, 2) - mean_inverse_sinr(replace(noisy, sigma2=0.0), 2)
    assert noise_term == pytest.approx(0.7 * moment, rel=1e-9)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_conditional_interferer_pdf_normalizes(m):
    r = 0.7
    total, _ = integrate.quad(
        lambda R: _pdf_conditional_interferer(R, r, m, lam=1.3), r, np.inf
    )
    assert total == pytest.approx(1.0, abs=1e-9)
    assert _pdf_conditional_interferer(0.5 * r, r, m, lam=1.3) == 0.0
    # The engine's geometry: the annulus area out to the m-th nearest station.
    r2 = _chunk_geometry(np.random.default_rng(20240817), 1.3, 8.0, 4096, m)
    area = math.pi * 1.3 * (r2[:, m - 1] - r2[:, 0])
    assert stats.kstest(area, stats.gamma(a=m - 1).cdf).pvalue > 0.01


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_beta_pdf_normalizes_and_matches_mean(m):
    total, _ = integrate.quad(lambda b: _pdf_beta(b, m), 1.0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)
    # coverage_pzf is the mean over beta of the coverage conditioned on
    # u = 1/beta; its Gauss-Legendre rule in u must match quadrature in beta.
    config = NetworkConfig(lam=1.0, alpha=4.0, sigma2=0.0, n_t=1, n_r=m + 1)

    def conditional(b):
        return _conditional_coverage_u(1, m, 1, 4.0, 1.0, 0.0, np.array([1.0 / b]))[0]

    mean, _ = integrate.quad(
        lambda b: _pdf_beta(b, m) * conditional(b), 1.0, np.inf,
        epsabs=1e-12, epsrel=1e-10, limit=200,
    )
    assert coverage_pzf(config, 1.0, m) == pytest.approx(mean, rel=1e-8)


@pytest.mark.parametrize("m,nu", [(2, 1.0), (3, 2.0), (4, 0.5), (6, 3.3)])
def test_beta_inverse_moment_matches_quadrature(m, nu):
    moment_quad, _ = integrate.quad(
        lambda b: b ** (-nu) * _pdf_beta(b, m), 1.0, np.inf
    )
    assert _beta_inverse_moment(m, nu) == pytest.approx(moment_quad, rel=1e-8)
    # The same moment of the engine's distance ratio, within 4 standard errors.
    draws = _squared_ratio_draws(m) ** (nu / 2.0)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - _beta_inverse_moment(m, nu)) <= 4.0 * se


@pytest.mark.parametrize("m", [2, 4, 7])
def test_sample_beta_distribution(m):
    # Ordered uniform areas: (R_1/R_m)^2 ~ Beta(1, m - 1), the u^2 law that
    # coverage_pzf averages over.
    y = _squared_ratio_draws(m)
    assert np.all((y > 0.0) & (y <= 1.0))
    assert stats.kstest(y, stats.beta(1, m - 1).cdf).pvalue > 0.01
