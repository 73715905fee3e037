"""Ergodic rate, rate quantiles, and the transmission-scheme conventions."""

import math

import pytest

from cellmimo.errors import ConfigError, NumericError
from cellmimo.geometry import NetworkConfig
from cellmimo.pzf import coverage_pzf, default_m
from cellmimo.rate import (
    ergodic_rate,
    mean_sum_rate,
    rate_profile,
    rate_quantile,
    sinr_ccdf,
)


def _config(n_t, n_r, alpha=4.0, sigma2=0.0, lam=1.0):
    return NetworkConfig(lam=lam, alpha=alpha, sigma2=sigma2, n_t=n_t, n_r=n_r)


def test_mean_rate_reference_values():
    assert mean_sum_rate("sm", 1, 4, "mmse") == pytest.approx(4.87, abs=0.01)
    assert mean_sum_rate("sm", 1, 4, "pzf", m=2) == pytest.approx(4.26918, abs=1e-4)
    # Regression pins at full precision for drift detection.
    assert mean_sum_rate("sm", 2, 4, "mmse") == pytest.approx(
        6.241264469505511, rel=1e-7
    )
    assert mean_sum_rate("sm", 4, 4, "mmse") == pytest.approx(
        6.515701027246838, rel=1e-7
    )


def test_quantile_reference_values():
    profile = rate_profile("sm", 1, 4, "mmse")
    assert profile.q05 == pytest.approx(1.1232536234238606, rel=1e-6)
    assert profile.q80 == pytest.approx(7.115094562212235, rel=1e-6)
    assert profile.mean_rate == pytest.approx(4.865878385240726, rel=1e-7)
    assert (profile.scheme, profile.receiver) == ("sm", "mmse")


def test_sst_equals_sm_for_single_stream():
    for receiver, m in (("mmse", None), ("pzf", 2)):
        sm = rate_profile("sm", 1, 4, receiver, m=m)
        sst = rate_profile("sst", 1, 4, receiver, m=m)
        assert sm.mean_rate == pytest.approx(sst.mean_rate, rel=1e-9)
        assert sm.q05 == pytest.approx(sst.q05, rel=1e-9)
        assert sm.q80 == pytest.approx(sst.q80, rel=1e-9)


def test_sst_rate_ignores_stream_count():
    # Single-stream transmission shares one stream by time division, so the
    # number of transmit antennas never enters its SINR law.
    assert mean_sum_rate("sst", 4, 4, "mmse") == pytest.approx(
        mean_sum_rate("sst", 1, 4, "mmse"), rel=1e-10
    )


def test_sm_beats_sst_in_mean_for_reference_cell():
    assert mean_sum_rate("sm", 2, 4, "mmse") > mean_sum_rate("sst", 2, 4, "mmse")


def test_quantile_conventions_scale_consistently():
    ccdf = sinr_ccdf(_config(2, 4), "mmse")
    calibrated = rate_quantile("sm", ccdf, 2, 0.05, convention="calibrated")
    per_stream = rate_quantile("sm", ccdf, 2, 0.05, convention="per-stream")
    assert calibrated == pytest.approx(2.0 * per_stream, rel=1e-12)
    sst_cal = rate_quantile("sst", ccdf, 2, 0.05, convention="calibrated")
    sst_ps = rate_quantile("sst", ccdf, 2, 0.05, convention="per-stream")
    assert sst_cal == pytest.approx(2.0 * sst_ps, rel=1e-12)


def test_quantile_is_coverage_inverse():
    ccdf = sinr_ccdf(_config(1, 4), "mmse")
    q = 0.37
    value = rate_quantile("sst", ccdf, 1, q)
    z_at_quantile = 2.0**value - 1.0
    assert ccdf(z_at_quantile) == pytest.approx(1.0 - q, abs=1e-10)


def test_quantiles_increase_with_level():
    ccdf = sinr_ccdf(_config(1, 4), "mmse")
    levels = [0.05, 0.3, 0.6, 0.9]
    values = [rate_quantile("sst", ccdf, 1, q) for q in levels]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_ergodic_rate_exponential_oracle():
    # For CCDF exp(-z), E[log2(1+Z)] = e * E1(1) / ln 2 (exponential integral).
    from scipy.special import exp1

    got = ergodic_rate(lambda z: math.exp(-z))
    assert got == pytest.approx(math.e * exp1(1.0) / math.log(2.0), rel=1e-8)


def test_ergodic_rate_rejects_slow_decay():
    with pytest.raises(NumericError):
        ergodic_rate(lambda z: 1.0)


def test_default_split_rule():
    assert default_m(_config(1, 4)) == 2
    assert default_m(_config(1, 10)) == 5
    assert default_m(_config(2, 4)) == 1
    # No feasible split with surplus: fall back to full-dimension nulling.
    assert default_m(_config(4, 4)) == 1
    with pytest.raises(ConfigError):
        default_m(_config(4, 2))


def test_sinr_ccdf_validation_and_dispatch():
    with pytest.raises(ConfigError):
        sinr_ccdf(_config(2, 4), "mrc")
    with pytest.raises(ConfigError):
        sinr_ccdf(_config(2, 4), "mmse", m=1)
    with pytest.raises(ConfigError):
        sinr_ccdf(_config(2, 4), "pzf", m=3)  # infeasible: fails before any call

    ccdf = sinr_ccdf(_config(2, 4), "pzf", m=1)
    assert ccdf(1.0) == pytest.approx(coverage_pzf(_config(2, 4), 1.0, 1), rel=1e-12)


def test_rate_quantile_validation():
    ccdf = sinr_ccdf(_config(1, 2), "mmse")
    with pytest.raises(ConfigError):
        rate_quantile("tdma", ccdf, 1, 0.05)
    with pytest.raises(ConfigError):
        rate_quantile("sm", ccdf, 1, 0.0)
    with pytest.raises(ConfigError):
        rate_quantile("sm", ccdf, 1, 0.05, convention="median")
    with pytest.raises(ConfigError):
        rate_quantile("sm", ccdf, 0, 0.05)


def test_mean_sum_rate_scheme_validation():
    with pytest.raises(ConfigError):
        mean_sum_rate("fdma", 1, 4, "mmse")
