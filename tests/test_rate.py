"""Ergodic rate, rate quantiles, and the transmission-scheme conventions.

The ergodic rate's fixed Gauss-Kronrod rule is checked against adaptive
scipy ``quad`` at 1e-11 relative, over the same truncated range.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from cellmimo.errors import ConfigError, NumericError
from cellmimo.geometry import NetworkConfig
from cellmimo.pzf import coverage_pzf, default_m
from cellmimo.rate import ergodic_rate, rate_profile, sinr_ccdf


def _config(n_t, n_r, alpha=4.0, sigma2=0.0, lam=1.0):
    return NetworkConfig(lam=lam, alpha=alpha, sigma2=sigma2, n_t=n_t, n_r=n_r)


def _mean_rate(config, receiver, scheme, m=None):
    return rate_profile(config, receiver, scheme, m=m, quantiles=()).mean_rate


def test_mean_rate_reference_values():
    assert _mean_rate(_config(1, 4), "mmse", "sm") == pytest.approx(4.87, abs=0.01)
    assert _mean_rate(_config(1, 4), "pzf", "sm", m=2) == pytest.approx(4.26918, abs=1e-4)
    # Regression pins at full precision for drift detection.
    assert _mean_rate(_config(2, 4), "mmse", "sm") == pytest.approx(
        6.241264469505511, rel=1e-7
    )
    assert _mean_rate(_config(4, 4), "mmse", "sm") == pytest.approx(
        6.515701027246838, rel=1e-7
    )
    # NetworkConfig takes numpy integers, and so does the rate summary.
    assert _mean_rate(_config(np.int64(2), 4), "mmse", "sm") == pytest.approx(
        6.241264469505511, rel=1e-7
    )


def test_quantile_reference_values():
    profile = rate_profile(_config(1, 4), "mmse", "sm")
    assert profile.quantiles[0.05] == pytest.approx(1.1232536234238606, rel=1e-6)
    assert profile.quantiles[0.8] == pytest.approx(7.115094562212235, rel=1e-6)
    assert profile.mean_rate == pytest.approx(4.865878385240726, rel=1e-7)
    assert (profile.scheme, profile.receiver, profile.m) == ("sm", "mmse", None)


def test_sst_equals_sm_for_single_stream():
    for receiver, m in (("mmse", None), ("pzf", 2)):
        sm = rate_profile(_config(1, 4), receiver, "sm", m=m)
        sst = rate_profile(_config(1, 4), receiver, "sst", m=m)
        assert sm.mean_rate == pytest.approx(sst.mean_rate, rel=1e-9)
        assert sm.quantiles[0.05] == pytest.approx(sst.quantiles[0.05], rel=1e-9)
        assert sm.quantiles[0.8] == pytest.approx(sst.quantiles[0.8], rel=1e-9)


def test_sst_rate_ignores_stream_count():
    # Single-stream transmission shares one stream by time division, so the
    # number of transmit antennas never enters its SINR law.
    assert _mean_rate(_config(4, 4), "mmse", "sst") == pytest.approx(
        _mean_rate(_config(1, 4), "mmse", "sst"), rel=1e-10
    )


def test_sm_beats_sst_in_mean_for_reference_cell():
    assert _mean_rate(_config(2, 4), "mmse", "sm") > _mean_rate(_config(2, 4), "mmse", "sst")


def test_quantile_conventions_scale_consistently():
    # Per scheme, the two conventions differ by the factor n_t = 2.
    for scheme in ("sm", "sst"):
        calibrated, per_stream = (
            rate_profile(_config(2, 4), "mmse", scheme, quantiles=(0.05,),
                         convention=convention).quantiles[0.05]
            for convention in ("calibrated", "per-stream")
        )
        assert calibrated == pytest.approx(2.0 * per_stream, rel=1e-12)


def test_quantile_is_coverage_inverse():
    ccdf = sinr_ccdf(_config(1, 4), "mmse")
    q = 0.37
    value = rate_profile(_config(1, 4), "mmse", "sst", quantiles=(q,)).quantiles[q]
    z_at_quantile = 2.0**value - 1.0
    assert ccdf(z_at_quantile) == pytest.approx(1.0 - q, abs=1e-10)


def test_quantile_bracket_widens_past_the_rate_cut():
    # The CCDF level 1e-9 lies below the rate integral's 1e-8 cut, so no
    # value the integral computed brackets the quantile.
    ccdf = sinr_ccdf(_config(1, 4), "mmse")
    q = 1.0 - 1e-9
    value = rate_profile(_config(1, 4), "mmse", "sst", quantiles=(q,)).quantiles[q]
    assert ccdf(2.0**value - 1.0) == pytest.approx(1.0 - q, rel=1e-10, abs=0.0)


def test_quantiles_increase_with_level():
    levels = [0.05, 0.3, 0.6, 0.9]
    profile = rate_profile(_config(1, 4), "mmse", "sst", quantiles=levels)
    values = [profile.quantiles[q] for q in levels]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_ergodic_rate_exponential_oracle():
    # For CCDF exp(-z), E[log2(1+Z)] = e * E1(1) / ln 2 (exponential integral).
    from scipy.special import exp1

    got = ergodic_rate(lambda z: np.exp(-z))
    assert got == pytest.approx(math.e * exp1(1.0) / math.log(2.0), rel=1e-8)


def test_ergodic_rate_rejects_slow_decay():
    with pytest.raises(NumericError):
        ergodic_rate(lambda z: np.ones_like(z))


def _quad_rate(ccdf):
    """Adaptive quad over t = log2(1 + z) up to the first power of two
    where the CCDF is below 1e-8, the cut the rule makes too."""
    t_hi = 1.0
    while ccdf(2.0**t_hi - 1.0) >= 1e-8:
        t_hi *= 2.0
    val, err = integrate.quad(
        lambda t: ccdf(2.0**t - 1.0), 0.0, t_hi, epsabs=0.0, epsrel=1e-11, limit=500
    )
    assert err <= 1e-11 * val
    return val


@pytest.mark.parametrize("scheme,n_t,n_r,receiver,m,alpha,sigma2", [
    ("sst", 1, 4, "pzf", 2, 3.0, 0.0),
    ("sst", 1, 8, "pzf", 4, 3.0, 0.0),
    ("sst", 1, 12, "pzf", 2, 3.0, 0.0),
    ("sst", 1, 4, "mmse", None, 3.0, 0.0),
    ("sm", 2, 4, "mmse", None, 3.0, 0.0),
    ("sm", 4, 16, "mmse", None, 3.0, 0.0),
    ("sm", 2, 4, "pzf", 1, 4.0, 1.0),
    ("sm", 2, 4, "mmse", None, 4.0, 1.0),
])
def test_ergodic_rate_matches_adaptive_quad(scheme, n_t, n_r, receiver, m, alpha, sigma2):
    # Every sst case has n_t = 1, so both schemes' streams see config's law.
    config = _config(n_t, n_r, alpha=alpha, sigma2=sigma2)
    streams = n_t if scheme == "sm" else 1
    quad_rate = streams * _quad_rate(sinr_ccdf(config, receiver, m=m))
    mean = _mean_rate(config, receiver, scheme, m=m)
    assert mean == pytest.approx(quad_rate, rel=1e-9, abs=0.0)


def test_ergodic_rate_raises_at_the_bisection_cap():
    # No panel that holds the jump ever meets the G7/K15 bound.
    with pytest.raises(NumericError, match="bisections"):
        ergodic_rate(lambda z: np.where(z < 10.0, 1.0, 0.0))


def test_ergodic_rate_coverage_calls():
    # 7 panels of 15 nodes plus a CCDF check at each panel end; adaptive
    # quad with the t-cut doubling took 193 points.  Each panel's nodes and
    # its end are one call.
    ccdf = sinr_ccdf(_config(1, 4), "pzf", m=2)
    calls = []
    ergodic_rate(lambda z: calls.append(z.size) or ccdf(z))
    assert sum(calls) <= 120
    assert len(calls) == 7


@pytest.mark.parametrize("n_r,m", [(10, 1), (12, 3)])
def test_pzf_rate_with_far_tail_is_warning_free(n_r, m):
    # The cut reaches t = 128, where higher-order kernels are far below
    # the smallest float64; the suite turns any RuntimeWarning into an error.
    config = _config(1, n_r, alpha=5.0)
    rate = ergodic_rate(sinr_ccdf(config, "pzf", m=m))
    assert 0.0 < rate < 20.0


# The abstract's split rule against the rate-optimal split, as
# (n_t, n_r, alpha): (rule m, argmax m, rate gap in bit/s/Hz).
_SPLIT_RULE_MISSES = {
    (1, 7, 5.0): (4, 5, 1.089e-2),
    (1, 12, 5.0): (7, 8, 3.772e-3),
    (2, 11, 5.0): (3, 4, 2.834e-4),
    (3, 11, 3.0): (2, 1, 4.370e-3),
}


@pytest.mark.slow
def test_abstract_split_rule_matches_the_rate_argmax():
    # ceil((1 - 2/alpha)(n_r/n_t - 1/2)), clipped to the delta >= 1 orders,
    # is the per-stream ergodic-rate argmax on 77 of these 81 cells.
    misses = {}
    for n_t in (1, 2, 3):
        for n_r in range(4, 13):
            for alpha in (3.0, 4.0, 5.0):
                config = _config(n_t, n_r, alpha=alpha)
                m_max = (n_r - 1) // n_t
                rule = min(max(math.ceil((1.0 - 2.0 / alpha) * (n_r / n_t - 0.5)), 1), m_max)
                rates = {m: ergodic_rate(lambda z, m=m: coverage_pzf(config, z, m))
                         for m in range(1, m_max + 1)}
                best = max(rates, key=rates.get)
                if best != rule:
                    misses[n_t, n_r, alpha] = (rule, best, rates[best] - rates[rule])
    assert misses.keys() == _SPLIT_RULE_MISSES.keys(), misses
    for cell, (rule, best, gap) in misses.items():
        expected = _SPLIT_RULE_MISSES[cell]
        assert (rule, best) == expected[:2], (cell, misses[cell])
        assert gap == pytest.approx(expected[2], rel=0.01), (cell, misses[cell])


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
    config = _config(1, 2)
    with pytest.raises(ConfigError):
        rate_profile(config, "mmse", "tdma")
    with pytest.raises(ConfigError):
        rate_profile(config, "mmse", "sm", quantiles=(0.0,))
    with pytest.raises(ConfigError):
        rate_profile(config, "mmse", "sm", convention="median")


def test_mean_sum_rate_scheme_validation():
    with pytest.raises(ConfigError):
        rate_profile(_config(1, 4), "mmse", "fdma", quantiles=())
