"""Ergodic rate, rate quantiles, and the transmission-scheme conventions.

Every mean, one integral over the kernel argument, is checked against
adaptive scipy ``quad`` of the coverage law over log z, untruncated, at
1e-10 relative: MMSE and PZF at every m, with and without noise, down to
the noise-dominated corners and up to alpha 20.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from cellmimo import mmse, pzf, rate
from cellmimo.errors import ConfigError, NumericError
from cellmimo.geometry import NetworkConfig, _noise_scale
from cellmimo.mmse import coverage_mmse
from cellmimo.pzf import coverage_pzf, default_m
from cellmimo.rate import rate_profile, sinr_ccdf


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
    assert profile.mean_rate == pytest.approx(4.86587838695147, rel=1e-7)
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
    # The CCDF level 1e-9 lies in the law's far tail, near the top of the
    # mean's panels.
    ccdf = sinr_ccdf(_config(1, 4), "mmse")
    q = 1.0 - 1e-9
    value = rate_profile(_config(1, 4), "mmse", "sst", quantiles=(q,)).quantiles[q]
    assert ccdf(2.0**value - 1.0) == pytest.approx(1.0 - q, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("receiver,m,sigma2", [
    ("pzf", 2, 0.0), ("pzf", 2, 1.0), ("mmse", None, 0.0), ("mmse", None, 1.0),
])
def test_quantile_polish_calls_the_law_once_per_new_threshold(monkeypatch, receiver, m, sigma2):
    """Every law call of a profile is the mean's, or a read above the
    mean's panels, where the PZF m = 2 CCDF reaches the far-tail level
    1e-9 (it falls like z^(-1/2) at alpha 4): the interpolant checks its
    panels against each other and calls the law only to halve one, which
    none of these needs.  No call of the mean repeats an argument any
    earlier call evaluated, and no call asks for x = 0."""
    module = pzf if receiver == "pzf" else mmse
    law = module._conditional_law
    calls = []

    def counted(n_t, alpha, x, *rest):
        calls.append(x.copy())
        return law(n_t, alpha, x, *rest)

    built = []
    interpolant = rate._interpolant

    def counted_build(law, a, lo, hi, values, at_top):
        built.append((len(calls), a * hi.max()))
        return interpolant(law, a, lo, hi, values, at_top)

    monkeypatch.setattr(module, "_conditional_law", counted)
    monkeypatch.setattr(rate, "_interpolant", counted_build)
    rate_profile(_config(1, 4, sigma2=sigma2), receiver, "sst", m=m,
                 quantiles=(0.05, 0.5, 0.8, 1.0 - 1e-9))
    (count, top), = built
    for x in calls[count:]:
        assert (np.log(x) > top).all()
    seen = np.concatenate(calls[:count])
    assert np.unique(seen).size == seen.size
    assert (np.concatenate(calls) > 0.0).all()


@pytest.mark.parametrize("lam", [1e-200, 1e-300])
def test_quantiles_of_tiny_thresholds(lam):
    # The noise scale is 1e205 or 1e307, so the CCDF falls from 1 to 0 near
    # z = 1e-205 or 1e-307, where the mean's panels follow the noise knee,
    # and the levels are solved in log z.
    config = _config(1, 4, alpha=2.05, sigma2=1.0, lam=lam)
    value = rate_profile(config, "pzf", "sst", m=2, quantiles=(0.05,)).quantiles[0.05]
    assert value > 0.0
    z = math.expm1(value * math.log(2.0))
    assert coverage_pzf(config, z, 2) == pytest.approx(0.95, rel=1e-10, abs=0.0)


# log z of the points whose CCDF the quantile solve is handed, in place of
# the CCDF at the mean's nodes.
_SEEN = np.linspace(-5.0, 5.0, 11)


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1.0, 1e50])
def test_quantile_bracket_widens_both_ways(scale):
    # The CCDF exp(-z / scale) has its median at z = scale ln 2, below,
    # inside or above the points handed to the solve.
    def ccdf(v):
        return np.exp(-np.exp(v) / scale)

    got = rate._sinr_quantiles(ccdf, np.array([0.5]), _SEEN, ccdf(_SEEN))
    assert math.exp(got[0]) == pytest.approx(scale * math.log(2.0), rel=1e-12, abs=0.0)


def test_quantile_bracket_stops_at_its_range():
    with pytest.raises(NumericError, match="decays too slowly"):
        rate._sinr_quantiles(np.ones_like, np.array([0.5]), _SEEN, np.ones(_SEEN.size))
    with pytest.raises(NumericError, match="near z = 0"):
        rate._sinr_quantiles(np.zeros_like, np.array([0.5]), _SEEN, np.zeros(_SEEN.size))


def _cut_law(x):
    # A law with a noise-like cut-off, in t = log x: L = min(1, e^-t), times
    # e^(-1e12 (t - 2.997)^2) past t = 2.997, which underflows to 0 within
    # 3e-5 of it: between the last Kronrod node of the panel [2, 3] in t,
    # 2.9957, and its edge.
    t = np.log(np.maximum(x, 1e-300))
    with np.errstate(over="ignore"):
        return np.minimum(1.0, np.exp(-t - 1e12 * np.maximum(t - 2.997, 0.0) ** 2))


def test_interpolant_checks_the_edge_beside_a_dead_panel():
    # Panels [0, 1], ..., [3, 4] in t: the last holds zeros, and the one
    # below it, smooth at its nodes, is checked at t = 3 against the law,
    # which is 0 there; a read of its nodes alone would give e^-t up to t = 3.
    lo, hi = np.arange(4.0), np.arange(1.0, 5.0)
    values = _cut_law(np.exp(rate._kronrod_nodes(lo, hi)))
    assert (values[2] > 0.0).all() and (values[3] == 0.0).any()
    read, v_seen, seen = rate._interpolant(_cut_law, 1.0, lo, hi, values, 0.0)
    t = np.linspace(-1.0, 5.0, 6001)
    assert read(np.exp(t)) == pytest.approx(_cut_law(np.exp(t)), rel=1e-12, abs=0.0)
    # Levels whose thresholds lie next to the cut-off, solved on the read.
    targets = np.exp(-np.array([2.99, 2.9969, 2.9985]))
    got = rate._sinr_quantiles(lambda v: read(np.exp(v)), 1.0 - targets, v_seen, seen)
    expected = [optimize.brentq(lambda v: math.log(_cut_law(np.exp(v))) - math.log(c),
                                2.9, 2.99702, xtol=1e-15, rtol=1e-15) for c in targets]
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


# The quantile grid, fixed in advance: every receiver and split below, with
# and without noise, at three path-loss exponents and four levels.
_QUANTILE_LEVELS = (0.05, 0.5, 0.8, 1.0 - 1e-9)
_QUANTILE_SHAPES = [("pzf", 4, 1), ("pzf", 4, 2), ("pzf", 4, 3), ("pzf", 16, 8), ("mmse", 4, None)]


@pytest.mark.parametrize("receiver,n_r,m", _QUANTILE_SHAPES)
@pytest.mark.parametrize("sigma2", [0.0, 1.0])
@pytest.mark.parametrize("alpha", [2.05, 4.0, 8.0])
def test_quantiles_match_brentq_on_the_direct_law(receiver, n_r, m, sigma2, alpha):
    # The profile reads its levels from the interpolant of the law; here
    # brentq inverts coverage_pzf or coverage_mmse itself, in log z.
    config = _config(1, n_r, alpha=alpha, sigma2=sigma2)
    profile = rate_profile(config, receiver, "sst", m=m, quantiles=_QUANTILE_LEVELS)
    for q in _QUANTILE_LEVELS:
        def shifted(v):
            z = math.exp(v)
            ccdf = coverage_mmse(config, z) if m is None else coverage_pzf(config, z, m)
            return ccdf - (1.0 - q)

        lo, hi = -5.0, 5.0
        while shifted(hi) > 0.0:
            hi += 5.0
        while shifted(lo) <= 0.0:
            lo -= 5.0
        v = optimize.brentq(shifted, lo, hi, xtol=1e-15, rtol=1e-15)
        expected = math.log1p(math.exp(v)) / math.log(2.0)
        assert profile.quantiles[q] == pytest.approx(expected, rel=1e-12, abs=0.0), q


def test_rate_oracles_read_the_direct_law(monkeypatch):
    # The mean-rate oracles integrate sinr_ccdf, which is coverage_pzf or
    # coverage_mmse itself, bit for bit; no interpolant is built for them.
    def refuse(*args):
        raise AssertionError("interpolant built")

    monkeypatch.setattr(rate, "_interpolant", refuse)
    z = np.exp(np.linspace(-10.0, 10.0, 9))
    for sigma2 in (0.0, 1.0):
        config = _config(1, 4, sigma2=sigma2)
        for m in (1, 2):
            assert np.array_equal(sinr_ccdf(config, "pzf", m=m)(z), coverage_pzf(config, z, m))
        assert np.array_equal(sinr_ccdf(config, "mmse")(z), coverage_mmse(config, z))
    config = _config(1, 4)
    assert _untruncated_quad_rate(config, "mmse", None) == pytest.approx(
        _mean_rate(config, "mmse", "sst"), rel=1e-10, abs=0.0)


def test_profile_takes_at_most_twice_the_means_law_points(monkeypatch):
    # PZF sst 1x4 m=2: the mean takes 286 law points; with the two default
    # levels the profile took 2881 when each level had its own law calls.
    law = pzf._conditional_law
    points = []

    def counted(n_t, alpha, x, *rest):
        points.append(x.size)
        return law(n_t, alpha, x, *rest)

    monkeypatch.setattr(pzf, "_conditional_law", counted)
    _mean_rate(_config(1, 4), "pzf", "sst", m=2)
    mean = sum(points)
    rate_profile(_config(1, 4), "pzf", "sst", m=2)
    assert mean == 286
    assert sum(points) - mean <= 2 * mean


def test_quantiles_increase_with_level():
    levels = [0.05, 0.3, 0.6, 0.9]
    profile = rate_profile(_config(1, 4), "mmse", "sst", quantiles=levels)
    values = [profile.quantiles[q] for q in levels]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_ergodic_rate_exponential_oracle():
    # For CCDF exp(-z), E[log2(1+Z)] = e * E1(1) / ln 2 (exponential
    # integral), whatever the path-loss exponent and noise scale that place
    # the rule's panels.
    expected = math.e * special.exp1(1.0) / math.log(2.0)
    for alpha, kappa in ((2.05, 0.0), (4.0, 0.0), (4.0, 1e6), (20.0, 0.0)):
        got = rate._mean_rate(lambda x: np.exp(-x), alpha, kappa, 1)[0]
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0), (alpha, kappa)


def test_ergodic_rate_rejects_slow_decay():
    # A law that does not fall leaves out more above the top cut than the
    # mean may lose.
    with pytest.raises(NumericError, match="tail"):
        rate._mean_rate(np.ones_like, 4.0, 0.0, 1)


def _untruncated_quad_rate(config, receiver, m):
    """Per-stream mean rate in bit/s/Hz by adaptive quad of the CCDF over
    v = log z, ∫ C(e^v) expit(v) dv / ln 2, split at the noise knee
    v = -log(1 + kappa) and at z = 1, from 60 below the knee to
    v = min(60 alpha, 700).  The head left out is below e^-60 / (1 + kappa);
    the laws fall like z^(-2/alpha) or faster, so the tail is below
    C(e^top) alpha / 2, and C(e^top) is at most about e^-70 here."""
    ccdf = sinr_ccdf(config, receiver, m=m)
    knee = -math.log1p(_noise_scale(config))
    top = min(60.0 * config.alpha, 700.0)
    total, error = 0.0, 0.0
    for lo, hi in ((knee - 60.0, knee), (knee, 0.0), (0.0, top)):
        if hi > lo:
            val, err = integrate.quad(lambda v: ccdf(math.exp(v)) * special.expit(v), lo, hi,
                                      epsabs=0.0, epsrel=1e-12, limit=2000)
            total, error = total + val, error + err
    assert error <= 1e-11 * total
    return total / math.log(2.0)


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
    expected = streams * _untruncated_quad_rate(config, receiver, m)
    mean = _mean_rate(config, receiver, scheme, m=m)
    assert mean == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n_t,n_r,receiver,m,alpha,sigma2,lam", [
    (1, 4, "mmse", None, 4.0, 0.0, 1.0),
    (4, 16, "mmse", None, 8.0, 1.0, 1.0),
    (1, 16, "pzf", 8, 2.05, 0.0, 1.0),
    # Noise-dominated: the noise knee lies near z = 1e-40 or 1e-307, far
    # below the interference knee z = 1.
    (1, 4, "mmse", None, 2.05, 1.0, 1e-40),
    (1, 4, "pzf", 1, 2.05, 1.0, 1e-40),
    pytest.param(1, 4, "pzf", 2, 2.05, 1.0, 1e-40, marks=pytest.mark.slow),
    pytest.param(1, 4, "pzf", 2, 2.05, 1.0, 1e-300, marks=pytest.mark.slow),
    # A law that falls like z^-0.1 only.
    (1, 10, "mmse", None, 20.0, 0.0, 1.0),
    (1, 10, "pzf", 1, 20.0, 0.0, 1.0),
    (1, 10, "pzf", 5, 20.0, 0.0, 1.0),
    # Where the distance-ratio weight is least accurate: many nulled
    # interferers and a steep path loss.
    (1, 24, "pzf", 20, 20.0, 0.0, 1.0),
    # The top of the panels clipped to the float range, x = e^708.8.
    (1, 4, "mmse", None, 40.0, 1.0, 0.2),
    (1, 4, "pzf", 1, 40.0, 1.0, 0.2),
])
def test_mean_rate_matches_untruncated_adaptive_quad(n_t, n_r, receiver, m, alpha, sigma2, lam):
    config = _config(n_t, n_r, alpha=alpha, sigma2=sigma2, lam=lam)
    expected = _untruncated_quad_rate(config, receiver, m)
    got = _mean_rate(config, receiver, "sm", m=m) / n_t
    assert got == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_ergodic_rate_raises_at_the_bisection_cap():
    # No panel that holds the jump ever meets the G7/K15 bound.
    with pytest.raises(NumericError, match="bisections"):
        rate._mean_rate(lambda x: np.where(x < 10.0, 1.0, 0.0), 4.0, 0.0, 1)


def test_ergodic_rate_coverage_calls():
    # One law call per round of the bisection; here one round does: the
    # nodes of the 20 panels and the top end, 301 points.  The rate
    # integral over log2(1 + z) took 7 calls and 112 points here, to 1e-9
    # absolute per panel and cut where the CCDF fell below 1e-8; this one
    # is uncut and runs to 1e-11 of the mean.
    ccdf = sinr_ccdf(_config(1, 4), "pzf", m=1)
    calls = []
    mean = rate._mean_rate(lambda x: calls.append(x.size) or ccdf(x), 4.0, 0.0, 1)[0]
    assert mean > 0.0
    assert calls == [20 * 15 + 1]


@pytest.mark.parametrize("n_r,m,bound", [(4, 2, 1752), (8, 4, 2010)])
def test_pzf_mean_takes_a_tenth_of_the_law_points(monkeypatch, n_r, m, bound):
    # A tenth of the 17520 and 20100 points the rate integral over
    # log2(1 + z) took, a u-average at each of its nodes.
    law = pzf._conditional_law
    points = []

    def counted(n_t, alpha, x, *rest):
        points.append(x.size)
        return law(n_t, alpha, x, *rest)

    monkeypatch.setattr(pzf, "_conditional_law", counted)
    mean = _mean_rate(_config(1, n_r), "pzf", "sst", m=m)
    assert mean > 0.0
    assert 0 < sum(points) <= bound


@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0, 6.0, 8.0, 40.0])
def test_pzf_mean_over_the_domain(alpha):
    """Zero noise, and unit noise at intensities from 1e-300 to 1e300, over
    PZF shapes from delta = 0 to delta = 14, PZF at m = 1 and MMSE: the
    mean is finite, >= 0 and at most the zero-noise mean, or the one
    expected ConfigError, where the noise scale overflows (lam 1e-300 from
    alpha 2.5, lam 1e-40 at alpha 40).  Among them is the noise-dominated
    corner 1x4 m=2 at alpha 2.05, lam 1e-300, where kappa is 9.8e306 and
    the law turns at x ~ 1e-307; at alpha 40 the top of the panels is
    clipped to the float range."""
    for n_t, n_r, m in ((1, 4, 2), (1, 4, 4), (1, 16, 2), (1, 16, 8), (2, 4, 2), (8, 16, 2),
                        (1, 4, 1), (1, 16, 1), (1, 4, None), (1, 16, None)):
        receiver = "mmse" if m is None else "pzf"
        quiet = _mean_rate(_config(n_t, n_r, alpha=alpha), receiver, "sst", m=m)
        assert math.isfinite(quiet) and quiet > 0.0
        for lam in (1e-300, 1e-40, 1e-6, 1.0, 1e6, 1e300):
            config = _config(n_t, n_r, alpha=alpha, sigma2=1.0, lam=lam)
            if lam == 1e-300 and alpha >= 2.5 or lam == 1e-40 and alpha == 40.0:
                with pytest.raises(ConfigError, match="overflows"):
                    _mean_rate(config, receiver, "sst", m=m)
                continue
            mean = _mean_rate(config, receiver, "sst", m=m)
            assert math.isfinite(mean) and 0.0 <= mean <= quiet * (1.0 + 1e-12), (n_r, m, lam)


@pytest.mark.slow
@pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0, 8.0])
def test_pzf_mean_matches_untruncated_adaptive_quad(alpha):
    # Every feasible m, and MMSE on the same shapes, within 1e-10.
    for sigma2 in (0.0, 1.0):
        for n_t, n_r in ((1, 4), (1, 8), (2, 8)):
            for m in [None, *range(1, n_r // n_t + 1)]:
                receiver = "mmse" if m is None else "pzf"
                config = _config(n_t, n_r, alpha=alpha, sigma2=sigma2)
                expected = _untruncated_quad_rate(config, receiver, m)
                got = _mean_rate(config, receiver, "sm", m=m) / n_t
                assert got == pytest.approx(expected, rel=1e-10, abs=0.0), (sigma2, n_t, n_r, m)


@pytest.mark.parametrize("n_r,m", [(10, 1), (12, 3)])
def test_pzf_rate_with_far_tail_is_warning_free(n_r, m):
    # The top cut reaches x = e^100 (m = 1) or e^50, where higher-order
    # kernels are far below the smallest float64; the suite turns any
    # RuntimeWarning into an error.
    mean = _mean_rate(_config(1, n_r, alpha=5.0), "pzf", "sst", m=m)
    assert 0.0 < mean < 20.0


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
    # is the argmax of the per-stream mean rate of rate_profile on 77 of
    # these 81 cells.
    misses = {}
    for n_t in (1, 2, 3):
        for n_r in range(4, 13):
            for alpha in (3.0, 4.0, 5.0):
                config = _config(n_t, n_r, alpha=alpha)
                m_max = (n_r - 1) // n_t
                rule = min(max(math.ceil((1.0 - 2.0 / alpha) * (n_r / n_t - 0.5)), 1), m_max)
                rates = {m: _mean_rate(config, "pzf", "sm", m=m) / n_t for m in range(1, m_max + 1)}
                best = max(rates, key=rates.get)
                if best != rule:
                    misses[n_t, n_r, alpha] = (rule, best, rates[best] - rates[rule])
    assert misses.keys() == _SPLIT_RULE_MISSES.keys(), misses
    for cell, (rule, best, gap) in misses.items():
        expected = _SPLIT_RULE_MISSES[cell]
        assert (rule, best) == expected[:2], (cell, misses[cell])
        assert gap == pytest.approx(expected[2], rel=0.01), (cell, misses[cell])


# The abstract's other three claims, on a grid fixed in advance: n_r in
# {4, 8}, n_t = 1..n_r, alpha in {3, 4}, no noise, sm, the default m, and
# the 0.05 level.  Rows are (receiver, n_r, alpha).
_CLAIM_ROWS = [(rx, n_r, alpha) for rx in ("mmse", "pzf") for n_r in (4, 8) for alpha in (3.0, 4.0)]
# Findings, pinned by name.  (a) PZF 8x8 at alpha 4: the sum-rate
# increments up to the argmax n_t = 5 do not shrink, as the default m
# falls 4, 2, 1, 1 over n_t = 1..4.
_INCREMENT_MISSES = {("pzf", 8, 4.0): (2.223, 0.811, 1.006, 0.402)}
# (c) The PZF q05 rises at one step on two rows: (n_t, q05 at n_t - 1, at n_t).
_PZF_EDGE_RISES = {(8, 3.0): (2, 1.019, 1.060), (8, 4.0): (3, 1.593, 1.636)}
# (c) The MMSE q05 spread (max - min) / min over n_t = 1..n_r, per row.
_MMSE_EDGE_SPREAD = {(4, 3.0): 0.0914, (4, 4.0): 0.2151, (8, 3.0): 0.0464, (8, 4.0): 0.0771}


@pytest.fixture(scope="module")
def claim_rows():
    """Sum rates and q05 of each claim row, as arrays over n_t = 1..n_r."""
    rows = {}
    for receiver, n_r, alpha in _CLAIM_ROWS:
        profiles = [rate_profile(_config(n_t, n_r, alpha=alpha), receiver, "sm", quantiles=(0.05,))
                    for n_t in range(1, n_r + 1)]
        rows[receiver, n_r, alpha] = (np.array([p.mean_rate for p in profiles]),
                                      np.array([p.quantiles[0.05] for p in profiles]))
    return rows


def test_abstract_full_multiplexing_is_never_rate_optimal(claim_rows):
    # (b) Serving n_t = n_r streams never maximizes the sum rate.
    for row, (means, _) in claim_rows.items():
        assert means.argmax() + 1 < row[1], (row, means)


def test_abstract_more_streams_pay_with_diminishing_returns(claim_rows):
    # (a) Up to the argmax, each added stream raises the sum rate by less
    # than the one before; on 7 of the 8 rows.
    misses = {}
    for row, (means, _) in claim_rows.items():
        steps = np.diff(means[:means.argmax() + 1])
        assert (steps > 0.0).all(), (row, steps)
        if not (np.diff(steps) < 0.0).all():
            misses[row] = steps
    assert misses.keys() == _INCREMENT_MISSES.keys(), misses
    for row, steps in misses.items():
        assert steps == pytest.approx(_INCREMENT_MISSES[row], abs=1e-3), row


def test_abstract_mmse_cell_edge_is_flat_while_pzf_falls(claim_rows):
    # (c) The PZF q05 falls by 90 % or more from n_t = 1 to n_r, and falls
    # at every step but two; the MMSE q05 moves by at most 21.5 % of its
    # smallest value.
    for (receiver, n_r, alpha), (_, edge) in claim_rows.items():
        if receiver == "pzf":
            assert edge[-1] <= 0.1 * edge[0], (n_r, alpha, edge)
            rises = [(i + 2, edge[i], edge[i + 1]) for i in np.flatnonzero(np.diff(edge) >= 0.0)]
            pinned = _PZF_EDGE_RISES.get((n_r, alpha))
            assert len(rises) == (pinned is not None), (n_r, alpha, rises)
            if pinned:
                assert rises[0][0] == pinned[0]
                assert rises[0][1:] == pytest.approx(pinned[1:], abs=1e-3), (n_r, alpha)
        else:
            spread = (edge.max() - edge.min()) / edge.min()
            assert spread == pytest.approx(_MMSE_EDGE_SPREAD[n_r, alpha], abs=1e-4), (n_r, alpha)


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
    # 1 - q rounds to 1 at and below 2^-54, so no CCDF value can cross it.
    for q in (1e-300, 1e-17, 2.0**-54):
        with pytest.raises(ConfigError, match="2\\^-54"):
            rate_profile(config, "mmse", "sm", quantiles=(q,))
    assert rate_profile(config, "mmse", "sm", quantiles=(1e-16,)).quantiles[1e-16] > 0.0
    with pytest.raises(ConfigError):
        rate_profile(config, "mmse", "sm", convention="median")


def test_mean_sum_rate_scheme_validation():
    with pytest.raises(ConfigError):
        rate_profile(_config(1, 4), "mmse", "fdma", quantiles=())
