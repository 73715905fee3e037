"""Acceptance suite: one test per numbered acceptance criterion.

Each test checks the package against fixed reference values or against an
independent computation route, at the tolerance stated in the test body.
Monte Carlo checks run with fixed seeds so the suite is deterministic;
wall-clock guards keep the expensive tests inside their time budgets.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from cellmimo.geometry import NetworkConfig
from cellmimo.mmse import coverage_mmse
from cellmimo.montecarlo import estimate_coverage, pzf_filter, simulate_sinr
from cellmimo.pzf import (
    argmin_mean_inverse_sinr,
    coverage_pzf,
    mean_inverse_sinr,
    optimal_m,
)
from cellmimo.rate import mean_sum_rate, rate_quantile, sinr_ccdf
from test_montecarlo import _manual_realization


def _config(n_t, n_r, alpha=4.0, sigma2=0.0, lam=1.0):
    return NetworkConfig(lam=lam, alpha=alpha, sigma2=sigma2, n_t=n_t, n_r=n_r)


# ----------------------------------------------------------------------
# Criterion 1: single-antenna anchor with a closed form.

def test_criterion_01_single_antenna_coverage_anchor():
    t0 = time.perf_counter()
    value = coverage_pzf(_config(1, 1), 1.0, 1)
    elapsed = time.perf_counter() - t0
    assert value == pytest.approx(0.560099, abs=1e-4)
    # Same point in closed form: 1 / (1 + sqrt(z) atan(sqrt(z))) at z = 1.
    assert value == pytest.approx(1.0 / (1.0 + math.pi / 4.0), rel=1e-10)
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# Criterion 2: PZF 1x4 coverage curves for every cancellation order.

_CURVE_Z_DB = (-5.0, 0.0, 5.0, 10.0, 20.0)

_PZF_1X4_CURVES = {
    # m: coverage at the z values above (n_t = 1, n_r = 4, alpha = 4).
    1: (0.994012, 0.922262, 0.692240, 0.428511, 0.139127),
    2: (0.989629, 0.919708, 0.731667, 0.498518, 0.183623),
    3: (0.974010, 0.885501, 0.702985, 0.488252, 0.186421),
    4: (0.898226, 0.766596, 0.580215, 0.393685, 0.148359),
}


def test_criterion_02_pzf_1x4_reference_curves():
    t0 = time.perf_counter()
    for m, refs in _PZF_1X4_CURVES.items():
        for z_db, ref in zip(_CURVE_Z_DB, refs):
            z = 10.0 ** (z_db / 10.0)
            value = coverage_pzf(_config(1, 4), z, m)
            assert value == pytest.approx(ref, abs=2e-3), (m, z_db)
    assert time.perf_counter() - t0 < 30.0


# ----------------------------------------------------------------------
# Criterion 3: coverage sweep with every receive antenna cancelling
# (delta = 0, n_r = m * n_t) at z = 0 dB, alpha = 4.

_DELTA0_SWEEP = {
    # n_t: coverage for m = 1 .. 10.
    1: (0.560099, 0.667024, 0.727027, 0.766596, 0.795110,
        0.816845, 0.834070, 0.848117, 0.859827, 0.869761),
    2: (0.411845, 0.534862, 0.606318, 0.654880, 0.690808,
        0.718838, 0.741513, 0.760347, 0.776309, 0.790054),
    3: (0.336403, 0.459810, 0.533492, 0.584612, 0.623088,
        0.653554, 0.678524, 0.699507, 0.717478, 0.733102),
    4: (0.290088, 0.409949, 0.483135, 0.534701, 0.573999,
        0.605446, 0.631460, 0.653503, 0.672523, 0.689172),
}


def test_criterion_03_delta0_coverage_sweep():
    for n_t, refs in _DELTA0_SWEEP.items():
        for m, ref in enumerate(refs, start=1):
            value = coverage_pzf(_config(n_t, m * n_t), 1.0, m)
            assert value == pytest.approx(ref, abs=2e-3), (n_t, m)


# ----------------------------------------------------------------------
# Criterion 4: MMSE coverage reference points at z = 0 dB, alpha = 4.

_MMSE_ANCHORS = (
    (1, 2, 0.80649),
    (2, 2, 0.52086),
    (1, 4, 0.96255),
    (4, 4, 0.50362),
)


def test_criterion_04_mmse_reference_points():
    for n_t, n_r, ref in _MMSE_ANCHORS:
        value = coverage_mmse(_config(n_t, n_r), 1.0)
        assert value == pytest.approx(ref, abs=2e-3), (n_t, n_r)


# ----------------------------------------------------------------------
# Criterion 5: the m = 2 coverage machinery must agree with independent
# high-precision quadrature of the explicit single-integral forms below
# (transcribed literally; evaluated with mpmath, not the package kernels).

def _mp_coverage_1x2(z, alpha):
    with mp.workdps(30):
        a, zz = mp.mpf(alpha), mp.mpf(z)

        def integrand(b):
            f1 = mp.hyp2f1(1, -2 / a, 1 - 2 / a, -zz * b ** -a)
            return 2 / (b ** 3 * f1 ** 2)

        return float(mp.quad(integrand, [1, mp.inf]))


def _mp_coverage_1x3(z, alpha):
    with mp.workdps(30):
        a, zz = mp.mpf(alpha), mp.mpf(z)
        g = mp.gamma(1 - 2 / a) ** 2 / (mp.gamma(2 - 2 / a) * mp.gamma(-2 / a))

        def integrand(b):
            f1 = mp.hyp2f1(1, -2 / a, 1 - 2 / a, -zz * b ** -a)
            f2 = mp.hyp2f1(2, 1 - 2 / a, 2 - 2 / a, -zz * b ** -a)
            return 2 / (b ** 3 * f1 ** 2) - 4 * zz * b ** (-a - 3) * g * f2 / f1 ** 3

        return float(mp.quad(integrand, [1, mp.inf]))


def _mp_coverage_2x4(z, alpha):
    with mp.workdps(30):
        a, zz = mp.mpf(alpha), mp.mpf(z)

        def integrand(b):
            f1 = mp.hyp2f1(2, -2 / a, 1 - 2 / a, -zz * b ** -a)
            return 2 / (b ** 3 * f1 ** 2)

        return float(mp.quad(integrand, [1, mp.inf]))


def _mp_coverage_2x5(z, alpha):
    with mp.workdps(30):
        a, zz = mp.mpf(alpha), mp.mpf(z)
        g = mp.gamma(1 - 2 / a) ** 2 / (mp.gamma(2 - 2 / a) * mp.gamma(-2 / a))

        def integrand(b):
            f1 = mp.hyp2f1(2, -2 / a, 1 - 2 / a, -zz * b ** -a)
            f2 = mp.hyp2f1(3, 1 - 2 / a, 2 - 2 / a, -zz * b ** -a)
            return 2 / (b ** 3 * f1 ** 2) - 8 * zz * b ** (-a - 3) * g * f2 / f1 ** 3

        return float(mp.quad(integrand, [1, mp.inf]))


_QUAD_CASES = (
    (1, 2, _mp_coverage_1x2),
    (1, 3, _mp_coverage_1x3),
    (2, 4, _mp_coverage_2x4),
    (2, 5, _mp_coverage_2x5),
)


def test_criterion_05_quadrature_equivalence_for_m2():
    for n_t, n_r, reference in _QUAD_CASES:
        for z in (0.1, 1.0, 10.0):
            ref = reference(z, 4.0)
            value = coverage_pzf(_config(n_t, n_r), z, 2)
            assert value == pytest.approx(ref, abs=1e-8), (n_t, n_r, z)


# ----------------------------------------------------------------------
# Criterion 6: the closed-form optimal-split rule must equal the
# exhaustive argmin of the exact mean inverse SINR (the largest minimizer
# where two tie) on the full grid (n_t, n_r, alpha) in
# {1,2,3} x {4..12} x {3,4,5}, plus named anchors.  At 2x10 the exact
# objective gives m = 2 (E[1/SINR] = 2/9) over m = 3 (1/4); a fading
# Monte Carlo of 40,960 trials (seed 7) agrees: 0.2230 +/- 0.0019 and
# 0.2525 +/- 0.0028.

def test_criterion_06_optimal_split_rule_matches_exhaustive_argmin():
    assert optimal_m(_config(1, 10)) == 5
    assert optimal_m(_config(2, 10)) == 2
    assert optimal_m(_config(1, 4)) == 2

    mismatches = []
    for alpha in (3.0, 4.0, 5.0):
        for n_t in (1, 2, 3):
            for n_r in range(4, 13):
                if (n_r - 1) // n_t < 1:
                    continue
                config = _config(n_t, n_r, alpha=alpha)
                rule = optimal_m(config)
                exact = argmin_mean_inverse_sinr(config)
                if rule != exact[-1]:
                    scores = {
                        m: mean_inverse_sinr(config, m)
                        for m in sorted({rule, *exact})
                    }
                    mismatches.append((n_t, n_r, alpha, rule, exact, scores))

    detail = "\n".join(
        f"  n_t={n_t} n_r={n_r} alpha={alpha:g}: rule gives m={rule}, "
        f"exact argmin is {exact}; E[1/SINR] by m: "
        + ", ".join(f"m={m}: {v:.6f}" for m, v in scores.items())
        for n_t, n_r, alpha, rule, exact, scores in mismatches
    )
    assert not mismatches, (
        f"{len(mismatches)} grid cells where the closed-form split rule "
        "differs from the largest exhaustive argmin of the exact mean "
        "inverse SINR:\n" + detail
    )


# ----------------------------------------------------------------------
# Criterion 7: rate table reproduction (alpha = 4, sigma2 = 0).

def test_criterion_07_rate_table_reproduction():
    cov_mmse_1x4 = sinr_ccdf(_config(1, 4), "mmse")
    assert mean_sum_rate("sst", 1, 4, "mmse") == pytest.approx(4.87, abs=0.05)
    assert rate_quantile("sst", cov_mmse_1x4, 1, 0.05) == pytest.approx(1.149, rel=0.05)
    assert rate_quantile("sst", cov_mmse_1x4, 1, 0.80) == pytest.approx(7.19, rel=0.05)

    cov_pzf_1x4 = sinr_ccdf(_config(1, 4), "pzf", m=2)
    assert mean_sum_rate("sst", 1, 4, "pzf", m=2) == pytest.approx(4.26918, abs=0.02)
    assert rate_quantile("sst", cov_pzf_1x4, 1, 0.05) == pytest.approx(0.7899, rel=0.05)
    assert rate_quantile("sst", cov_pzf_1x4, 1, 0.80) == pytest.approx(6.3964, rel=0.05)

    cov_mmse_2x4 = sinr_ccdf(_config(2, 4), "mmse")
    q05 = rate_quantile("sm", cov_mmse_2x4, 2, 0.05)
    q80 = rate_quantile("sm", cov_mmse_2x4, 2, 0.80)
    assert q05 == pytest.approx(1.016, rel=0.05)
    assert q80 == pytest.approx(9.46, rel=0.05)
    # Reference mean 6.24, consistent with the q05 and q80 references
    # above, which the law matches to 0.1%: the law gives 6.241264, an
    # mpmath quadrature of the same CCDF over t = log2(1 + z) gives
    # 6.2412645, and a fading Monte Carlo of 1,000,448 trials (seed
    # 20261018, default 1600-station window) gives 6.2562 +/- 0.0056.
    mean_2x4 = mean_sum_rate("sm", 2, 4, "mmse")
    assert mean_2x4 == pytest.approx(6.24, abs=0.05)


# ----------------------------------------------------------------------
# Criterion 8: Monte Carlo coverage at 1e5 trials within 3 standard
# errors of the analytic value on a 12-configuration sample, both
# receivers each, total runtime under 10 minutes.
#
# The simulation window is sized per configuration.  At alpha = 4 a
# 400-station window leaves a truncation bias near 4e-4, well under one
# standard error at 1e5 trials.  The interference tail decays as
# W^(2 - alpha), so the alpha = 3.5 rows carry larger windows; at
# alpha = 3 no affordable window gets the bias below the noise floor,
# which is why the sample spans alpha in {3.5, 4, 4.5}.

_MC_CASES = (
    # n_t, n_r, alpha, noisy, lam, m, z, stations
    (1, 1, 4.0, False, 1.0, 1, 1.0, 400),
    (1, 2, 4.0, False, 1.0, 1, 1.0, 400),
    (2, 5, 4.0, False, 1.0, 2, 1.0, 400),
    (1, 4, 4.5, False, 1.0, 2, 2.0, 400),
    (2, 4, 4.0, False, 1.0, 1, 1.0, 400),
    (2, 4, 4.0, False, 4.0, 2, 0.5, 400),
    (3, 6, 4.0, False, 1.0, 2, 1.0, 400),
    (1, 4, 3.5, False, 1.0, 2, 1.0, 3200),
    (4, 4, 4.0, False, 1.0, 1, 1.0, 400),
    (1, 2, 4.0, True, 1.0, 1, 1.0, 400),
    (2, 4, 4.0, True, 1.0, 1, 2.0, 400),
    (1, 4, 3.5, True, 1.0, 3, 1.0, 1600),
)


def _analytic_coverage(config, receiver, m, z):
    if receiver == "pzf":
        return coverage_pzf(config, z, m)
    return coverage_mmse(config, z)


@pytest.mark.slow
def test_criterion_08_monte_carlo_matches_analytic():
    t0 = time.perf_counter()
    failures = []
    for idx, (n_t, n_r, alpha, noisy, lam, m, z, stations) in enumerate(_MC_CASES):
        sigma2 = 0.1 * (math.pi * lam) ** (alpha / 2.0) if noisy else 0.0
        config = _config(n_t, n_r, alpha=alpha, sigma2=sigma2, lam=lam)
        window = math.sqrt(stations / (lam * math.pi))
        samples = simulate_sinr(
            config, ("pzf", "mmse"), 100_000, 9000 + idx,
            m=m, window_radius=window,
        )
        for receiver in ("pzf", "mmse"):
            hits = samples[receiver] > z
            mc = float(np.mean(hits))
            se = float(np.std(hits, ddof=1) / math.sqrt(hits.size))
            exact = _analytic_coverage(config, receiver, m, z)
            if abs(mc - exact) > 3.0 * se:
                failures.append(
                    f"config {idx} ({n_t}x{n_r}, alpha={alpha:g}, "
                    f"sigma2={sigma2:g}, lam={lam:g}, m={m}, z={z:g}), "
                    f"{receiver}: mc={mc:.5f} analytic={exact:.5f} "
                    f"({(mc - exact) / se:+.2f} standard errors)"
                )
    elapsed = time.perf_counter() - t0
    assert not failures, "Monte Carlo vs analytic:\n" + "\n".join(failures)
    assert elapsed < 600.0


# ----------------------------------------------------------------------
# Criterion 9: distributional and invariance properties.

def test_criterion_09_distribution_and_invariance_properties():
    # Post-filter signal gain is Gamma(delta + 1, 1) (chi-square with
    # 2(delta + 1) degrees of freedom over 2).
    rng = np.random.default_rng(2024)
    n_t, m, delta = 2, 2, 2
    gains = np.empty(10_000)
    for i in range(gains.size):
        real = _manual_realization(rng, [0.7, 1.2, 1.9], n_r=m * n_t + delta, n_t=n_t)
        v = pzf_filter(real, m)
        gains[i] = abs(np.vdot(v, real.channels[0][:, 0])) ** 2
    assert stats.kstest(gains, stats.gamma(a=delta + 1).cdf).pvalue > 0.01

    # Leakage from an uncancelled interferer stream is Exp(1).
    gains = np.empty(10_000)
    for i in range(gains.size):
        real = _manual_realization(rng, [0.7, 1.2, 1.9], n_r=4, n_t=1)
        v = pzf_filter(real, 2)
        gains[i] = abs(np.vdot(v, real.channels[2][:, 0])) ** 2
    assert stats.kstest(gains, stats.expon.cdf).pvalue > 0.01

    # Scale invariance at sigma2 = 0: the noise-capable analytic route
    # must not depend on the station density.
    base_pzf = coverage_pzf(_config(1, 4), 1.0, 2)
    base_mmse = coverage_mmse(_config(1, 4), 1.0)
    for lam in (0.5, 4.0):
        scaled = _config(1, 4, lam=lam)
        p = coverage_pzf(scaled, 1.0, 2)
        assert abs(p - base_pzf) < 1e-8
        q = coverage_mmse(scaled, 1.0)
        assert abs(q - base_mmse) < 1e-8

    # Scale invariance of the simulator, window scaled with density.
    a = estimate_coverage(
        _config(2, 4, lam=1.0), "pzf", 1.0, 20_000, 101,
        m=1, window_radius=math.sqrt(400.0 / math.pi),
    )
    b = estimate_coverage(
        _config(2, 4, lam=4.0), "pzf", 1.0, 20_000, 202,
        m=1, window_radius=math.sqrt(100.0 / math.pi),
    )
    assert abs(a.mean - b.mean) <= 3.0 * math.hypot(a.std_error, b.std_error)

    # MMSE dominates PZF on every matched realization: the MMSE filter
    # maximizes SINR over all linear filters, PZF is one such filter.
    samples = simulate_sinr(
        _config(2, 4), ("pzf", "mmse"), 10_000, 404,
        m=1, window_radius=math.sqrt(400.0 / math.pi),
    )
    violations = int(np.sum(samples["mmse"] < samples["pzf"] * (1.0 - 1e-6)))
    assert violations == 0
