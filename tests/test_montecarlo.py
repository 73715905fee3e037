"""Simulator checks: reference ops, the batched engine, and reproducibility.

The load-bearing test is the identical-draws equivalence: the batched
engine's chunk internals are replayed through the single-realization
reference ops, so any disagreement between the two code paths (indexing,
weighting, cancellation bookkeeping) shows up as a numeric mismatch rather
than a statistical one.
"""

import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from cellmimo.errors import ConditioningError, ConfigError, NumericError
from cellmimo.geometry import NetworkConfig
from cellmimo.montecarlo import (
    CHUNK_TRIALS,
    McEstimate,
    NetworkRealization,
    _chunk_geometry,
    _draw_channels,
    _simulate_chunk,
    default_window_radius,
    estimate_coverage,
    estimate_coverage_curve,
    estimate_rate,
    mmse_sinr,
    pzf_filter,
    pzf_sinr,
    sample_network,
    simulate_sinr,
)
from cellmimo.mmse import coverage_mmse
from cellmimo.pzf import coverage_pzf
from cellmimo.rate import mean_sum_rate


def _config(n_t, n_r, alpha=4.0, sigma2=0.0, lam=1.0):
    return NetworkConfig(lam=lam, alpha=alpha, sigma2=sigma2, n_t=n_t, n_r=n_r)


def _manual_realization(rng, radii, n_r, n_t, window_radius=50.0):
    """Realization with prescribed station distances and fresh channels."""
    radii = np.asarray(radii, dtype=float)
    raw = rng.standard_normal((radii.size, n_r, n_t, 2))
    channels = (raw[..., 0] + 1j * raw[..., 1]) / math.sqrt(2.0)
    positions = np.column_stack((radii, np.zeros_like(radii)))
    return NetworkRealization(
        positions=positions, channels=channels,
        window_radius=window_radius, lam=1.0,
    )


# ----------------------------------------------------------------------
# Reference operations

def test_default_window_radius():
    assert default_window_radius(1.0) == pytest.approx(40.0 / math.sqrt(math.pi))
    # ~1600 stations expected regardless of intensity.
    for lam in (0.3, 1.0, 5.0):
        w = default_window_radius(lam)
        assert lam * math.pi * w * w == pytest.approx(1600.0, rel=1e-12)
    with pytest.raises(ConfigError):
        default_window_radius(0.0)


# The README's window-truncation bias of 1x1 coverage at the default window:
# alpha -> (bias at 0 dB, bias at 10 dB), as printed there.
_WINDOW_BIAS_README = {
    4.0: ("2.2e-4", "1.0e-4"),
    3.5: ("1.15e-3", "4.2e-4"),
    3.0: ("5.9e-3", "1.6e-3"),
}


def _windowed_bias_1x1(alpha, z, radius, lam=1.0):
    """Exact 1x1 coverage with stations only inside ``radius``, minus the
    plane law 1 / F(1, -2/alpha; 1 - 2/alpha; -z).

    Given the serving distance r, the windowed law is exp(-I_R(r)), with
    I_R(r) = 2 pi lam int_r^R x / (1 + x^alpha / (z r^alpha)) dx over the
    annulus, and the plane law is exp(-I_inf(r)); the integrand below is
    their difference, exp(-I_inf) (exp(I_inf - I_R) - 1), so no digits
    cancel.
    """
    lam0 = float(mp.hyp2f1(1, -2.0 / alpha, 1.0 - 2.0 / alpha, -z))

    def beyond_window(r):
        s = z * r**alpha
        val, _ = integrate.quad(
            lambda x: x / (1.0 + x**alpha / s), radius, math.inf,
            epsabs=0.0, epsrel=1e-12, limit=200,
        )
        return 2.0 * math.pi * lam * val

    def integrand(r):
        serving = 2.0 * math.pi * lam * r * math.exp(-lam * math.pi * r * r * lam0)
        return serving * math.expm1(beyond_window(r))

    # Serving distances beyond sqrt(80 / (pi lam)) carry less than exp(-80).
    r_max = min(radius, math.sqrt(80.0 / (math.pi * lam)))
    val, _ = integrate.quad(integrand, 0.0, r_max, epsabs=0.0, epsrel=1e-10, limit=200)
    return val


@pytest.mark.parametrize("alpha", sorted(_WINDOW_BIAS_README))
def test_default_window_bias_matches_readme(alpha):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = _WINDOW_BIAS_README[alpha]
    assert f"| {alpha:g} | {stated[0]} | {stated[1]} |" in readme
    radius = default_window_radius(1.0)
    for z_db, text in zip((0.0, 10.0), stated):
        z = 10.0 ** (z_db / 10.0)
        bias = _windowed_bias_1x1(alpha, z, radius)
        assert bias == pytest.approx(float(text), rel=0.1), (alpha, z_db)
        # Four times the stations doubles the radius: bias ~ radius^(2 - alpha).
        larger = _windowed_bias_1x1(alpha, z, 2.0 * radius)
        assert larger / bias == pytest.approx(2.0 ** (2.0 - alpha), rel=0.1), (alpha, z_db)


def test_sample_network_layout():
    real = sample_network(2.0, 6.0, seed=42, n_r=3, n_t=2)
    d = real.distances
    assert np.all(np.diff(d) >= 0.0)  # serving station first
    assert real.serving_distance == d[0]
    assert real.channels.shape == (len(d), 3, 2)
    assert np.all(d <= 6.0)
    # Unit-variance complex entries.
    power = np.mean(np.abs(real.channels) ** 2)
    assert power == pytest.approx(1.0, abs=0.05)


def test_sample_network_count_distribution():
    rng = np.random.default_rng(7)
    counts = [len(sample_network(1.0, 3.0, rng, n_r=1, n_t=1).distances) for _ in range(300)]
    mean_count = math.pi * 9.0
    assert np.mean(counts) == pytest.approx(mean_count, rel=0.05)


def test_pzf_filter_nulls_targets():
    rng = np.random.default_rng(3)
    real = _manual_realization(rng, [0.5, 0.8, 1.1, 1.7, 2.2], n_r=6, n_t=2)
    v = pzf_filter(real, 2, stream=0)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    # Own cross stream and every stream of the nulled interferer.
    assert abs(np.vdot(v, real.channels[0][:, 1])) < 1e-10
    for s in range(2):
        assert abs(np.vdot(v, real.channels[1][:, s])) < 1e-10
    # Not orthogonal to the desired channel.
    assert abs(np.vdot(v, real.channels[0][:, 0])) > 0.1


def test_pzf_filter_matched_when_nothing_to_null():
    rng = np.random.default_rng(4)
    real = _manual_realization(rng, [0.6, 1.4], n_r=4, n_t=1)
    v = pzf_filter(real, 1)
    h = real.channels[0][:, 0]
    assert np.allclose(v, h / np.linalg.norm(h))


def test_signal_gain_is_chi_square():
    # |v^H h|^2 with delta surplus dimensions is Gamma(delta + 1, 1).
    rng = np.random.default_rng(11)
    n_t, m, delta = 2, 2, 2
    n_r = m * n_t + delta
    gains = np.empty(4000)
    for i in range(gains.size):
        real = _manual_realization(rng, [0.7, 1.2, 1.9], n_r=n_r, n_t=n_t)
        v = pzf_filter(real, m)
        gains[i] = abs(np.vdot(v, real.channels[0][:, 0])) ** 2
    result = stats.kstest(gains, stats.gamma(a=delta + 1).cdf)
    assert result.pvalue > 0.01


def test_interference_gain_is_exponential():
    # Per-stream leakage through the filter from an uncancelled interferer.
    rng = np.random.default_rng(12)
    gains = np.empty(4000)
    for i in range(gains.size):
        real = _manual_realization(rng, [0.7, 1.2, 1.9], n_r=4, n_t=1)
        v = pzf_filter(real, 2)
        gains[i] = abs(np.vdot(v, real.channels[2][:, 0])) ** 2
    result = stats.kstest(gains, stats.expon.cdf)
    assert result.pvalue > 0.01


def test_mmse_dominates_pzf_per_realization():
    rng = np.random.default_rng(13)
    config = _config(2, 4)
    for _ in range(500):
        real = sample_network(1.0, 8.0, rng, n_r=4, n_t=2)
        assert mmse_sinr(real, config) >= pzf_sinr(real, config, 1) - 1e-9


def test_mmse_near_singular_covariance_raises():
    # A single station with sigma2 = 0 leaves a rank-deficient covariance.
    rng = np.random.default_rng(5)
    real = _manual_realization(rng, [0.7], n_r=4, n_t=2)
    with pytest.raises(ConditioningError):
        mmse_sinr(real, _config(2, 4))


def test_pzf_window_too_small_raises():
    rng = np.random.default_rng(6)
    real = _manual_realization(rng, [0.7], n_r=4, n_t=2)
    with pytest.raises(NumericError):
        pzf_sinr(real, _config(2, 4), 2)


def test_stream_index_validation():
    rng = np.random.default_rng(8)
    real = _manual_realization(rng, [0.5, 1.0], n_r=4, n_t=2)
    with pytest.raises(ConfigError):
        pzf_filter(real, 1, stream=2)
    with pytest.raises(ConfigError):
        mmse_sinr(real, _config(2, 4), stream=-1)


# ----------------------------------------------------------------------
# Batched engine versus reference ops on identical draws

def test_batched_engine_matches_reference_ops():
    config = _config(2, 4)
    window, seed, n_trials, m = 5.0, 123, 64, 2
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    out = _simulate_chunk(config, m, True, window, rng, n_trials)

    # Replay the identical random stream through the reference path.
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    r2 = _chunk_geometry(rng, config.lam, window, n_trials, m)
    h0 = _draw_channels(rng, (n_trials, config.n_r, config.n_t))
    n_int = r2.shape[1] - 1
    block = _draw_channels(rng, (n_trials, n_int, config.n_r, config.n_t))

    ref_pzf = np.empty(n_trials)
    ref_mmse = np.empty(n_trials)
    for t in range(n_trials):
        count = int(np.sum(np.isfinite(r2[t])))
        radii = np.sqrt(r2[t, :count])
        channels = np.concatenate(
            (h0[t][None].astype(np.complex128),
             block[t, : count - 1].astype(np.complex128)),
            axis=0,
        )
        real = NetworkRealization(
            positions=np.column_stack((radii, np.zeros(count))),
            channels=channels, window_radius=window, lam=config.lam,
        )
        ref_pzf[t] = pzf_sinr(real, config, m)
        ref_mmse[t] = mmse_sinr(real, config)

    # Agreement up to the engine's single-precision interferer arithmetic.
    np.testing.assert_allclose(out["pzf"], ref_pzf, rtol=1e-4)
    np.testing.assert_allclose(out["mmse"], ref_mmse, rtol=1e-4)


def test_batched_mmse_survives_near_stations():
    # Trial 198 of this chunk has its serving station at r^2 = 4.9e-6 and
    # the nearest interferer at r^2 = 5.5e-5 (path gains 4.1e10 and 3.3e8).
    # Single-precision accumulation of that interferer's covariance term
    # once left the matrix indefinite and the SINR at -1.38e7; double
    # precision on the same draws gives +1.52e7.
    config, window, t = _config(2, 4), default_window_radius(1.0), 198
    seeds = np.random.SeedSequence([20261018, 1020])
    sinr = _simulate_chunk(
        config, None, True, window, np.random.default_rng(seeds), CHUNK_TRIALS
    )["mmse"]
    assert np.all(np.isfinite(sinr)) and np.all(sinr > 0.0)

    # Replay trial 198 through the float64 reference op.
    rng = np.random.default_rng(seeds)
    r2 = _chunk_geometry(rng, config.lam, window, CHUNK_TRIALS, 1)
    h0 = _draw_channels(rng, (CHUNK_TRIALS, config.n_r, config.n_t))
    block = _draw_channels(rng, (CHUNK_TRIALS, r2.shape[1] - 1, config.n_r, config.n_t))
    count = int(np.sum(np.isfinite(r2[t])))
    assert r2[t, 0] < 1e-5 and r2[t, 1] < 1e-4
    real = NetworkRealization(
        positions=np.column_stack((np.sqrt(r2[t, :count]), np.zeros(count))),
        channels=np.concatenate((h0[t][None], block[t, : count - 1])).astype(np.complex128),
        window_radius=window, lam=config.lam,
    )
    assert sinr[t] == pytest.approx(mmse_sinr(real, config), rel=1e-4)
    assert sinr[t] == pytest.approx(1.52e7, rel=0.01)


# ----------------------------------------------------------------------
# Reproducibility and statistical agreement

def test_bit_identical_across_runs_and_threads():
    config = _config(2, 4)
    kwargs = dict(trials=3 * CHUNK_TRIALS // 2, seed=9, m=1, window_radius=8.0)
    a = simulate_sinr(config, ("pzf", "mmse"), **kwargs)
    b = simulate_sinr(config, ("pzf", "mmse"), **kwargs)
    c = simulate_sinr(config, ("pzf", "mmse"), threads=2, **kwargs)
    for key in ("pzf", "mmse"):
        assert a[key].shape == (kwargs["trials"],)
        np.testing.assert_array_equal(a[key], b[key])
        np.testing.assert_array_equal(a[key], c[key])
    d = simulate_sinr(config, ("pzf", "mmse"), trials=kwargs["trials"],
                      seed=10, m=1, window_radius=8.0)
    assert not np.array_equal(a["pzf"], d["pzf"])


def test_receiver_subset_preserves_stream():
    # Asking for fewer receivers must not change the shared realizations.
    config = _config(2, 4)
    kwargs = dict(trials=CHUNK_TRIALS, seed=21, window_radius=8.0)
    both = simulate_sinr(config, ("pzf", "mmse"), m=1, **kwargs)
    only_pzf = simulate_sinr(config, "pzf", m=1, **kwargs)
    only_mmse = simulate_sinr(config, "mmse", **kwargs)
    np.testing.assert_array_equal(both["pzf"], only_pzf["pzf"])
    np.testing.assert_array_equal(both["mmse"], only_mmse["mmse"])


def test_matches_analytic_interference_limited():
    config = _config(2, 4)
    z = 1.0
    curve = estimate_coverage_curve(config, "mmse", [z], 4096, 7)
    est = curve[0]
    exact = coverage_mmse(_config(2, 4), z)
    assert abs(est.mean - exact) <= 4.0 * est.std_error
    pzf_est = estimate_coverage(config, "pzf", z, 4096, 7, m=1)
    pzf_exact = coverage_pzf(_config(2, 4), z, 1)
    assert abs(pzf_est.mean - pzf_exact) <= 4.0 * pzf_est.std_error


def test_matches_analytic_with_noise():
    sigma2 = 0.1 * math.pi**2  # 0.1 (pi lam)^(alpha/2) at lam = 1, alpha = 4
    config = _config(2, 4, sigma2=sigma2)
    est = estimate_coverage(config, "mmse", 1.0, 4096, 17)
    exact = coverage_mmse(config, 1.0)
    assert abs(est.mean - exact) <= 4.0 * est.std_error

    est = estimate_coverage(config, "pzf", 1.0, 4096, 17, m=1)
    exact = coverage_pzf(config, 1.0, 1)
    assert abs(est.mean - exact) <= 4.0 * est.std_error


def test_density_invariance_without_noise():
    z = 1.0
    a = estimate_coverage(_config(2, 4, lam=1.0), "mmse", z, 4096, 11)
    b = estimate_coverage(_config(2, 4, lam=4.0), "mmse", z, 4096, 77)
    spread = math.hypot(a.std_error, b.std_error)
    assert abs(a.mean - b.mean) <= 3.0 * spread


def test_estimate_rate_matches_analytic():
    config = _config(2, 4)
    est = estimate_rate(config, "mmse", 4096, 5)
    exact = mean_sum_rate("sm", 2, 4, "mmse") / 2.0  # per-stream
    assert abs(est.mean - exact) <= 4.0 * est.std_error
    assert est.trials == 4096 and est.seed == 5


def test_estimate_fields_and_validation():
    est = estimate_coverage(_config(1, 2), "pzf", 1.0, 256, 3, m=1, window_radius=6.0)
    assert isinstance(est, McEstimate)
    assert 0.0 <= est.mean <= 1.0 and est.std_error > 0.0
    assert estimate_coverage_curve(_config(1, 2), "pzf", [], 256, 3, m=1) == []
    with pytest.raises(ConfigError):
        simulate_sinr(_config(1, 2), "zf", 128, 0)
    with pytest.raises(ConfigError):
        simulate_sinr(_config(1, 2), "pzf", 0, 0)
    with pytest.raises(ConfigError):
        simulate_sinr(_config(1, 2), "pzf", 128, -1)
    with pytest.raises(ConfigError):
        simulate_sinr(_config(1, 2), "mmse", 128, 0, m=1)
    with pytest.raises(ConfigError):
        estimate_coverage_curve(_config(1, 2), "pzf", [-1.0], 128, 0, m=1)
