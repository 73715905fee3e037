"""Simulator checks: reference ops, the batched engine, and reproducibility.

The load-bearing test is the identical-draws equivalence: the batched
engine's chunk draws are replayed (:func:`_replay_reference`) through the
single-realization reference ops of ``reference_receivers``, so any
disagreement between the two code paths (indexing, weighting, cancellation
bookkeeping) shows up as a numeric mismatch rather than a statistical one.
"""

import itertools
import math
import multiprocessing
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from cellmimo import montecarlo
from cellmimo.errors import ConditioningError, ConfigError, NumericError
from cellmimo.geometry import NetworkConfig
from cellmimo.montecarlo import (
    CHUNK_TRIALS,
    _chunk_geometry,
    _simulate_chunk,
    default_window_radius,
    simulate_sinr,
)
from cellmimo.mmse import coverage_mmse
from cellmimo.pzf import coverage_pzf
from cellmimo.rate import rate_profile
from reference_receivers import (
    _manual_realization,
    _replay_reference,
    mmse_sinr,
    pzf_filter,
    pzf_sinr,
)


def _config(n_t, n_r, alpha=4.0, sigma2=0.0, lam=1.0):
    return NetworkConfig(lam=lam, alpha=alpha, sigma2=sigma2, n_t=n_t, n_r=n_r)


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


def test_engine_station_count_matches_intensity():
    # The chunk geometry holds a Poisson number of stations with mean
    # lam pi R^2, sorted and inside the window, inf-padded to a common width.
    r2 = _chunk_geometry(np.random.default_rng(7), 1.0, 3.0, 300, 1)
    counts = np.sum(np.isfinite(r2), axis=1)
    assert np.mean(counts) == pytest.approx(math.pi * 9.0, rel=0.05)
    assert np.all(r2[:, 1:] >= r2[:, :-1])
    assert np.max(r2[np.isfinite(r2)]) <= 9.0


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
    config = _config(2, 4)
    for real in _replay_reference(config, 8.0, np.random.SeedSequence([13, 0]), 500):
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
    window, seeds, n_trials, m = 5.0, np.random.SeedSequence([123, 0]), 64, 2
    out = _simulate_chunk(config, m, True, window, np.random.default_rng(seeds), n_trials)
    reals = list(_replay_reference(config, window, seeds, n_trials, m))
    # Agreement up to the engine's single-precision interferer arithmetic.
    np.testing.assert_allclose(out["pzf"], [pzf_sinr(r, config, m) for r in reals], rtol=1e-4)
    np.testing.assert_allclose(out["mmse"], [mmse_sinr(r, config) for r in reals], rtol=1e-4)


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
    trials = _replay_reference(config, window, seeds, CHUNK_TRIALS)
    real = next(itertools.islice(trials, t, None))
    assert real.distances[0] ** 2 < 1e-5 and real.distances[1] ** 2 < 1e-4
    assert sinr[t] == pytest.approx(mmse_sinr(real, config), rel=1e-4)
    assert sinr[t] == pytest.approx(1.52e7, rel=0.01)


@pytest.mark.parametrize("n_t, n_r, m, sigma2", [(2, 5, 2, 0.0), (1, 4, 3, 0.1 * math.pi**2)])
def test_slab_loop_matches_reference_ops(monkeypatch, n_t, n_r, m, sigma2):
    # 16-column slabs (the floor of the slab size), so the nulled columns,
    # the double-precision nearest interferers and the single-precision far
    # field each meet a slab boundary.
    monkeypatch.setattr(montecarlo, "_SLAB_BYTES", 1)
    config = _config(n_t, n_r, sigma2=sigma2)
    window, n_trials, seeds = 6.0, 48, np.random.SeedSequence([31, 2])
    out = _simulate_chunk(config, m, True, window, np.random.default_rng(seeds), n_trials)
    reals = list(_replay_reference(config, window, seeds, n_trials, m, slab_cols=16))
    np.testing.assert_allclose(out["pzf"], [pzf_sinr(r, config, m) for r in reals], rtol=1e-4)
    np.testing.assert_allclose(out["mmse"], [mmse_sinr(r, config) for r in reals], rtol=1e-4)


# ----------------------------------------------------------------------
# Reproducibility and statistical agreement

def test_bit_identical_across_runs_and_threads():
    config = _config(2, 4)
    kwargs = dict(trials=3 * CHUNK_TRIALS // 2, seed=9, m=1, window_radius=8.0)
    a = simulate_sinr(config, ("pzf", "mmse"), threads=1, **kwargs)
    b = simulate_sinr(config, ("pzf", "mmse"), threads=1, **kwargs)
    c = simulate_sinr(config, ("pzf", "mmse"), threads=2, **kwargs)
    default = simulate_sinr(config, ("pzf", "mmse"), **kwargs)  # 2 workers under fork
    assert not multiprocessing.active_children()  # every worker was joined
    for key in ("pzf", "mmse"):
        assert a[key].shape == (kwargs["trials"],)
        np.testing.assert_array_equal(a[key], b[key])
        np.testing.assert_array_equal(a[key], c[key])
        np.testing.assert_array_equal(a[key], default[key])
    d = simulate_sinr(config, ("pzf", "mmse"), trials=kwargs["trials"],
                      seed=10, m=1, window_radius=8.0)
    assert not np.array_equal(a["pzf"], d["pzf"])


def test_one_chunk_call_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk call started a process pool")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(montecarlo, "_available_cores", lambda: 4)
    config = _config(1, 2)
    for threads in (None, 4):
        out = simulate_sinr(config, "pzf", CHUNK_TRIALS, 3, m=1, window_radius=6.0,
                            threads=threads)
        assert out["pzf"].shape == (CHUNK_TRIALS,)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_default_is_one_process_without_fork(monkeypatch, method):
    # spawn/forkserver workers re-import the package and re-run an unguarded
    # script, so the default stays in this process even on many chunks.
    def no_pool(*args, **kwargs):
        raise AssertionError("the default started a process pool")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(montecarlo, "_available_cores", lambda: 8)
    monkeypatch.setattr(montecarlo.mp, "get_start_method", lambda allow_none=False: method)
    assert montecarlo._default_workers() == 1
    out = simulate_sinr(_config(1, 2), "pzf", 2 * CHUNK_TRIALS, 3, m=1, window_radius=6.0)
    assert out["pzf"].shape == (2 * CHUNK_TRIALS,)
    # Unset start method: the platform default (the first one listed) decides.
    monkeypatch.setattr(montecarlo.mp, "get_start_method", lambda allow_none=False: None)
    monkeypatch.setattr(montecarlo.mp, "get_all_start_methods", lambda: [method, "fork"])
    assert montecarlo._default_workers() == 1


def test_default_workers_under_fork_are_capped(monkeypatch):
    monkeypatch.setattr(montecarlo.mp, "get_start_method", lambda allow_none=False: "fork")
    for cores, workers in ((1, 1), (2, 2), (64, 10)):
        monkeypatch.setattr(montecarlo, "_available_cores", lambda: cores)
        assert montecarlo._default_workers() == workers
    assert 10 * montecarlo._SLAB_BYTES <= montecarlo._POOL_BYTES


@pytest.mark.skipif(not hasattr(montecarlo.os, "sched_getaffinity"),
                    reason="no affinity mask on this platform")
@pytest.mark.parametrize("cpu_max, cores", [
    ("150000 100000\n", 2), ("50000 100000\n", 1), ("max 100000\n", 8), (None, 8),
])
def test_available_cores_honour_cgroup_quota(monkeypatch, tmp_path, cpu_max, cores):
    path = tmp_path / "cpu.max"
    if cpu_max is not None:
        path.write_text(cpu_max)
    monkeypatch.setattr(montecarlo, "_CPU_MAX", path)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(8)))
    assert montecarlo._available_cores() == cores


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched chunk only when forked")
def test_worker_error_propagates_and_workers_are_joined(monkeypatch):
    def failing_chunk(*args, **kwargs):
        raise ConditioningError("forced")

    monkeypatch.setattr(montecarlo, "_simulate_chunk", failing_chunk)
    with pytest.raises(ConditioningError, match="forced"):
        simulate_sinr(_config(1, 2), "pzf", 4 * CHUNK_TRIALS, 0, m=1, threads=2)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("threads", [0, -3, 1.5, True, "2"])
def test_threads_must_be_a_positive_int(threads):
    # Rejected before any chunk runs, so no worker process starts.
    with pytest.raises(ConfigError):
        simulate_sinr(_config(1, 2), "pzf", 128, 0, m=1, threads=threads)


def test_receiver_subset_preserves_stream():
    # Asking for fewer receivers must not change the shared realizations.
    config = _config(2, 4)
    kwargs = dict(trials=CHUNK_TRIALS, seed=21, window_radius=8.0)
    both = simulate_sinr(config, ("pzf", "mmse"), m=1, **kwargs)
    only_pzf = simulate_sinr(config, "pzf", m=1, **kwargs)
    only_mmse = simulate_sinr(config, "mmse", **kwargs)
    np.testing.assert_array_equal(both["pzf"], only_pzf["pzf"])
    np.testing.assert_array_equal(both["mmse"], only_mmse["mmse"])


def _mean_and_se(values):
    """Sample mean and its standard error, reduced as criterion 8 does."""
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))


def test_matches_analytic_interference_limited():
    config = _config(2, 4)
    z = 1.0
    mc, se = _mean_and_se(simulate_sinr(config, "mmse", 4096, 7)["mmse"] > z)
    exact = coverage_mmse(_config(2, 4), z)
    assert abs(mc - exact) <= 4.0 * se
    mc, se = _mean_and_se(simulate_sinr(config, "pzf", 4096, 7, m=1)["pzf"] > z)
    pzf_exact = coverage_pzf(_config(2, 4), z, 1)
    assert abs(mc - pzf_exact) <= 4.0 * se


def test_matches_analytic_with_noise():
    sigma2 = 0.1 * math.pi**2  # 0.1 (pi lam)^(alpha/2) at lam = 1, alpha = 4
    config = _config(2, 4, sigma2=sigma2)
    mc, se = _mean_and_se(simulate_sinr(config, "mmse", 4096, 17)["mmse"] > 1.0)
    exact = coverage_mmse(config, 1.0)
    assert abs(mc - exact) <= 4.0 * se

    mc, se = _mean_and_se(simulate_sinr(config, "pzf", 4096, 17, m=1)["pzf"] > 1.0)
    exact = coverage_pzf(config, 1.0, 1)
    assert abs(mc - exact) <= 4.0 * se


def test_density_invariance_without_noise():
    z = 1.0
    a, se_a = _mean_and_se(simulate_sinr(_config(2, 4, lam=1.0), "mmse", 4096, 11)["mmse"] > z)
    b, se_b = _mean_and_se(simulate_sinr(_config(2, 4, lam=4.0), "mmse", 4096, 77)["mmse"] > z)
    spread = math.hypot(se_a, se_b)
    assert abs(a - b) <= 3.0 * spread


def test_estimate_rate_matches_analytic():
    config = _config(2, 4)
    mc, se = _mean_and_se(np.log2(1.0 + simulate_sinr(config, "mmse", 4096, 5)["mmse"]))
    exact = rate_profile(config, "mmse", "sm", quantiles=()).mean_rate / config.n_t  # per stream
    assert abs(mc - exact) <= 4.0 * se


@pytest.mark.parametrize("receiver, m, radius", [
    ("pzf", 1, 0.0),
    ("mmse", None, 0.0),
    ("pzf", 2, 1e-3),  # holds 3e-6 stations on average, the split needs 2
    ("pzf", 1, -1.0),
    ("pzf", 1, math.nan),
    ("pzf", 1, math.inf),
    ("pzf", 1, 1e200),  # its squared radius, and so its mean count, overflows
])
def test_window_radius_validation(monkeypatch, receiver, m, radius):
    """A radius that is not finite and positive, whose window holds no
    finite mean station count, or fewer stations on average than the split
    needs, is refused before any draw; the count redraw would otherwise
    never end in a window that small."""
    def no_draw(*args):
        raise AssertionError("drew a chunk geometry")

    monkeypatch.setattr(montecarlo, "_chunk_geometry", no_draw)
    with pytest.raises(ConfigError):
        simulate_sinr(_config(1, 4), receiver, 128, 0, m=m, window_radius=radius)


def test_near_empty_zero_noise_window():
    """Without noise, a window of 3.1 stations on average leaves some
    trials with no interferer.  Their PZF SINR is inf, exactly and without
    a warning; MMSE with n_t = 1 then has a zero covariance and raises the
    engine's typed error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sinr = simulate_sinr(_config(1, 4), "pzf", 512, 0, m=1, window_radius=1.0)["pzf"]
        assert np.isinf(sinr).any() and not np.isnan(sinr).any()
        assert np.all(sinr > 0.0)
        with pytest.raises(ConditioningError):
            simulate_sinr(_config(1, 4), "mmse", 512, 0, window_radius=1.0)


def test_estimate_fields_and_validation():
    with pytest.raises(ConfigError):
        simulate_sinr(_config(1, 2), "zf", 128, 0)
    for bad in (0, True):
        with pytest.raises(ConfigError):
            simulate_sinr(_config(1, 2), "pzf", bad, 0)
    for bad in (-1, True):
        with pytest.raises(ConfigError):
            simulate_sinr(_config(1, 2), "pzf", 128, bad)
    with pytest.raises(ConfigError):
        simulate_sinr(_config(1, 2), "mmse", 128, 0, m=1)
