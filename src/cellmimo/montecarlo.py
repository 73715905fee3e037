"""Monte Carlo oracle for the analytic coverage and rate laws.

Simulates the downlink model directly: Poisson base stations on a disk
window around the typical user at the origin, i.i.d. Rayleigh channel
matrices per station, explicit receive filters, no approximations beyond
the finite window (whose default radius keeps the neglected far-field
interference around the 1e-4 relative level).

One batched engine, :func:`simulate_sinr`, the one Monte Carlo entry
point: it returns SINR samples, which callers reduce to estimates.  It is
vectorized over trials in fixed chunks of 512, with single-precision
channel draws, and is the only network sampler.

Reproducibility contract: trials are partitioned into fixed 512-trial
chunks; chunk ``c`` draws from ``SeedSequence([seed, c])`` and partial
results are combined in chunk order.  Chunks run in ``threads`` worker
processes.  The default is one per available core where workers start by
``fork`` (at most ten, which bounds the memory of their slabs) and one
process elsewhere, capped at the chunk count: a one-chunk call starts no
process.  Estimates are bit-identical for a given (seed, trials, config)
whatever the worker count.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConditioningError, ConfigError
from .geometry import NetworkConfig, _is_int
from .pzf import _receiver_order

__all__ = ["default_window_radius", "simulate_sinr"]

CHUNK_TRIALS = 512
_SLAB_BYTES = 160_000_000  # per slab: its complex64 draws plus their scaled copy
_POOL_BYTES = 1_600_000_000  # slabs of all default workers together
_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")  # cgroup v2 CPU quota: "<quota> <period>"
_DIAG_FLOOR = 1e-12  # relative diagonal floor for noiseless covariance solves
_NEAR_DOUBLE = 32  # nearest interferers whose covariance terms use float64


def default_window_radius(lam: float) -> float:
    """Disk radius holding ~1600 stations on average.

    Truncating the far field at this radius biases 1x1 coverage at 0 dB
    upward by 2.2e-4 at alpha = 4, 1.15e-3 at alpha = 3.5 and 5.9e-3 at
    alpha = 3 (1.0e-4 at 10 dB and alpha = 4); the bias scales as
    radius^(2 - alpha).
    """
    if not (lam > 0.0):
        raise ConfigError(f"intensity must be positive, got {lam!r}")
    return 40.0 / math.sqrt(lam * math.pi)


def _chunk_geometry(rng, lam, window_radius, n_trials, min_count):
    """Sorted squared distances (inf-padded) for a chunk of realizations."""
    mean_count = lam * math.pi * window_radius**2
    counts = rng.poisson(mean_count, n_trials)
    while np.any(counts < min_count):
        short = counts < min_count
        counts[short] = rng.poisson(mean_count, int(short.sum()))
    j_max = int(counts.max())
    r2 = window_radius**2 * rng.random((n_trials, j_max))
    r2[np.arange(j_max)[None, :] >= counts[:, None]] = np.inf
    r2.sort(axis=1)
    return r2


_DRAW_SCALE = np.float32(1.0 / math.sqrt(2.0))  # a pair of N(0, 1) draws has variance 2


def _draw_channels(rng, shape) -> np.ndarray:
    """Unit-variance complex Gaussian block in single precision."""
    raw = rng.standard_normal(shape + (2,), dtype=np.float32)
    return raw.view(np.complex64)[..., 0] * _DRAW_SCALE


def _pzf_filters(h0: np.ndarray, near: np.ndarray | None) -> np.ndarray:
    """Unit PZF filters for stream 0 of every trial of a chunk.

    ``h0`` holds the serving channels (trials, n_r, n_t); ``near`` the
    nulled interferers (trials, m-1, n_r, n_t), or None when m = 1.  The
    desired channel is projected off the span of the serving cross streams
    and every stream of ``near``, with one re-orthogonalization pass.
    """
    n_trials, n_r = h0.shape[:2]
    h = h0[:, :, 0]
    targets = [h0[:, :, 1:]]
    if near is not None:
        targets.append(near.transpose(0, 2, 1, 3).reshape(n_trials, n_r, -1).astype(np.complex128))
    z_mat = np.concatenate(targets, axis=2)
    p = h
    if z_mat.shape[2]:
        q, _ = np.linalg.qr(z_mat)
        for _ in range(2):
            p = p - np.einsum("bik,bk->bi", q, np.einsum("bik,bi->bk", q.conj(), p))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def _simulate_chunk(
    config: NetworkConfig,
    pzf_m: int | None,
    want_mmse: bool,
    window_radius: float,
    rng: np.random.Generator,
    n_trials: int,
) -> dict[str, np.ndarray]:
    """SINR samples for one chunk: PZF if ``pzf_m`` is given, MMSE if asked.

    The random stream is consumed in a fixed order (geometry, serving
    channels, interferer slabs) regardless of which receivers are read out,
    so PZF and MMSE samples always refer to the same realizations.  Each
    interferer slab is drawn once and scaled once, by sqrt(path gain) in
    single precision, into a (trials, n_r, n_t, interferers) layout that
    both receivers read.
    """
    n_r, n_t, alpha = config.n_r, config.n_t, config.alpha
    m = pzf_m if pzf_m is not None else 1
    r2 = _chunk_geometry(rng, config.lam, window_radius, n_trials, max(1, m))
    serve_gain = r2[:, 0] ** (-alpha / 2.0)
    # Interferer amplitudes sqrt(d^-alpha) times the draw scale; the inf
    # padding gives exactly 0.
    amp = (r2[:, 1:] ** (-alpha / 4.0) * math.sqrt(0.5)).astype(np.float32)
    n_int = amp.shape[1]

    h0 = _draw_channels(rng, (n_trials, n_r, n_t)).astype(np.complex128)
    h = h0[:, :, 0]

    noise = n_t * config.sigma2
    cov = None
    if want_mmse:
        cov = np.zeros((n_trials, n_r, n_r), dtype=np.complex128)
        cov += noise * np.eye(n_r)
        # The serving station's cross streams 1..n_t-1, as one product.
        cross = h0[:, :, 1:]
        cov += serve_gain[:, None, None] * (cross @ cross.conj().transpose(0, 2, 1))

    v = _pzf_filters(h0, None) if pzf_m is not None and m == 1 else None
    i_pzf = np.zeros(n_trials)
    slab_cols = max(16, min(n_int, _SLAB_BYTES // max(1, 16 * n_trials * n_r * n_t)))
    for start in range(0, n_int, slab_cols):
        cols = min(slab_cols, n_int - start)
        pairs = rng.standard_normal((n_trials, cols, n_r, n_t, 2), dtype=np.float32)
        pairs = pairs.view(np.complex64)[..., 0]
        if start == 0 and m > 1:
            # Nulling targets: the m-1 nearest interferers (always inside
            # the first slab), unweighted.
            v = _pzf_filters(h0, pairs[:, : m - 1] * _DRAW_SCALE)
        # Column c of stream t sits at slab[:, :, t, c]: with the interferer
        # index innermost, the scaling pass runs along whole rows.
        slab = np.empty((n_trials, n_r, n_t, cols), dtype=np.complex64)
        np.multiply(pairs.transpose(0, 2, 3, 1), amp[:, None, None, start : start + cols], out=slab)
        del pairs
        if want_mmse:
            # MMSE: accumulate sum_j d_j^-alpha H_j H_j^H.  The nearest
            # interferers can outweigh the far field by many orders of
            # magnitude; single-precision rounding of their terms would
            # swamp the small eigenvalues the far field leaves and can
            # make the covariance indefinite, so they go through double
            # precision.  The far field stays in single precision.
            near = min(cols, _NEAR_DOUBLE) if start == 0 else 0
            if near:
                f = slab[..., :near].astype(np.complex128).reshape(n_trials, n_r, n_t * near)
                cov += f @ f.conj().transpose(0, 2, 1)
            for t in range(n_t):
                far = slab[:, :, t, near:]
                cov += far @ far.conj().transpose(0, 2, 1)
        if pzf_m is not None:
            # Leakage of every interferer stream the filter does not null.
            # einsum, not a batched matmul: a threaded BLAS gemv here
            # oversubscribes the cores once chunks run in parallel.
            g = np.einsum("bi,bin->bn", v.conj().astype(np.complex64),
                          slab.reshape(n_trials, n_r, n_t * cols))
            power = g.real.astype(np.float64) ** 2 + g.imag.astype(np.float64) ** 2
            skip = m - 1 if start == 0 else 0
            i_pzf += power.reshape(n_trials, n_t, cols)[:, :, skip:].sum(axis=(1, 2))

    out: dict[str, np.ndarray] = {}
    if pzf_m is not None:
        signal = np.abs(np.einsum("bi,bi->b", v.conj(), h)) ** 2
        # Without noise, a trial with no interferer has SINR inf, exactly.
        with np.errstate(divide="ignore"):
            out["pzf"] = serve_gain * signal / (noise + i_pzf)
    if want_mmse:
        if config.sigma2 == 0.0:
            floor = _DIAG_FLOOR * np.einsum("bii->b", cov).real / n_r
            cov += floor[:, None, None] * np.eye(n_r)
        try:
            x = np.linalg.solve(cov, h[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            # Without noise, a trial with no interferer and n_t = 1 has a zero
            # covariance, which no diagonal floor relative to it can lift.
            raise ConditioningError("interference covariance is singular") from exc
        sinr = serve_gain * np.einsum("bi,bi->b", h.conj(), x).real
        # h^H C^-1 h > 0 for every positive definite C; anything else means
        # the solve lost the covariance to rounding.
        if not np.all(np.isfinite(sinr) & (sinr > 0.0)):
            raise ConditioningError("interference covariance is numerically indefinite")
        out["mmse"] = sinr
    return out


def _chunk_worker(args) -> tuple[int, dict[str, np.ndarray]]:
    (config, pzf_m, want_mmse, window_radius, seed, index, n_trials) = args
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return index, _simulate_chunk(config, pzf_m, want_mmse, window_radius, rng, n_trials)


def _available_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS has one,
    lowered to a cgroup v2 CPU quota where one is set."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    try:
        quota, period = _CPU_MAX.read_text().split()
        cores = min(cores, max(1, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError):  # no such file, or no quota ("max")
        pass
    return cores


def _default_workers() -> int:
    """Worker processes for ``threads=None``.

    The available cores, at most ``_POOL_BYTES // _SLAB_BYTES``, where
    workers start by ``fork``.  Otherwise 1: a ``spawn`` or ``forkserver``
    worker re-imports numpy and this package on every call (on 2 cores
    that made a paired validate pass slower than one process), and it
    re-runs an unguarded script's top-level code.
    """
    method = mp.get_start_method(allow_none=True) or mp.get_all_start_methods()[0]
    if method != "fork":
        return 1
    return min(_available_cores(), _POOL_BYTES // _SLAB_BYTES)


def simulate_sinr(
    config: NetworkConfig,
    receivers,
    trials: int,
    seed: int,
    *,
    m: int | None = None,
    window_radius: float | None = None,
    threads: int | None = None,
) -> dict[str, np.ndarray]:
    """Raw SINR samples per receiver, concatenated in chunk order.

    PZF and MMSE samples with the same index belong to the same network
    realization.  ``m`` is the PZF cancellation order (default:
    :func:`cellmimo.pzf.default_m`, the m minimizing the exact mean
    inverse SINR).  ``threads`` is the number of worker processes, capped
    at the chunk count; a one-chunk call runs in this process.  The default
    is the available cores (at most ten) where workers start by ``fork``,
    else 1.  The samples are bit-identical for every value.
    ``window_radius`` (default: :func:`default_window_radius`) must be
    finite and positive, and its disk must hold a finite mean station count
    of at least the split's m (1 for MMSE alone).
    """
    receivers = (receivers,) if isinstance(receivers, str) else tuple(receivers)
    pzf_m = _receiver_order(config, receivers, m)
    if not _is_int(trials) or trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials!r}")
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    if threads is not None and (not _is_int(threads) or threads < 1):
        raise ConfigError(f"threads must be None or a positive integer, got {threads!r}")
    radius = default_window_radius(config.lam) if window_radius is None else float(window_radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise ConfigError(f"window radius must be positive and finite, got {window_radius!r}")
    # Each trial's station count is redrawn until it covers the split, which
    # a window holding fewer stations on average may never do.  pi R^2 is
    # formed first: the draws need it finite, whatever lam.
    needed, mean_count = pzf_m or 1, config.lam * (math.pi * radius * radius)
    if not math.isfinite(mean_count):
        raise ConfigError(
            f"window radius {radius!r} holds no finite mean station count at lam={config.lam!r}"
        )
    if mean_count < needed:
        raise ConfigError(
            f"window radius {radius!r} holds {mean_count:.3g} stations on average, "
            f"fewer than the {needed} the split needs"
        )

    want_mmse = "mmse" in receivers
    n_chunks = (int(trials) + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    jobs = [
        (config, pzf_m, want_mmse, radius, int(seed), c,
         min(CHUNK_TRIALS, int(trials) - c * CHUNK_TRIALS))
        for c in range(n_chunks)
    ]
    workers = min(n_chunks, _default_workers() if threads is None else threads)
    results: list[dict[str, np.ndarray] | None] = [None] * n_chunks
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, res in pool.map(_chunk_worker, jobs, chunksize=1):
                results[index] = res
    else:
        for job in jobs:
            index, res = _chunk_worker(job)
            results[index] = res
    return {
        r: np.concatenate([chunk[r] for chunk in results]) for r in receivers
    }

