"""Monte Carlo oracle for the analytic coverage and rate laws.

Simulates the downlink model directly: Poisson base stations on a disk
window around the typical user at the origin, i.i.d. Rayleigh channel
matrices per station, explicit receive filters, no approximations beyond
the finite window (whose default radius keeps the neglected far-field
interference around the 1e-4 relative level).

Two layers:

* A batched engine (:func:`simulate_sinr` and the estimators built on it) -
  vectorized over trials in fixed chunks of 512, single-precision channel
  draws, used for production estimates.  It is the only network sampler.

* Reference receivers (:func:`pzf_filter`, :func:`pzf_sinr`,
  :func:`mmse_sinr`) - one :class:`NetworkRealization` at a time, plain
  float64, written for auditability.  A realization is a list of station
  distances and channel matrices: either prescribed, or one trial of the
  engine's own chunk draws replayed, which is how the test suite checks
  the two layers against each other on identical draws.  The property
  tests (filter orthogonality, gain distributions, MMSE-vs-PZF dominance)
  run on these.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConditioningError, ConfigError, NumericError
from .geometry import NetworkConfig
from .pzf import _split_delta, default_m

__all__ = [
    "NetworkRealization",
    "McEstimate",
    "default_window_radius",
    "pzf_filter",
    "pzf_sinr",
    "mmse_sinr",
    "simulate_sinr",
    "estimate_coverage",
    "estimate_coverage_curve",
    "estimate_rate",
]

CHUNK_TRIALS = 512
_SLAB_BYTES = 160_000_000  # per slab: its complex64 draws plus their scaled copy
_POOL_BYTES = 1_600_000_000  # slabs of all default workers together
_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")  # cgroup v2 CPU quota: "<quota> <period>"
_COND_LIMIT = 1e12
_DIAG_FLOOR = 1e-12  # relative diagonal floor for noiseless covariance solves
_NEAR_DOUBLE = 32  # nearest interferers whose covariance terms use float64
_RECEIVERS = ("pzf", "mmse")


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


@dataclass(frozen=True)
class NetworkRealization:
    """One draw of the network as seen from the typical user at the origin.

    distances : (J,) station distances, sorted (serving first)
    channels  : (J, n_r, n_t) complex channel matrices, same order
    """

    distances: np.ndarray
    channels: np.ndarray


def _pzf_targets(realization: NetworkRealization, m: int, stream: int) -> np.ndarray:
    """Stack the vectors the PZF filter must null: the serving station's
    other streams plus every stream of the m-1 nearest interferers."""
    channels = realization.channels
    n_r, n_t = channels.shape[1], channels.shape[2]
    if not (0 <= stream < n_t):
        raise ConfigError(f"stream index {stream} out of range for n_t={n_t}")
    _split_delta(n_t, n_r, m)
    if channels.shape[0] < m:
        raise NumericError(
            f"window holds {channels.shape[0]} stations but the split needs {m}; "
            "enlarge the window"
        )
    own = np.delete(realization.channels[0], stream, axis=1)
    near = channels[1:m].transpose(1, 0, 2).reshape(n_r, -1)
    return np.concatenate((own, near), axis=1)


def pzf_filter(
    realization: NetworkRealization,
    m: int,
    stream: int = 0,
) -> np.ndarray:
    """Unit-norm partial zero-forcing filter for one stream, nulling the
    m-1 nearest interferers.

    Projects the desired channel onto the orthogonal complement of the
    nulling targets (with one re-orthogonalization pass) and normalizes.
    Raises :class:`NumericError` on rank deficiency or if the residual
    overlap with the nulled subspace exceeds 1e-10.
    """
    targets = _pzf_targets(realization, m, stream)
    h = realization.channels[0][:, stream]
    if targets.shape[1] == 0:
        v = h / np.linalg.norm(h)
        return v
    q, r = np.linalg.qr(targets)
    diag = np.abs(np.diag(r))
    if diag.min() < 1e-12 * max(diag.max(), 1.0):
        raise NumericError("nulling targets are numerically rank deficient")
    p = h - q @ (q.conj().T @ h)
    p = p - q @ (q.conj().T @ p)
    norm = np.linalg.norm(p)
    if norm == 0.0:
        raise NumericError("desired channel lies in the nulled subspace")
    v = p / norm
    residual = np.abs(q.conj().T @ v).max()
    if residual > 1e-10:
        raise NumericError(f"filter failed orthogonality check (residual {residual:.2e})")
    return v


def pzf_sinr(
    realization: NetworkRealization,
    config: NetworkConfig,
    m: int,
    stream: int = 0,
) -> float:
    """Post-filter SINR of the PZF receiver for one realization."""
    v = pzf_filter(realization, m, stream)
    h = realization.channels[0][:, stream]
    d = realization.distances
    signal = d[0] ** (-config.alpha) * abs(np.vdot(v, h)) ** 2
    interference = 0.0
    for j in range(m, len(d)):
        gains = np.abs(v.conj() @ realization.channels[j]) ** 2
        interference += d[j] ** (-config.alpha) * gains.sum()
    return float(signal / (config.n_t * config.sigma2 + interference))


def mmse_sinr(
    realization: NetworkRealization,
    config: NetworkConfig,
    stream: int = 0,
) -> float:
    """Post-filter SINR of the linear MMSE receiver for one realization.

    Builds the interference-plus-noise covariance (own-cell cross streams,
    all interferers, noise), applies a relative diagonal floor when
    sigma2 = 0, and refuses near-singular solves (condition number above
    1e12) with :class:`ConditioningError`.
    """
    channels = realization.channels
    n_r, n_t = channels.shape[1], channels.shape[2]
    if not (0 <= stream < n_t):
        raise ConfigError(f"stream index {stream} out of range for n_t={n_t}")
    d = realization.distances
    h = channels[0][:, stream]
    # Scaled covariance: n_t * (true covariance); the SINR expression below
    # compensates, and the scaling keeps the per-interferer weights as plain
    # path gains.
    cov = config.n_t * config.sigma2 * np.eye(n_r, dtype=complex)
    own = channels[0] @ channels[0].conj().T - np.outer(h, h.conj())
    cov += d[0] ** (-config.alpha) * own
    for j in range(1, len(d)):
        cov += d[j] ** (-config.alpha) * (channels[j] @ channels[j].conj().T)
    if config.sigma2 == 0.0:
        floor = _DIAG_FLOOR * np.real(np.trace(cov)) / n_r
        cov += floor * np.eye(n_r)
    if np.linalg.cond(cov) > _COND_LIMIT:
        raise ConditioningError("interference covariance is near singular")
    x = np.linalg.solve(cov, h)
    return float(d[0] ** (-config.alpha) * np.real(np.vdot(h, x)))


# ---------------------------------------------------------------------------
# Batched engine
# ---------------------------------------------------------------------------


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
        own = h0 @ h0.conj().transpose(0, 2, 1) - h[:, :, None] * h.conj()[:, None, :]
        cov += serve_gain[:, None, None] * own

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
        out["pzf"] = serve_gain * signal / (noise + i_pzf)
    if want_mmse:
        if config.sigma2 == 0.0:
            floor = _DIAG_FLOOR * np.einsum("bii->b", cov).real / n_r
            cov += floor[:, None, None] * np.eye(n_r)
        x = np.linalg.solve(cov, h[:, :, None])[:, :, 0]
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


def _resolve_receivers(receivers) -> tuple[str, ...]:
    if isinstance(receivers, str):
        receivers = (receivers,)
    receivers = tuple(receivers)
    for r in receivers:
        if r not in _RECEIVERS:
            raise ConfigError(f"unknown receiver {r!r}; expected subset of {_RECEIVERS}")
    if not receivers:
        raise ConfigError("at least one receiver is required")
    return receivers


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
    """
    receivers = _resolve_receivers(receivers)
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    if threads is not None and (
        isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1
    ):
        raise ConfigError(f"threads must be None or a positive integer, got {threads!r}")
    if window_radius is None:
        window_radius = default_window_radius(config.lam)

    pzf_m: int | None = None
    if "pzf" in receivers:
        pzf_m = default_m(config) if m is None else m
        _split_delta(config.n_t, config.n_r, pzf_m)
    elif m is not None:
        raise ConfigError("cancellation order m is only meaningful for the PZF receiver")

    want_mmse = "mmse" in receivers
    n_chunks = (int(trials) + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    jobs = [
        (config, pzf_m, want_mmse, float(window_radius), int(seed), c,
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


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error."""

    mean: float
    std_error: float
    trials: int
    seed: int


def _reduce(samples: np.ndarray, trials: int, seed: int) -> McEstimate:
    n = samples.size
    mean = float(samples.mean())
    if n > 1:
        se = float(samples.std(ddof=1) / math.sqrt(n))
    else:
        se = math.inf
    return McEstimate(mean=mean, std_error=se, trials=trials, seed=seed)


def estimate_coverage(
    config: NetworkConfig,
    receiver: str,
    z: float,
    trials: int,
    seed: int,
    *,
    m: int | None = None,
    window_radius: float | None = None,
    threads: int | None = None,
) -> McEstimate:
    """Monte Carlo coverage probability P[SINR > z] with standard error."""
    return estimate_coverage_curve(
        config, receiver, [z], trials, seed,
        m=m, window_radius=window_radius, threads=threads,
    )[0]


def estimate_coverage_curve(
    config: NetworkConfig,
    receiver: str,
    z_values,
    trials: int,
    seed: int,
    *,
    m: int | None = None,
    window_radius: float | None = None,
    threads: int | None = None,
) -> list[McEstimate]:
    """Coverage estimates for several thresholds from one simulation pass."""
    z_arr = np.asarray(list(z_values), dtype=float)
    # NaN fails both comparisons.
    if not np.all((z_arr >= 0.0) & (z_arr < math.inf)):
        raise ConfigError("thresholds must be finite and >= 0")
    if z_arr.size == 0:
        return []
    sinr = simulate_sinr(
        config, receiver, trials, seed,
        m=m, window_radius=window_radius, threads=threads,
    )[receiver]
    return [
        _reduce((sinr > z).astype(np.float64), int(trials), int(seed)) for z in z_arr
    ]


def estimate_rate(
    config: NetworkConfig,
    receiver: str,
    trials: int,
    seed: int,
    *,
    m: int | None = None,
    window_radius: float | None = None,
    threads: int | None = None,
) -> McEstimate:
    """Monte Carlo per-stream ergodic rate E[log2(1 + SINR)]."""
    sinr = simulate_sinr(
        config, receiver, trials, seed,
        m=m, window_radius=window_radius, threads=threads,
    )[receiver]
    return _reduce(np.log2(1.0 + sinr), int(trials), int(seed))
