"""Monte Carlo oracle for the analytic coverage and rate laws.

Simulates the downlink model directly: Poisson base stations on a disk
window around the typical user at the origin, i.i.d. Rayleigh channel
matrices per station, explicit receive filters, no approximations beyond
the finite window (whose default radius keeps the neglected far-field
interference around the 1e-4 relative level).

Two layers:

* Reference ops (:func:`sample_network`, :func:`pzf_filter`,
  :func:`pzf_sinr`, :func:`mmse_sinr`) - one realization at a time, plain
  float64, written for auditability.  The property tests (filter
  orthogonality, gain distributions, MMSE-vs-PZF dominance) run on these.

* A batched engine (:func:`simulate_sinr` and the estimators built on it) -
  vectorized over trials in fixed chunks of 512, single-precision channel
  draws, used for production estimates.  The two layers are checked against
  each other on identical draws in the test suite.

Reproducibility contract: trials are partitioned into fixed 512-trial
chunks; chunk ``c`` draws from ``SeedSequence([seed, c])`` and partial
results are combined in chunk order.  Estimates are therefore bit-identical
for a given (seed, trials, config), regardless of ``threads``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ConfigError, NumericError
from .geometry import NetworkConfig
from .pzf import _split_delta, default_m

__all__ = [
    "NetworkRealization",
    "McEstimate",
    "default_window_radius",
    "sample_network",
    "pzf_filter",
    "pzf_sinr",
    "mmse_sinr",
    "simulate_sinr",
    "estimate_coverage",
    "estimate_coverage_curve",
    "estimate_rate",
]

CHUNK_TRIALS = 512
_SLAB_BYTES = 160_000_000  # channel-slab budget for the batched engine
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

    positions : (J, 2) station coordinates sorted by distance (serving first)
    channels  : (J, n_r, n_t) complex channel matrices, same order
    window_radius, lam : the sampling window and intensity that produced it
    """

    positions: np.ndarray
    channels: np.ndarray
    window_radius: float
    lam: float

    @property
    def distances(self) -> np.ndarray:
        return np.hypot(self.positions[:, 0], self.positions[:, 1])

    @property
    def serving_distance(self) -> float:
        return float(np.hypot(self.positions[0, 0], self.positions[0, 1]))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_network(
    lam: float,
    window_radius: float | None,
    seed,
    *,
    n_r: int,
    n_t: int,
) -> NetworkRealization:
    """Draw one Poisson network and its channel matrices.

    The station count is Poisson with mean ``lam * pi * window_radius**2``
    (redrawn in the zero-count corner so a serving station always exists),
    positions are uniform on the disk, and entries of each channel matrix
    are i.i.d. circularly-symmetric unit-variance complex Gaussians.
    """
    if window_radius is None:
        window_radius = default_window_radius(lam)
    if not (lam > 0.0 and window_radius > 0.0):
        raise ConfigError("need lam > 0 and window_radius > 0")
    rng = _as_rng(seed)
    mean_count = lam * math.pi * window_radius**2
    count = 0
    while count == 0:
        count = int(rng.poisson(mean_count))
    radii = window_radius * np.sqrt(np.sort(rng.random(count)))
    angles = rng.uniform(0.0, 2.0 * math.pi, count)
    positions = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    raw = rng.standard_normal((count, n_r, n_t, 2))
    channels = (raw[..., 0] + 1j * raw[..., 1]) / math.sqrt(2.0)
    return NetworkRealization(
        positions=positions, channels=channels,
        window_radius=float(window_radius), lam=float(lam),
    )


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


def _draw_channels(rng, shape) -> np.ndarray:
    """Unit-variance complex Gaussian block in single precision."""
    raw = rng.standard_normal(shape + (2,), dtype=np.float32)
    return raw.view(np.complex64)[..., 0] * np.float32(1.0 / math.sqrt(2.0))


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
    so PZF and MMSE samples always refer to the same realizations.
    """
    n_r, n_t, alpha = config.n_r, config.n_t, config.alpha
    m = pzf_m if pzf_m is not None else 1
    r2 = _chunk_geometry(rng, config.lam, window_radius, n_trials, max(1, m))
    serve_r2 = r2[:, 0]
    with np.errstate(invalid="ignore"):
        weights = r2[:, 1:] ** (-alpha / 2.0)  # interferer path gains d^-alpha
    weights = np.nan_to_num(weights, nan=0.0, posinf=0.0).astype(np.float64)
    serve_gain = serve_r2 ** (-alpha / 2.0)
    n_int = weights.shape[1]

    h0 = _draw_channels(rng, (n_trials, n_r, n_t)).astype(np.complex128)
    h = h0[:, :, 0]

    # Covariance accumulators (MMSE) and filters (PZF).
    noise = n_t * config.sigma2
    cov = None
    if want_mmse:
        cov = np.zeros((n_trials, n_r, n_r), dtype=np.complex128)
        cov += noise * np.eye(n_r)
        own = h0 @ h0.conj().transpose(0, 2, 1) - h[:, :, None] * h.conj()[:, None, :]
        cov += serve_gain[:, None, None] * own

    v = None
    i_pzf = np.zeros(n_trials)
    slab_cols = max(16, min(n_int, _SLAB_BYTES // max(1, 16 * n_trials * n_r * n_t)))
    start = 0
    while start < n_int or (start == 0 and n_int == 0):
        cols = min(slab_cols, n_int - start)
        block = _draw_channels(rng, (n_trials, cols, n_r, n_t)) if cols else None

        if start == 0 and pzf_m is not None:
            # Nulling targets: serving cross streams + the m-1 nearest
            # interferers (always inside the first slab).
            targets = [np.delete(h0, 0, axis=2)]
            if m > 1:
                near = block[:, : m - 1].astype(np.complex128)
                targets.append(near.transpose(0, 2, 1, 3).reshape(n_trials, n_r, -1))
            z_mat = np.concatenate(targets, axis=2)
            if z_mat.shape[2]:
                q, _ = np.linalg.qr(z_mat)
                p = h - np.einsum("bik,bk->bi", q, np.einsum("bik,bi->bk", q.conj(), h))
                p = p - np.einsum("bik,bk->bi", q, np.einsum("bik,bi->bk", q.conj(), p))
            else:
                p = h
            v = p / np.linalg.norm(p, axis=1, keepdims=True)

        if cols:
            flat = block.transpose(0, 2, 1, 3).reshape(n_trials, n_r, cols * n_t)
            w_rep = np.repeat(weights[:, start : start + cols], n_t, axis=1)
            if want_mmse:
                # MMSE: accumulate sum_j d_j^-alpha H_j H_j^H.  The nearest
                # interferers can outweigh the far field by many orders of
                # magnitude; single-precision rounding of their terms would
                # swamp the small eigenvalues the far field leaves and can
                # make the covariance indefinite, so they go through double
                # precision.  The far field stays in single precision.
                near = n_t * min(cols, _NEAR_DOUBLE) if start == 0 else 0
                if near:
                    f = flat[:, :, :near].astype(np.complex128)
                    cov += (f * w_rep[:, None, :near]) @ f.conj().transpose(0, 2, 1)
                far = flat[:, :, near:]
                cov += (far * w_rep[:, None, near:].astype(np.complex64)) @ far.conj().transpose(0, 2, 1)
            if pzf_m is not None:
                w_resid = w_rep.copy()
                if start == 0 and m > 1:
                    w_resid[:, : (m - 1) * n_t] = 0.0  # cancelled interferers
                g = np.einsum("bi,bin->bn", v.conj().astype(np.complex64), flat)
                power = g.real.astype(np.float64) ** 2 + g.imag.astype(np.float64) ** 2
                i_pzf += (power * w_resid).sum(axis=1)
            start += cols
        if n_int == 0:
            break

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
    threads: int = 1,
) -> dict[str, np.ndarray]:
    """Raw SINR samples per receiver, concatenated in chunk order.

    PZF and MMSE samples with the same index belong to the same network
    realization.  ``m`` is the PZF cancellation order (default:
    :func:`cellmimo.pzf.default_m`, the m minimizing the exact mean
    inverse SINR).
    """
    receivers = _resolve_receivers(receivers)
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
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
    results: list[dict[str, np.ndarray] | None] = [None] * n_chunks
    if threads > 1 and n_chunks > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
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
    threads: int = 1,
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
    threads: int = 1,
) -> list[McEstimate]:
    """Coverage estimates for several thresholds from one simulation pass."""
    z_arr = np.asarray(list(z_values), dtype=float)
    if z_arr.size and np.any(z_arr < 0.0):
        raise ConfigError("thresholds must be >= 0")
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
    threads: int = 1,
) -> McEstimate:
    """Monte Carlo per-stream ergodic rate E[log2(1 + SINR)]."""
    sinr = simulate_sinr(
        config, receiver, trials, seed,
        m=m, window_radius=window_radius, threads=threads,
    )[receiver]
    return _reduce(np.log2(1.0 + sinr), int(trials), int(seed))
