"""Reference receivers: the Monte Carlo engine's test oracle.

One :class:`NetworkRealization` at a time, plain float64, written for
auditability.  A realization is a list of station distances and channel
matrices: either prescribed (:func:`_manual_realization`), or one trial of
the engine's own chunk draws replayed (:func:`_replay_reference`), which is
how the tests check the batched engine against these receivers on
identical draws.  The property tests (filter orthogonality, gain
distributions, MMSE-vs-PZF dominance) run on them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cellmimo.errors import ConditioningError, ConfigError, NumericError
from cellmimo.geometry import NetworkConfig
from cellmimo.montecarlo import _DIAG_FLOOR, _chunk_geometry, _draw_channels
from cellmimo.pzf import _split_delta

_COND_LIMIT = 1e12


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


def _manual_realization(rng, radii, n_r, n_t):
    """Realization with prescribed station distances and fresh channels."""
    raw = rng.standard_normal((len(radii), n_r, n_t, 2))
    channels = (raw[..., 0] + 1j * raw[..., 1]) / math.sqrt(2.0)
    return NetworkRealization(distances=np.asarray(radii, dtype=float), channels=channels)


def _replay_reference(config, window, seeds, n_trials, min_count=1, slab_cols=None):
    """The realizations of every trial of one engine chunk, in trial order:
    the chunk's own draws from ``seeds`` (geometry, serving channels, then
    interferer slabs of ``slab_cols`` columns, one slab by default) replayed
    in float64 for the reference ops."""
    rng = np.random.default_rng(seeds)
    r2 = _chunk_geometry(rng, config.lam, window, n_trials, min_count)
    shape = (n_trials, config.n_r, config.n_t)
    slabs = [_draw_channels(rng, shape)[:, None]]
    n_int = r2.shape[1] - 1
    step = slab_cols or max(1, n_int)
    slabs += [_draw_channels(rng, (n_trials, min(step, n_int - s)) + shape[1:])
              for s in range(0, n_int, step)]
    stations = np.concatenate(slabs, axis=1)
    for t in range(n_trials):
        count = int(np.sum(np.isfinite(r2[t])))
        yield NetworkRealization(distances=np.sqrt(r2[t, :count]),
                                 channels=stations[t, :count].astype(np.complex128))
