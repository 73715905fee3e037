"""Special functions for the analytic coverage laws.

Every closed-form expression in this package ultimately reduces to the Gauss
hypergeometric function evaluated on the negative real axis, in the one-off
family

    F(a, b; b + 1; -z),    z >= 0,

together with the gamma function and Pochhammer symbols.  The stock
``scipy.special.hyp2f1`` loses up to six digits in parts of this family
(cancellation for large z when a and b are close), which is not good enough
for the tolerance-stacked quadratures built on top of it, so ``hyp2f1_negz``
evaluates the family directly:

* the increasing sub-family (a a positive integer, -1 < b < 0, which holds
  the order-0 coverage kernels) for ``z <= 1e4``: a fixed positive-weight
  quadrature of ``1 + δ ∫_0^1 t^(-δ-1) [1 - (1+zt)^(-a)] dt`` with
  ``δ = -b``, built from additions, multiplications and divisions of
  nonnegative numbers only.  Rounding can then never make the computed
  function decrease in z; the Pfaff product below multiplies a decreasing
  and an increasing factor and steps down by an ulp between neighbouring
  floats for most z.
* otherwise ``z <= 24``: Pfaff transformation ``(1+z)^(-a) F(a, 1; b+1; w)`` with
  ``w = z/(1+z) <= 0.96``.  All series terms are positive for the parameter
  ranges used here, so there is no cancellation; terms are generated in
  vectorized blocks.
* ``z > 24``: the standard connection formula in ``1/z`` whose second
  hypergeometric factor is again in-family with argument ``1/z < 1/24``,
  so it converges in a handful of terms.  This path needs ``a - b`` to stay
  away from integers (the formula degenerates there).
* the rare remaining corner (large z and ``a - b`` within 0.05 of an
  integer) falls back to mpmath at 30 significant digits.

The achieved accuracy is verified against mpmath in the test suite at
1e-12 relative over the full parameter box used by the coverage laws.

Receiver noise adds one more function, the radial moment
``J(p, b) = ∫_0^∞ y^p exp(-y - b y^(α/2)) dy`` (:func:`radial_moment`),
which is Γ(p + 1) at b = 0 and within 1e-11 relative of mpmath for
0 <= p <= 64 and 1e-8 <= b <= 1e4 (tested at α = 2.05 to 6).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import ConfigError, NumericError, PoleError

__all__ = [
    "pochhammer",
    "hyp2f1_negz",
    "lambda_kernel",
    "theta_kernel",
    "radial_moment",
]

# Switch point between the direct Pfaff series and the 1/z connection
# formula.  At z = 24 the Pfaff argument is w = 0.96, where the series
# still converges comfortably (worst case ~2000 terms), while 1/z = 0.042
# already makes the connection series very short.
_SERIES_SWITCH = 24.0
# Minimum distance of a - b from the nearest integer for the connection
# formula; closer than this the gamma prefactors start cancelling and we
# delegate to mpmath.
_INT_SEPARATION = 0.05
_BLOCK = 64
_MAX_TERMS = 8192
_TERM_STOP = 1e-17
# Quadrature of the increasing sub-family: Gauss-Legendre panels
# [8^-(k+1), 8^-k], k < 6, plus a Gauss-Jacobi panel [0, 8^-6] that absorbs
# the t^-δ endpoint singularity.  Up to z = 1e4 the integrand's pole at
# t = -1/z stays more than 25 origin-panel lengths from that panel, and the
# rule is within 1e-14 of mpmath for a <= 64 and 0 < δ < 1.
_QUAD_Z_MAX = 1.0e4
_QUAD_MAX_A = 64
_QUAD_PANEL_RATIO = 0.125
_QUAD_PANELS = 6
_QUAD_PANEL_NODES = 24
_QUAD_ORIGIN_NODES = 12
# Rows of z per quadrature block, to bound the (rows x nodes) work array.
_QUAD_ROWS = 2048
# Radial moment: trapezoid step in units of the integrand's peak width and
# in units of 1/s (s = alpha/2), the tail cut (log of the peak-to-cut
# ratio), and the bound on the difference between the rule and its
# every-other-node half.  The trapezoid error of an analytic integrand
# falls as exp(-const/step), so the full rule's error is about the square
# of that difference.
_RADIAL_STEP = 1.0 / 6.0
_RADIAL_STRIP_STEP = 0.25
_RADIAL_TAIL = 40.0
_RADIAL_CHECK = 1e-7
_RADIAL_NEWTON_STEPS = 60
# Bound on (rows x nodes) of the radial-moment work array.
_RADIAL_CELLS = 1 << 16


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1.

    Computed as a direct product, which stays exact at zero and negative
    ``x`` where gamma-ratio formulations hit poles.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ConfigError(f"pochhammer order must be a nonnegative integer, got {n!r}")
    out = 1.0
    for i in range(int(n)):
        out *= x + i
    return out


def _pfaff_series(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """F(a, b; b+1; -z) for 0 <= z <= 24 via the Pfaff-transformed series."""
    w = z / (1.0 + z)
    acc = np.ones_like(w)
    term = np.ones_like(w)
    n0 = 1
    while n0 < _MAX_TERMS:
        n = np.arange(n0, n0 + _BLOCK, dtype=float)
        # ratio t_n / t_{n-1} = w * (a + n - 1) / (b + n)
        ratios = ((a + n - 1.0) / (b + n)).reshape((_BLOCK,) + (1,) * w.ndim) * w
        terms = term * np.cumprod(ratios, axis=0)
        acc = acc + terms.sum(axis=0)
        term = terms[-1]
        n0 += _BLOCK
        if np.all(np.abs(term) <= _TERM_STOP * np.abs(acc)):
            break
    else:
        raise NumericError(
            f"hypergeometric series did not converge within {_MAX_TERMS} terms "
            f"(a={a}, b={b}, max z={z.max() if z.size else 'n/a'})"
        )
    return (1.0 + z) ** (-a) * acc


def _connection_large_z(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """F(a, b; b+1; -z) for z > 24 via the 1/z connection formula.

    Requires a - b away from integers and a > 0; the caller guarantees both.
    """
    d = a - b
    g1 = math.gamma(b + 1.0) * math.gamma(d) / math.gamma(a)
    g2 = math.gamma(b + 1.0) * math.gamma(-d) / (math.gamma(b) * math.gamma(b + 1.0 - a))
    tail = _pfaff_series(a, d, 1.0 / z)
    return g1 * z ** (-b) + g2 * z ** (-a) * tail


@lru_cache(maxsize=128)
def _increasing_nodes(delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_i in (0, 1) and positive weights c_i with
    sum_i c_i f(t_i) ~ int_0^1 t^(-delta-1) f(t) dt for f(t) = O(t) at 0."""
    xs, ws = np.polynomial.legendre.leggauss(_QUAD_PANEL_NODES)
    nodes, weights = [], []
    for k in range(_QUAD_PANELS):
        hi = _QUAD_PANEL_RATIO**k
        lo = hi * _QUAD_PANEL_RATIO
        t = lo + 0.5 * (hi - lo) * (xs + 1.0)
        nodes.append(t)
        weights.append(0.5 * (hi - lo) * ws * t ** (-delta - 1.0))
    eps = _QUAD_PANEL_RATIO**_QUAD_PANELS
    xj, wj = _sp.roots_jacobi(_QUAD_ORIGIN_NODES, 0.0, -delta)
    t = 0.5 * eps * (xj + 1.0)
    nodes.append(t)
    weights.append(wj * (0.5 * eps) ** (1.0 - delta) / t)
    return np.concatenate(nodes), np.concatenate(weights)


def _increasing_quadrature(a: int, delta: float, z: np.ndarray) -> np.ndarray:
    """F(a, -delta; 1 - delta; -z) for integer 1 <= a <= 64, 0 < delta < 1
    and 0 <= z <= 1e4, nondecreasing in z in floating point.

    Uses F = 1 + delta * sum_i c_i g(z t_i) with g(x) = 1 - (1+x)^(-a)
    evaluated as 1 / (1 + 1/P(x)), P(x) = (1+x)^a - 1 in Horner form with
    binomial coefficients.  Every operation is a correctly rounded +, * or /
    of nonnegative operands, each monotone in its z-dependent operand, and
    the sum runs in the same order for every z, so z1 <= z2 gives
    F(z1) <= F(z2) exactly; the form is also free of cancellation.
    """
    t, c = _increasing_nodes(delta)
    coef = [float(math.comb(a, k)) for k in range(a + 1)]
    out = np.empty_like(z)
    for start in range(0, z.size, _QUAD_ROWS):
        x = np.multiply.outer(z[start : start + _QUAD_ROWS], t)
        p = np.full_like(x, coef[a])
        for k in range(a - 1, 0, -1):
            p *= x
            p += coef[k]
        p *= x
        # P(0) = 0 and a subnormal P both overflow 1/P to inf; g = 0 then,
        # exact at x = 0 and otherwise far below the ulp of F >= 1.
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(1.0, p, out=p)
        p += 1.0
        np.divide(1.0, p, out=p)
        p *= c
        out[start : start + _QUAD_ROWS] = 1.0 + delta * p.sum(axis=-1)
    return out


def _mpmath_pointwise(a: float, b: float, z: np.ndarray) -> np.ndarray:
    from mpmath import mp

    out = np.empty_like(z)
    with mp.workdps(30):
        for idx in np.ndindex(z.shape):
            out[idx] = float(mp.hyp2f1(a, b, b + 1.0, -z[idx]))
    return out


def hyp2f1_negz(a: float, b: float, c: float, z):
    """Gauss hypergeometric F(a, b; c; -z) for the family c = b + 1, z >= 0.

    Parameters
    ----------
    a, b : float
        Upper parameters.  ``b`` may be negative (but ``c = b + 1`` must not
        be zero or a negative integer).
    c : float
        Must equal ``b + 1`` up to rounding; that is the only family the
        coverage laws need, and restricting to it is what makes a fast
        accurate evaluation possible.
    z : float or ndarray
        Nonnegative; the function is evaluated at argument ``-z``.

    Returns
    -------
    float or ndarray matching the shape of ``z``.
    """
    a = float(a)
    b = float(b)
    c = float(c)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ConfigError("hypergeometric parameters must be finite")
    if abs(c - (b + 1.0)) > 1e-9 * max(1.0, abs(b)):
        raise ConfigError(f"unsupported parameter family: expected c = b + 1, got a={a}, b={b}, c={c}")
    if c <= 0.0 and abs(c - round(c)) < 1e-9:
        raise PoleError(f"hypergeometric c parameter at a pole: c={c}")

    scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    if zv.size and (np.any(zv < 0.0) or not np.all(np.isfinite(zv))):
        raise ConfigError("hyp2f1_negz requires finite z >= 0")

    out = np.empty_like(zv)
    if a.is_integer() and 1.0 <= a <= _QUAD_MAX_A and -1.0 < b < 0.0:
        quad = zv <= _QUAD_Z_MAX
        if np.any(quad):
            out[quad] = _increasing_quadrature(int(a), -b, zv[quad])
    else:
        quad = np.zeros(zv.shape, dtype=bool)
    small = ~quad & (zv <= _SERIES_SWITCH)
    if np.any(small):
        out[small] = _pfaff_series(a, b, zv[small])
    big = ~quad & (zv > _SERIES_SWITCH)
    if np.any(big):
        d = a - b
        if a > 0.0 and abs(d - round(d)) >= _INT_SEPARATION:
            out[big] = _connection_large_z(a, b, zv[big])
        else:
            out[big] = _mpmath_pointwise(a, b, zv[big])
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(z))


def _validate_kernel_args(order: int, n_t: int, alpha: float) -> None:
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ConfigError(f"kernel order must be a nonnegative integer, got {order!r}")
    if not isinstance(n_t, (int, np.integer)) or n_t < 1:
        raise ConfigError(f"transmit antenna count must be a positive integer, got {n_t!r}")
    if not (alpha > 2.0):
        raise ConfigError(f"path-loss exponent must exceed 2, got {alpha!r}")


def lambda_kernel(order: int, n_t: int, alpha: float, z):
    """Interference kernel F(n_t + order, order - 2/α; order - 2/α + 1; -z).

    ``order = 0`` gives the exponent of the interference Laplace functional
    (values >= 1, increasing in z, and nondecreasing in floating point too
    for ``n_t <= 64`` and ``z <= 1e4``); ``order >= 1`` gives the extra factor
    contributed by the order-th derivative of that exponent (values in
    (0, 1]).  Both facts are what make log-space term assembly safe in the
    coverage sums.
    """
    _validate_kernel_args(order, n_t, alpha)
    b = order - 2.0 / alpha
    return hyp2f1_negz(n_t + order, b, b + 1.0, z)


def theta_kernel(order: int, n_t: int, alpha: float, z):
    """Moment kernel F(n_t, order - 2/α; order - 2/α + 1; -z).

    Same family as :func:`lambda_kernel` but with the first parameter fixed
    at ``n_t``; this is the form that appears when averaging products of
    per-interferer gain powers over the Poisson field.  ``order = 0``
    coincides with ``lambda_kernel(0, ...)``.
    """
    _validate_kernel_args(order, n_t, alpha)
    b = order - 2.0 / alpha
    return hyp2f1_negz(n_t, b, b + 1.0, z)


def radial_moment(p, b, alpha: float):
    """Radial moment J(p, b) = ∫_0^∞ y^p exp(-y - b y^(α/2)) dy.

    Receiver noise enters the coverage laws only through this integral: y
    is the serving-cell area in units of the interference scale and b the
    noise-to-interference ratio.  ``p >= 0`` and ``b >= 0`` broadcast
    against each other.  J(p, 0) = Γ(p + 1) exactly, which is all the
    zero-noise laws need.

    For b > 0 the integrand in t = log y is exp(φ(t)) with
    φ(t) = (p+1) t - e^t - b e^(αt/2), which is strictly concave.  It is
    integrated by the trapezoid rule centred on its mode, with a step set by
    the width of its peak and by α; the rule on every other node gives the
    error estimate, and :class:`NumericError` is raised when that estimate
    exceeds its bound.
    """
    if not (alpha > 2.0 and math.isfinite(alpha)):
        raise ConfigError(f"path-loss exponent must exceed 2, got {alpha!r}")
    pv, bv = np.asarray(p, dtype=float), np.asarray(b, dtype=float)
    b_max = bv.max()
    # NaN fails the first two comparisons.
    if not (pv.min() >= 0.0 and bv.min() >= 0.0 and pv.max() < math.inf and b_max < math.inf):
        raise ConfigError("radial moment needs finite p >= 0 and b >= 0")
    out = np.asarray(_sp.gamma(pv + 1.0 + 0.0 * bv))  # in the broadcast shape
    if b_max > 0.0:
        pb, bb = np.broadcast_arrays(pv, bv)
        noisy = bb > 0.0
        out[noisy] = _radial_trapezoid(pb[noisy] + 1.0, bb[noisy], 0.5 * alpha)
    return float(out) if out.ndim == 0 else out


def _radial_trapezoid(q: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """J(q - 1, b) for b > 0, where φ(t) = q t - e^t - b e^(st)."""
    # Mode: the root of φ'(t) = q - e^t - s b e^(st).  Starting from the
    # smaller of the two one-term roots, φ' <= 0 and the root lies within
    # log 2 to the left; φ' is concave and decreasing there, so Newton
    # steps approach the root monotonically from the right.
    log_q = np.log(q)
    t = np.minimum(log_q, (log_q - np.log(s * b)) / s)
    for _ in range(_RADIAL_NEWTON_STEPS):
        e1, e2 = np.exp(t), b * np.exp(s * t)
        dt = (q - e1 - s * e2) / (e1 + s * s * e2)
        t += dt
        if np.all(np.abs(dt) <= 1e-14 * (1.0 + np.abs(t))):
            break
    e1, e2 = np.exp(t), b * np.exp(s * t)
    width = 1.0 / np.sqrt(e1 + s * s * e2)  # (-φ''(t*))^(-1/2)
    log_peak = q * t - e1 - e2
    # The step resolves the peak and stays well inside the strip
    # |Im t| < π/(2s) in which exp(-b e^(st)) still decays.
    step = np.minimum(_RADIAL_STEP * width, _RADIAL_STRIP_STEP / s)
    # Right of the mode φ''' < 0 gives φ(t* + x) - φ(t*) <= -x²/(2 width²);
    # left of it φ(t) - φ(t*) <= q (t - t* + 1).  Both cut the integrand at
    # exp(-_RADIAL_TAIL) of its peak.
    right = math.ceil(float(np.max(math.sqrt(2.0 * _RADIAL_TAIL) * width / step)))
    left = math.ceil(float(np.max((1.0 + _RADIAL_TAIL / q) / step)))
    k = np.arange(-left, right + 1)
    even = k % 2 == 0
    out = np.empty_like(q)
    rows = max(1, _RADIAL_CELLS // k.size)
    for start in range(0, q.size, rows):
        blk = slice(start, start + rows)
        x = step[blk, None] * k  # t - t*
        f = np.exp(
            q[blk, None] * x - e1[blk, None] * np.expm1(x) - e2[blk, None] * np.expm1(s * x)
        )
        fine = f.sum(axis=1)
        coarse = 2.0 * f[:, even].sum(axis=1)
        if np.any(np.abs(fine - coarse) > _RADIAL_CHECK * fine):
            bad = int(np.argmax(np.abs(fine - coarse) / fine))
            raise NumericError(
                f"radial moment rule did not resolve p={q[blk][bad] - 1.0:.6g}, "
                f"b={b[blk][bad]:.6g}, alpha={2.0 * s:.6g}"
            )
        out[blk] = np.exp(log_peak[blk] + np.log(step[blk] * fine))
    return out
