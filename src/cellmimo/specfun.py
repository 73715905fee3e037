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

* integer a with either -1 < b < 0 (a <= 64; the order-0 coverage
  kernels) or 0 < b <= 32 (a <= 28; the higher orders), for ``z <= 1e4``:
  the Euler integral ``F = b ∫_0^1 t^(b-1) (1+zt)^(-a) dt`` (DLMF 15.6.1)
  by one fixed-node panel rule.  For b > 0 the integrand is positive and
  is summed as it stands.  For b < 0 it is summed in the form
  ``1 + δ ∫_0^1 t^(-δ-1) [1 - (1+zt)^(-a)] dt`` with ``δ = -b``, built
  from additions, multiplications and divisions of nonnegative numbers
  only, so rounding can never make the computed function decrease in z.
* otherwise ``z <= 24``: Pfaff transformation ``(1+z)^(-a) F(a, 1; b+1; w)``
  with ``w = z/(1+z) <= 0.96``.  All series terms are positive for the
  parameter ranges used here, so there is no cancellation; terms are
  generated in vectorized blocks.
* beyond that: the standard connection formula in ``1/z`` whose second
  hypergeometric factor is again in-family with argument ``1/z < 1/24``,
  so it converges in a handful of terms.  This path needs ``a - b`` to stay
  away from integers (the formula degenerates there).
* the rare remaining corner (``a - b`` within 0.05 of an integer beyond
  the first two routes) falls back to mpmath at 30 significant digits.
  The coverage kernels reach it only where 2/α is within 0.05 of an
  integer (α < 2.11 or α > 40), at z > 1e4, or at z > 24 for the orders
  beyond the Euler route's bounds.

The achieved accuracy is verified against mpmath in the test suite at
1e-12 relative over the full parameter box used by the coverage laws.

Both coverage laws read their sums over partitions from one coefficient
table of a polynomial power, :func:`_power_table`.

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
# Series terms per block, doubling from _FIRST_BLOCK: the connection
# formula's series (w < 1/25) needs only a few terms.
_FIRST_BLOCK = 8
_BLOCK = 64
_MAX_TERMS = 8192
_TERM_STOP = 1e-17
# Euler-integral quadrature: Gauss-Legendre panels [8^-(k+1), 8^-k], k < 6,
# plus a Gauss-Jacobi panel [0, 8^-6] that absorbs the t^(b-1) endpoint
# power.  Up to z = 1e4 the integrand's pole at t = -1/z stays more than 25
# origin-panel lengths from that panel.  Against mpmath the rule is within
# 1e-14 for a <= 64 and -1 < b < 0, and within 4e-13 for a <= 28 and
# 0 < b <= 32; its error grows with the pole order a (9.4e-13 at a = 32,
# 4e-12 at a = 40) and with b beyond 32 (1e-11 at b = 100).
_QUAD_Z_MAX = 1.0e4
_QUAD_MAX_A = 64
_QUAD_MAX_A_POSITIVE = 28
_QUAD_MAX_B = 32.0
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
    n0, block = 1, _FIRST_BLOCK
    while n0 < _MAX_TERMS:
        n = np.arange(n0, n0 + block, dtype=float)
        # ratio t_n / t_{n-1} = w * (a + n - 1) / (b + n)
        ratios = ((a + n - 1.0) / (b + n)).reshape((block,) + (1,) * w.ndim) * w
        terms = term * np.cumprod(ratios, axis=0)
        acc = acc + terms.sum(axis=0)
        term = terms[-1]
        n0 += block
        block = min(2 * block, _BLOCK)
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
def _panel_nodes(b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_i in (0, 1) and positive weights c_i with
    sum_i c_i f(t_i) ~ int_0^1 t^(b-1) f(t) dt, for b > 0 and f smooth on
    [0, 1], or for -1 < b < 0 and f(t) = O(t) at 0."""
    xs, ws = np.polynomial.legendre.leggauss(_QUAD_PANEL_NODES)
    nodes, weights = [], []
    for k in range(_QUAD_PANELS):
        hi = _QUAD_PANEL_RATIO**k
        lo = hi * _QUAD_PANEL_RATIO
        t = lo + 0.5 * (hi - lo) * (xs + 1.0)
        nodes.append(t)
        weights.append(0.5 * (hi - lo) * ws * t ** (b - 1.0))
    eps = _QUAD_PANEL_RATIO**_QUAD_PANELS
    if b > 0.0:
        xj, wj = _sp.roots_jacobi(_QUAD_ORIGIN_NODES, 0.0, b - 1.0)
        t = 0.5 * eps * (xj + 1.0)
        # The weights lose digits as b - 1 nears -1 (3e-8 of their sum at
        # b = 1e-9); their exact sum is 2^b / b.
        c = wj * (0.5 * eps) ** b * (2.0**b / b / wj.sum())
    else:
        # t^(b-1) is not integrable at 0: the Jacobi weight t^b takes f(t)/t.
        xj, wj = _sp.roots_jacobi(_QUAD_ORIGIN_NODES, 0.0, b)
        t = 0.5 * eps * (xj + 1.0)
        c = wj * (0.5 * eps) ** (1.0 + b) / t
    nodes.append(t)
    weights.append(c)
    return np.concatenate(nodes), np.concatenate(weights)


def _euler_integral(a: int, b: float, z: np.ndarray) -> np.ndarray:
    """F(a, b; b+1; -z) = b int_0^1 t^(b-1) (1+zt)^(-a) dt (DLMF 15.6.1)
    for integer a >= 1 and 0 <= z <= 1e4, by the panel rule.

    For b > 0 the integrand is positive and F = b sum_i c_i (1 + z t_i)^(-a),
    capped at 1, the exact bound of F that rounding of sum_i c_i can
    exceed by an ulp at z ~ 0.  (The form of the b < 0 case below,
    1 - b sum_i c_i g(z t_i), would cancel catastrophically here, where F
    is small at large z.)

    For -1 < b < 0 (delta = -b) it is F = 1 + delta sum_i c_i g(z t_i)
    with g from :func:`_monotone_g`.  Every operation is then a correctly
    rounded +, * or / of nonnegative operands, each monotone in its
    z-dependent operand, and the sum runs in the same order for every z,
    so z1 <= z2 gives F(z1) <= F(z2) exactly; the form is also free of
    cancellation.
    """
    t, c = _panel_nodes(b)
    out = np.empty_like(z)
    for start in range(0, z.size, _QUAD_ROWS):
        blk = slice(start, start + _QUAD_ROWS)
        x = np.multiply.outer(z[blk], t)
        if b > 0.0:
            x += 1.0
            np.power(x, -a, out=x)
            out[blk] = np.minimum(b * (x @ c), 1.0)
        else:
            out[blk] = 1.0 - b * (_monotone_g(a, x) * c).sum(axis=-1)
    return out


def _monotone_g(a: int, x: np.ndarray) -> np.ndarray:
    """g(x) = 1 - (1+x)^(-a) as 1 / (1 + 1/P(x)), P(x) = (1+x)^a - 1 in
    Horner form with binomial coefficients."""
    coef = [float(math.comb(a, k)) for k in range(a + 1)]
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
    return p


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

    Notes
    -----
    Integer ``a`` with -1 < b < 0 or 0 < b <= 32 takes the Euler integral
    up to z = 1e4, vectorized over z; other parameters take the Pfaff
    series up to z = 24.  Beyond those the 1/z connection formula applies,
    or mpmath where ``a - b`` is within 0.05 of an integer (see the module
    docstring for the bounds on ``a``).
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
    # NaN fails both comparisons.
    if zv.size and not (zv.min() >= 0.0 and zv.max() < math.inf):
        raise ConfigError("hyp2f1_negz requires finite z >= 0")

    euler = a.is_integer() and a >= 1.0 and (
        (-1.0 < b < 0.0 and a <= _QUAD_MAX_A)
        or (0.0 < b <= _QUAD_MAX_B and a <= _QUAD_MAX_A_POSITIVE)
    )
    near = zv <= (_QUAD_Z_MAX if euler else _SERIES_SWITCH)
    out = np.empty_like(zv)
    if np.any(near):
        zn = zv[near]
        out[near] = _euler_integral(int(a), b, zn) if euler else _pfaff_series(a, b, zn)
    if not np.all(near):
        far = ~near
        d = a - b
        if a > 0.0 and abs(d - round(d)) >= _INT_SEPARATION:
            out[far] = _connection_large_z(a, b, zv[far])
        else:
            out[far] = _mpmath_pointwise(a, b, zv[far])
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


def _power_table(g: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Cumulative coefficients of first(t) g(t)^ℓ / ℓ!, the partition sums
    of both coverage laws.

    ``g`` and ``first`` hold polynomial coefficients along axis 0, with
    g[0] = 0 and any trailing axes broadcast.  With n = len(g), returns S
    of shape (n, n, ...) with S[ℓ, j] = Σ_{k<=j} [t^k] first(t) g(t)^ℓ / ℓ!.
    The term of degree k of g(t)^ℓ / ℓ! sums a product over the ℓ blocks of
    every partition of k (a partial Bell polynomial; Comtet, *Advanced
    Combinatorics*, 1974, §3.3).  It is built by b_ℓ = (b_{ℓ-1} g) / ℓ,
    truncated at degree n - 1; for nonnegative inputs every step adds
    products of nonnegative numbers, so no term cancels.
    """
    n = len(g)
    b = np.zeros((n,) + np.broadcast_shapes(np.shape(g), np.shape(first)))
    b[0] = first
    for ell in range(1, n):
        # b_{ℓ-1} has no term below degree ℓ - 1, g none below degree 1.
        for i in range(1, n - ell + 1):
            b[ell, ell - 1 + i:] += g[i] * b[ell - 1, ell - 1:n - i]
        b[ell] /= ell
    return np.cumsum(b, axis=1)
