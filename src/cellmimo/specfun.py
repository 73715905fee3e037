"""Special functions for the analytic coverage laws.

Every closed-form expression in this package ultimately reduces to the Gauss
hypergeometric function evaluated on the negative real axis, in the one-off
family

    F(a, b; b + 1; -z),    z >= 0,

with b = j - 2/α for the kernel order j and integer first parameter
a = n_t + j (the PZF law's Λ_j) or a = n_t (the MMSE law's Θ_j), together
with the gamma function.  Both laws read every order of their kernel, in
logs, from one table, :func:`_log_kernel_table`, which shares the work
across the orders.  The logs stay finite where a kernel itself is below
the smallest float64, so no term of the laws' sums is lost at large z.
The laws' guards bound its domain: a <= 40, and j <= 20 (PZF) or
j <= min(n_t, 15) (MMSE).

The stock ``scipy.special.hyp2f1`` loses up to six digits in parts of this
family (cancellation for large z when a and b are close), which is not good
enough for the tolerance-stacked quadratures built on top of it, so the
table evaluates the family by one quadrature rule plus one exact identity:

* the Euler integral ``F = b ∫_0^1 t^(b-1) (1+zt)^(-a) dt`` (DLMF 15.6.1)
  by one fixed-node panel rule, for z <= 1e4 when b < 0 or a <= 28, and
  for z <= 4 otherwise.  For b > 0 the integrand is positive and is summed
  as it stands.  For b < 0 (order 0) it is summed in the form
  ``1 + δ ∫_0^1 t^(-δ-1) [1 - (1+zt)^(-a)] dt`` with ``δ = -b``, built
  from additions, multiplications and divisions of nonnegative numbers
  only, so rounding can never make the computed function decrease in z.
* beyond that, the same integral split at infinity.  With c = a - b > 0,

      F(a, b; b+1; -z) = z^(-b) [G - (b/c) z^(-c) F(a, c; c+1; -1/z)],
      G = Γ(b+1) Γ(c) / Γ(a),

  exactly (this is the 1/z connection formula, whose second gamma ratio
  Γ(b+1)Γ(b-a)/(Γ(b)Γ(b+1-a)) is -b/c in this family, so it has no pole).
  The second F is the panel rule again, at argument 1/z <= 1/4.  It is
  taken in logs, ``log F = -b log z + log(G - ...)``, so it never
  underflows; for b < 0 both terms in the bracket are positive.

Against mpmath at 40 digits (random kernels of both laws, α from 2.0001
to 1e4, z up to 1e77) log F is within 4e-13 on the panel rule's side and
5e-13 on the reflected side, the rounding of b log z at |log F| in the
thousands.  Relative to log F (2.01 <= α <= 1000) the reflected side is
within 3e-14 and the panel rule's within 9e-13, at worst near α = 2 and
z = 0.01, where log F is near 0.  The tests check both kernel
families' logs at 1e-12 up to z = 1e77.

Receiver noise adds one more function, the radial moment
``J(p, b) = ∫_0^∞ y^p exp(-y - b y^(α/2)) dy`` (:func:`radial_moment`),
which is Γ(p + 1) at b = 0.  For b > 0 it is the trapezoid rule in
t = log y, centred on the integrand's mode, with the rule on every other
node as its error check.  Each row of a call takes only the nodes its own
integrand needs.  On the right the rule stops where the integrand falls to
e^-40 of its peak, found by Newton steps from beyond that point.  On the
left, once both exponentials of the integrand are small, the rest of the
infinite node sum is a double series of geometric sums, added in closed
form; where the integrand falls to e^-40 first, the rule stops there
instead.  The rule returns log J, so the laws keep every term whose J is
below the smallest float64.  J is within 1e-11 relative of mpmath for
0 <= p <= 64 and 1e-18 <= b <= 1e4, and log J within 1e-11 at b = 1e8 and
1e30, where J underflows (tested at α = 2.05 to 6).  The laws pass b down
to about 1e-17 at ordinary noise.

Both receivers average one conditional law over the Poisson field,
:func:`_conditional_law`: a coefficient table of a polynomial power
(:func:`_power_table`, the sums over partitions) times one radial moment
per (partition length, noise order) pair.  It is the only caller of the
three pieces above.  The receivers differ only in its inputs (kernel step,
binomial, own-cell polynomial and order m; MMSE is the m = 1 case).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import ConfigError, NumericError

__all__ = ["radial_moment"]

# The kernels' largest first parameter, which bounds both laws.  The panel
# rule's error grows with the pole order a and with b beyond the laws'
# bounds: 3.9e-11 in log F at a = 41-64 and z <= 4, 1e-11 at b = 100.
_MAX_A = 40
# Euler-integral quadrature: Gauss-Legendre panels [8^-(k+1), 8^-k], k < 6,
# plus a Gauss-Jacobi panel [0, 8^-6] that absorbs the t^(b-1) endpoint
# power.  It takes z <= _QUAD_Z_MAX for b < 0 and for a up to
# _QUAD_MAX_A_POSITIVE, where the integrand's pole at t = -1/z stays more
# than 25 origin-panel lengths from that panel, and z <= _QUAD_Z_SHORT for
# larger a; the reflected form takes every larger z.
_QUAD_Z_MAX = 1.0e4
_QUAD_MAX_A_POSITIVE = 28
_QUAD_Z_SHORT = 4.0
_QUAD_PANEL_RATIO = 0.125
_QUAD_PANELS = 6
_QUAD_PANEL_NODES = 24
_QUAD_ORIGIN_NODES = 12
# Panel nodes other than the origin panel's, the same for every b.
_SHARED_NODES = _QUAD_PANELS * _QUAD_PANEL_NODES
# Rows of z per quadrature block.  A larger (rows x nodes) matrix-vector
# product can take OpenBLAS's threaded gemv, which on a 2-vCPU Xeon took
# 8.0 ms for 2984 x 156 against 0.19 ms on one thread (2048 rows: 0.11 ms).
# The laws pass whole threshold arrays, so the block also sets the size of
# the work arrays, 147 KB each at 128 x 144.  On the benchmark's
# analytic_zero_noise workload peak RSS was 96.2 MB at 2048 rows and
# 91.5 MB at 512 (one run each), and 90.0 MB at 128 (median of 10; 89.5 MB
# with one threshold per call); wall_s was 0.33 s at 128 rows, against
# 0.37-0.38 s at 256 and 0.39 s at 64.
_QUAD_ROWS = 128
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
# Newton steps: at most this many toward the mode, and exactly this many
# toward each tail cut (each stops on the far side of its cut).
_RADIAL_NEWTON_STEPS = 60
_RADIAL_CUT_STEPS = 3
# The rule's nodes are summed in closed form where e1 e^x and e2 e^(sx) are
# at most _RADIAL_HEAD, dropping terms up to _RADIAL_SERIES_TOL relative to
# the mode's node.
_RADIAL_HEAD = 0.25
_RADIAL_SERIES_TOL = 2.0**-56
# Bound on (rows x nodes) of a radial-moment work array.  On the 96 calls
# of a noisy PZF sst 1x4 m=2 rate profile (2-vCPU Xeon, best of 3) the rule
# took 0.35 s at 2^14 cells, against 0.40, 0.40 and 0.44 s at 2^13, 2^15
# and 2^16: smaller arrays pay more per-block overhead, larger ones leave
# the core's cache.
_RADIAL_CELLS = 1 << 14
# Cells of one block's power table, n^2 per grid point for a table of n
# rows: 0.5 MB of float64, however many points one call takes.
_TABLE_CELLS = 1 << 16


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
    """F(a, b; b+1; -z) - 1 for integer a >= 1, -1 < b < 0 and
    0 <= z <= 1e4, by the panel rule for F = b int_0^1 t^(b-1) (1+zt)^(-a) dt
    (DLMF 15.6.1).

    With delta = -b it is F - 1 = delta sum_i c_i g(z t_i), g from
    :func:`_monotone_g`.  Every operation is then a correctly rounded +, *
    or / of nonnegative operands, each monotone in its z-dependent operand,
    and the sum runs in the same order for every z, so z1 <= z2 gives
    F(z1) <= F(z2) exactly for F = 1 + (F - 1); the form is also free of
    cancellation, and log1p of it keeps log F accurate relative to itself
    where F is close to 1 (small z or |b|).
    """
    t, c = _panel_nodes(b)
    out = np.empty_like(z)
    for start in range(0, z.size, _QUAD_ROWS):
        blk = slice(start, start + _QUAD_ROWS)
        x = np.multiply.outer(z[blk], t)
        out[blk] = -b * (_monotone_g(a, x) * c).sum(axis=-1)
    return out


def _reciprocal(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The (z, t) table of 1 / (1 + z t)."""
    y = np.multiply.outer(z, t)
    y += 1.0
    return np.divide(1.0, y, out=y)


def _power(y: np.ndarray, a: int) -> np.ndarray:
    """y^a by a - 1 multiplications."""
    p = y.copy()
    for _ in range(a - 1):
        p *= y
    return p


def _euler_sum(b: float, c: np.ndarray, shared: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """min(b sum_i c_i y_i^a, 1) from y^a on the shared and the origin nodes."""
    return np.minimum(b * (shared @ c[:_SHARED_NODES] + origin @ c[_SHARED_NODES:]), 1.0)


def _direct_limit(a: int) -> float:
    """Largest z at which the panel rule takes F(a, b; b+1; -z), b > 0."""
    return _QUAD_Z_MAX if a <= _QUAD_MAX_A_POSITIVE else _QUAD_Z_SHORT


def _log_reflected(a: int, bs: list[float], c: float, z: np.ndarray) -> np.ndarray:
    """log F(a + k, b_k; b_k + 1; -z) for the k-th entry b_k of ``bs``, as
    rows of a (len(bs), z.size) array, for z beyond :func:`_direct_limit`,
    by the exact 1/z identity of the module docstring.  Every row must have
    the same c = a + k - b_k > 0, so the tails F(a + k, c; c+1; -1/z) share
    one node set: y = 1/(1 + t/z) is formed once and y^(a + k) by repeated
    multiplication.

    The identity follows from F = b z^(-b) ∫_0^z s^(b-1) (1+s)^(-a) ds:
    the integral to infinity is the beta function B(b, c) = G / b, and the
    one from z to infinity becomes, in s = 1/u, z^(-c) F(a, c; c+1; -1/z)
    / c.  With n = floor(b) and f = b - n (exact), Γ(a-b) in G is taken as
    Γ(1-f) (1-f)(2-f)...(m-f), m = a - 1 - n.  Γ of the rounded c = a - b
    would lose the low bits of a small b: 1.4e-14 of G at a = 40, where
    log F is itself close to 0.
    """
    g = []
    for k, b in enumerate(bs):
        n = math.floor(b)
        f = b - n
        m = a + k - 1 - n
        ratio = math.factorial(m) / math.factorial(a + k - 1)  # m! / Γ(a + k), correctly rounded
        ratio *= math.prod((i - f) / i for i in range(1, m + 1))
        g.append(math.gamma(1.0 + b) * math.gamma(1.0 - f) * ratio)
    t, w = _panel_nodes(c)
    out = np.empty((len(bs), z.size))
    for start in range(0, z.size, _QUAD_ROWS):
        blk = slice(start, start + _QUAD_ROWS)
        log_z, z_c = np.log(z[blk]), z[blk] ** -c
        shared = _reciprocal(1.0 / z[blk], t[:_SHARED_NODES])
        origin = _reciprocal(1.0 / z[blk], t[_SHARED_NODES:])
        p_shared, p_origin = _power(shared, a), _power(origin, a)
        for k, b in enumerate(bs):
            if k:
                p_shared *= shared
                p_origin *= origin
            tail = _euler_sum(c, w, p_shared, p_origin)
            out[k, blk] = np.log(g[k] - (b / c) * z_c * tail) - b * log_z
    return out


def _log_kernel_table(n_t: int, alpha: float, x: np.ndarray, orders: int, step: int) -> np.ndarray:
    """log F(a_j, b_j; b_j + 1; -x), a_j = n_t + step j and b_j = j - 2/α,
    for every order j = 0..orders, as rows of an (orders + 1, x.size)
    array: the kernels of the PZF law (step 1) and of the MMSE law (step
    0).  x is 1-d, finite and >= 0, every a_j <= 40, and j <= n_t for
    step 0, so that b_j < a_j.

    Order 0 (b < 0) takes the monotone form of :func:`_euler_integral` up
    to x = 1e4.  The orders j >= 1 (b > 0) share their work on both sides
    of the switch.  On the direct side the integrand is positive and
    F = b sum_i c_i y_i^a with y_i = 1/(1 + x t_i), capped at 1, the exact
    bound of F that rounding of sum_i c_i can exceed by an ulp at x ~ 0.
    (Order 0's form, 1 - b sum_i c_i g(x t_i), would cancel catastrophically
    here, where F is small at large x.)  y is formed once on the panel
    nodes, which do not depend on the order, and y^(a_j) by repeated
    multiplication; only the origin panel's nodes are per order.  On the
    reflected side the PZF orders share c = a_j - b_j = n_t + 2/α, so
    :func:`_log_reflected` serves them all from one node set; each MMSE
    order has a c of its own and a call of its own.
    """
    s = 2.0 / alpha
    out = np.empty((orders + 1, x.size))
    near = x <= _QUAD_Z_MAX
    out[0, near] = np.log1p(_euler_integral(n_t, -s, x[near]))
    if not near.all():
        out[0, ~near] = _log_reflected(n_t, [-s], n_t + s, x[~near])[0]
    if orders == 0:
        return out
    bs = [j - s for j in range(1, orders + 1)]
    # Each order's switch point; it falls from 1e4 to 4 once a_j > 28.
    limits = np.array([_direct_limit(n_t + step * j) for j in range(1, orders + 1)])
    # Reflected side first: its work arrays never coexist with the loop's.
    far = np.flatnonzero(x > limits[-1])
    if far.size:
        logs = (_log_reflected(n_t + 1, bs, n_t + s, x[far]) if step else
                np.concatenate([_log_reflected(n_t, [b], n_t - b, x[far]) for b in bs]))
    rows = np.flatnonzero(x <= limits[0])
    t_shared = _panel_nodes(1.0 - s)[0][:_SHARED_NODES]
    for start in range(0, rows.size, _QUAD_ROWS):
        blk = rows[start:start + _QUAD_ROWS]
        y = _reciprocal(x[blk], t_shared)
        p = _power(y, n_t)
        for j, b in enumerate(bs, 1):
            if step:
                p *= y
            t, c = _panel_nodes(b)
            origin = _power(_reciprocal(x[blk], t[_SHARED_NODES:]), n_t + step * j)
            out[j, blk] = np.log(_euler_sum(b, c, p, origin))
    # The reflected side takes each order beyond its own switch point.
    if far.size:
        out[1:, far] = np.where(x[far] > limits[:, None], logs, out[1:, far])
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
    exceeds its bound.  Each entry takes its own nodes: up to the exact
    cut at e^-40 of the peak on the right, and on the left down to where
    both exponentials are small, below which the remaining nodes are
    summed in closed form.  The laws read log J from the same rule, which
    stays finite where J underflows to 0 (b = 1e30 at p = 64, α = 4).
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
        out[noisy] = np.exp(_radial_trapezoid(pb[noisy] + 1.0, bb[noisy], 0.5 * alpha))
    return float(out) if out.ndim == 0 else out


def _log_radial_moment(p: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """log J(p, b) on the (p, b) grid of the 1-d p >= 0 and b >= 0: log Γ(p + 1)
    where b = 0, as :func:`radial_moment` has it, and the rule's log elsewhere,
    which stays finite where J underflows."""
    noisy = b > 0.0
    if noisy.all():
        q = np.repeat(p + 1.0, b.size)
        return _radial_trapezoid(q, np.tile(b, p.size), 0.5 * alpha).reshape(p.size, b.size)
    out = np.repeat(np.log(_sp.gamma(p + 1.0))[:, None], b.size, axis=1)
    if noisy.any():
        out[:, noisy] = _log_radial_moment(p, b[noisy], alpha)
    return out


def _radial_trapezoid(q: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """log J(q - 1, b) for b > 0, where φ(t) = q t - e^t - b e^(st)."""
    # Mode: the root of φ'(t) = q - e^t - s b e^(st).  Starting from the
    # smaller of the two one-term roots, φ' <= 0 and the root lies within
    # log 2 to the left; φ' is concave and decreasing there, so Newton
    # steps approach the root monotonically from the right.
    log_q, log_b = np.log(q), np.log(b)
    t = np.minimum(log_q, (log_q - np.log(s) - log_b) / s)
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
    # Node k sits at x = k step from the mode and holds exp(ψ(x)), relative
    # to the peak, with ψ(x) = q x - e1 expm1(x) - e2 expm1(s x).  Right of
    # the mode φ''' < 0 gives ψ(x) <= -x²/(2 width²), which sets the start
    # of the right cut.
    right = _radial_cut(q, e1, e2, s, math.sqrt(2.0 * _RADIAL_TAIL) * width)
    # Left of x_head both e1 e^x and e2 e^(sx) are at most _RADIAL_HEAD, and
    # :func:`_radial_head` sums the nodes there in closed form.  Rows whose
    # ψ(x_head) is below the cut -_RADIAL_TAIL start at the cut instead and
    # drop the nodes left of it.  The cut's Newton steps start from x_head
    # or, if nearer, from the bound ψ(x) <= q (x + 1).  The first explicit
    # node is even, so the half rule's nodes are the even ones.
    log_head = math.log(_RADIAL_HEAD)
    x_head = np.minimum(np.minimum(log_head - t, (log_head - log_b) / s - t), 0.0)
    first = 2.0 * np.floor(0.5 * np.floor(x_head / step))
    head = q * x_head - e1 * np.expm1(x_head) - e2 * np.expm1(s * x_head) >= -_RADIAL_TAIL
    fine, coarse = np.zeros_like(q), np.zeros_like(q)
    if head.any():
        fine[head], coarse[head] = _radial_head(
            q[head], e1[head], e2[head], t[head], log_b[head], s, step[head], first[head])
    if not head.all():
        tail = ~head
        left = _radial_cut(q[tail], e1[tail], e2[tail], s,
                           np.maximum(x_head[tail], -(1.0 + _RADIAL_TAIL / q[tail])))
        first[tail] = 2.0 * np.floor(0.5 * np.ceil(left / step[tail]))
    # Each row has its own node count; a row's nodes past it sit at
    # x = -inf, which holds exactly 0.
    count = np.ceil(right / step) - first + 1.0
    for rows in _radial_blocks(count):
        k = np.arange(count[rows].max())
        x = np.add.outer(first[rows], k)
        x[k >= count[rows, None]] = -np.inf
        x *= step[rows, None]
        f = q[rows, None] * x
        g = np.expm1(x)
        g *= e1[rows, None]
        f -= g
        x *= s
        np.expm1(x, out=x)
        x *= e2[rows, None]
        f -= x
        np.exp(f, out=f)
        # Row sums over all nodes and over the even ones, as one product.
        weights = np.ones((k.size, 2))
        weights[1::2, 1] = 0.0
        sums = f @ weights
        fine[rows] += sums[:, 0]
        coarse[rows] += sums[:, 1]
    coarse *= 2.0
    if np.any(np.abs(fine - coarse) > _RADIAL_CHECK * fine):
        bad = int(np.argmax(np.abs(fine - coarse) / fine))
        raise NumericError(
            f"radial moment rule did not resolve p={q[bad] - 1.0:.6g}, "
            f"b={b[bad]:.6g}, alpha={2.0 * s:.6g}"
        )
    return log_peak + np.log(step * fine)


def _radial_blocks(count: np.ndarray):
    """Row selections whose (rows x largest count) stays within
    _RADIAL_CELLS: all rows at once where they fit, else runs of the rows
    sorted by count (a single row may exceed it)."""
    if count.size * count.max() <= _RADIAL_CELLS:
        yield slice(None)
        return
    order = np.argsort(count, kind="stable")
    start = 0
    while start < order.size:
        fits = np.arange(1.0, order.size - start + 1.0) * count[order[start:]] <= _RADIAL_CELLS
        rows = order[start:start + max(1, int(np.count_nonzero(fits)))]
        start += rows.size
        yield rows


def _radial_cut(q, e1, e2, s: float, x: np.ndarray) -> np.ndarray:
    """_RADIAL_CUT_STEPS Newton steps toward the root of ψ(x) = -_RADIAL_TAIL
    from an x on its far side, where ψ(x) <= -_RADIAL_TAIL.  ψ is concave,
    so every step stays on that side.  At the mode q = e1 + s e2, so
    ψ'(x) = -(e1 expm1(x) + s e2 expm1(s x))."""
    for _ in range(_RADIAL_CUT_STEPS):
        u, v = e1 * np.expm1(x), e2 * np.expm1(s * x)
        x = x + (q * x - u - v + _RADIAL_TAIL) / (u + s * v)
    return x


def _radial_head(q, e1, e2, t, log_b, s: float, step, first):
    """The sums of the nodes k < ``first`` of the rule (step h) and of its
    half (step 2h, even k), relative to the peak.

    With x_h = first h, a = e1 e^(x_h) and c = e2 e^(s x_h), expanding
    exp(-a e^y) exp(-c e^(sy)) in powers of a and c turns every node sum
    into a geometric series:

        Σ_{k<first} exp(ψ(kh)) = e^(e1 + e2 + q x_h)
            Σ_{i,j} (-a)^i (-c)^j / (i! j!) / expm1(h (q + i + s j)),

    and the half rule's the same with 2h.  The terms kept are those of
    :func:`_series_plan` for τ = _RADIAL_SERIES_TOL / w, with w the largest
    e^(e1 + e2 + q x_h) / expm1(q h), which bounds every geometric factor:
    the dropped ones then sum to less than _RADIAL_SERIES_TOL relative to
    the mode's node, which is in every row's sum.
    """
    x = first * step
    log_a, log_c = t + x, log_b + s * (t + x)
    pre = np.exp(e1 + e2 + q * x)
    # a, c and τ rounded to powers of two, up for a and c and down for τ,
    # so that one plan serves many calls.
    i, j, weights, power = _series_plan(
        math.ceil(np.max(log_a) / math.log(2.0)), math.ceil(np.max(log_c) / math.log(2.0)),
        math.floor(math.log2(_RADIAL_SERIES_TOL / np.max(pre / np.expm1(q * step)))), s)
    fine, coarse = np.empty_like(q), np.empty_like(q)
    per_block = max(1, _RADIAL_CELLS // i.size)
    for start in range(0, q.size, per_block):
        blk = slice(start, start + per_block)
        # The coefficient of each distinct exponent q + i + s j.
        coef = np.exp(np.multiply.outer(log_a[blk], i) + np.multiply.outer(log_c[blk], j)) @ weights
        d = np.expm1(step[blk, None] * (q[blk, None] + power))
        coef /= d
        fine[blk] = coef @ np.ones(power.size)
        d += 2.0
        coef /= d
        coarse[blk] = coef @ np.ones(power.size)
    return pre * fine, pre * coarse


@lru_cache(maxsize=256)
def _series_plan(log2_a: int, log2_c: int, log2_tau: int, s: float):
    """The index pairs (i, j) of the terms a^i c^j / (i! j!) above
    θ = τ / (2J + 4), for a = 2^log2_a <= 1/2, c = 2^log2_c <= 1/2 and
    τ = 2^log2_tau, with J the first j where c^j / j! <= τ / (2j + 4); the
    distinct exponents i + s j; and the (pairs x exponents) matrix that sums
    each pair's (-1)^(i + j) / (i! j!) into its exponent's column.

    The kept pairs form a staircase, i < I_j for j < J.  The dropped terms
    of a column j < J sum to less than twice the first of them (a <= 1/2),
    which is at most θ, and the columns j >= J to less than
    2 e^a c^J / J! < 4θ, so all dropped terms sum to less than τ.
    """
    a, c, tau = 2.0**log2_a, 2.0**log2_c, 2.0**log2_tau
    cj, big_j = 1.0, 0
    while cj > tau / (2 * big_j + 4):
        big_j += 1
        cj *= c / big_j
    theta = tau / (2 * big_j + 4)
    pairs = []
    cj = 1.0
    for j in range(big_j):
        term, i = cj, 0
        while term > theta:
            pairs.append((i, j))
            i += 1
            term *= a / i
        cj *= c / (j + 1)
    i, j = np.array(pairs, dtype=float).T
    power, column = np.unique(i + s * j, return_inverse=True)
    weights = np.zeros((i.size, power.size))
    weights[np.arange(i.size), column] = (-1.0) ** (i + j) * np.exp(
        -_sp.gammaln(i + 1.0) - _sp.gammaln(j + 1.0))
    return i, j, weights, power


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
    return np.cumsum(b, axis=1, out=b)


@lru_cache(maxsize=None)
def _law_terms(n_t: int, alpha: float, orders: int, step: int, top: int, m: int, noisy: bool):
    """The x-independent data of :func:`_conditional_law`; callers must not
    modify the arrays.

    log_b: log(B_j 2 / (α j - 2)), j = 1..orders, with B_j =
    C(n_t + step (j - 1), j): (n_t)_j / j! for step 1, C(n_t, j) for step 0.
    ell, q: the (block count, noise order) pairs ell + q <= top (q = 0 only
    without noise).  p, pair_p: the distinct radial orders
    m - 1 + ell + α q / 2 and each pair's index into them.  log_w:
    log(1 / (q! Γ(m))) per pair.
    """
    j = np.arange(1, orders + 1)
    log_b = np.log(2.0 * _sp.comb(n_t + step * (j - 1), j) / (alpha * j - 2.0))
    ell, q = np.nonzero(
        np.add.outer(np.arange(top + 1), np.arange(top + 1 if noisy else 1)) <= top
    )
    p, pair_p = np.unique(m - 1 + ell + 0.5 * alpha * q, return_inverse=True)
    return log_b, ell, q, p, pair_p, -_sp.gammaln(q + 1.0) - _sp.gammaln(m)


def _conditional_law(
    n_t: int, alpha: float, x: np.ndarray, kappa: float, orders: int, step: int,
    first: np.ndarray, m: int,
) -> np.ndarray:
    """The conditional coverage law both receivers average, at every entry
    of the 1-d x > 0:

        Σ_{ℓ+q <= n-1} S[ℓ, n-1-q] J(m - 1 + ℓ + α q / 2, c) c^q / (q! Γ(m) K_0^m),

    with n = len(first), K_j the kernels of :func:`_log_kernel_table`, S the
    power table of ``first`` (own-cell coefficients along axis 0, one column
    or one per x) and g_j = B_j 2/(α j - 2) K_j x^j / K_0 for
    j <= ``orders`` (B_j of :func:`_law_terms`), J the radial moment and
    c = κ x K_0^(-α/2).  The kernels come as logs, so no term is lost where
    one underflows.  Without noise (κ = 0) only q = 0 occurs.
    """
    n = len(first)
    log_b, ell, q, p, pair_p, log_w = _law_terms(n_t, alpha, orders, step, n - 1, m, kappa > 0.0)
    first = np.broadcast_to(first, (n, x.size))
    j = np.arange(1, orders + 1)[:, None]
    out = np.empty(x.size)
    # Blocks of points bound the power table's cells.
    cols = max(1, _TABLE_CELLS // n**2)
    for start in range(0, x.size, cols):
        blk = slice(start, start + cols)
        log_k = _log_kernel_table(n_t, alpha, x[blk], orders, step)
        g = np.zeros((n, log_k.shape[1]))
        g[1:orders + 1] = np.exp(log_b[:, None] + log_k[1:] + j * np.log(x[blk]) - log_k[0])
        table = _power_table(g, first[:, blk])
        # x K_0^(-α/2) stays of order 1 at large x, so it is formed first.
        c = kappa * (x[blk] * np.exp(-0.5 * alpha * log_k[0])) if kappa > 0.0 else np.zeros(1)
        log_radial = _log_radial_moment(p, c, alpha)[pair_p]
        radial = np.exp(log_radial + _sp.xlogy(q[:, None], c) + (log_w[:, None] - m * log_k[0]))
        out[blk] = (table[ell, n - 1 - q] * radial).sum(axis=0)
    return out
