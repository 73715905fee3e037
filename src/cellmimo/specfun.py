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
``J(p, b) = ∫_0^∞ y^p exp(-y - b y^(α/2)) dy`` (:func:`_log_radial_moment`),
where y is the serving-cell area in units of the interference scale and b
the noise-to-interference ratio.  It is Γ(p + 1) at b = 0.  For b > 0 it
is the trapezoid rule in t = log y, centred on the integrand's mode, with
the rule on every other node as its error check.  Each row of a call
takes only the nodes its own integrand needs: on each side the rule stops
where the integrand falls to e^-40 of its peak, found by Newton steps from
beyond that point.  The rule returns log J, so the laws keep every term
whose J is below the smallest float64.  J is within 1e-11 relative of
mpmath for 0 <= p <= 64 and 1e-18 <= b <= 1e4, and log J within 1e-11 at
b = 1e8 and 1e30, where J underflows (tested at α = 2.05 to 6).  The laws
pass b down to about 1e-17 at ordinary noise.

Both receivers average one conditional law over the Poisson field,
:func:`_conditional_law`: a coefficient table of a polynomial power
(:func:`_power_table`, the sums over partitions) times the radial moments
of a lattice of (partition length, noise order) pairs.  With noise, the
rule takes only the lattice's top anti-diagonal; every lower point follows
from the exact recurrence (p + 1) J(p, b) = J(p + 1, b) + (α/2) b
J(p + α/2, b), integration by parts of J, which adds only positive terms.
It is the only caller of the three pieces above.  The receivers differ
only in its inputs (kernel step, binomial, own-cell polynomial and order m;
MMSE is the m = 1 case).

The package's one adaptive rule, :func:`_kronrod`, is here too: G7/K15
bisection (QUADPACK's qk15; Piessens et al., *QUADPACK*, 1983) of panels
that each belong to one integral, all pending panels in one integrand call
per round.  The PZF average over u and the rate integral both use it.
Nothing here is public: the laws of :mod:`cellmimo.pzf` and
:mod:`cellmimo.mmse` are the entry points.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import NumericError

__all__: list[str] = []

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
# Bound on (rows x nodes) of a radial-moment work array.  On the 96 calls
# of a noisy PZF sst 1x4 m=2 rate profile (2-vCPU Xeon, best of 3) the rule
# took 0.35 s at 2^14 cells, against 0.40, 0.40 and 0.44 s at 2^13, 2^15
# and 2^16: smaller arrays pay more per-block overhead, larger ones leave
# the core's cache.
_RADIAL_CELLS = 1 << 14
# Cells of one block's power table, n^2 per grid point for a table of n
# rows: 0.5 MB of float64, however many points one call takes.
_TABLE_CELLS = 1 << 16
# G7/K15 on [-1, 1] (qk15): the positive Kronrod nodes in decreasing order,
# their weights then the centre's, and the weights of the 7 Gauss nodes
# (every other Kronrod node); _kronrod bisects at most _BISECTIONS times.
_KRONROD_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
              0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
              0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
              0.207784955007898467600689403773245)
_KRONROD_W = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
              0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
              0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
              0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GAUSS_W = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
            0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_KRONROD_NODES = np.array([-x for x in _KRONROD_X] + [0.0] + list(reversed(_KRONROD_X)))
_WK15 = np.array(_KRONROD_W + _KRONROD_W[-2::-1])
_WG7 = np.array(_GAUSS_W + _GAUSS_W[-2::-1])
_BISECTIONS = 12


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
        if m < 0 or f == 1.0:
            # b = j - 2/α rounded to the integer j (or -2/α to -0): 2/α is
            # below half an ulp, and Γ(a - b) at that b has a pole.
            raise NumericError(f"kernel parameter b={b!r} lost 2/alpha to rounding; alpha is "
                               f"too large for the 1/z identity")
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

    Each order takes the panel rule up to its switch point (1e4, or 4 for
    b > 0 and a_j > 28) and the 1/z identity beyond it.  On the direct
    side the orders j >= 1 (b > 0) have a positive integrand, summed as
    F = b sum_i c_i y_i^a with y_i = 1/(1 + x t_i), capped at 1, the exact
    bound of F that rounding of sum_i c_i can exceed by an ulp at x ~ 0.
    y is formed once on the nodes that all orders share, and y^(a_j) by
    repeated multiplication; only the origin panel's nodes are per order.
    Order 0 (b = -δ < 0) is summed as F - 1 = δ sum_i c_i g(x t_i), g from
    :func:`_monotone_g`.  Every operation is then a correctly rounded +, *
    or / of nonnegative operands, each monotone in its x-dependent
    operand, and the sum runs in the same order for every x, so x1 <= x2
    gives F(x1) <= F(x2) exactly: that is why order 0 keeps this form up
    to 1e4.  It is also free of cancellation, and log1p of it keeps log F
    accurate where F is close to 1 (for b > 0 it would cancel where F is
    small).  On the reflected side the PZF orders share c = a_j - b_j =
    n_t + 2/α, so one :func:`_log_reflected` call serves every order past
    the same switch point; each MMSE order has a c and a call of its own.
    No order is computed on the other side of its switch point.
    """
    s = 2.0 / alpha
    bs = [j - s for j in range(orders + 1)]
    limits = [_QUAD_Z_MAX] + [_direct_limit(n_t + step * j) for j in range(1, orders + 1)]
    out = np.empty((orders + 1, x.size))
    # Reflected side first, so that its work arrays never coexist with the
    # loop's.  The switch points fall with j, so for PZF the x between one
    # switch point and the next higher one need every order from the first
    # with the lower point on.
    if step:
        for j in [0] + [j for j in range(1, orders + 1) if limits[j] < limits[j - 1]]:
            beyond = np.flatnonzero((x > limits[j]) & (x <= (limits[j - 1] if j else np.inf)))
            if beyond.size:
                out[j:, beyond] = _log_reflected(n_t + j, bs[j:], n_t + s, x[beyond])
    elif x.max(initial=0.0) > min(limits):
        for j, b in enumerate(bs):
            beyond = np.flatnonzero(x > limits[j])
            if beyond.size:
                out[j, beyond] = _log_reflected(n_t, [b], n_t - b, x[beyond])[0]
    rows = np.flatnonzero(x <= _QUAD_Z_MAX)
    t, c = _panel_nodes(-s)
    for start in range(0, rows.size, _QUAD_ROWS):
        blk = rows[start:start + _QUAD_ROWS]
        out[0, blk] = np.log1p(
            s * (_monotone_g(n_t, np.multiply.outer(x[blk], t)) * c).sum(axis=-1))
        for j, b in enumerate(bs[1:], 1):
            if j == 1:  # the rows up to the largest switch point of j >= 1
                sub = blk[x[blk] <= limits[1]]
                y = _reciprocal(x[sub], t[:_SHARED_NODES])
                p = _power(y, n_t + step)
            else:
                if limits[j] < limits[j - 1]:  # the rows past this order's switch point leave
                    keep = x[sub] <= limits[j]
                    sub, y, p = sub[keep], y[keep], p[keep]
                if step:
                    p *= y
            t_j, c_j = _panel_nodes(b)
            origin = _power(_reciprocal(x[sub], t_j[_SHARED_NODES:]), n_t + step * j)
            out[j, sub] = np.log(_euler_sum(b, c_j, p, origin))
        y = p = None  # kept into the next block, they made the heap shrink and regrow
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


def _log_radial_moment(p: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """log J(p, b) on the (p, b) grid of the 1-d p >= 0 and b >= 0: log Γ(p + 1)
    where b = 0, and the trapezoid rule's log elsewhere, which stays finite
    where J underflows.  Raises NumericError where the rule's error check
    fails."""
    out = np.repeat(_sp.gammaln(p + 1.0)[:, None], b.size, axis=1)
    noisy = b > 0.0
    if noisy.any():
        log_j = _radial_trapezoid(np.repeat(p + 1.0, np.count_nonzero(noisy)),
                                  np.tile(b[noisy], p.size), 0.5 * alpha)
        out[:, noisy] = log_j.reshape(p.size, -1)
    return out


def _radial_trapezoid(q: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """log J(q - 1, b) for b > 0, where φ(t) = q t - e^t - b e^(st)."""
    # Mode: the root of φ'(t) = q - e^t - s b e^(st).  Starting from the
    # smaller of the two one-term roots, φ' <= 0 and the root lies within
    # log 2 to the left; φ' is concave and decreasing there, so Newton
    # steps approach the root monotonically from the right.
    # Where e^(st) overflows (b below about e^-709 q/s), or a tail cut's
    # expm1 does, the mode or a cut comes out inf or NaN: checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        log_q = np.log(q)
        t = np.minimum(log_q, (log_q - np.log(s) - np.log(b)) / s)
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
        # the mode φ''' < 0 gives ψ(x) <= -x²/(2 width²), and left of it
        # q = e1 + s e2 >= e1 + e2 gives ψ(x) <= q (x + 1): both bounds start the
        # Newton steps toward a cut.  The first node is even, so the half
        # rule's nodes are the even ones.
        right = _radial_cut(q, e1, e2, s, math.sqrt(2.0 * _RADIAL_TAIL) * width)
        left = _radial_cut(q, e1, e2, s, -(1.0 + _RADIAL_TAIL / q))
        first = 2.0 * np.floor(0.5 * np.ceil(left / step))
        # Each row has its own node count; a row's nodes past it sit at
        # x = -inf, which holds exactly 0.
        count = np.ceil(right / step) - first + 1.0
    if not np.isfinite(count).all():
        bad = int(np.argmin(np.isfinite(count)))
        raise NumericError(
            f"radial moment rule found no finite mode or tail cut for p={q[bad] - 1.0:.6g}, "
            f"b={b[bad]:.6g}, alpha={2.0 * s:.6g}"
        )
    fine, coarse = np.zeros_like(q), np.zeros_like(q)
    # Rows are blocked in their given order, so that (rows x largest count)
    # stays within _RADIAL_CELLS (a single row may exceed it).  Blocks of
    # rows sorted by count measured no faster.
    size = max(1, int(_RADIAL_CELLS // count.max()))
    for start in range(0, q.size, size):
        rows = slice(start, start + size)
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


def _radial_cut(q, e1, e2, s: float, x: np.ndarray) -> np.ndarray:
    """_RADIAL_CUT_STEPS Newton steps toward the root of ψ(x) = -_RADIAL_TAIL
    from an x on its far side, where ψ(x) <= -_RADIAL_TAIL.  ψ is concave,
    so every step stays on that side.  At the mode q = e1 + s e2, so
    ψ'(x) = -(e1 expm1(x) + s e2 expm1(s x))."""
    for _ in range(_RADIAL_CUT_STEPS):
        u, v = e1 * np.expm1(x), e2 * np.expm1(s * x)
        x = x + (q * x - u - v + _RADIAL_TAIL) / (u + s * v)
    return x


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
    ell, q: the (block count, noise order) pairs ell + q <= top, by
    anti-diagonal ell + q and then by ell (q = 0 only without noise).  p:
    each pair's radial order m - 1 + ell + α q / 2.  log_w:
    log(1 / (q! Γ(m))) per pair.
    """
    j = np.arange(1, orders + 1)
    log_b = np.log(2.0 * _sp.comb(n_t + step * (j - 1), j) / (alpha * j - 2.0))
    if noisy:
        ell = np.concatenate([np.arange(d + 1) for d in range(top + 1)])
        q = np.repeat(np.arange(top + 1), np.arange(1, top + 2)) - ell
    else:
        ell, q = np.arange(top + 1), np.zeros(top + 1, dtype=int)
    p = m - 1 + ell + 0.5 * alpha * q
    return log_b, ell, q, p, -_sp.gammaln(q + 1.0) - _sp.gammaln(m)


def _log_radial_lattice(p: np.ndarray, c: np.ndarray, alpha: float) -> np.ndarray:
    """log J(p_i, c) on the (p, c) grid, for the radial orders p of the
    noisy pairs of :func:`_law_terms`, whose last n entries are the top
    anti-diagonal ℓ + q = n - 1.  The rule takes only those; each lower
    point follows, in logs, from the two above it by the exact recurrence

        (m + ℓ + s q) J(ℓ, q) = J(ℓ + 1, q) + s c J(ℓ, q + 1),    s = α/2,

    J(ℓ, q) the moment of order m - 1 + ℓ + s q: integration by parts of
    J, whose backward form adds only positive terms.
    """
    n = math.isqrt(2 * p.size)
    diagonals = [_log_radial_moment(p[-n:], c, alpha)]
    with np.errstate(divide="ignore"):  # c = 0 where x underflows
        log_sc = np.log(0.5 * alpha) + np.log(c)
    log_order = np.log(p + 1.0)[:, None]
    for d in range(n - 2, -1, -1):
        above = diagonals[-1]
        rows = slice(d * (d + 1) // 2, (d + 1) * (d + 2) // 2)
        diagonals.append(np.logaddexp(above[1:], log_sc + above[:-1]) - log_order[rows])
    return np.concatenate(diagonals[::-1])


def _conditional_law(
    n_t: int, alpha: float, x: np.ndarray, kappa: float, orders: int, step: int,
    first: np.ndarray, m: int,
) -> np.ndarray:
    """The conditional coverage law both receivers average, at every entry
    of the 1-d x >= 0:

        Σ_{ℓ+q <= n-1} S[ℓ, n-1-q] J(m - 1 + ℓ + α q / 2, c) c^q / (q! Γ(m) K_0^m),

    with n = len(first), K_j the kernels of :func:`_log_kernel_table`, S the
    power table of ``first`` (own-cell coefficients along axis 0, one column
    or one per x) and g_j = B_j 2/(α j - 2) K_j x^j / K_0 for
    j <= ``orders`` (B_j of :func:`_law_terms`), J the radial moment and
    c = κ x K_0^(-α/2).  The kernels come as logs, so no term is lost where
    one underflows.  Without noise (κ = 0) only q = 0 occurs; with noise
    the moments come from :func:`_log_radial_lattice`.
    """
    n = len(first)
    log_b, ell, q, p, log_w = _law_terms(n_t, alpha, orders, step, n - 1, m, kappa > 0.0)
    first = np.broadcast_to(first, (n, x.size))
    j = np.arange(1, orders + 1)[:, None]
    out = np.empty(x.size)
    # Blocks of points bound the power table's cells.
    cols = max(1, _TABLE_CELLS // n**2)
    for start in range(0, x.size, cols):
        blk = slice(start, start + cols)
        log_k = _log_kernel_table(n_t, alpha, x[blk], orders, step)
        g = np.zeros((n, log_k.shape[1]))
        # x = z u^α underflows to 0 at small u for large α; its log is then
        # -inf and g_j = 0, the exact limit.
        with np.errstate(divide="ignore"):
            log_x = np.log(x[blk])
        g[1:orders + 1] = np.exp(log_b[:, None] + log_k[1:] + j * log_x - log_k[0])
        table = _power_table(g, first[:, blk])
        if kappa > 0.0:
            # x K_0^(-α/2) stays of order 1 at large x, so it is formed first.
            c = kappa * (x[blk] * np.exp(-0.5 * alpha * log_k[0]))
            log_radial = _log_radial_lattice(p, c, alpha)
        else:
            c = np.zeros(1)
            log_radial = _log_radial_moment(p, c, alpha)
        radial = np.exp(log_radial + _sp.xlogy(q[:, None], c) + (log_w[:, None] - m * log_k[0]))
        out[blk] = (table[ell, n - 1 - q] * radial).sum(axis=0)
    return out


def _kronrod_nodes(lo, hi) -> np.ndarray:
    """The 15 Kronrod nodes of each panel [lo_i, hi_i], as rows."""
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * _KRONROD_NODES


def _kronrod(f, lo, hi, owner, rtol: float, fx=None) -> np.ndarray:
    """Integrals of f over the panels [lo_i, hi_i] of the 1-d arrays lo and
    hi, summed per owner, by G7/K15 bisection of all panels at once.

    Panel i belongs to the integral owner[i], an integer from 0 up; the
    result holds one sum per owner.  f takes a 1-d array of points and the
    owners of their panels and returns f there.  Each round evaluates the
    15 Kronrod nodes of every pending panel in one call of f (``fx``, of
    shape (panels, 15), gives the first round's values instead).  A panel's
    K15 value is kept when |K15 - G7| <= rtol |I|, I the owner's current
    estimate (its kept values plus the K15 values of its pending panels),
    and the other panels are bisected.  Raises NumericError if a
    panel is pending after _BISECTIONS rounds of bisection.
    """
    owners = int(owner.max()) + 1
    total = np.zeros(owners)
    for level in range(_BISECTIONS + 1):
        if level or fx is None:
            nodes = _kronrod_nodes(lo, hi)
            fx = f(nodes.ravel(), np.repeat(owner, nodes.shape[1])).reshape(nodes.shape)
        half = 0.5 * (hi - lo)
        k15 = half * (fx @ _WK15)
        estimate = total + np.bincount(owner, k15, owners)
        done = np.abs(k15 - half * (fx[:, 1::2] @ _WG7)) <= rtol * np.abs(estimate[owner])
        total += np.bincount(owner[done], k15[done], owners)
        lo, hi, owner = lo[~done], hi[~done], owner[~done]
        if not lo.size:
            return total
        if level == _BISECTIONS:
            raise NumericError(f"G7/K15 rule did not converge on [{lo[0]:.6g}, {hi[0]:.6g}] "
                               f"after {_BISECTIONS} bisections")
        mid = 0.5 * (lo + hi)
        lo, hi, owner = np.append(lo, mid), np.append(mid, hi), np.tile(owner, 2)
