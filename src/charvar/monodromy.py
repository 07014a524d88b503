"""Numerical monodromy of psi'' + q(z)/2 psi = 0 on marked spheres.

The potential carries a double pole with coefficient theta_j/2 = (1-o_j^-2)/2
at each marked point (theta = 1 at cusps), simple poles with residues tied by
the two moment constraints sum m_j = 0, sum m_j p_j = (theta_inf - sum theta)/2
that make infinity a marked point of the same type, and k-2 free residues:
the accessory parameters.  Frobenius exponents at a marked point are
(1 +- 1/o)/2 and force |trace| = 2 cos(pi/o) (cusp: 2) for lasso monodromies.

A lasso is a stem from the base point to an entry point near its marked point
and a circle about that point through the entry.  The stem is transported by
Taylor steps (``_transport`` plans them), once per lasso; the circle is not
integrated at all: its monodromy is exact from the Frobenius basis at the
marked point (``_local_monodromy``, after van der Hoeven 2001 and Mezzarobba
2016).  Both carry derivatives along deformations of the potential, both by
variation of constants over the series they already sum: a Gauss-Legendre
rule over each Taylor step, and product-integration rules for the singular
factors u^rho and log u along the ray from the marked point to the entry.
One recurrence sums the stem steps' Taylor series and the circles' Frobenius
bases: a lockstep numpy batch (``_lockstep``) that takes every series of
every representation of a call one term index at a time, on float64 planes
of real and imaginary parts with the rows innermost, rounding as Python
does (the rules are stated there), so that each series is bit for bit the
scalar recurrence summed alone.  The batch orders its rows by kind, Taylor
steps first and the cusp circles' log rows last, so that each new term is
written by slices; a product with a real factor f is f x + x[::-1]
(-0.0, +0.0) on the stacked planes, CPython's (f, 0.0) x in three numpy
calls (``_rmul``).  One call (``transport``) takes any number of
representations, each with its own poles and tangents: it plans every step
first, since the steps depend only on the poles and the vertices, and sums
that one batch.  With tangents, two quadratures then read the batch's
coefficient array in place, numpy array operations over cached tables of
the nodes' powers: one over every step of every stem (``_step_tangents``)
and one over every circle (``_circle_tangents``).  Each representation is
then assembled in turn, its lasso images and their derivatives in one loop,
bit for bit those of a call of its own.

A call raises each fault where the batch meets it, in three phases: while
planning every job, then job after job while assembling its lassos and in
its relation check (``transport``).

Transport matrices are returned in the row convention: (psi, psi') as a row
vector maps by right multiplication, so chronological concatenation of paths
is matrix multiplication in reading order and the lasso product in base-point
order closes up to +-identity.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np

from .cocycles import Representation
from .jets import nan_max
from .sl2 import Mat2, MoebiusMap, NumericalError, mat_det, mat_inv_unit, mat_mul
from .words import Signature

#: the default bound on how far the lasso relation c1 ... cn may miss
#: +-identity (``Representation.relator_residual``)
RELATION_TOL = 1e-5


class IntegrationError(NumericalError):
    """A transport that does not converge or leaves the floats."""


class OrderingError(NumericalError):
    """Lasso ordering/clearance failure (relation does not close)."""


#: the largest order of a marked point: above 2^27 (about 1.34e8),
#: theta = 1 - 1/o^2 rounds to a cusp's 1.0, and from 1e8 on the lasso
#: images already miss the default Wronskian tolerance
MAX_ORDER = 10 ** 8


def theta_of(order: Optional[int]) -> float:
    if order is None:
        return 1.0
    if not isinstance(order, int) or order < 2:
        raise ValueError(f"marked-point order must be an integer >= 2 or None, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"marked-point order {order} is above the maximum {MAX_ORDER}")
    return 1.0 - 1.0 / (order * order)


def _moment_target(order_infinity: Optional[int], thetas: Sequence[float]) -> float:
    """(theta_inf - sum theta) / 2, the right side of the second moment
    constraint sum m_j p_j that makes infinity a marked point."""
    return (theta_of(order_infinity) - sum(thetas)) / 2.0


class SphereData:
    """Marked sphere with orders, residues and ODE base point; q is determined
    by these fields, infinity is always marked."""

    __slots__ = ("points", "orders", "order_infinity", "residues", "base_point")

    def __init__(self, points: tuple[complex, ...], orders: tuple[Optional[int], ...],
                 order_infinity: Optional[int], residues: tuple[complex, ...],
                 base_point: complex):
        self.points, self.orders, self.order_infinity = points, orders, order_infinity
        self.residues, self.base_point = residues, base_point
        if len(self.points) != len(self.orders) or len(self.points) != len(self.residues):
            raise ValueError("points/orders/residues length mismatch")
        if len(self.points) + 1 < 3:
            raise ValueError("need at least 3 marked points counting infinity")
        for i, p in enumerate(self.points):
            for q in self.points[i + 1:]:
                if abs(p - q) < 1e-12:
                    raise ValueError("marked points must be distinct")
            if abs(p - self.base_point) < 1e-12:
                raise ValueError(f"base point {self.base_point:.6g} lies on marked point {i} "
                                 f"at {p:.6g}")
        # residues solved from finite input may still overflow
        if not all(map(cmath.isfinite, (*self.points, *self.residues, self.base_point))):
            raise ValueError("points, residues and base point must be finite")
        for order in (*self.orders, self.order_infinity):
            theta_of(order)  # raises on an order out of range

    def _key(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other) -> bool:
        return isinstance(other, SphereData) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def replace(self, **changes) -> SphereData:
        """This sphere with the fields named in ``changes`` changed, validated
        as construction is."""
        return SphereData(**dict(zip(self.__slots__, self._key()), **changes))

    @property
    def thetas(self) -> tuple[float, ...]:
        return tuple(theta_of(o) for o in self.orders)

    def half_q_terms(self) -> list[tuple[complex, float, complex]]:
        """(pole, theta/4, m/2) triples: q(z)/2 = sum A/(z-p)^2 + B/(z-p)."""
        return [(p, th / 4.0, m / 2.0)
                for p, th, m in zip(self.points, self.thetas, self.residues)]

    def accessory(self) -> tuple[complex, ...]:
        """Free residues: everything past the first two listed points."""
        return self.residues[2:]

    def min_gap(self) -> float:
        return _min_gap(self.points)

    def free_dimension(self) -> int:
        return len(self.points) - 2


def _min_gap(points: Sequence[complex]) -> float:
    """The smallest distance between two of ``points`` (inf for one)."""
    return min((abs(p - q) for i, p in enumerate(points) for q in points[i + 1:]),
               default=math.inf)


def default_base_point(points: Sequence[complex]) -> complex:
    """Deterministic base point below the configuration, slightly off-center
    to break argument ties."""
    xs = [p.real for p in points]
    ys = [p.imag for p in points]
    diam = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    return complex((min(xs) + max(xs)) / 2 - 0.17 * diam,
                   min(ys) - 1.15 * diam)


def build_potential(points: Sequence[complex],
                    orders: Sequence[Optional[int]],
                    order_infinity: Optional[int] = None,
                    accessory: Sequence[complex] = (),
                    base_point: Optional[complex] = None) -> SphereData:
    """Solve the two dependent residues (the first two listed points) from the
    moment constraints, given the k-2 free accessory residues."""
    points = tuple(complex(p) for p in points)
    if len(accessory) != len(points) - 2:
        raise ValueError(f"expected {len(points) - 2} accessory values, got {len(accessory)}")
    target = _moment_target(order_infinity, [theta_of(o) for o in orders])
    s1 = -sum(accessory)
    s2 = target - sum(m * p for m, p in zip(accessory, points[2:]))
    p0, p1 = points[0], points[1]
    det = p1 - p0
    if abs(det) < 1e-12:
        raise ValueError("degenerate dependent-residue system (coincident points)")
    m1 = (s2 - p0 * s1) / det
    m0 = s1 - m1
    zb = default_base_point(points) if base_point is None else complex(base_point)
    return SphereData(points, tuple(orders), order_infinity,
                      (m0, m1) + tuple(complex(a) for a in accessory), zb)


#: velocity (dp, dB) of each (pole, A, B) triple of q/2 along a deformation:
#: A = theta/4 is fixed by the order, and dB = dm/2 for the residue m
Tangent = Sequence[tuple[complex, complex]]


def potential_tangent(data: SphereData, point_velocity: Sequence[complex],
                      accessory_velocity: Sequence[complex]) -> Tangent:
    """Velocity (dp, dB) of ``data.half_q_terms()`` along the family
    build_potential(points + s v, ..., accessory + s w) at s = 0: the points
    move with v, the accessory residues with w and the two dependent residues
    re-solve; the orders, so every A, stay fixed."""
    pts, acc = data.points, data.accessory()
    v = [complex(x) for x in point_velocity]
    w = [complex(x) for x in accessory_velocity]
    if len(v) != len(pts) or len(w) != len(acc):
        raise ValueError(f"expected {len(pts)} point and {len(acc)} accessory velocities")
    target = _moment_target(data.order_infinity, data.thetas)
    s1, ds1 = -sum(acc), -sum(w)
    s2 = target - sum(m * p for m, p in zip(acc, pts[2:]))
    ds2 = -sum(dm * p + m * dp for m, dm, p, dp in zip(acc, w, pts[2:], v[2:]))
    det = pts[1] - pts[0]
    m1 = (s2 - pts[0] * s1) / det
    dm1 = (ds2 - v[0] * s1 - pts[0] * ds1 - m1 * (v[1] - v[0])) / det
    dm = [ds1 - dm1, dm1] + w
    return [(dp, d / 2.0) for dp, d in zip(v, dm)]


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def _seg_point_distance(a: complex, b: complex, p: complex) -> float:
    d = b - a
    L2 = (d * d.conjugate()).real
    if L2 < 1e-300:
        return abs(p - a)
    t = ((p - a) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


class LoopPath(namedtuple("LoopPath", "stem centre target order")):
    """Lasso about one marked point ``target`` (an index into the points, or
    "inf"): the ``stem`` (base point, entry point), the circle about
    ``centre`` through the entry counterclockwise (for infinity: clockwise,
    i.e. ccw in the chart w = 1/(z - centre)), and the stem back.  Only the
    stem is integrated; the circle's monodromy is exact (see
    ``_local_monodromy``) from the marked point's ``order`` (None at a
    cusp)."""
    __slots__ = ()

    def min_clearance(self, points: Sequence[complex]) -> float:
        """Closest approach of the stem to a marked point other than its own.
        The circle needs no clearance: it is not integrated, and it holds no
        other marked point while its radius stays below the smallest gap."""
        a, b = self.stem
        return min((_seg_point_distance(a, b, p) for i, p in enumerate(points)
                    if i != self.target), default=math.inf)


#: the loop around infinity runs on a circle this many times the spread of
#: the points and the base point about their centre
_BIG_RADIUS_FACTOR = 2.4
#: every stem keeps at least this fraction of the smallest point gap from
#: every marked point but its own, or OrderingError
_CLEARANCE_FACTOR = 0.05
#: the circle radius of ``build_lassos``, as a fraction of
#: min(gap, |p - z_b|): it keeps every other singularity of a circle's
#: Frobenius data at |t| >= 1/0.3 on the ray of ``_ray_rule``, where the 16
#: nodes integrate the tangents exactly to rounding ([E, C] within ~3e-15
#: |E||C| of the differentiated series at 0.3, 1e-13 at 0.4, 2e-11 at 0.5)
MAX_RADIUS_FACTOR = 0.3


def build_lassos(data: SphereData) -> list[LoopPath]:
    """Lassos in base-point ordering, each naming its marked point
    (``target``) and its order: finite points by increasing argument of
    p - z_b, then infinity through the largest angular gap.  A finite
    point's circle has radius MAX_RADIUS_FACTOR x min(gap, |p - z_b|), so
    its Frobenius series converge at least like MAX_RADIUS_FACTOR^n.  Paths
    are frozen objects; families reuse them unchanged."""
    zb = data.base_point
    gap = data.min_gap()
    order = sorted(range(len(data.points)),
                   key=lambda i: cmath.phase(data.points[i] - zb))
    angles = [cmath.phase(data.points[i] - zb) for i in order]
    for a1, a2 in zip(angles, angles[1:]):
        if a2 - a1 < 1e-9:
            raise OrderingError("argument tie between marked points; move the base point")

    paths: list[LoopPath] = []
    for i in order:
        p = data.points[i]
        r = MAX_RADIUS_FACTOR * min(gap, abs(p - zb))
        entry = p + r * cmath.exp(1j * cmath.phase(zb - p))
        paths.append(LoopPath((zb, entry), p, i, data.orders[i]))

    centre = sum(data.points) / len(data.points)
    rbig = _BIG_RADIUS_FACTOR * max(max(abs(p - centre) for p in data.points),
                                    abs(zb - centre), 1e-6)
    wrap_gap_angle = (angles[-1] + angles[0] + 2 * math.pi) / 2
    exit_dir = cmath.exp(1j * wrap_gap_angle)
    lo, hi = 0.0, 8 * rbig
    for _ in range(60):  # first crossing of the big circle along the exit ray
        mid = (lo + hi) / 2
        if abs(zb + mid * exit_dir - centre) < rbig:
            lo = mid
        else:
            hi = mid
    paths.append(LoopPath((zb, zb + hi * exit_dir), centre, "inf", data.order_infinity))

    min_clear = _CLEARANCE_FACTOR * gap
    for path in paths:
        c = path.min_clearance(data.points)
        if c < min_clear:
            raise OrderingError(
                f"lasso for {path.target} clears only {c:.3g} < {min_clear:.3g}")
    return paths


# ---------------------------------------------------------------------------
# Taylor-series transport with tangents
# ---------------------------------------------------------------------------

#: a step reaches at most this fraction of the distance to the nearest pole;
#: expanded at its midpoint, its series then converge at least like 3^-n
STEP_RATIO = 0.5
#: a series stops after two consecutive terms below this fraction of the
#: largest term (the tail beyond them is smaller still)
_TAIL = 2.0 ** -56
#: a series that has not settled after this many new terms raises
#: IntegrationError
_MAX_TERMS = 400
#: a step shorter than this fraction of its segment underflows: the path
#: runs into a pole where the reach is below _CLEARANCE_FACTOR of the
#: smallest gap between poles, else the segment is too long for its steps
_MIN_STEP = 1e-13


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


#: nodes of the Gauss-Legendre rule for the tangent integrals of a step and a ray
_QUAD_NODES = 16


@functools.lru_cache(maxsize=None)
def _powers(nodes: tuple):
    """The table t_i^n of the nodes, n = 0, ..., _MAX_TERMS + 1 by rows, as
    long as a series of ``_lockstep`` can get (at most two leading terms and
    _MAX_TERMS new ones): the values of zero-padded coefficient rows c at
    the nodes are c @ table (``_at_nodes``).  Computed once per node tuple."""
    return np.power(np.array(nodes), np.arange(_MAX_TERMS + 2)[:, None]).astype(complex)


@functools.lru_cache(maxsize=None)
def gauss_legendre(m: int):
    """(nodes, weights) of the m-point Gauss-Legendre rule on [-1, 1], m
    even, as tuples with the nodes in pairs (t, -t) of equal weight.
    Newton's method on P_m from the usual cosine guesses; computed on first
    use, once per m: _QUAD_NODES for the Taylor steps and the rays, 32 for
    the Lambda4 solver of ``schwarzian``."""
    nodes, weights = [], []
    for i in range(m // 2):
        t = math.cos(math.pi * (i + 0.75) / (m + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, t
            for k in range(2, m + 1):
                p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
            dp = m * (t * p1 - p0) / (t * t - 1)
            step = p1 / dp
            t -= step
            if abs(step) <= 1e-16:
                break
        nodes += (t, -t)
        weights += [2 / ((1 - t * t) * dp * dp)] * 2
    return tuple(nodes), tuple(weights)


#: the longest dot product that OpenBLAS (x86-64) sums in one pass; past it
#: the order, and so the rounding, depends on the length
_DOT_CHUNK = 128


def _at_nodes(series, rows, powers):
    """(a, b) at the nodes of a power table (``_powers``), rows x nodes
    each, for the series of ``rows`` of a ``_lockstep`` batch ``series``:
    its coefficient array is read in place, up to the longest of these
    rows, by one matmul per _DOT_CHUNK terms.  Each chunk sums in one pass,
    so the zeros past a shorter row's end add exact zeros and a row's
    values do not depend on the other rows."""
    n = max(series.lengths[row] for row in rows)
    coeffs = series.coeffs[rows, :, :n].reshape(-1, n)
    values = coeffs[:, :_DOT_CHUNK] @ powers[:min(n, _DOT_CHUNK)]
    for k in range(_DOT_CHUNK, n, _DOT_CHUNK):
        values = values + coeffs[:, k:k + _DOT_CHUNK] @ powers[k:min(n, k + _DOT_CHUNK)]
    return values.reshape(len(rows), 2, -1).swapaxes(0, 1)


def _cubic(coeffs, y):
    """sum over the poles of c1 y + c2 y^2 + c3 y^3, for every row
    (c1 per pole | c2 per pole | c3 per pole) of ``coeffs``, with the poles
    of y on its axis -2: one matmul for all tangents at all nodes."""
    y2 = y * y
    return coeffs @ np.concatenate((y, y2, y2 * y), axis=-2)


def _dq(poles, tangents, moving=None):
    """The coefficients for ``_cubic`` of the variation of
    q/2 = sum A/(z-p)^2 + B/(z-p) along each tangent (one (dp, dB) per
    pole) with z frozen, at y = 1/(z - p):
        dq = sum y (dB + y (B dp + 2 A dp y)),
    rows x tangents x coefficients, for each row's own poles (rows x poles
    x 3) and tangents (rows x tangents x poles x 2).  With ``moving`` (rows x
    tangents: the velocity of a point z moves with) every dp is taken
    relative to it."""
    a, b = poles[:, None, :, 1], poles[:, None, :, 2]
    dp, db = np.moveaxis(tangents, -1, 0)
    if moving is not None:
        dp = dp - moving[..., None]
    return np.concatenate((db, b * dp, 2 * a * dp), axis=-1)


#: a series of the lockstep recurrence (``_lockstep``): a Taylor step
#: (``_step_row``) or a circle's Frobenius basis (``_circle_row``).  With the
#: coefficients P_i of its scaled potential, the j-th new term of each list
#: c = a, b is, with n = j + 1,
#:     c_new = -(sum_(i<=j) P_i c[j-i] [+ 2 n a_new]) / (n (n + e)),
#: e = shifts[0] for a and shifts[1] for b, the bracket for b only if ``log``
#: (the log solution at a cusp); a and b hold the leading terms (two for a
#: Taylor step, one for a circle).  ``laurent`` = (head, u, v, r, pw, k)
#: gives the P_i: ``head`` lists the leading ones (none or one), and every
#: later one is
#:     P_i = (i + k) sum u pw + sum v pw,  then pw <- pw r,
#: summed over the poles.
_Row = namedtuple("_Row", "laurent a b shifts log")

#: the lockstep recurrence grows its tables by this many terms at a time
_CHUNK = 32


def _pmul(x, yr, yi, out):
    """x y into ``out``, for x and ``out`` held as stacked planes (re, im) on
    axis 0 and y as its planes yr and yi, rounded as CPython rounds a
    complex product: re = xr yr - xi yi and im = xr yi + xi yr, each real
    product rounded on its own (numpy's complex multiply may fuse them).
    x yr and x yi hold the four products.  The planes broadcast to
    ``out[0]``."""
    a, b = x * yr, x * yi
    np.subtract(a[0], b[1], out=out[0])
    np.add(b[0], a[1], out=out[1])
    return out


#: (-0.0, +0.0) on the plane axis of a 3-d stacked complex array (``_rmul``)
_ZEROS = np.array([-0.0, 0.0])[:, None, None]


def _rmul(f, x):
    """f x for a real factor f (a float array or a Python float) and a
    complex x held as a 3-d array of stacked planes (re, im) on axis 0,
    rounded as CPython rounds (f, 0.0) times x: re = f xr - 0.0 xi and
    im = f xi + 0.0 xr, the 0.0 terms kept (they decide signed zeros and
    make 0 inf a NaN).  f x + x[::-1] (-0.0, +0.0) forms both planes in
    three calls; a + (-0.0 b) is a - 0.0 b bit for bit, NaNs included."""
    return f * x + x[::-1] * _ZEROS


#: the summed rows of a ``_lockstep`` batch: per row its coefficient lists a
#: and b (``coeffs[row]``, 2 x terms, exact zeros past ``lengths[row]``), its
#: status (None when it settled, else the failure ``_settled`` raises), and
#: per list the sums ``_transfer`` and ``_local_monodromy`` read: over the
#: even terms, the even terms times n, the odd terms, the odd terms times n,
#: all terms and all terms times n (``sums[row][list]``); ``most`` is the
#: term cap it ran with
_Series = namedtuple("_Series", "coeffs lengths status sums most")


def _lockstep(rows) -> _Series:
    """Sum the series of ``rows`` (``_Row``) in lockstep, one term index at
    a time for all rows.  A term's size is (|a_new| + |b_new|)(j + 2); a row
    settles after two consecutive sizes below _TAIL of its largest, and
    fails on a non-finite size or after _MAX_TERMS new terms (both read at
    call time).

    Each row is bit for bit the scalar recurrence summed alone, with
    Python's rounding.  Every complex number is held as two float64 planes,
    its real and imaginary parts, with the rows innermost: a complex product
    is formed from rounded real products (``_pmul``), a product with a real
    factor (j + k, -1/(n (n + e)), 2 n and n) on the planes stacked on axis
    0 (``_rmul``), and a complex sum from 0j is the sum of each plane from
    +0.0 along a non-innermost axis, which np.add.reduce adds term after
    term (along the innermost axis it would sum pairwise).  Sizes are
    ``np.hypot`` as ``abs`` is, the factors -1/(n (n + e)) come from a
    table that rounds them as the scalar recurrence does, and no matmul or
    BLAS takes part.

    The batch orders its rows by their count of leading terms, two (Taylor
    steps) before one (circles), and the log rows last (a log row is a cusp
    circle's, with one leading term): every new term of a kind is then one
    slice of the coefficient array, and b's log term is computed on the log
    rows' slice alone.  The results are returned in the order of ``rows``.
    Per pole, pw u, pw v and pw r are one product.  The coefficients grow
    downward in memory, so that c_j, ..., c_0 of every row is one slice for
    the convolution with P_0, ..., P_j, which is stored for both lists; the
    arrays and the table grow by _CHUNK terms.  Zero-padded poles add exact
    zeros to sums that start from +0.0.  Rows that stopped are computed on,
    under ``np.errstate``, and zeroed past their stop at the end.
    """
    tail, most = _TAIL, _MAX_TERMS
    count = len(rows)
    keys = [(len(row.a), not row.log) for row in rows]  # a log row has one leading term
    order = sorted(range(count), key=keys.__getitem__, reverse=True)
    rows = [rows[i] for i in order]
    # rows [0, two) have two leading terms, and rows [logs, count) are the log rows
    two, logs = keys.count((2, True)), count - keys.count((1, False))
    width = max(len(row.laurent[1]) for row in rows)  # poles, zero-padded
    pad = [0j] * max(width, 2)
    data = np.array([[*u, *pad[len(u):width], *v, *pad[len(v):width], *r, *pad[len(r):width],
                      *pw, *pad[len(pw):width], *a, *pad[:2 - len(a)], *b, *pad[:2 - len(b)],
                      *head, *pad[:1 - len(head)]]
                     for (head, u, v, r, pw, _), a, b, _, _ in rows], dtype=complex).T
    planes = np.stack((data.real, data.imag))  # (re, im) x entries x rows
    # per pole (u, v, r) and pw, the leading terms of a and b, and the heads
    ur, ui = np.ascontiguousarray(planes[:, :3 * width].reshape(2, 3, width, count).swapaxes(1, 2))
    pw = planes[:, 3 * width:4 * width, None]
    leading = planes[:, 4 * width:4 * width + 4].reshape(2, 2, 2, count)  # (re, im) x lists x t
    k, ea, eb = np.array([(row.laurent[5], *row.shifts) for row in rows], dtype=float).T
    heads = np.array([bool(row.laurent[0]) for row in rows])
    shifts = np.array([ea, eb])

    def tables(j):  # j + k, and -1/(n (n + e)) of lists a, b, at n = j + 1, ..., j + _CHUNK
        ns = np.arange(j + 1, j + _CHUNK + 1, dtype=float)[:, None, None]
        return ns[:, 0] - 1 + k, -1.0 / (ns * (ns + shifts))

    jk, scale = tables(0)
    c = np.zeros((2, _CHUNK, 2, count))  # (re, im) of term c_t of lists a, b at base - t
    base = _CHUNK - 1
    c[:, base - 1:] = leading.swapaxes(1, 2)[:, ::-1]  # c_1, c_0
    p = np.zeros((2, _CHUNK, 2, count))  # (re, im) of P_j of each row, for both lists
    prods = np.empty((2, _CHUNK, 2, count))  # (re, im) of P_i c_(j-i)
    poles = np.empty((2, width, 3, count))  # (re, im) of pw u, pw v and pw r per pole
    sums, conv = np.empty((2, 2, count)), np.empty((2, 2, count))  # (re, im) x lists x rows
    # a row's largest size, NaN once it stopped (so that no size is small
    # against it), and whether its last size was small
    big, small = np.ones(count), np.zeros(count, dtype=bool)
    active, last = np.ones(count, dtype=bool), np.full(count, most - 1)
    failed = np.zeros(count, dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(most):
            if base < j + 2:
                c = np.concatenate((np.zeros((2, _CHUNK, 2, count)), c), axis=1)
                p = np.concatenate((p, np.zeros((2, _CHUNK, 2, count))), axis=1)
                prods = np.empty(p.shape)
                jk, scale = (np.concatenate(x) for x in zip((jk, scale), tables(len(scale))))
                base += _CHUNK
            _pmul(pw, ur, ui, poles)
            np.add.reduce(poles[:, :, :2], axis=1, initial=0.0, out=sums)  # over the poles
            np.add(_rmul(jk[j], sums[:, :1]), sums[:, 1:], out=p[:, j])
            if j == 0:  # a row with a head takes P_0 from it and does not advance pw
                p[:, 0] = np.where(heads, planes[:, -1:], p[:, 0])
                pw = np.where(heads, pw, poles[:, :, 2:])
            else:
                pw = poles[:, :, 2:]
            n = j + 1
            np.add.reduce(_pmul(p[:, :n], *c[:, base - j:base + 1], prods[:, :n]), axis=1,
                          initial=0.0, out=conv)  # P_0 c_j + ... + P_j c_0
            new = _rmul(scale[j], conv)
            if logs < count:  # b's log term 2 n a_new, then b_new again
                conv[:, 1:, logs:] += _rmul(2.0 * n, new[:, :1, logs:])
                new[:, 1:, logs:] = _rmul(scale[j, 1:, logs:], conv[:, 1:, logs:])
            c[:, base - j - 2, :, :two] = new[..., :two]
            c[:, base - j - 1, :, two:] = new[..., two:]
            mod = np.hypot(new[0], new[1])
            size = (mod[0] + mod[1]) * (j + 2)
            np.maximum(big, size, out=big)
            settled = small & (small := size <= tail * big)
            finite = np.isfinite(size)
            if settled.any() or not finite.all():
                stop = active & (settled | ~finite)
                failed |= stop & ~finite
                last[stop] = j
                big[stop] = np.nan
                active &= ~stop
                if not active.any():
                    break
        back = np.argsort(order)  # the results in the order of ``rows``
        status = ["diverged" if a else "non-finite" if f else None
                  for a, f in zip(active[back], failed[back])]
        lengths = (last + np.where(np.arange(count) < two, 3, 2))[back]
        terms = lengths.max()
        # (re, im) x terms x (c_n, n c_n) x (lists x rows), zeros past each row's end
        xs = np.zeros((2, terms, 2, 2 * count))
        np.copyto(xs[:, :, 0], c[:, base - terms + 1:base + 1, :, back][:, ::-1]
                  .reshape(2, terms, 2 * count),
                  where=np.arange(terms)[:, None] < np.concatenate((lengths, lengths)))
        xs[:, :, 1] = _rmul(np.arange(terms, dtype=float)[:, None], xs[:, :, 0])
        picks = np.empty((3, 2, 2, 2, count))  # even, odd, all terms of xs
        for out, pick in zip(picks, (slice(0, None, 2), slice(1, None, 2), slice(None))):
            np.add.reduce(xs[:, pick], axis=1, initial=0.0, out=out.reshape(2, 2, 2 * count))
    coeffs = np.empty((terms, 2, count), dtype=complex)
    coeffs.real, coeffs.imag = xs[:, :, 0].reshape(2, terms, 2, count)
    sums = np.empty((count, 2, 3, 2), dtype=complex)  # rows x lists x picks x (c_n, n c_n)
    sums.real, sums.imag = picks.transpose(1, 4, 3, 0, 2)
    return _Series(coeffs.transpose(2, 1, 0), lengths.tolist(), status,
                   sums.reshape(count, 2, 6).tolist(), most)


def _settled(series: _Series, row: int, name):
    """Raise the error that row ``row`` of ``series`` met, if any, naming
    the series ``name()`` (formatted only on a raise)."""
    status = series.status[row]
    if status == "non-finite":
        raise IntegrationError(f"non-finite {name()}")
    if status == "diverged":
        raise IntegrationError(f"{name()} did not converge in {series.most} terms")


def _step_row(poles, z0: complex, h: complex, rows) -> int:
    """Append to ``rows`` the series of a Taylor step from z0 to z0 + h
    (``_Row``), expanded at the midpoint z0 + h/2, and return its index.

    With g = h/2, z = z0 + g + g tau and, per pole, x = g / (p - z0 - g),
    q/2 = sum A/(z-p)^2 + B/(z-p) expands by geometric series as
    g^-2 sum_k P_k tau^k with P_k = (k+1) sum A x^(k+2) - g sum B x^(k+1),
    and the row's a and b are the canonical solutions (identity data in tau
    at the midpoint; shifts 1)."""
    g = h / 2
    xs, us, vs = [], [], []
    for p, A, B in poles:
        x = g / (p - z0 - g)
        xs.append(x)
        us.append(A * x)
        vs.append(-(B * g))
    rows.append(_Row(((), us, vs, xs, xs, 1),
                     (1.0 + 0j, 0j), (0j, 1.0 + 0j), (1, 1), False))  # psi_a and psi_b / g
    return len(rows) - 1


def _transfer(z0: complex, h: complex, series: _Series, row: int, ints):
    """(T, [dT per tangent]) from z0 to z0 + h (column convention, row-major
    4-tuples: data at z0 + h = T data at z0) from the step's summed series
    (``_step_row``, row ``row`` of ``series``) and its kernel integrals
    (iab, ibb, iaa) per tangent (``_step_tangents``; none without tangents).

    The canonical solutions a, b make Phi = [[a, b], [a', b']], det Phi = 1,
    and T = Phi(1) Phi(-1)^-1 in tau data, conjugated by diag(1, 1/g) into
    z data; Phi(+-1) take the sums of the even and the odd terms.  The
    tau-data kernel g^2 [[iab, ibb], [-iaa, -iab]] in z data, between
    Phi(1) and Phi(-1)^-1, is dT.
    """
    g = h / 2
    _settled(series, row, lambda: f"Taylor series at {z0:.6g}")
    (ea, dea, oa, doa, _, _), (eb, deb, ob, dob, _, _) = series.sums[row]
    # the column matrices of (psi_a, psi_b) at z0 + h, and at z0 (Wronskian 1)
    splus = (ea + oa, g * (eb + ob), (dea + doa) / g, deb + dob)
    inv = mat_inv_unit((ea - oa, g * (eb - ob), (doa - dea) / g, dob - deb))
    g2 = g * g
    return mat_mul(splus, inv), [
        mat_mul(splus, mat_mul((g2 * iab, g2 * g * ibb, -g * iaa, -g2 * iab), inv))
        for iab, ibb, iaa in ints]


def _step_tangents(series: _Series, steps, poles, tangents):
    """[(iab, ibb, iaa) per tangent] for each step (i, z0, h, row) of
    ``steps``, the kernel integrals ``_transfer`` turns into dT: the step's
    series is row ``row`` of ``series``, its poles ``poles[i]`` and its
    tangents ``tangents[i]``, those of representation i (arrays of
    representations x poles x 3 and representations x tangents x poles x 2).

    A tangent (dp, dB) per pole varies Q with the step frozen by
        dQ = g^2 sum B dp/(z-p)^2 + 2 A dp/(z-p)^3 + dB/(z-p),
    and variation of constants (Duhamel) gives
        dT = Phi(1) [int_-1^1 dQ [[ab, b^2], [-a^2, -ab]] dtau] Phi(-1)^-1.
    The integral takes the _QUAD_NODES-point Gauss-Legendre rule: every
    pole lies at |tau| >= 3 (|x| <= 1/3, since a step reaches at most
    STEP_RATIO = 1/2 of the distance to the nearest pole), so the integrand
    is analytic well outside [-1, 1] and 16 nodes reach rounding (12 leave
    ~3e-14, 8 leave ~1e-8 on a pole straight ahead with |B| = 20).  The
    steps' series are read at the nodes in the batch's coefficient array
    (``_at_nodes``); y = 1/(z - p), dQ and the three kernel integrals follow
    as array operations over steps x tangents x nodes with each step's own
    poles and tangents, so a tangent costs O(nodes x poles) per step, not a
    second series, and every step is bit for bit its batch of one.
    """
    reps, z0, gs, rows = zip(*[(i, z, h / 2, row) for i, z, h, row in steps])
    pole_rows, tangent_rows = poles[list(reps)], tangents[list(reps)]
    nodes, weights = gauss_legendre(_QUAD_NODES)
    av, bv = _at_nodes(series, list(rows), _powers(nodes))  # a and b at the nodes
    kernel = np.stack((av * bv, bv * bv, av * av), axis=-1) * np.array(weights)[:, None]
    z0, gs = np.array(z0), np.array(gs)
    y = 1 / ((z0[:, None] + gs[:, None] - pole_rows[..., 0])[:, :, None]
             + (gs[:, None] * np.array(nodes))[:, None])  # 1/(z-p): steps x poles x nodes
    return (_cubic(_dq(pole_rows, tangent_rows), y) @ kernel).tolist()  # steps x tangents x 3


def _transport(poles, vertices, rows, steps):
    """Plan the Taylor transport along a polyline: each step reaches at most
    STEP_RATIO of the distance to the nearest pole.  Appends the series of
    every step to ``rows`` (``_step_row``) and its (z0, h, row) to
    ``steps``, in order, and raises IntegrationError where a step would
    underflow or overflow; an underflow blames a pole only when the path
    comes near one against the smallest gap of the poles, not when a
    segment is long against the reach.  The steps depend only on the poles
    and vertices."""
    verts = [complex(v) for v in vertices]
    spots = [p for p, _, _ in poles]
    z, i, last = verts[0], 0, len(verts) - 1  # z lies on the segment from verts[i]
    while i < last:
        reach = STEP_RATIO * min([abs(z - p) for p in spots], default=math.inf)
        # farthest point of the polyline that stays within reach of z: the
        # chord to it is homotopic to the polyline in the pole-free disc
        prev, k = z, i + 1
        while k <= last and abs(verts[k] - z) <= reach:
            prev, k = verts[k], k + 1
        if k > last:
            target, i = verts[last], last
        else:
            d, a = verts[k] - prev, prev - z
            beta = (a * d.conjugate()).real
            try:  # a float ** raises OverflowError where * would give inf
                dd = abs(d) ** 2
                t = (math.sqrt(beta * beta + dd * (reach * reach - abs(a) ** 2)) - beta) / dd
            except OverflowError:
                raise IntegrationError(f"step overflow on the path to {verts[k]:.6g}") from None
            target, i = prev + t * d, k - 1
            if reach <= _MIN_STEP * abs(verts[k] - verts[k - 1]) or target == z:
                if reach < _CLEARANCE_FACTOR * _min_gap(spots):
                    raise IntegrationError(f"step underflow: the path runs into a pole "
                                           f"near {z:.6g}")
                raise IntegrationError(f"step underflow on the path to {verts[k]:.6g}")
        if target != z:
            h = target - z
            steps.append((z, h, _step_row(poles, z, h, rows)))
            z = target


def _stem(steps, series: _Series, ints, count: int):
    """(U, [dU per tangent]) of a planned polyline (``_transport``) in the
    column convention, for ``count`` tangents: U <- T U and
    dU <- dT U + T dU accumulate its summed steps (``_transfer``, with the
    kernel integrals ``ints[row]`` of each step's row), each step's series
    error raised before it is used."""
    u, du = (1.0 + 0j, 0j, 0j, 1.0 + 0j), [(0j, 0j, 0j, 0j)] * count
    for z0, h, row in steps:
        T, dts = _transfer(z0, h, series, row, ints[row])
        if count:
            du = [_add(mat_mul(d, u), mat_mul(T, w)) for d, w in zip(dts, du)]
        u = mat_mul(T, u)
        if not all(map(cmath.isfinite, u)):
            raise IntegrationError(f"non-finite transport at {z0:.6g}")
    return u, du


def _row(u):
    return (u[0], u[2], u[1], u[3])  # transpose: column convention -> row


def wronskian_drift(m: Mat2) -> float:
    return abs(mat_det(m) - 1.0)


# ---------------------------------------------------------------------------
# exact local monodromy: Frobenius bases at the marked points
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _ray_rule(order: Optional[int]):
    """(nodes, weights, weights, powers) of two product-integration rules on
    [0, 1] for a marked point of the given order, as numpy arrays, with the
    nodes' power table (``_powers``): the _QUAD_NODES Gauss-Legendre
    nodes t_i = (1 + x_i)/2 and weights W_i with sum W_i f(t_i) =
    int_0^1 omega(t) f(t) dt for every polynomial f of degree < _QUAD_NODES,
    for omega = t^(1/e) and t^(-1/e) at an order-e point, and omega = 1 and
    log t at a cusp (order None).  Interpolating f in the Legendre basis
    gives W_i = (w_i/2) sum_(k<16) (2k+1) P_k(x_i) mu_k with the moments
    mu_k = int_0^1 omega(t) P_k(2t-1) dt in closed form:
        t^g:   mu_0 = 1/(g+1),  mu_k = mu_(k-1) (g-k+1)/(g+k+1);
        log t: mu_0 = -1,       mu_k = (-1)^(k+1) / (k(k+1)).
    The P_k are taken at 2 t_i - 1 of the nodes as rounded, which keeps the
    rule exact to rounding on t^15 (from the unrounded x_i it errs ~k eps on
    t^k).  The integrands of ``_circle_tangents`` are not polynomials: the
    rule is exact to rounding on them because ``build_lassos`` keeps every
    other singularity of dR, A and B at |t| >= 1/MAX_RADIUS_FACTOR (at
    infinity |t| >= 2.4, the big circle's factor).  Computed on first use,
    once per order."""
    xs, ws = gauss_legendre(_QUAD_NODES)
    m = len(xs)
    nodes = tuple((1 + x) / 2 for x in xs)
    legendre = []  # P_0(x_i), ..., P_(m-1)(x_i) per node, at x_i = 2 t_i - 1
    for x in (2 * t - 1 for t in nodes):
        row = [1.0, x]
        for k in range(2, m):
            row.append(((2 * k - 1) * x * row[-1] - (k - 1) * row[-2]) / k)
        legendre.append(row)

    def weights(mu):
        return [w / 2 * sum((2 * k + 1) * p * c for k, (p, c) in enumerate(zip(row, mu)))
                for w, row in zip(ws, legendre)]

    def power(g):
        mu = [1 / (g + 1)]
        for k in range(1, m):
            mu.append(mu[-1] * (g - k + 1) / (g + k + 1))
        return mu

    if order is None:
        log = [-1.0] + [(-1) ** (k + 1) / (k * (k + 1)) for k in range(1, m)]
        w1, w2 = weights(power(0.0)), weights(log)
    else:
        w1, w2 = weights(power(1 / order)), weights(power(-1 / order))
    return np.array(nodes), np.array(w1), np.array(w2), _powers(nodes)


def _laurent(poles, path: LoopPath, s: complex):
    """(head, u, v, r, pw, k) of a ``_Row`` for the Laurent coefficients of
    the potential R(u) = sum R_m u^(m-2) about a marked point in its local
    coordinate u, scaled to the entry point as P_(m-1) = R_m s^m,
    s = u(entry).  R_0 = theta/4 enters through the exponents.

    At a finite pole p, u = z - p and R = q/2; with r_i = s / (p_i - p) over
    the other poles, P_0 = s B_p and for m >= 2
        R_m s^m = (m-1) sum A r^m - s sum B r^(m-1).
    At infinity u = w = 1/(z - c) and R = (q/2) w^-4, the equation of
    phi = w psi; with d_i = p_i - c and r_i = s d_i, for m >= 1
        R_m s^m = sum ((m+1) A + B d) r^m,
    and the w^-3 term sum B vanishes by the first moment constraint.
    """
    if path.target == "inf":
        d = [p - path.centre for p, _, _ in poles]
        r = [s * x for x in d]
        u = [A * x for (_, A, _), x in zip(poles, r)]
        v = [B * y * x for (_, _, B), y, x in zip(poles, d, r)]
        return (), u, v, r, [1.0] * len(poles), 2
    j = path.target
    others = [poles[i] for i in range(len(poles)) if i != j]
    r = [s / (p - poles[j][0]) for p, _, _ in others]
    u = [A * x for (_, A, _), x in zip(others, r)]
    v = [-B * s for _, _, B in others]
    return (s * poles[j][2],), u, v, r, r, 0


def _circle_row(poles, path: LoopPath, rows):
    """Append to ``rows`` the Frobenius series of the circle of ``path``
    (``_Row``) and return (s, G, G^-1, its index) for ``_circle_tangents``
    and ``_local_monodromy``: s = u(entry) in the local coordinate u of
    ``_laurent``, and G maps reduced data to (psi, psi') at the entry point:
    diag(1, 1/s), and at infinity [[1/s, 0], [1, -1]] since psi = phi / w.
    The shifts are +-1/e at an order-e point, and 0 with the log term at a
    cusp."""
    entry = path.stem[1]
    if path.target == "inf":
        s = 1 / (entry - path.centre)
        g, ginv = (1 / s, 0j, 1 + 0j, -1 + 0j), (s, 0j, s, -1 + 0j)
    else:
        s = entry - poles[path.target][0]
        g, ginv = (1 + 0j, 0j, 0j, 1 / s), (1 + 0j, 0j, 0j, s)
    cusp = path.order is None
    dlt = 0.0 if cusp else 1.0 / path.order
    rows.append(_Row(_laurent(poles, path, s), (1.0 + 0j,), (0j if cusp else 1.0 + 0j,),
                     (dlt, -dlt), cusp))
    return s, g, ginv, len(rows) - 1


def _local_monodromy(path: LoopPath, circle, series: _Series, ints):
    """(C, Wronskian drift, [E per tangent]) for the circle of ``path``
    (column convention, row-major 4-tuples) from its summed Frobenius series
    (``circle`` = (s, G, G^-1, row) of ``_circle_row``, row ``row`` of
    ``series``) and its ray integrals per tangent (``_circle_tangents``;
    none without tangents): C = Phi N Phi^-1 is the exact monodromy of the
    loop from the entry point, the drift compares the Frobenius Wronskian
    with its exact value, and E = G Mh Eh Mh^-1 G^-1 - dp K.

    In the local coordinate u (see ``_laurent``) the exponents are
    rho = (1 +- 1/e)/2 at an order-e point, and the series (shifts +-1/e)
    are the basis u^rho sum a_n u^n, which the loop multiplies by
    exp(2 pi i rho): N = diag(exp(2 pi i rho)).  At a cusp rho = 1/2 is
    double, the second solution is phi_1 log u + u^(1/2) sum b_n u^n
    (shifts 0, with the log term), and N = [[-1, -2 pi i], [0, -1]].  The
    powers u^rho and the log commute with N, so Phi is replaced by the
    matrix Mh of the reduced data (sum a_n s^n, rho sum a_n s^n +
    sum n a_n s^n) of each basis function, whose determinant is exactly
    rho_- - rho_+ (cusp: 1), and by G.
    """
    _, g, ginv, row = circle
    _settled(series, row, lambda: f"Frobenius series at {path.target}")
    (*_, sa, ta), (*_, sb, tb) = series.sums[row]
    cusp = path.order is None
    dlt = 0.0 if cusp else 1.0 / path.order
    if cusp:
        mh = (sa, sb, sa / 2 + ta, sb / 2 + tb + sa)
    else:
        mh = (sa, sb, (1 + dlt) / 2 * sa + ta, (1 - dlt) / 2 * sb + tb)
    det = mat_det(mh)
    drift = abs(det / (1.0 if cusp else -dlt) - 1.0)
    mh_inv = tuple(x / det for x in mat_inv_unit(mh))
    if cusp:
        n_mat = (-1.0 + 0j, -2j * math.pi, 0j, -1.0 + 0j)
    else:
        n_mat = (-cmath.exp(1j * math.pi * dlt), 0j, 0j, -cmath.exp(-1j * math.pi * dlt))

    def framed(m):  # G Mh m Mh^-1 G^-1
        return mat_mul(g, mat_mul(mat_mul(mh, mat_mul(m, mh_inv)), ginv))
    es = [_sub(framed((x1, 0j, x2, 0j) if cusp else (0j, x1, x2, 0j)), (0j, k1, k2, 0j))
          for x1, x2, k1, k2 in ints]
    return framed(n_mat), drift, es


def _circle_tangents(series: _Series, circles, poles, tangents):
    """[(x1, x2, k1, k2) per tangent] for each circle (i, path, s, row) of
    ``circles``, whose series is row ``row`` of ``series`` (s = u(entry),
    see ``_circle_row``) and whose poles and tangents are those of
    representation i (see ``_step_tangents``): the two nonzero entries x1,
    x2 of Eh and the entries k1, k2 of dp K, for ``_local_monodromy`` to
    form E = G Mh Eh Mh^-1 G^-1 - dp K: E = dPhi Phi^-1 up to a matrix that
    commutes with C.

    A tangent varies R by dR with the entry point frozen; the exponents do
    not move (a tangent keeps every order, see ``Tangent``), so dN = 0 and
    the lasso reads E only through dC = [E, C].
    Variation of constants from the marked point along the ray u = s t,
    t in [0, 1], gives dPhi = Phi int_0^s Phi^-1 dK Phi du with
    dK = [[0, 0], [-dR, 0]], and of that integral only the entries that do
    not commute with N are needed.  With A(t) = sum a_n t^n, B(t) =
    sum b_n t^n and F_xy(t) = t s^2 dR(s t) X(t) Y(t), in the reduced frame
        elliptic: Eh = [[0, J_bb/W], [-J_aa/W, 0]], W = -1/e,
                  J_aa = int t^(1/e) F_aa, J_bb = int t^(-1/e) F_bb;
        cusp:     Eh = [[2 (int log t F_aa + int F_ab), 0], [-int F_aa, 0]]
    over [0, 1], by the product rules of ``_ray_rule``: the factors u^rho
    and log u of the Frobenius basis become the weights, and every F is
    analytic on the ray.  At a finite pole the pole moves under the frozen
    entry point, which adds -dp (psi', -(q/2) psi), K = [[0, 1], [-q/2, 0]];
    at infinity k1 = k2 = 0.

    dR at a finite pole p_j takes the coefficients of ``_dq`` with every
    pole's motion taken relative to p_j.  At infinity, per pole and with
    d = p - c and y = 1/(1 - d w),
        dR = sum w^-1 [B dp (2 d - d^2 w) y^2 + 2 A dp y^3 + dB d^2 y]
           = sum w^-1 y [d (dB d + B dp) + y (d B dp + 2 A dp y)]:
    the w^-3 and w^-2 terms, d sum B and d sum (A + B d), vanish by the
    moment constraints and are left out, since their float residue would
    meet a factor t^-2 at the marked point.  Both are y = 1/(alpha + beta t)
    per pole: alpha = p_j - p, beta = s at a finite pole, alpha = 1,
    beta = -s d at infinity.

    Every ray shares the nodes and their power table (only the weights
    depend on the order), so one evaluation takes all circles of any number
    of representations: the series are read at the nodes in the batch's
    coefficient array (``_at_nodes``); y, the coefficients of dR, the kernel
    weights and the two nonzero entries of Eh follow as array operations
    over circles x tangents x nodes with each circle's own poles and
    tangents, each circle's entries by the same operations as a batch of
    that circle alone, so a circle's E is bit for bit its batch of one.  A
    tangent thus costs O(nodes x poles), not a differentiated series.
    """
    reps, paths, ss, rows = zip(*circles)
    orders = [path.order for path in paths]
    pole_rows, tangent_rows = poles[list(reps)], tangents[list(reps)]
    at_inf = [path.target == "inf" for path in paths]
    inf = np.array(at_inf)[:, None]
    own = tangent_rows[np.arange(len(circles)), :,
                       [0 if i else path.target for path, i in zip(paths, at_inf)]]
    nodes, _, _, powers = _ray_rule(None)  # every order's nodes and powers
    rules = [_ray_rule(order) for order in orders]
    av, bv = _at_nodes(series, list(rows), powers)  # A and B at the nodes
    cusp = np.array([order is None for order in orders])[:, None]
    s = np.array(ss)[:, None]
    w1 = np.array([w for _, w, _, _ in rules])
    w2 = np.array([w for _, _, w, _ in rules])
    dlt = np.array([[1.0 if order is None else 1.0 / order] for order in orders])
    # t s^2 dR(s t) = s x the sum in brackets at infinity
    f = np.array([[x if i else x * x] for x, i in zip(ss, at_inf)])
    f = f * np.where(inf, 1.0, nodes)
    pole_lists = pole_rows.tolist()
    centres = [[path.centre if i else ps[path.target][0]]
               for path, i, ps in zip(paths, at_inf, pole_lists)]
    d = pole_rows[..., 0] - np.array(centres)  # p - the circle's centre
    y = 1 / (np.where(inf, 1, -d)[:, :, None]
             + np.where(inf, -(s * d), s)[:, :, None] * nodes)  # circles x poles x nodes
    moving = np.where(inf, 0j, own[..., 0])
    # circles x tangents x poles each
    db, u, c3 = np.split(_dq(pole_rows, tangent_rows, moving), 3, axis=-1)
    ud = u * d[:, None]
    inf3 = inf[:, :, None]
    coeffs = np.concatenate((np.where(inf3, d[:, None] * db * d[:, None] + ud, db),
                             np.where(inf3, ud, u), c3), axis=-1)
    # the weights of dR at the nodes for the two nonzero entries of Eh
    faa = w1 * f * av * av
    kernel = np.stack((np.where(cusp, 2 * f * av * (w2 * av + w1 * bv), -w2 * f * bv * bv / dlt),
                       np.where(cusp, -faa, faa / dlt)), axis=-1)
    ints = (_cubic(coeffs, y) @ kernel).tolist()  # circles x tangents x 2
    out = []
    for path, i, ps, xs, dps in zip(paths, at_inf, pole_lists, ints, moving.tolist()):
        if i:
            out.append([(x1, x2, 0j, 0j) for x1, x2 in xs])
            continue
        entry = path.stem[1]
        q2 = sum(A / (entry - p) ** 2 + B / (entry - p) for p, A, B in ps)
        out.append([(x1, x2, dp0, -q2 * dp0) for (x1, x2), dp0 in zip(xs, dps)])
    return out


def _assemble(plan, series: _Series, ints, count: int):
    """(images, drift, tangents) of the lassos of one job planned by
    ``_lassos``, from its summed series and the quadratures' integrals
    ``ints[row]`` for ``count`` tangents: per lasso the image
    L = S^-1 C S (column convention), where S is the stem's transport and C
    the exact local monodromy, each lasso's stem and circle in turn, and
    per tangent dL = [L, X] (row convention) with X = S^-1 (dS - E S): a
    part of E that commutes with C drops out, which is why
    ``_circle_tangents`` may leave it out.  S^-1 is the adjugate, so
    det L = det(S)^2 det C keeps the stem's drift.  The drift is the worst
    of the images', the stems' and the Frobenius Wronskians'.  A failed
    series and a non-finite transport or tangent transport raise
    IntegrationError where they are met."""
    images, dls, drifts = [], [], []
    for path, steps, circle in plan:
        u, du = _stem(steps, series, ints, count)
        if not all(map(cmath.isfinite, sum(du, ()))):
            raise IntegrationError(f"non-finite tangent transport at {path.stem[1]:.6g}")
        c, frob, es = _local_monodromy(path, circle, series, ints[circle[-1]])
        sinv = mat_inv_unit(u)
        lasso = mat_mul(sinv, mat_mul(c, u))
        xs = [mat_mul(sinv, _sub(d, mat_mul(e, u))) for d, e in zip(du, es)]
        images.append(lasso)
        dls.append([_row(_sub(mat_mul(lasso, x), mat_mul(x, lasso))) for x in xs])
        drifts.append(nan_max(wronskian_drift(lasso), wronskian_drift(u), frob))
    return images, nan_max(*drifts), dls


def _lassos(jobs, tangents=()):
    """(plans, series, ints): the lassos of each job (poles, paths) of the
    list ``jobs``, one representation each, planned and summed, with
    the integrals of their derivatives along the job's tangents
    ``tangents[i]`` (none without tangents), for ``_assemble`` to assemble
    each job's plan ``plans[i]``.  ``poles`` lists the (pole, theta/4, m/2)
    triples of ``SphereData.half_q_terms``, a tangent one (dp, dB) per pole
    (``potential_tangent``); every job with tangents has as many poles and
    as many tangents, as the grid points of a kawai experiment do.

    Every lasso of every job is planned first, its stem's steps
    (``_transport``) and its circle (``_circle_row``); a step that runs into
    a pole raises there.  Then one ``_lockstep`` batch sums the series of
    every Taylor step and every circle of every job; with tangents, one
    ``_step_tangents`` and one ``_circle_tangents`` call read every step's
    and every circle's series in the batch, and ``ints[row]`` holds a row's
    integrals per tangent.  Each row rounds as it would alone, so the
    results are bit for bit those of each job walked on its own."""
    rows, plans = [], []
    for poles, paths in jobs:
        plan = []
        for path in paths:
            steps = []
            _transport(poles, path.stem, rows, steps)
            plan.append((path, steps, _circle_row(poles, path, rows)))
        plans.append(plan)
    series = _lockstep(rows) if rows else None
    ints = [()] * len(rows)  # the quadratures' integrals per tangent, by row
    if any(tangents) and rows:
        poles = np.array([job[0] for job in jobs], dtype=complex)
        tangents = np.array(tangents, dtype=complex)
        planned = [(i, lasso) for i, plan in enumerate(plans) for lasso in plan]
        steps = [(i, *step) for i, (_, stem, _) in planned for step in stem]
        circles = [(i, path, circle[0], circle[-1]) for i, (path, _, circle) in planned]
        # a failed series is read on here and raised by the assembly
        with np.errstate(all="ignore"):
            for quadrature, items in ((_step_tangents, steps), (_circle_tangents, circles)):
                for item, x in zip(items, quadrature(series, items, poles, tangents)
                                   if items else ()):
                    ints[item[-1]] = x
    return plans, series, ints


# ---------------------------------------------------------------------------
# representations from lasso monodromies
# ---------------------------------------------------------------------------

#: one representation's monodromy (``transport``): rho, the Wronskian drift,
#: and the tangent images per tangent
Transport = namedtuple("Transport", "rho drift images")


class MonodromyEngine:
    """A sphere's data and its lassos, built once, so that representation
    families over perturbed data compare identical homotopy classes: the job
    (``paths``, ``data``) of ``transport``."""

    def __init__(self, data: SphereData):
        self.data = data
        self.paths = build_lassos(data)

    def representation(self, relation_tol: float = RELATION_TOL) -> Transport:
        """(rho, Wronskian drift, no tangent images) of the engine's own data
        along its lassos: ``transport`` of this one representation."""
        (tr,) = transport([(self.paths, self.data)], relation_tol)
        return tr


def transport(jobs, relation_tol: float = RELATION_TOL,
              tangents: Sequence[Sequence[Tangent]] = ()) -> list[Transport]:
    """rho, its Wronskian drift and its tangent images for each job
    (paths, data) of ``jobs``, along the lassos ``paths`` (``build_lassos``;
    their orders are the data's, and rho's signature is Signature(0, their
    orders)) and along the job's tangents ``tangents[i]`` (see
    ``potential_tangent``; none without).  ``_lassos`` takes every job:
    every stem step and every circle summed in one lockstep batch, each
    circle's monodromy exact, and one quadrature per kind for every
    tangent.  The drift is the worst |det - 1| of the lasso images and the
    stems and of the Frobenius Wronskians against their exact values; a rho
    whose lasso relation c1 ... cn misses +-identity by more than
    ``relation_tol`` (or by NaN), read on its relator frame
    (``Representation.relator_residual``), raises OrderingError.  A tangent
    image maps every generator to dm / sqrt(det m) for its monodromy m,
    scaled as its image in rho is, so that dm m^-1 = (dm / sqrt(det m))
    rho(gen)^-1.

    Each fault is raised where the batch meets it, in three phases:
    planning every job (a step that runs into a pole, or arithmetic that
    fails); then, job after job, assembling its lassos in turn
    (``_assemble``: a failed series, a non-finite transport or tangent
    transport) and checking its relation.  ``jobs`` is a list: the caller
    builds every job's lassos first, and raises their errors."""
    count = len(tangents[0]) if any(tangents) else 0
    plans, series, ints = _lassos([(data.half_q_terms(), paths) for paths, data in jobs],
                                  tangents)
    out = []
    for (paths, _), plan in zip(jobs, plans):
        images, drift, dls = _assemble(plan, series, ints, count)
        sig = Signature(0, tuple(path.order for path in paths))
        gens = sig.marked_generators
        rho = Representation(sig, {g: MoebiusMap(*_row(m)) for g, m in zip(gens, images)})
        resid = rho.relator_residual()
        if not resid <= relation_tol:
            raise OrderingError(
                f"lasso product misses +-identity by {resid:.3e} "
                "(ordering/clearance failure)")
        scales = [cmath.sqrt(mat_det(_row(m))) for m in images]
        out.append(Transport(rho, drift,
                             [{g: tuple(x / s for x in dm) for g, s, dm in zip(gens, scales, dms)}
                              for dms in zip(*dls)]))
    return out
