"""Numerical monodromy of psi'' + q(z)/2 psi = 0 on marked spheres.

The potential carries a double pole with coefficient theta_j/2 = (1-o_j^-2)/2
at each marked point (theta = 1 at cusps), simple poles with residues tied by
the two moment constraints sum m_j = 0, sum m_j p_j = (theta_inf - sum theta)/2
that make infinity a marked point of the same type, and k-2 free residues:
the accessory parameters.  Frobenius exponents at a marked point are
(1 +- 1/o)/2 and force |trace| = 2 cos(pi/o) (cusp: 2) for lasso monodromies.

Transport matrices are returned in the row convention: (psi, psi') as a row
vector maps by right multiplication, so chronological concatenation of paths
is matrix multiplication in reading order and the lasso product in base-point
order closes up to +-identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .jets import DEFAULT_ORDER, Jet
from .sl2 import Mat2, MoebiusMap, mat_det
from .words import Signature


class IntegrationError(RuntimeError):
    pass


class OrderingError(RuntimeError):
    """Lasso ordering/clearance failure (relation does not close)."""


def theta_of(order: Optional[int]) -> float:
    if order is None:
        return 1.0
    if not isinstance(order, int) or order < 2:
        raise ValueError(f"marked-point order must be an integer >= 2 or None, got {order}")
    return 1.0 - 1.0 / (order * order)


@dataclass(frozen=True)
class SphereData:
    """Marked sphere with orders, residues and ODE base point; q is determined
    by these fields, infinity is always marked."""

    points: tuple[complex, ...]
    orders: tuple[Optional[int], ...]
    order_infinity: Optional[int]
    residues: tuple[complex, ...]
    base_point: complex

    def __post_init__(self):
        if len(self.points) != len(self.orders) or len(self.points) != len(self.residues):
            raise ValueError("points/orders/residues length mismatch")
        if len(self.points) + 1 < 3:
            raise ValueError("need at least 3 marked points counting infinity")
        for i, p in enumerate(self.points):
            for q in self.points[i + 1:]:
                if abs(p - q) < 1e-12:
                    raise ValueError("marked points must be distinct")

    @property
    def thetas(self) -> tuple[float, ...]:
        return tuple(theta_of(o) for o in self.orders)

    def q(self, z: complex) -> complex:
        total = 0j
        for p, th, m in zip(self.points, self.thetas, self.residues):
            w = z - p
            total += th / (2 * w * w) + m / w
        return total

    def half_q_terms(self) -> list[tuple[complex, float, complex]]:
        """(pole, theta/4, m/2) triples: q(z)/2 = sum A/(z-p)^2 + B/(z-p)."""
        return [(p, th / 4.0, m / 2.0)
                for p, th, m in zip(self.points, self.thetas, self.residues)]

    def q_jet(self, z0: complex, order: int = DEFAULT_ORDER) -> Jet:
        total = Jet.constant(0j, z0, order)
        z = Jet.variable(z0, order)
        for p, th, m in zip(self.points, self.thetas, self.residues):
            inv = (z - p).reciprocal()
            total = total + (th / 2.0) * inv * inv + m * inv
        return total

    def moment_residuals(self) -> tuple[float, float]:
        s1 = sum(self.residues)
        target = (theta_of(self.order_infinity) - sum(self.thetas)) / 2.0
        s2 = sum(m * p for m, p in zip(self.residues, self.points)) - target
        return (abs(s1), abs(s2))

    def accessory(self) -> tuple[complex, ...]:
        """Free residues: everything past the first two listed points."""
        return self.residues[2:]

    def min_gap(self) -> float:
        pts = self.points
        return min(abs(pts[i] - pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts)))

    def free_dimension(self) -> int:
        return len(self.points) - 2


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
    thetas = [theta_of(o) for o in orders]
    target = (theta_of(order_infinity) - sum(thetas)) / 2.0
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


@dataclass(frozen=True)
class LoopPath:
    """Based polyline loop encircling one marked point counterclockwise
    (for infinity: the big circle run clockwise, i.e. ccw in the 1/z chart)."""

    vertices: tuple[complex, ...]
    target: object  # index into points, or "inf"

    def min_clearance(self, points: Sequence[complex]) -> float:
        best = math.inf
        for i, p in enumerate(points):
            if self.target == i:
                continue
            for a, b in zip(self.vertices, self.vertices[1:]):
                best = min(best, _seg_point_distance(a, b, p))
        return best

    def target_clearance(self, points: Sequence[complex]) -> float:
        if self.target == "inf":
            return math.inf
        p = points[self.target]
        return min(_seg_point_distance(a, b, p)
                   for a, b in zip(self.vertices, self.vertices[1:]))


def _circle(center: complex, radius: float, start_angle: float, n: int,
            clockwise: bool = False) -> list[complex]:
    sgn = -1.0 if clockwise else 1.0
    return [center + radius * cmath.exp(1j * (start_angle + sgn * 2 * math.pi * k / n))
            for k in range(n + 1)]


def build_lassos(data: SphereData, arc_segments: int = 16,
                 radius_factor: float = 0.3, big_radius_factor: float = 2.4,
                 clearance_factor: float = 0.05) -> tuple[list, list[LoopPath]]:
    """Lassos in base-point ordering: finite points by increasing argument of
    p - z_b, then infinity through the largest angular gap.  Polylines are
    frozen objects; families reuse them unchanged."""
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
        r = radius_factor * min(gap, abs(p - zb))
        entry_angle = cmath.phase(zb - p)
        entry = p + r * cmath.exp(1j * entry_angle)
        verts = [zb, entry] + _circle(p, r, entry_angle, arc_segments)[1:] + [zb]
        paths.append(LoopPath(tuple(verts), i))

    centre = sum(data.points) / len(data.points)
    rbig = big_radius_factor * max(max(abs(p - centre) for p in data.points),
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
    exit_pt = zb + hi * exit_dir
    start = cmath.phase(exit_pt - centre)
    verts = [zb, exit_pt] + _circle(centre, rbig, start, 4 * arc_segments,
                                    clockwise=True)[1:] + [zb]
    paths.append(LoopPath(tuple(verts), "inf"))

    min_clear = clearance_factor * gap
    for path in paths:
        c = path.min_clearance(data.points)
        if c < min_clear:
            raise OrderingError(
                f"lasso for {path.target} clears only {c:.3g} < {min_clear:.3g}")
    return list(order) + ["inf"], paths


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4) transport, dense complex arithmetic
# ---------------------------------------------------------------------------

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9


def _integrate_segment(q2, singularities, za: complex, zb: complex, u,
                       rtol: float, atol: float):
    """Advance the column fundamental matrix u (row-major 4-tuple) from za to
    zb; step size is error-controlled and capped at 0.2x the distance to the
    nearest singularity."""
    dz = zb - za
    seg_len = abs(dz)
    if seg_len < 1e-300:
        return u

    def deriv(tau: float, y):
        q2v = q2(za + tau * dz)
        return (dz * y[2], dz * y[3], -dz * q2v * y[0], -dz * q2v * y[1])

    def cap(tau: float) -> float:
        if not singularities:
            return 0.35
        z = za + tau * dz
        return 0.2 * min(abs(z - p) for p in singularities) / seg_len

    tau = 0.0
    h = min(0.35, cap(0.0))
    k1 = deriv(tau, u)
    while tau < 1.0:
        h = min(h, cap(tau), 1.0 - tau)
        if h < 1e-13:
            raise IntegrationError("step underflow near singularity")
        y = u
        y2 = tuple(y[i] + h * _A21 * k1[i] for i in range(4))
        k2 = deriv(tau + _C2 * h, y2)
        y3 = tuple(y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in range(4))
        k3 = deriv(tau + _C3 * h, y3)
        y4 = tuple(y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in range(4))
        k4 = deriv(tau + _C4 * h, y4)
        y5 = tuple(y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
                   for i in range(4))
        k5 = deriv(tau + _C5 * h, y5)
        y6 = tuple(y[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i]
                               + _A65 * k5[i]) for i in range(4))
        k6 = deriv(tau + h, y6)
        ynew = tuple(y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i]
                                 + _B6 * k6[i]) for i in range(4))
        k7 = deriv(tau + h, ynew)
        errn = 0.0
        for i in range(4):
            e = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i]
                     + _E6 * k6[i] + _E7 * k7[i])
            sc = atol + rtol * max(abs(y[i]), abs(ynew[i]))
            errn = max(errn, abs(e) / sc)
        if errn <= 1.0:
            tau += h
            u = ynew
            k1 = k7  # FSAL
            grow = 0.9 * errn ** -0.2 if errn > 1e-10 else 6.0
            h *= min(6.0, max(0.25, grow))
        else:
            h *= max(0.25, 0.9 * errn ** -0.2)
    return u


def _pole_q2(poles):
    def q2(z: complex) -> complex:
        total = 0j
        for p, A, B in poles:
            w = z - p
            total += A / (w * w) + B / w
        return total
    return q2


def integrate_fundamental(source, vertices: Sequence[complex],
                          rtol: float = 1e-12, atol: float = 1e-14,
                          singularities: Optional[Sequence[complex]] = None) -> Mat2:
    """Transport matrix along a polyline in the row convention (see module
    docstring); its determinant is the Wronskian and must stay at 1.

    ``source`` is a SphereData, a list of (pole, theta/4, m/2) triples, or an
    explicit callable q(z) (halved internally); for a callable, pass
    ``singularities`` so the step cap knows where the poles are.
    """
    if isinstance(source, SphereData):
        poles = source.half_q_terms()
        q2 = _pole_q2(poles)
        sing = [p for p, _, _ in poles]
    elif callable(source):
        q2 = lambda z: 0.5 * source(z)
        sing = list(singularities or [])
    else:
        poles = list(source)
        q2 = _pole_q2(poles)
        sing = [p for p, _, _ in poles]
    u = (1 + 0j, 0j, 0j, 1 + 0j)
    for a, b in zip(vertices, vertices[1:]):
        u = _integrate_segment(q2, sing, a, b, u, rtol, atol)
    return (u[0], u[2], u[1], u[3])  # transpose: column convention -> row


def wronskian_drift(m: Mat2) -> float:
    return abs(mat_det(m) - 1.0)


# ---------------------------------------------------------------------------
# representations from lasso monodromies
# ---------------------------------------------------------------------------

class MonodromyEngine:
    """Monodromy with paths frozen at construction, so that representation
    families over perturbed data compare identical homotopy classes."""

    def __init__(self, data: SphereData, rtol: float = 1e-12, atol: float = 1e-14,
                 arc_segments: int = 16, radius_factor: float = 0.3,
                 clearance_factor: float = 0.05):
        self.data = data
        self.rtol = rtol
        self.atol = atol
        self.order, self.paths = build_lassos(
            data, arc_segments=arc_segments, radius_factor=radius_factor,
            clearance_factor=clearance_factor)
        self.signature = self._signature(data)

    def _signature(self, data: SphereData) -> Signature:
        seq = []
        for tgt in self.order:
            seq.append(data.order_infinity if tgt == "inf" else data.orders[tgt])
        elliptic = tuple(o for o in seq if o is not None)
        return Signature(0, elliptic, seq.count(None), marked_orders=tuple(seq))

    def representation(self, data: Optional[SphereData] = None,
                       relation_tol: float = 1e-5):
        """(rho, Wronskian drift) for ``data`` (default: the engine's own)
        transported along the frozen lassos, each integrated once.  The drift
        max |det - 1| is read off the same transports; a lasso product that
        misses +-identity by more than ``relation_tol`` raises OrderingError."""
        from .cocycles import Representation
        poles = (self.data if data is None else data).half_q_terms()
        mats = [integrate_fundamental(poles, p.vertices, self.rtol, self.atol)
                for p in self.paths]
        images = {f"c{i + 1}": MoebiusMap(*m) for i, m in enumerate(mats)}
        prod = MoebiusMap.identity()
        for image in images.values():
            prod = prod @ image
        resid = prod.psl_distance(MoebiusMap.identity())
        if resid > relation_tol:
            raise OrderingError(
                f"lasso product misses +-identity by {resid:.3e} "
                "(ordering/clearance failure)")
        return (Representation(self.signature, images),
                max(wronskian_drift(m) for m in mats))


# ---------------------------------------------------------------------------
# local solution jets (developing map data for the jet lab)
# ---------------------------------------------------------------------------

def ode_solution_jet(q_jet: Jet, value: complex, slope: complex) -> Jet:
    """Taylor recursion for psi'' = -(q/2) psi with psi(z0), psi'(z0) given."""
    n = q_jet.order + 2
    c = [complex(value), complex(slope)] + [0j] * (n - 1)
    for k in range(n - 1):
        acc = 0j
        for j in range(min(k, q_jet.order) + 1):
            acc += q_jet.coeffs[j] * c[k - j]
        c[k + 2] = -acc / (2 * (k + 1) * (k + 2))
    return Jet(q_jet.base, c)


def developing_jet(data: SphereData, z0: complex, order: int = DEFAULT_ORDER) -> Jet:
    """Jet of a developing map f = psi_b / psi_a at an ordinary point; by
    construction S(f) = q there, which the jet lab cross-checks."""
    qj = data.q_jet(z0, order)
    psi_a = ode_solution_jet(qj, 1.0, 0.0)
    psi_b = ode_solution_jet(qj, 0.0, 1.0)
    n = min(psi_a.order, psi_b.order, order + 2)
    return (psi_b.truncate(n) * psi_a.truncate(n).reciprocal()).truncate(order)
