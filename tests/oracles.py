"""Independent cross-checks and samplers that only the tests use.

- Finite-difference cocycles: 4th-order central differences of sign-aligned
  SL(2,C) lifts along a representation family, to hold the exact tangent
  cocycles (``charvar.cocycles.tangent_cocycle``) against.
- Closed forms of a sphere's potential q and its moment residuals, of the
  hyperbolicity of a signature, and the value of a truncated jet; every
  trace an elliptic generator of a given order may have.
- Developing-map jets: the Taylor recursion of psi'' = -(q/2) psi at an
  ordinary point, whose ratio must have Schwarzian q.
- Kernel bases of the local systems (Ad rho(gamma) - 1), for the
  kernel-shift invariance of the orbifold Goldman sum, and their solution by
  one numpy ``lstsq`` call per system, to hold the stacked-SVD batch of
  ``charvar.cocycles.local_coboundaries`` against.
- The sl(2) dictionary between traceless matrices and quadratics, the
  Killing matrix, coboundaries, group-ring evaluation and conjugated
  representations: references the package computes in closed form; and a
  cocycle's JSON, which only the tests write (the CLI reads it).
- The B_0 bracket of quadratics, and random words and quadratics.
- The scalar series recurrence, one series at a time in pure Python, and
  the transport that walks job after job, lasso after lasso and step after
  step with it: the rounding the lockstep batch of
  ``charvar.monodromy._lockstep`` must reproduce bit for bit, and the
  error of a call that meets faults of one phase only.
"""

from __future__ import annotations

import cmath
import math
from operator import mul
from typing import Callable, Sequence

import numpy as np

import charvar.monodromy as mono

from charvar.cocycles import _RCOND, Cocycle, Representation
from charvar.jets import Jet, nan_max
from charvar.kawai import Direction, displace
from charvar.monodromy import LoopPath, SphereData, _moment_target, transport
from charvar.serialize import poly_out
from charvar.sl2 import (Mat2, MoebiusMap, QuadPoly, ad_matrix, adjoint_action, mat_det,
                         mat_inv_unit, mat_mul)
from charvar.words import FreeWord, GroupRingElement, Signature

DEFAULT_FD_STEP = 1e-3
_BRANCH_TOL = 0.5  # largest lift jump, relative to the lift, taken as a sign flip


# ---------------------------------------------------------------------------
# finite differences along representation families
# ---------------------------------------------------------------------------

class BranchJumpError(RuntimeError):
    """Consecutive SL2 lifts along a family are too far apart for sign alignment."""


_FD_OFFSETS = (-2, -1, 0, 1, 2)  # f' ~ (8(f_{+1} - f_{-1}) - (f_{+2} - f_{-2})) / 12h


def _aligned_lifts(reps, gen: str):
    """Sign-align one generator's SL2 lifts along consecutive family samples."""
    lifts = [reps[0].images[gen].tuple()]
    for rep in reps[1:]:
        m = rep.images[gen].tuple()
        prev = lifts[-1]
        dplus = max(abs(x - y) for x, y in zip(m, prev))
        dminus = max(abs(-x - y) for x, y in zip(m, prev))
        m = m if dplus <= dminus else tuple(-x for x in m)
        if min(dplus, dminus) > _BRANCH_TOL * max(1.0, mat_norm(prev)):
            raise BranchJumpError(
                f"lift discontinuity for {gen}: distance {min(dplus, dminus):.3e}")
        lifts.append(m)
    return lifts


def finite_difference_cocycle(family: Callable[[float], Representation],
                              s0: float = 0.0, h: float = DEFAULT_FD_STEP) -> Cocycle:
    """chi(gamma) = rho_dot(gamma) rho(gamma)^-1 via the 4th-order stencil
    (-f(s+2h) + 8 f(s+h) - 8 f(s-h) + f(s-2h)) / 12h on sign-aligned lifts.

    The base representation (at s0) and the derivative use the same aligned
    lift chain, so flipping any sample's PSL representative cancels exactly.
    """
    reps = [family(s0 + k * h) for k in _FD_OFFSETS]
    base = reps[2]
    values: dict[str, QuadPoly] = {}
    for gen in base.signature.generators:
        lifts = _aligned_lifts(reps, gen)
        # difference symmetric pairs first: exact zero on constant families
        dot = tuple((8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
                    for m2, m1, p1, p2 in zip(lifts[0], lifts[1], lifts[3], lifts[4]))
        inv0 = mat_inv_unit(lifts[2])
        x = np.array([[dot[0], dot[1]], [dot[2], dot[3]]]) @ \
            np.array([[inv0[0], inv0[1]], [inv0[2], inv0[3]]])
        values[gen] = matrix_to_poly(project_traceless(x))
    return Cocycle(base, values)


def direction_family(paths: Sequence[LoopPath], base: SphereData, direction: Direction,
                     rho: Representation):
    """s -> Representation along one kawai deformation direction, memoized,
    every s transported along the lassos ``paths`` frozen at s = 0.  ``rho``
    is the representation at s = 0 and seeds the memo."""
    cache: dict[float, Representation] = {0.0: rho}

    def family(s: float) -> Representation:
        if s not in cache:
            cache[s] = transport([(paths, displace(base, direction, s))])[0].rho
        return cache[s]

    return family


# ---------------------------------------------------------------------------
# closed forms of the sphere data and the signature
# ---------------------------------------------------------------------------

def q(data: SphereData, z: complex) -> complex:
    """The potential q(z) = sum theta/(2 (z-p)^2) + m/(z-p) of a sphere."""
    total = 0j
    for p, th, m in zip(data.points, data.thetas, data.residues):
        w = z - p
        total += th / (2 * w * w) + m / w
    return total


def moment_residuals(data: SphereData) -> tuple[float, float]:
    """|sum m_j| and |sum m_j p_j - (theta_inf - sum theta)/2|: how far the
    residues miss the two moment constraints that make infinity marked."""
    s1 = sum(data.residues)
    target = _moment_target(data.order_infinity, data.thetas)
    s2 = sum(m * p for m, p in zip(data.residues, data.points)) - target
    return (abs(s1), abs(s2))


def elliptic_trace_targets(order: int) -> list[float]:
    """|trace| values compatible with an elliptic generator of the given
    order, every k enumerated: the reference for
    ``charvar.cocycles.elliptic_trace_residual``."""
    return [abs(2 * math.cos(math.pi * k / order))
            for k in range(1, order) if math.gcd(k, order) == 1]


def is_hyperbolic(sig: Signature) -> bool:
    """Whether the orbifold has negative Euler characteristic:
    2g - 2 + n + sum (1 - 1/e) > 0."""
    area = 2 * sig.g - 2 + sig.cusps + sum(1 - 1.0 / e for e in sig.elliptic_orders)
    return area > 0


# ---------------------------------------------------------------------------
# local solution jets: developing map data for the Schwarzian checks
# ---------------------------------------------------------------------------

def jet_eval(jet: Jet, z: complex) -> complex:
    """The truncated series of ``jet`` at z (no remainder control)."""
    dz = z - jet.base
    acc = 0j
    for c in reversed(jet.coeffs):
        acc = acc * dz + c
    return acc


def q_jet(data: SphereData, z0: complex, order: int) -> Jet:
    """Jet of the sphere's potential q at z0."""
    total = Jet.constant(0j, z0, order)
    z = Jet.variable(z0, order)
    for p, th, m in zip(data.points, data.thetas, data.residues):
        inv = (z - p).reciprocal()
        total = total + (th / 2.0) * inv * inv + m * inv
    return total


def ode_solution_jet(qj: Jet, value: complex, slope: complex) -> Jet:
    """Taylor recursion for psi'' = -(q/2) psi with psi(z0), psi'(z0) given."""
    n = qj.order + 2
    c = [complex(value), complex(slope)] + [0j] * (n - 1)
    for k in range(n - 1):
        acc = 0j
        for j in range(min(k, qj.order) + 1):
            acc += qj.coeffs[j] * c[k - j]
        c[k + 2] = -acc / (2 * (k + 1) * (k + 2))
    return Jet(qj.base, c)


def developing_jet(data: SphereData, z0: complex, order: int) -> Jet:
    """Jet of a developing map f = psi_b / psi_a at an ordinary point; by
    construction S(f) = q there."""
    qj = q_jet(data, z0, order)
    psi_a = ode_solution_jet(qj, 1.0, 0.0)
    psi_b = ode_solution_jet(qj, 0.0, 1.0)
    n = min(psi_a.order, psi_b.order, order + 2)
    return (psi_b.truncate(n) * psi_a.truncate(n).reciprocal()).truncate(order)


# ---------------------------------------------------------------------------
# sl(2) helpers and samplers
# ---------------------------------------------------------------------------

#: the Killing pairing on the basis (1, z, z^2): <P1, P2> = coeffs(P1)^T C coeffs(P2)
KILLING_MATRIX = np.array([[0, 0, -1], [0, 0.5, 0], [-1, 0, 0]], dtype=complex)


def mat_norm(x: Mat2) -> float:
    return max(abs(e) for e in x)


def matrix_to_poly(X) -> QuadPoly:
    """Traceless (a, b; c, -a) -> c z^2 - 2 a z - b."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    x = (X[0, 0], X[0, 1], X[1, 0], X[1, 1])
    scale = max(mat_norm(x), 1e-300)
    if abs(x[0] + x[3]) > 1e-10 * scale:
        raise ValueError(f"matrix is not traceless: trace = {x[0] + x[3]}")
    return QuadPoly(-x[1], -2 * x[0], x[2])


def poly_to_matrix(P: QuadPoly) -> np.ndarray:
    return np.array([[-P.p1 / 2, -P.p0], [P.p2, P.p1 / 2]], dtype=complex)


def project_traceless(X) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    t = (X[0, 0] + X[1, 1]) / 2
    return X - t * np.eye(2)


def coboundary(rho: Representation, P: QuadPoly) -> Cocycle:
    """delta P: gamma -> rho(gamma).P - P."""
    return Cocycle(rho, {g: adjoint_action(rho.images[g], P) - P
                         for g in rho.signature.generators})


def cocycle_out(chi: Cocycle) -> dict:
    """chi as a goldman bundle carries it, which ``serialize.cocycle_in``
    reads back: each generator's polynomial as [[re, im] x 3]."""
    return {"values": {g: poly_out(p) for g, p in chi.values.items()}}


def evaluate_ring(chi: Cocycle, x: GroupRingElement) -> QuadPoly:
    """chi extended Z-linearly to the group ring: sum n chi(w) over x's terms n.w."""
    total = QuadPoly.zero()
    for w, c in x.terms.items():
        total = total + c * chi(w)
    return total


def conjugated(rho: Representation, g: MoebiusMap) -> Representation:
    """g rho g^-1, generator by generator."""
    gi = g.inverse()
    return Representation(rho.signature, {k: g @ m @ gi for k, m in rho.images.items()})


def local_kernel_basis(rho: Representation, gamma: FreeWord) -> list[QuadPoly]:
    """Basis of ker(Ad rho(gamma) - 1), at the rank cutoff of
    ``local_coboundaries``."""
    M = ad_matrix(rho.image(gamma)) - np.eye(3)
    _, svals, vh = np.linalg.svd(M)
    cutoff = _RCOND * max(float(svals[0]), 1e-30)
    null = vh[svals <= cutoff].conj()
    return [QuadPoly.from_vector(v) for v in null]


def lstsq_local_coboundary(rho: Representation, chi: Cocycle, gen: str
                           ) -> tuple[np.ndarray, float, int]:
    """(P, residual, kernel dimension) of (Ad rho(c) - 1) P = chi(c) for the
    generator named ``gen`` from one ``np.linalg.lstsq`` call at the rank
    cutoff of ``local_coboundaries``: its minimum-norm solution,
    |M P - chi(c)| and 3 - rank.  rho(c) and chi(c) come from walks of the
    one-letter word c."""
    gamma = rho.signature.gen(gen)
    M = ad_matrix(rho.image(gamma)) - np.eye(3)
    rhs = chi(gamma).vector()
    sol, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=_RCOND)
    return sol, float(np.linalg.norm(M @ sol - rhs)), 3 - int(rank)


def b0_bracket(P1: QuadPoly, P2: QuadPoly) -> complex:
    """B_0[F,G] = F'' G + F G'' - F' G', constant on quadratics; <,> = -B_0/2."""
    return 2 * P1.p2 * P2.p0 + 2 * P1.p0 * P2.p2 - P1.p1 * P2.p1


def random_word(sig: Signature, length: int, rng) -> FreeWord:
    """Random (reduced) word; rng is a numpy Generator."""
    gens = sig.generators
    letters = []
    for _ in range(length):
        name = gens[int(rng.integers(len(gens)))]
        letters.append((name, 1 if rng.integers(2) else -1))
    return FreeWord(letters)


def random_quadpoly(rng) -> QuadPoly:
    return QuadPoly.from_vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))


# ---------------------------------------------------------------------------
# the scalar series recurrence and the transport it was walked in
# ---------------------------------------------------------------------------

def scalar_series(laurent, a, b, shifts, log: bool, name: str):
    """(a, b): the coefficient lists a and b of two solutions, extended in
    place by the recurrence of a ``charvar.monodromy._Row`` until both
    settle, one term at a time in pure Python.  A term's size is
    (|a_new| + |b_new|)(j + 2); the series stop after two consecutive sizes
    below _TAIL of the largest, and a non-finite size or _MAX_TERMS new
    terms raise IntegrationError naming the series ``name`` (both read
    from ``charvar.monodromy`` at call time).  ``sum()`` adds from 0, left
    to right (CPython 3.11 has no compensated complex sum)."""
    head, u, v, r, pw, k = laurent
    P = list(head)
    ea, eb = shifts
    ar: list[complex] = []  # a[j], ..., a[0], the convolution's other factor
    br: list[complex] = []
    big, quiet = 1.0, 0
    for j in range(mono._MAX_TERMS):
        if j == len(P):
            P.append((j + k) * sum(map(mul, pw, u)) + sum(map(mul, pw, v)))
            pw = list(map(mul, pw, r))
        n = j + 1
        ar.insert(0, a[j])
        br.insert(0, b[j])
        a.append(-1.0 / (n * (n + ea)) * sum(map(mul, P, ar)))
        sb = sum(map(mul, P, br))
        b.append(-1.0 / (n * (n + eb)) * (sb + 2 * n * a[-1] if log else sb))
        size = abs(a[-1]) + abs(b[-1])
        size *= j + 2
        if not math.isfinite(size):
            raise mono.IntegrationError(f"non-finite {name}")
        big = max(big, size)
        quiet = quiet + 1 if size <= mono._TAIL * big else 0
        if quiet == 2:
            return a, b
    raise mono.IntegrationError(f"{name} did not converge in {mono._MAX_TERMS} terms")


def _scalar_ends(c):
    """Value and tau-slope of sum c_n tau^n at tau = +1, then at tau = -1."""
    even, odd = c[0::2], c[1::2]
    e, o = sum(even), sum(odd)
    de = sum(map(mul, range(0, 2 * len(even), 2), even))
    do = sum(map(mul, range(1, 2 * len(odd), 2), odd))
    return e + o, de + do, e - o, do - de


def scalar_transfer(poles, z0: complex, h: complex) -> Mat2:
    """T from z0 to z0 + h (column convention) from the step's series at
    the midpoint (see ``charvar.monodromy._step_row``) summed alone."""
    g = h / 2
    xs = [g / (p - z0 - g) for p, _, _ in poles]
    laurent = ((), [A * x for (_, A, _), x in zip(poles, xs)],
               [-(B * g) for _, _, B in poles], xs, xs, 1)
    a, b = scalar_series(laurent, [1.0 + 0j, 0j], [0j, 1.0 + 0j], (1, 1), False,
                         f"Taylor series at {z0:.6g}")
    va, sa, wa, ta = _scalar_ends(a)
    vb, sb, wb, tb = _scalar_ends(b)
    return mat_mul((va, g * vb, sa / g, sb), mat_inv_unit((wa, g * wb, ta / g, tb)))


def scalar_stem(poles, vertices) -> Mat2:
    """The transport U of a polyline (column convention), each step planned
    as ``charvar.monodromy._transport`` plans it and summed before the
    next."""
    verts = [complex(v) for v in vertices]
    u = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    z, i, last = verts[0], 0, len(verts) - 1
    while i < last:
        reach = mono.STEP_RATIO * min((abs(z - p) for p, _, _ in poles), default=math.inf)
        prev, k = z, i + 1
        while k <= last and abs(verts[k] - z) <= reach:
            prev, k = verts[k], k + 1
        if k > last:
            target, i = verts[last], last
        else:
            d, a = verts[k] - prev, prev - z
            dd = abs(d) ** 2
            beta = (a * d.conjugate()).real
            t = (math.sqrt(beta * beta + dd * (reach * reach - abs(a) ** 2)) - beta) / dd
            target, i = prev + t * d, k - 1
            if reach <= mono._MIN_STEP * abs(verts[k] - verts[k - 1]) or target == z:
                if reach < mono._CLEARANCE_FACTOR * mono._min_gap([p for p, _, _ in poles]):
                    raise mono.IntegrationError(f"step underflow: the path runs into a pole "
                                                f"near {z:.6g}")
                raise mono.IntegrationError(f"step underflow on the path to {verts[k]:.6g}")
        if target == z:
            continue
        u = mat_mul(scalar_transfer(poles, z, target - z), u)
        if not all(map(cmath.isfinite, u)):
            raise mono.IntegrationError(f"non-finite transport at {z:.6g}")
        z = target
    return u


def scalar_local_monodromy(poles, path):
    """(C, Wronskian drift) of the circle of ``path`` (see
    ``charvar.monodromy._local_monodromy``) from its Frobenius series summed
    alone."""
    entry = path.stem[1]
    if path.target == "inf":
        s = 1 / (entry - path.centre)
        g, ginv = (1 / s, 0j, 1 + 0j, -1 + 0j), (s, 0j, s, -1 + 0j)
    else:
        s = entry - poles[path.target][0]
        g, ginv = (1 + 0j, 0j, 0j, 1 / s), (1 + 0j, 0j, 0j, s)
    cusp = path.order is None
    dlt = 0.0 if cusp else 1.0 / path.order
    a, b = scalar_series(mono._laurent(poles, path, s), [1.0 + 0j], [0j if cusp else 1.0 + 0j],
                         (dlt, -dlt), cusp, f"Frobenius series at {path.target}")
    sa, sb = sum(a), sum(b)
    ta = sum(map(mul, range(len(a)), a))
    tb = sum(map(mul, range(len(b)), b))
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
    return mat_mul(g, mat_mul(mat_mul(mh, mat_mul(n_mat, mh_inv)), ginv)), drift


def scalar_transport(jobs, relation_tol: float = 1e-5):
    """[(lasso images, drift)] (column convention) of each job (paths,
    data) of ``jobs``, walked job after job, lasso after lasso and step
    after step, each series summed alone: the results that
    ``charvar.monodromy.transport`` must give, and its error when every
    fault is met in one phase (see ``transport``)."""
    out = []
    for paths, data in jobs:
        poles = data.half_q_terms()
        images, drifts = [], []
        for path in paths:
            u = scalar_stem(poles, path.stem)
            c, frob = scalar_local_monodromy(poles, path)
            lasso = mat_mul(mat_inv_unit(u), mat_mul(c, u))
            images.append(lasso)
            drifts.append(nan_max(mono.wronskian_drift(lasso), mono.wronskian_drift(u), frob))
        prod = MoebiusMap.identity()
        for m in images:
            prod = prod @ MoebiusMap(*mono._row(m))
        resid = prod.psl_distance(MoebiusMap.identity())
        if not resid <= relation_tol:
            raise mono.OrderingError(f"lasso product misses +-identity by {resid:.3e} "
                                     "(ordering/clearance failure)")
        out.append((images, nan_max(*drifts)))
    return out
