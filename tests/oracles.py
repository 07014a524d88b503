"""Independent cross-checks and samplers that only the tests use.

- Finite-difference cocycles: 4th-order central differences of sign-aligned
  SL(2,C) lifts along a representation family, to hold the exact tangent
  cocycles (``charvar.cocycles.tangent_cocycle``) against.
- Closed forms of a sphere's potential q and its moment residuals, of the
  hyperbolicity of a signature, and the value of a truncated jet.
- Developing-map jets: the Taylor recursion of psi'' = -(q/2) psi at an
  ordinary point, whose ratio must have Schwarzian q.
- Kernel bases of the local systems (Ad rho(gamma) - 1), for the
  kernel-shift invariance of the orbifold Goldman sum, and their solution by
  one numpy ``lstsq`` call per system, to hold the stacked-SVD batch of
  ``charvar.cocycles.local_coboundaries`` against.
- The sl(2) dictionary between traceless matrices and quadratics, the
  Killing matrix, coboundaries, group-ring evaluation and conjugated
  representations: references the package computes in closed form.
- The B_0 bracket of quadratics, and random words and quadratics.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from charvar.cocycles import _RCOND, Cocycle, Representation
from charvar.jets import Jet
from charvar.kawai import Direction, displace
from charvar.monodromy import MonodromyEngine, SphereData, _moment_target
from charvar.sl2 import Mat2, MoebiusMap, QuadPoly, ad_matrix, adjoint_action, mat_inv_unit
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


def direction_family(engine: MonodromyEngine, base: SphereData, direction: Direction,
                     rho: Representation):
    """s -> Representation along one kawai deformation direction, memoized.
    ``rho`` is the representation at s = 0 and seeds the memo."""
    cache: dict[float, Representation] = {0.0: rho}

    def family(s: float) -> Representation:
        if s not in cache:
            cache[s] = engine.representation(displace(base, direction, s))[0]
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


def is_hyperbolic(sig: Signature) -> bool:
    """Whether the orbifold has negative Euler characteristic:
    2g - 2 + n + sum (1 - 1/e) > 0."""
    area = 2 * sig.g - 2 + sig.n + sum(1 - 1.0 / e for e in sig.elliptic_orders)
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
