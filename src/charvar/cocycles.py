"""Representations into PSL(2,C), parabolic Eichler cocycles and their calculus.

A cocycle is stored by its values on the presentation generators and extended
to arbitrary words through chi(g1 g2) = chi(g1) + rho(g1).chi(g2).  Tangent
vectors along representation families come from exact derivatives of the
generator images.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sl2 import (
    Mat2,
    MoebiusMap,
    QuadPoly,
    ad_matrix,
    adjoint_action,
    mat_inv_unit,
    mat_mul,
)
from .words import FreeWord, GroupRingElement, Signature, relator

_RCOND = 1e-9


class CocycleNotParabolicError(ValueError):
    def __init__(self, word, residual: float, tol: float):
        super().__init__(
            f"cocycle is not a local coboundary at {word}: residual {residual:.3e} > {tol:.3e}")
        self.residual = residual


def elliptic_trace_targets(order: int) -> list[float]:
    """|trace| values compatible with an elliptic generator of the given order."""
    return [abs(2 * math.cos(math.pi * k / order))
            for k in range(1, order) if math.gcd(k, order) == 1]


@dataclass(frozen=True)
class Representation:
    """Generator-indexed homomorphism of the signature's group into PSL(2,C)."""

    signature: Signature
    images: dict[str, MoebiusMap]

    def __post_init__(self):
        missing = [g for g in self.signature.generators if g not in self.images]
        if missing:
            raise ValueError(f"missing generator images: {missing}")

    def image(self, w: FreeWord) -> MoebiusMap:
        out = MoebiusMap.identity()
        for name, exp in w:
            m = self.images[name]
            out = out @ (m if exp == 1 else m.inverse())
        return out

    def relator_residual(self) -> float:
        return self.image(relator(self.signature)).psl_distance(MoebiusMap.identity())

    def trace_residuals(self) -> dict[str, float]:
        """Distance of each marked generator's |trace| from its allowed set
        (2 for parabolic, 2cos(pi k/e) with gcd(k,e)=1 for order e)."""
        out: dict[str, float] = {}
        orders = self.signature.order_sequence()
        for i, order in enumerate(orders, start=1):
            name = f"c{i}"
            t = abs(self.images[name].trace())
            if order is None:
                out[name] = abs(t - 2.0)
            else:
                out[name] = min(abs(t - target) for target in elliptic_trace_targets(order))
        return out

    @functools.cached_property
    def visibly_reducible(self) -> bool:
        """Common-fixed-point check over all generator images (a warning-level
        diagnostic; irreducibility is a hypothesis, not something we certify),
        computed once per representation."""
        maps = [m for m in self.images.values() if not m.is_identity(1e-12)]
        if len(maps) < 2:
            return True
        candidates = maps[0].fixed_points()
        for p in candidates:
            if all(_fixes(m, p) for m in maps):
                return True
        return False

    def conjugated(self, g: MoebiusMap) -> "Representation":
        gi = g.inverse()
        return Representation(self.signature,
                              {k: g @ m @ gi for k, m in self.images.items()})


def _fixes(m: MoebiusMap, p) -> bool:
    q = m(p)
    if p == "inf" or q == "inf":
        return p == q
    return abs(q - p) <= 1e-8 * max(1.0, abs(p))


@dataclass(frozen=True)
class Cocycle:
    """Map Gamma -> P2 satisfying chi(g1 g2) = chi(g1) + rho(g1).chi(g2),
    stored on generators."""

    base: Representation
    values: dict[str, QuadPoly]

    def __call__(self, w: FreeWord) -> QuadPoly:
        total = QuadPoly.zero()
        for _, _, _, total in self.prefixes(w):
            pass
        return total

    def prefixes(self, w: FreeWord):
        """Yield (name, exp, rho(P), chi(P)) after each letter of w, P the
        prefix through that letter."""
        total = QuadPoly.zero()
        prefix = MoebiusMap.identity()
        for name, exp in w:
            m = self.base.images[name]
            if exp == 1:
                term = self.values[name]
                total = total + adjoint_action(prefix, term)
                prefix = prefix @ m
            else:
                mi = m.inverse()
                term = -1 * adjoint_action(mi, self.values[name])
                total = total + adjoint_action(prefix, term)
                prefix = prefix @ mi
            yield name, exp, prefix, total

    def evaluate_ring(self, x: GroupRingElement) -> QuadPoly:
        total = QuadPoly.zero()
        for w, c in x.terms.items():
            total = total + c * self(w)
        return total

    def norm(self) -> float:
        return max((v.norm() for v in self.values.values()), default=0.0)

    def __add__(self, other: "Cocycle") -> "Cocycle":
        if other.base is not self.base and other.base != self.base:
            raise ValueError("cannot add cocycles over different representations")
        return Cocycle(self.base, {k: self.values[k] + other.values[k] for k in self.values})

    def __mul__(self, s: complex) -> "Cocycle":
        return Cocycle(self.base, {k: v * s for k, v in self.values.items()})

    __rmul__ = __mul__


def coboundary(rho: Representation, P: QuadPoly) -> Cocycle:
    """delta P: gamma -> rho(gamma).P - P."""
    return Cocycle(rho, {g: adjoint_action(rho.images[g], P) - P
                         for g in rho.signature.generators})


@dataclass(frozen=True)
class LocalSolve:
    poly: QuadPoly
    residual: float
    kernel_dim: int


def solve_local_coboundary(rho: Representation, chi: Cocycle, gamma: FreeWord,
                           tol: float = 1e-6) -> LocalSolve:
    """Minimum-norm P with (Ad rho(gamma) - 1) P = chi(gamma).

    The 3x3 system is singular for parabolic/elliptic rho(gamma) (kernel of
    dimension >= 1); numpy's SVD-backed lstsq provides the min-norm solution
    and the singular values give the kernel dimension.
    """
    g = rho.image(gamma)
    M = ad_matrix(g) - np.eye(3)
    rhs = chi(gamma).vector()
    if not (np.isfinite(M).all() and np.isfinite(rhs).all()):
        # LAPACK would fail on it and print to stdout
        raise ArithmeticError(f"non-finite local system at {gamma}")
    sol, _, rank, svals = np.linalg.lstsq(M, rhs, rcond=_RCOND)
    kernel_dim = 3 - int(rank)
    residual = float(np.linalg.norm(M @ sol - rhs))
    scale = max(1.0, float(np.linalg.norm(rhs)), chi.norm())
    if residual > tol * scale:
        raise CocycleNotParabolicError(gamma, residual, tol * scale)
    return LocalSolve(QuadPoly.from_vector(sol), residual, kernel_dim)


def _dot(*pairs) -> complex:
    """sum a b over the complex pairs (a, b), the real products of each part
    summed exactly and rounded once (``math.fsum``)."""
    re, im = [], []
    for a, b in pairs:
        re += (a.real * b.real, -a.imag * b.imag)
        im += (a.real * b.imag, a.imag * b.real)
    return complex(math.fsum(re), math.fsum(im))


def tangent_cocycle(rho: Representation, derivatives: dict[str, Mat2]) -> Cocycle:
    """chi(gen) = traceless part of rho_dot(gen) rho(gen)^-1, from the
    derivative of each generator's image (row-major 4-tuples, the lift that
    ``rho.images`` holds), as the monodromy engine transports them.

    With d = rho_dot(gen) and m = rho(gen) (det 1, so m^-1 is the adjugate)
    the entries of d m^-1 that the traceless part needs are dot products of
    d with m, taken by ``_dot``: they cancel ~|d||m|/|chi|-fold, and summing
    Python's rounded complex products instead leaves omega(c0, t2) on the
    kawai grid ~1.4x less accurate than the fused multiply-adds of a BLAS
    2x2 product."""
    values: dict[str, QuadPoly] = {}
    for gen in rho.signature.generators:
        d, m = derivatives[gen], rho.images[gen].tuple()
        # matrix_to_poly of the traceless part: -x01, x11 - x00, x10
        values[gen] = QuadPoly(-_dot((d[1], m[0]), (-d[0], m[1])),
                               _dot((d[3], m[0]), (-d[2], m[1]), (-d[0], m[3]), (d[1], m[2])),
                               _dot((d[2], m[3]), (-d[3], m[2])))
    return Cocycle(rho, values)


# ---------------------------------------------------------------------------
# the space of exact (parabolic) cocycles, for sampling in tests
# ---------------------------------------------------------------------------

def relator_extension_matrix(rho: Representation) -> np.ndarray:
    """Matrix of (generator values) -> chi(R): the par-1 extension of the
    relator word, a linear map C^{3 x ngens} -> C^3."""
    gens = rho.signature.generators
    col = {g: i for i, g in enumerate(gens)}
    T = np.zeros((3, 3 * len(gens)), dtype=complex)
    prefix = MoebiusMap.identity()
    for name, exp in relator(rho.signature):
        j = 3 * col[name]
        if exp == 1:
            T[:, j:j + 3] += ad_matrix(prefix)
            prefix = prefix @ rho.images[name]
        else:
            prefix = prefix @ rho.images[name].inverse()
            T[:, j:j + 3] -= ad_matrix(prefix)
    return T


def _parabolic_parametrization(rho: Representation) -> np.ndarray:
    """Block map sending free parameters to generator values: identity blocks
    on handle generators, (Ad rho(c_i) - 1) on marked ones (which makes local
    solvability automatic)."""
    gens = rho.signature.generators
    blocks = []
    for g in gens:
        if g.startswith("c"):
            blocks.append(ad_matrix(rho.images[g]) - np.eye(3))
        else:
            blocks.append(np.eye(3, dtype=complex))
    P = np.zeros((3 * len(gens), 3 * len(gens)), dtype=complex)
    for i, B in enumerate(blocks):
        P[3 * i:3 * i + 3, 3 * i:3 * i + 3] = B
    return P


def parabolic_parameter_basis(rho: Representation) -> tuple[np.ndarray, np.ndarray]:
    """(P, N): parametrization matrix and an orthonormal basis (columns of N)
    of parameters whose induced generator values kill the relator."""
    P = _parabolic_parametrization(rho)
    T = relator_extension_matrix(rho)
    A = T @ P
    _, svals, vh = np.linalg.svd(A)
    cutoff = 1e-10 * max(float(svals[0]), 1.0)
    rank = int(np.sum(svals > cutoff))
    N = vh[rank:].conj().T
    return P, N


def random_parabolic_cocycle(rho: Representation, rng) -> Cocycle:
    """A random exact cocycle of norm 1 whose restriction to every marked
    generator is a local coboundary by construction.  For closed signatures
    this is simply a random element of Z^1."""
    P, N = parabolic_parameter_basis(rho)
    if N.shape[1] == 0:
        raise ValueError("representation admits no nonzero parabolic cocycles")
    for _ in range(20):
        coeffs = rng.standard_normal(N.shape[1]) + 1j * rng.standard_normal(N.shape[1])
        v = P @ (N @ coeffs)
        gens = rho.signature.generators
        values = {g: QuadPoly.from_vector(v[3 * i:3 * i + 3]) for i, g in enumerate(gens)}
        chi = Cocycle(rho, values)
        nrm = chi.norm()
        if nrm > 1e-8:
            return chi * (1.0 / nrm)
    raise RuntimeError("failed to sample a nonzero cocycle")


def coboundary_matrix(rho: Representation) -> np.ndarray:
    """Map C^3 -> generator values of the coboundary delta P."""
    gens = rho.signature.generators
    D = np.zeros((3 * len(gens), 3), dtype=complex)
    for i, g in enumerate(gens):
        D[3 * i:3 * i + 3, :] = ad_matrix(rho.images[g]) - np.eye(3)
    return D


def reduce_by_coboundary(chi: Cocycle) -> Cocycle:
    """Subtract the least-squares-best coboundary from chi.

    The cohomology class (hence every Goldman pairing) is unchanged; what this
    buys is conditioning: tangent cocycles of monodromy families carry a
    large coboundary part (the frame drags along the family) that
    would otherwise force ~|chi|^2 / |pairing| cancellation in the sums.

    The subtraction cancels chi down by |chi| / |reduced chi| (~50 on the
    kawai grid), so its rounding sets the pairing's: delta P(g) is taken as
    the 2x2 conjugation rho(g) P rho(g)^-1 - P, whose rounding the pairing
    absorbs far better than that of (Ad rho(g) - 1) P on the 3x3 adjoint
    matrix (omega(c0, t2) on kawai-4cusp errs about half as much).
    """
    rho = chi.base
    gens = rho.signature.generators
    D = coboundary_matrix(rho)
    v = np.concatenate([chi.values[g].vector() for g in gens])
    P, *_ = np.linalg.lstsq(D, v, rcond=None)
    p0, p1, p2 = (complex(x) for x in P)
    pm = (-p1 / 2, -p0, p2, p1 / 2)  # poly_to_matrix(P)
    values = {}
    for g in gens:
        m = rho.images[g].tuple()
        conj = mat_mul(mat_mul(m, pm), mat_inv_unit(m))
        x = chi.values[g]
        y = [a - (b - p) for a, b, p in zip((-x.p1 / 2, -x.p0, x.p2, x.p1 / 2), conj, pm)]
        values[g] = QuadPoly(-y[1], y[3] - y[0], y[2])  # matrix_to_poly of the traceless part
    return Cocycle(rho, values)
