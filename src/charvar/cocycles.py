"""Representations into PSL(2,C), parabolic Eichler cocycles and their calculus.

A cocycle is stored by its values on the presentation generators and extended
to arbitrary words through chi(g1 g2) = chi(g1) + rho(g1).chi(g2).  Tangent
vectors along representation families come from exact derivatives of the
generator images.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from .sl2 import (Mat2, MoebiusMap, NumericalError, QuadPoly, ad_matrix, adjoint_action,
                  mat_inv_unit, mat_mul)
from .words import FreeWord, Signature, relator

_RCOND = 1e-9
#: the default bound, relative to max(1, |chi(c)|, |chi|), on the residual of
#: a local solve (Ad rho(c) - 1) P = chi(c) (``local_coboundaries``)
LOCAL_TOL = 1e-6


class CocycleNotParabolicError(NumericalError):
    def __init__(self, gen: str, residual: float, tol: float):
        super().__init__(
            f"cocycle is not a local coboundary at {gen}: residual {residual:.3e} > {tol:.3e}")
        self.residual = residual


def elliptic_trace_residual(t: float, order: int) -> float:
    """The distance of a |trace| t from the values |2 cos(pi k / order)|,
    0 < k < order with gcd(k, order) = 1, that an elliptic generator of the
    order may take: bit for bit the minimum over every such k, taken over
    the two nearest k coprime to the order on each side of the two
    solutions x = arccos(t/2) order / pi and order - x of
    |2 cos(pi k / order)| = t (k = 1 when t > 2).  Each half of (0, order)
    is monotone in k, so one nearest k on each side would do; the second
    covers rounding.  The cost does not grow with the order."""
    x = math.acos(t / 2) / math.pi * order if t <= 2 else 0.0
    near = set()
    for centre in (math.floor(x), math.floor(order - x)):
        for ks in (range(centre, 0, -1), range(centre + 1, order)):
            coprime = (k for k in ks if math.gcd(k, order) == 1)
            near.update(itertools.islice(coprime, 2))
    return min(abs(t - abs(2 * math.cos(math.pi * k / order))) for k in sorted(near))


#: rho's side of the walk of the relator R: the letters (name, exp) and prefix
#: images of ``word_images`` and the prefixes' inverses
RelatorFrame = namedtuple("RelatorFrame", "letters prefixes inverses")


class Representation(namedtuple("Representation", "signature images")):
    """Generator-indexed homomorphism of the signature's group into PSL(2,C),
    a value: two compare equal when their signatures and generator images
    do, however each was built.  ``images`` is a read-only copy of the
    mapping given and neither field can be rebound, so that what is computed
    once per representation (its ``cached_property``s, kept in the instance
    ``__dict__``) cannot go stale."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too: both validate

    def __new__(cls, signature: Signature, images: Mapping[str, MoebiusMap]):
        images = MappingProxyType(dict(images))
        missing = [g for g in signature.generators if g not in images]
        if missing:
            raise ValueError(f"missing generator images: {missing}")
        return super().__new__(cls, signature, images)

    def __reduce__(self):  # a read-only mapping does not pickle; a dict does
        return Representation, (self.signature, dict(self.images))

    def image(self, w: FreeWord) -> MoebiusMap:
        return word_images(self, w)[1][-1]

    @functools.cached_property
    def relator_frame(self) -> RelatorFrame:
        """rho's side of the walk of R (``word_images``) and the prefixes'
        inverses, built once per representation and read by every walk of
        R: rho(R), chi(R), the Goldman sums and the relator extension."""
        letters, prefixes = word_images(self, relator(self.signature))
        return RelatorFrame(tuple(letters), tuple(prefixes),
                            tuple(p.inverse() for p in prefixes))

    def relator_residual(self) -> float:
        return self.relator_frame.prefixes[-1].psl_distance(MoebiusMap.identity())

    def trace_residuals(self) -> dict[str, float]:
        """Distance of each marked generator's |trace| from its allowed set
        (2 for parabolic, 2cos(pi k/e) with gcd(k,e)=1 for order e)."""
        out: dict[str, float] = {}
        sig = self.signature
        for name, order in zip(sig.marked_generators, sig.orders):
            t = abs(self.images[name].trace())
            if order is None:
                out[name] = abs(t - 2.0)
            else:
                out[name] = elliptic_trace_residual(t, order)
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


def _fixes(m: MoebiusMap, p) -> bool:
    q = m(p)
    if p == "inf" or q == "inf":
        return p == q
    return abs(q - p) <= 1e-8 * max(1.0, abs(p))


def word_images(rho: Representation, w: FreeWord):
    """rho's side of a walk of the word w = x_1 ... x_L: (letters, prefixes)
    with letters[j - 1] = (name, exp) of x_j and the prefix images
    prefixes[j] = rho(x_1 ... x_j), prefixes[0] = 1.  Built once, it serves
    every cocycle's walk of w (``Cocycle.along``)."""
    letters, prefixes = [], [MoebiusMap.identity()]
    for name, exp in w:
        m = rho.images[name]
        letters.append((name, exp))
        prefixes.append(prefixes[-1] @ (m if exp == 1 else m.inverse()))
    return letters, prefixes


class Cocycle(namedtuple("Cocycle", "base values")):
    """Map Gamma -> P2 satisfying chi(g1 g2) = chi(g1) + rho(g1).chi(g2),
    stored on generators: ``values`` maps each generator name to chi of it."""

    __slots__ = ()
    __array_ufunc__ = None  # a numpy scalar on the left defers to __rmul__

    def __call__(self, w: FreeWord) -> QuadPoly:
        return self.along(*word_images(self.base, w))[-1]

    def along(self, letters, prefixes) -> list[QuadPoly]:
        """chi(P_0) = 0, ..., chi(P_L) = chi(w) over the prefixes P_j of a
        word w, from rho's side of its walk (``word_images``), one adjoint
        action per letter: chi(P x) = chi(P) + Ad(rho(P)) chi(x), and
        chi(P x^-1) = chi(P) - Ad(rho(P x^-1)) chi(x) on the next prefix."""
        total = QuadPoly.zero()
        out = [total]
        for (name, exp), prefix, after in zip(letters, prefixes, prefixes[1:]):
            total = (total + adjoint_action(prefix, self.values[name]) if exp == 1
                     else total - adjoint_action(after, self.values[name]))
            out.append(total)
        return out

    def norm(self) -> float:
        return max((v.norm() for v in self.values.values()), default=0.0)

    def __add__(self, other: "Cocycle") -> "Cocycle":
        if other.base != self.base:
            raise ValueError("cannot add cocycles over different representations")
        return Cocycle(self.base, {k: self.values[k] + other.values[k] for k in self.values})

    def __mul__(self, s: complex) -> "Cocycle":
        return Cocycle(self.base, {k: v * s for k, v in self.values.items()})

    __rmul__ = __mul__


#: one local solve of ``local_coboundaries``: P as a QuadPoly, its residual
#: and the kernel dimension of its system
LocalSolve = namedtuple("LocalSolve", "poly residual kernel_dim")


def _matvec(a, x):
    """a x for each 3x3 matrix of the stack a (m x 3 x 3) and the matching
    3-vector of x (... x m x 3), as elementwise operations in one fixed
    order: an entry does not depend on the other entries of the batch."""
    return a[..., 0] * x[..., :1] + a[..., 1] * x[..., 1:2] + a[..., 2] * x[..., 2:]


def _norms(x):
    """Euclidean norms of the 3-vectors on the last axis, summed in order."""
    x = x.real * x.real + x.imag * x.imag
    return np.sqrt(x[..., 0] + x[..., 1] + x[..., 2])


def _ad_minus_one(rho: Representation, gens) -> np.ndarray:
    """The stack of the 3x3 matrices Ad rho(g) - 1 over the generator names
    of ``gens``: the local system at each marked generator, and the
    coboundary map delta P(g) = (Ad rho(g) - 1) P at every generator."""
    stack = np.array([ad_matrix(rho.images[g]) for g in gens], dtype=complex)
    return stack.reshape(-1, 3, 3) - np.eye(3)


def local_coboundaries(systems, tol: float = LOCAL_TOL) -> list[list[list[LocalSolve]]]:
    """[[[LocalSolve per generator name of gens] per cocycle of chis] per
    system (rho, chis, gens) of ``systems``]: the minimum-norm P with
    (Ad rho(c) - 1) P = chi(c) for every pair, read from ``rho.images[c]``
    and ``chi.values[c]``.  A name the signature does not have raises
    ValueError.

    The 3x3 systems are singular for parabolic/elliptic rho(c) (kernel of
    dimension >= 1).  One stacked SVD U S V^* of the matrices of every
    system (``_ad_minus_one``, once per system) serves every cocycle:
    singular values at most _RCOND times a matrix's largest count as zero,
    as under lstsq's ``rcond``, their number is the kernel dimension, and
    P = V S^+ U^* chi(c), each solve by elementwise operations, so bit for
    bit its batch of one.  A non-finite system raises NumericalError before
    any is solved; then, system by system and cocycle by cocycle, a residual
    above ``tol`` x max(1, |chi(c)|, |chi|) raises CocycleNotParabolicError.
    """
    for rho, _, gens in systems:
        for c in gens:
            if c not in rho.signature.generators:
                raise ValueError(f"unknown generator {c!r} for signature {rho.signature}")
    out = [[[] for _ in chis] for _, chis, _ in systems]
    solved = [(k, rho, chis, gens) for k, (rho, chis, gens) in enumerate(systems) if chis and gens]
    if not solved:
        return out
    M = np.concatenate([_ad_minus_one(rho, gens) for _, rho, _, gens in solved])
    which, first = [], 0  # the matrix of each (system, cocycle, generator) row
    for _, _, chis, gens in solved:
        which += list(range(first, first + len(gens))) * len(chis)
        first += len(gens)
    names = [c for _, _, chis, gens in solved for _ in chis for c in gens]
    rhs = np.array([chi.values[c].vector()
                    for _, _, chis, gens in solved for chi in chis for c in gens])
    finite = np.isfinite(M).all(axis=(1, 2))[which] & np.isfinite(rhs).all(axis=1)
    if not finite.all():  # LAPACK would fail on it and print to stdout
        raise NumericalError(f"non-finite local system at {names[int(np.argmin(finite))]}")
    u, svals, vh = np.linalg.svd(M)
    keep = svals > _RCOND * svals[:, :1]
    pinv = np.divide(1, svals, out=np.zeros_like(svals), where=keep)
    sol = _matvec(vh.conj().swapaxes(1, 2)[which],
                  _matvec(u.conj().swapaxes(1, 2)[which], rhs) * pinv[which])
    rows = zip(names, sol, _norms(_matvec(M[which], sol) - rhs).tolist(),
               _norms(rhs).tolist(), (3 - keep.sum(axis=1))[which].tolist())
    for k, _, chis, gens in solved:
        for chi, solves in zip(chis, out[k]):
            norm = chi.norm()
            for c, p, r, sc, dim in itertools.islice(rows, len(gens)):
                bound = tol * max(1.0, sc, norm)
                if r > bound:
                    raise CocycleNotParabolicError(c, r, bound)
                solves.append(LocalSolve(QuadPoly.from_vector(p), r, dim))
    return out


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
        d, m = derivatives[gen], rho.images[gen]
        # the traceless part as a QuadPoly: -x01, x11 - x00, x10
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
    frame = rho.relator_frame
    for (name, exp), before, after in zip(frame.letters, frame.prefixes, frame.prefixes[1:]):
        j = 3 * col[name]
        if exp == 1:
            T[:, j:j + 3] += ad_matrix(before)
        else:
            T[:, j:j + 3] -= ad_matrix(after)
    return T


def _parabolic_parametrization(rho: Representation) -> np.ndarray:
    """Block map sending free parameters to generator values: identity blocks
    on handle generators, (Ad rho(c_i) - 1) on marked ones (which makes local
    solvability automatic)."""
    gens, marked = rho.signature.generators, rho.signature.marked_generators
    P = np.eye(3 * len(gens), dtype=complex)
    for c, B in zip(marked, _ad_minus_one(rho, marked)):
        i = 3 * gens.index(c)
        P[i:i + 3, i:i + 3] = B
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
    raise NumericalError("failed to sample a nonzero cocycle")


def reduce_by_coboundary(rho: Representation, chis) -> list[Cocycle]:
    """Each cocycle of ``chis`` over ``rho`` less its least-squares-best
    coboundary, all from one ``lstsq`` on the coboundary map (``_ad_minus_one``).

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
    if any(chi.base != rho for chi in chis):
        raise ValueError("cannot reduce cocycles over a different representation")
    gens = rho.signature.generators
    V = np.array([np.concatenate([chi.values[g].vector() for g in gens]) for chi in chis]).T
    Ps, *_ = np.linalg.lstsq(_ad_minus_one(rho, gens).reshape(-1, 3), V, rcond=None)
    images = [rho.images[g] for g in gens]
    out = []
    for chi, P in zip(chis, Ps.T.tolist()):
        p0, p1, p2 = P
        pm = (-p1 / 2, -p0, p2, p1 / 2)  # P as a traceless matrix
        values = {}
        for g, m in zip(gens, images):
            conj = mat_mul(mat_mul(m, pm), mat_inv_unit(m))
            x = chi.values[g]
            y = [a - (b - p) for a, b, p in zip((-x.p1 / 2, -x.p0, x.p2, x.p1 / 2), conj, pm)]
            values[g] = QuadPoly(-y[1], y[3] - y[0], y[2])  # the traceless part as a QuadPoly
        out.append(Cocycle(rho, values))
    return out
