"""Goldman's symplectic pairing on cocycles, the bilinear form of two walks
of the relator R = x_1 ... x_L with prefixes P_j = x_1 ... x_j:

    w(chi1, chi2) = sum_j <A_j, D_j>  -  sum_i <chi1(c_i^-1), P_2i>.

D_j = chi2(P_j) - chi2(P_(j-1)) is chi2's step at x_j (``Cocycle.steps``):
Ad(rho(P_(j-1))) chi2(x) at x_j = x and -Ad(rho(P_j)) chi2(x) at x_j = x^-1.
A_j is chi1(P_(j-1)) at x_j = x and chi1(P_j) at x_j = x^-1, and
(Ad rho(c_i) - 1) P_2i = chi2(c_i) at each marked generator c_i.  The first
sum is Goldman's (1984) Fox sum -sum_x <chi1(# dR/dx), chi2(x)> regrouped
letter by letter through <Ad(g^-1) X, Y> = <X, Ad(g) Y>, in the spirit of
the Riemann bilinear relations; the marked generators are letters of R too,
so it holds for every signature.  Each cocycle walks R once, one adjoint
action per letter, on rho's side of the walk (``relator_frame``, built once
per representation), and the sum of its steps is chi(R).  The local solves
of all cocycles at all c_i, of one representation or of several
(goldman_matrices), come from one stacked SVD; chi1(c_i^-1) comes from the
generator's own value and image, not from a word walk, and only for a first
operand: chi2 enters the marked terms through its solves alone.

The form is nondegenerate only at irreducible rho (Goldman 1984); whether
rho is visibly reducible is ``Representation.visibly_reducible``, which the
CLI reports beside the value.

A cross-check evaluates the cup product on the group-homology 2-cycle; with
the conventions here the two paths agree with global sign +1 (CUP_SIGN):
<chi(#u), v> = -<chi(u), Ad rho(u) v> term by term absorbs the leading minus.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Sequence

from .cocycles import (LOCAL_TOL, Cocycle, LocalSolve, RelatorFrame, Representation,
                       local_coboundaries)
from .sl2 import NumericalError, QuadPoly, adjoint_action, killing
from .words import FreeWord, GroupRingElement

#: cup_product_on_chain(fundamental 2-cycle) == CUP_SIGN * goldman_closed
CUP_SIGN = +1


#: value of the pairing together with the correction data that entered it:
#: chi2's ``LocalSolve`` per marked generator name, and the relator
#: residuals (chi1, chi2)
PairingReport = namedtuple("PairingReport", "value solves relator_residuals")


#: one cocycle's walk of R on rho's frame: at each letter x_j its prefix value
#: A_j and its step D_j, and chi(R), the sum of the steps
_Walk = namedtuple("_Walk", "heads steps relator")


def _walk(chi: Cocycle, frame: RelatorFrame) -> _Walk:
    steps = chi.steps(frame.letters, frame.prefixes)
    cs = list(itertools.accumulate(steps, initial=QuadPoly.zero()))
    heads = [cs[j] if exp == 1 else cs[j + 1] for j, (_, exp) in enumerate(frame.letters)]
    return _Walk(heads, steps, cs[-1])


def _inverses(chi: Cocycle) -> dict[str, QuadPoly]:
    """chi(c_i^-1) = -Ad(rho(c_i)^-1) chi(c_i) per marked c_i: the first
    operand's part of the marked terms."""
    rho = chi.base
    return {c: -adjoint_action(rho.images[c].inverse(), chi.values[c])
            for c in rho.signature.marked_generators}


def _local_solves(rhos: list[Representation], chis: list[list[Cocycle]], local_tol: float
                  ) -> list[list[dict[str, LocalSolve]]]:
    """P_2i with (Ad rho(c_i) - 1) P_2i = chi(c_i) at every marked c_i, for
    every cocycle ``chis[k]`` of every representation ``rhos[k]``, from one
    ``local_coboundaries``."""
    names = [rho.signature.marked_generators for rho in rhos]
    batch = local_coboundaries(list(zip(rhos, chis, names)), tol=local_tol)
    return [[dict(zip(gens, solves)) for solves in rows] for gens, rows in zip(names, batch)]


def _value(walk1: _Walk, inverses1: dict[str, QuadPoly], walk2: _Walk,
           solves2: dict[str, LocalSolve]) -> complex:
    """One Goldman sum, closed and orbifold alike (closed signatures have no
    c_i): chi1's prefix values against chi2's steps, less the marked terms."""
    total = sum(map(killing, walk1.heads, walk2.steps), 0j)
    for c, solve in solves2.items():
        total -= killing(inverses1[c], solve.poly)
    return total


def _check_finite(value: complex, relator_residuals: tuple[float, float]) -> None:
    if not all(map(math.isfinite, (value.real, value.imag, *relator_residuals))):
        raise NumericalError(f"non-finite Goldman pairing {value} "
                             f"(relator residuals {relator_residuals})")


def pairing(rho: Representation, chi1: Cocycle, chi2: Cocycle,
            local_tol: float = LOCAL_TOL) -> PairingReport:
    """omega(chi1, chi2) with its correction data, for any signature: one
    walk of R per cocycle on rho's frame of R and chi2's local solves."""
    frame = rho.relator_frame
    walk1, walk2 = _walk(chi1, frame), _walk(chi2, frame)
    ((solves,),) = _local_solves([rho], [[chi2]], local_tol)
    value = _value(walk1, _inverses(chi1), walk2, solves)
    residuals = (walk1.relator.norm(), walk2.relator.norm())
    _check_finite(value, residuals)
    return PairingReport(value, solves, residuals)


def goldman_matrices(rhos: list[Representation], chis: list[list[Cocycle]],
                     local_tol: float = LOCAL_TOL
                     ) -> list[tuple[list[list[complex]], list[dict[str, LocalSolve]]]]:
    """omega(chis[k][i], chis[k][j]) for all i, j of each representation
    ``rhos[k]``, bit for bit the one-pair values, with each cocycle's local
    solves: from each rho's frame of R and one walk of it per cocycle, and
    one batch of local solves for every cocycle of every representation."""
    out = []
    for rho, cs, solves in zip(rhos, chis, _local_solves(rhos, chis, local_tol)):
        walks = [_walk(chi, rho.relator_frame) for chi in cs]
        inverses = [_inverses(chi) for chi in cs]
        norms = [w.relator.norm() for w in walks]
        values = [[_value(w1, inv1, w2, s2) for w2, s2 in zip(walks, solves)]
                  for w1, inv1 in zip(walks, inverses)]
        for row, n1 in zip(values, norms):
            for v, n2 in zip(row, norms):
                _check_finite(v, (n1, n2))
        out.append((values, solves))
    return out


def goldman_closed(rho: Representation, chi1: Cocycle, chi2: Cocycle) -> complex:
    if rho.signature.num_marked != 0:
        raise ValueError("goldman_closed requires a closed signature (m = n = 0)")
    return pairing(rho, chi1, chi2).value


def cup_product_on_chain(rho: Representation, chi1: Cocycle, chi2: Cocycle,
                         chain: Sequence[tuple[GroupRingElement, str | FreeWord]]) -> complex:
    """<chi1 cup chi2> evaluated on a 2-chain of (group-ring, generator or word)
    pairs such as ``fundamental_class_chain``, Z-linear in the first slot:

        sum over terms n.w of  n * <chi1(w), Ad rho(w) . chi2(gamma2)>.
    """
    total = 0j
    for ring_elt, gen in chain:
        gamma2 = gen if isinstance(gen, FreeWord) else rho.signature.gen(gen)
        target = chi2(gamma2)
        for w, n in ring_elt.terms.items():
            total += n * killing(chi1(w), adjoint_action(rho.image(w), target))
    return total
