"""Goldman's symplectic pairing on cocycles.

Closed surfaces:

    w(chi1, chi2) = - sum_k  <chi1(# dR/da_k), chi2(a_k)>
                           + <chi1(# dR/db_k), chi2(b_k)>

and for orbifold signatures two more sums: the marked-generator Fox terms
(dR/dc_i = R_{g+i-1}) and the local-polynomial corrections
- sum_i <chi1(c_i^-1), P_2i> with (Ad rho(c_i) - 1) P_2i = chi2(c_i).
rho's side of the relator walk (letters and prefix images) is built once per
representation (Representation.relator_frame) and shared by every cocycle's
walk (_walk) and chi(R); the local solves of all cocycles at all c_i, of
one representation or of several (goldman_matrices), come from one stacked
SVD.  The marked generators are single letters, so
chi(c_i), chi(c_i^-1) and rho(c_i) come from their values and images, not
from word walks.

A cross-check evaluates the cup product on the group-homology 2-cycle; with
the conventions here the two paths agree with global sign +1 (CUP_SIGN):
<chi(#u), v> = -<chi(u), Ad rho(u) v> term by term absorbs the leading minus.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import namedtuple
from typing import Sequence

from .cocycles import (LOCAL_TOL, Cocycle, LocalSolve, RelatorFrame, Representation,
                       local_coboundaries)
from .sl2 import NumericalError, QuadPoly, adjoint_action, killing
from .words import FreeWord, GroupRingElement

#: cup_product_on_chain(fundamental 2-cycle) == CUP_SIGN * goldman_closed
CUP_SIGN = +1

_REDUCIBLE = ("representation is visibly reducible (common fixed point); "
              "the pairing may be degenerate")


#: value of the pairing together with the correction data that entered it:
#: chi2's ``LocalSolve`` per marked generator name, and the relator
#: residuals (chi1, chi2)
PairingReport = namedtuple("PairingReport", "value solves relator_residuals")


#: one cocycle's chi(# dR/dx) per generator x, chi(R), and chi(c_i^-1) per marked c_i
_Walk = namedtuple("_Walk", "sharp relator inverses")


def _walk(chi: Cocycle, frame: RelatorFrame) -> _Walk:
    """Walk R = x_1 ... x_L carrying c_j = chi(P_j) along the prefixes
    P_j of rho's ``frame``: dR/dx collects P_{j-1} at x_j = x and -P_j at
    x_j = x^-1, and chi(P^-1) = -Ad(rho(P)^-1) chi(P) evaluates their #
    images; for a marked c_i, chi(c_i^-1) = -Ad(rho(c_i)^-1) chi(c_i) from
    the generator's own image and value."""
    rho = chi.base
    sharp = {gen: QuadPoly.zero() for gen in rho.signature.generators}
    cs = chi.along(frame.letters, frame.prefixes)
    for j, (name, exp) in enumerate(frame.letters):
        if exp == 1:
            sharp[name] = sharp[name] - adjoint_action(frame.inverses[j], cs[j])
        else:
            sharp[name] = sharp[name] + adjoint_action(frame.inverses[j + 1], cs[j + 1])
    inverses = {c: -1 * adjoint_action(rho.images[c].inverse(), chi.values[c])
                for c in rho.signature.marked_generators}
    return _Walk(sharp, cs[-1], inverses)


def _local_solves(rhos: list[Representation], chis: list[list[Cocycle]], local_tol: float
                  ) -> list[list[dict[str, LocalSolve]]]:
    """P_2i with (Ad rho(c_i) - 1) P_2i = chi(c_i) at every marked c_i, for
    every cocycle ``chis[k]`` of every representation ``rhos[k]``, from one
    ``local_coboundaries``."""
    names = [rho.signature.marked_generators for rho in rhos]
    batch = local_coboundaries(list(zip(rhos, chis, names)), tol=local_tol)
    return [[dict(zip(gens, solves)) for solves in rows] for gens, rows in zip(names, batch)]


def _value(walk: _Walk, chi2: Cocycle, solves2: dict[str, LocalSolve]) -> complex:
    """One Goldman sum, (G-2) and (G-non) alike: closed signatures have no c_i."""
    total = 0j
    for gen, sharp in walk.sharp.items():
        total -= killing(sharp, chi2.values[gen])
        if gen in solves2:
            total -= killing(walk.inverses[gen], solves2[gen].poly)
    return total


def _check_finite(value: complex, relator_residuals: tuple[float, float]) -> None:
    if not all(map(math.isfinite, (value.real, value.imag, *relator_residuals))):
        raise NumericalError(f"non-finite Goldman pairing {value} "
                             f"(relator residuals {relator_residuals})")


def _prologue(rho: Representation) -> RelatorFrame:
    """The prologue of ``pairing`` and ``goldman_matrices``: warn, at the
    first frame outside this module, if rho is visibly reducible; then rho's
    frame of R."""
    if rho.visibly_reducible:
        frame, level = sys._getframe(), 1
        while frame.f_code.co_filename == __file__:
            frame, level = frame.f_back, level + 1
        warnings.warn(_REDUCIBLE, RuntimeWarning, stacklevel=level)
    return rho.relator_frame


def pairing(rho: Representation, chi1: Cocycle, chi2: Cocycle,
            local_tol: float = LOCAL_TOL) -> PairingReport:
    """omega(chi1, chi2) with its correction data, for any signature:
    chi1's walk of R, chi2's local solves and chi2(R), on rho's frame of R."""
    frame = _prologue(rho)
    walk = _walk(chi1, frame)
    ((solves,),) = _local_solves([rho], [[chi2]], local_tol)
    value = _value(walk, chi2, solves)
    residuals = (walk.relator.norm(), chi2.along(frame.letters, frame.prefixes)[-1].norm())
    _check_finite(value, residuals)
    return PairingReport(value, solves, residuals)


def goldman_matrices(rhos: list[Representation], chis: list[list[Cocycle]]
                     ) -> list[tuple[list[list[complex]], list[dict[str, LocalSolve]]]]:
    """omega(chis[k][i], chis[k][j]) for all i, j of each representation
    ``rhos[k]``, bit for bit the one-pair values, with each cocycle's local
    solves: from each rho's frame of R and n walks of it, and one batch of
    local solves for every cocycle of every representation."""
    frames = [_prologue(rho) for rho in rhos]
    out = []
    for frame, cs, solves in zip(frames, chis, _local_solves(rhos, chis, LOCAL_TOL)):
        walks = [_walk(chi, frame) for chi in cs]
        values = [[_value(w, chi2, s2) for chi2, s2 in zip(cs, solves)] for w in walks]
        for row, w1 in zip(values, walks):
            for v, w2 in zip(row, walks):
                _check_finite(v, (w1.relator.norm(), w2.relator.norm()))
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
