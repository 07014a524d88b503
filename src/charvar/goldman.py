"""Goldman's symplectic pairing on cocycles.

Closed surfaces:

    w(chi1, chi2) = - sum_k  <chi1(# dR/da_k), chi2(a_k)>
                           + <chi1(# dR/db_k), chi2(b_k)>

and for orbifold signatures two more sums: the marked-generator Fox terms
(dR/dc_i = R_{g+i-1}) and the local-polynomial corrections
- sum_i <chi1(c_i^-1), P_2i> with (Ad rho(c_i) - 1) P_2i = chi2(c_i).
All the chi1(# dR/dx) come from one walk of the relator (see _pairing).

A cross-check evaluates the cup product on the group-homology 2-cycle; with
the conventions here the two paths agree with global sign +1 (CUP_SIGN):
<chi(#u), v> = -<chi(u), Ad rho(u) v> term by term absorbs the leading minus.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .cocycles import Cocycle, Representation, solve_local_coboundary
from .sl2 import MoebiusMap, QuadPoly, adjoint_action, killing
from .words import FreeWord, GoldmanSchedule, relator

#: cup_product_on_chain(fundamental 2-cycle) == CUP_SIGN * goldman_closed
CUP_SIGN = +1


@dataclass
class PairingReport:
    """Value of the pairing together with the correction data that entered it."""

    value: complex
    p2: dict[str, QuadPoly] = field(default_factory=dict)
    local_residuals: dict[str, float] = field(default_factory=dict)
    kernel_dims: dict[str, int] = field(default_factory=dict)
    relator_residuals: tuple[float, float] = (0.0, 0.0)
    scale: float = 1.0

    def as_dict(self) -> dict:
        from .serialize import complex_out, poly_out
        return {
            "value": complex_out(self.value),
            "scale": self.scale,
            "p2_list": {k: poly_out(v) for k, v in self.p2.items()},
            "local_residuals": dict(self.local_residuals),
            "kernel_dims": dict(self.kernel_dims),
            "relator_residuals": list(self.relator_residuals),
            "cup_sign": CUP_SIGN,
        }


def _pairing(rho: Representation, chi1: Cocycle, chi2: Cocycle,
             local_tol: float = 1e-6) -> PairingReport:
    """Shared Goldman sum; the marked-generator sums are empty for closed
    signatures, so this is simultaneously (G-2) and (G-non)."""
    if rho.visibly_reducible:
        warnings.warn("representation is visibly reducible (common fixed point); "
                      "the pairing may be degenerate", RuntimeWarning, stacklevel=3)
    sig = rho.signature
    Rword = relator(sig)
    # one walk of R = x_1 ... x_L carrying rho(P_j) and c_j = chi1(P_j):
    # dR/dx collects P_{j-1} at x_j = x and -P_j at x_j = x^-1, and
    # chi1(P^-1) = -Ad(rho(P)^-1) chi1(P) evaluates their # images
    sharp = {gen: QuadPoly.zero() for gen in sig.generators}
    prefix, c = MoebiusMap.identity(), QuadPoly.zero()
    for name, exp, next_prefix, next_c in chi1.prefixes(Rword):
        if exp == 1:
            sharp[name] = sharp[name] - adjoint_action(prefix.inverse(), c)
        else:
            sharp[name] = sharp[name] + adjoint_action(next_prefix.inverse(), next_c)
        prefix, c = next_prefix, next_c
    chi1_relator = c

    total = 0j
    for k in range(1, sig.g + 1):
        for gen in (f"a{k}", f"b{k}"):
            total -= killing(sharp[gen], chi2.values[gen])

    report = PairingReport(value=0j)
    for i in range(1, sig.num_marked + 1):
        gen = f"c{i}"
        total -= killing(sharp[gen], chi2.values[gen])  # # dR/dc_i = R_{g+i-1}^-1
        solve = solve_local_coboundary(rho, chi2, sig.gen(gen), tol=local_tol)
        total -= killing(chi1(sig.gen(gen).inverse()), solve.poly)
        report.p2[gen] = solve.poly
        report.local_residuals[gen] = solve.residual
        report.kernel_dims[gen] = solve.kernel_dim

    report.value = total
    report.relator_residuals = (chi1_relator.norm(), chi2(Rword).norm())
    if not all(map(math.isfinite, (total.real, total.imag, *report.relator_residuals))):
        raise ArithmeticError(f"non-finite Goldman pairing {total} "
                              f"(relator residuals {report.relator_residuals})")
    report.scale = max(1e-300, chi1.norm() * chi2.norm())
    return report


def goldman_closed(rho: Representation, chi1: Cocycle, chi2: Cocycle) -> complex:
    if rho.signature.num_marked != 0:
        raise ValueError("goldman_closed requires a closed signature (m = n = 0)")
    return _pairing(rho, chi1, chi2).value


def goldman_orbifold(rho: Representation, chi1: Cocycle, chi2: Cocycle,
                     local_tol: float = 1e-6) -> PairingReport:
    if rho.signature.num_marked == 0:
        raise ValueError("goldman_orbifold requires marked points; use goldman_closed")
    return _pairing(rho, chi1, chi2, local_tol=local_tol)


def cup_product_on_chain(rho: Representation, chi1: Cocycle, chi2: Cocycle,
                         chain: GoldmanSchedule | list) -> complex:
    """<chi1 cup chi2> evaluated on a 2-chain of (group-ring, word) pairs,
    Z-linear in the first slot:

        sum over terms n.w of  n * <chi1(w), Ad rho(w) . chi2(gamma2)>.
    """
    terms = chain.fox_terms if isinstance(chain, GoldmanSchedule) else chain
    total = 0j
    for ring_elt, gen in terms:
        gamma2 = gen if isinstance(gen, FreeWord) else rho.signature.gen(gen)
        target = chi2(gamma2)
        for w, n in ring_elt.terms.items():
            total += n * killing(chi1(w), adjoint_action(rho.image(w), target))
    return total
