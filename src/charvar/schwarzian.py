"""Schwarzian derivative, the third-order operator Lambda_q, the bilinear form
B_q, their identity suite, and the kernel/inhomogeneous solver.

All derivative-laden identities are evaluated with jet arithmetic (exact on
polynomials), never finite differences: the identities involve third
derivatives and finite differencing would eat the entire tolerance budget.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from typing import Callable, Optional, Sequence

import numpy as np

from .jets import DEFAULT_ORDER, Jet, jet_exp, moebius_jet, nan_max
from .monodromy import gauss_legendre
from .sl2 import MoebiusMap, NumericalError, QuadPoly

JetProvider = Callable[[complex, int], Jet]


def schwarzian(f: Jet) -> Jet:
    """S(f) = f'''/f' - (3/2)(f''/f')^2; zero exactly on Moebius jets."""
    if f.order < 4:
        raise ValueError("schwarzian needs a jet of order >= 4")
    f1 = f.derivative()
    if abs(f1.value) < 1e-13 * max(1.0, f.norm()):
        raise ValueError("critical point: f'(z0) = 0")
    f2 = f1.derivative()
    f3 = f2.derivative()
    inv = f1.truncate(f3.order).reciprocal()
    g = f2.truncate(f3.order) * inv
    return f3 * inv - 1.5 * g * g


def lambda_apply(q: Jet, F: Jet) -> Jet:
    """Lambda_q(F) = F''' + 2 q F' + q' F."""
    if F.order < 3:
        raise ValueError("lambda_apply needs F of order >= 3")
    F3 = F.derivative().derivative().derivative()
    n = min(F3.order, q.order - 1 if q.order >= 1 else 0)
    qp = q.derivative() if q.order >= 1 else Jet.constant(0j, q.base, 0)
    return (F3.truncate(n) + 2 * (q.truncate(n) * F.derivative().truncate(n))
            + qp.truncate(n) * F.truncate(n))


def b_apply(q: Jet, F: Jet, G: Jet) -> Jet:
    """B_q[F, G] = F'' G + F G'' - F' G' + 2 q F G."""
    if F.order < 2 or G.order < 2:
        raise ValueError("b_apply needs jets of order >= 2")
    n = min(F.order - 2, G.order - 2, q.order)
    Ft, Gt, qt = F.truncate(n + 2), G.truncate(n + 2), q.truncate(n)
    out = (Ft.derivative().derivative() * Gt.truncate(n)
           + Ft.truncate(n) * Gt.derivative().derivative()
           - Ft.derivative().truncate(n) * Gt.derivative().truncate(n)
           + 2 * qt * Ft.truncate(n) * Gt.truncate(n))
    return out


def poly_provider(coeffs: Sequence[complex]) -> JetProvider:
    return lambda z0, order=DEFAULT_ORDER: Jet.from_polynomial(coeffs, z0, order)


def exp_provider(scale: complex = 1.0) -> JetProvider:
    return lambda z0, order=DEFAULT_ORDER: jet_exp(Jet.variable(z0, order) * scale)


def moebius_provider(m: MoebiusMap) -> JetProvider:
    return lambda z0, order=DEFAULT_ORDER: moebius_jet(m, z0, order)


def quadpoly_jet(P: QuadPoly, z0: complex, order: int) -> Jet:
    return Jet.from_polynomial(P.coeffs(), z0, order)


# ---------------------------------------------------------------------------
# exactly gamma-invariant potentials, q o gamma (gamma')^2 = q
# ---------------------------------------------------------------------------

class InvariantPotential(namedtuple("InvariantPotential", "gamma sigma kind")):
    """q = (normal-form invariant) pulled back by the conjugator sigma that
    sends gamma to its normal form; invariance is exact by functoriality of
    the quadratic-differential pullback.  ``kind`` is "parabolic" (q0 =
    e^{2 pi i w}) or "generic" (q0 = 1/w^2)."""
    __slots__ = ()

    def jet(self, z0: complex, order: int = DEFAULT_ORDER) -> Jet:
        s = moebius_jet(self.sigma, z0, order + 2)
        ds = s.derivative()
        if self.kind == "generic":
            out = ds * ds * (s * s).reciprocal()
        else:
            out = jet_exp(s * (2j * math.pi)) * ds * ds
        return out.truncate(order)

    def involution(self) -> Optional[MoebiusMap]:
        """The order-2 Moebius map sharing gamma's fixed points (generic kind
        only); q is exactly invariant under it as well since 1/w^2 is."""
        if self.kind != "generic":
            return None
        neg = MoebiusMap(1, 0, 0, -1)
        return self.sigma.inverse() @ neg @ self.sigma


def invariant_potential(gamma: MoebiusMap) -> InvariantPotential:
    if gamma.is_identity(1e-12):
        raise ValueError("identity map has no normal form")
    fixed = gamma.fixed_points()
    parabolic = abs(abs(gamma.trace()) - 2.0) < 1e-9 and (
        len(fixed) == 1 or len(fixed) == 2 and _close_pts(fixed[0], fixed[1]))
    if parabolic:
        p = fixed[0]
        if p == "inf":
            tau = gamma(0)  # translation length of z -> z + tau
            sigma = MoebiusMap(1, 0, 0, tau)
        else:
            T = MoebiusMap(0, 1, 1, -p)
            tau = T(gamma("inf"))
            sigma = MoebiusMap(1, 0, 0, tau) @ T
        pot = InvariantPotential(gamma, sigma, "parabolic")
        _check_translation_form(sigma, gamma)
        return pot
    p1, p2 = fixed[0], fixed[1]
    if p1 == "inf":
        p1, p2 = p2, p1
    if p2 == "inf":
        sigma = MoebiusMap(1, -p1, 0, 1)
    else:
        sigma = MoebiusMap(1, -p1, 1, -p2)
    return InvariantPotential(gamma, sigma, "generic")


def _close_pts(a, b) -> bool:
    if a == "inf" or b == "inf":
        return a == b
    return abs(a - b) <= 1e-6 * max(1.0, abs(a))


def _check_translation_form(sigma, gamma):
    nf = sigma @ gamma @ sigma.inverse()
    if nf.psl_distance(MoebiusMap(1, 1, 0, 1)) > 1e-6:
        raise NumericalError("conjugation to the unit translation failed")


# ---------------------------------------------------------------------------
# Wirtinger-jet helper for the Beltrami-type slot of B3
# ---------------------------------------------------------------------------

def _sym_equivariant_jet(F0: JetProvider, iota: MoebiusMap, z0: complex, order: int) -> Jet:
    """d/dz-jet at z0 of F = (F0 + (F0 o iota) conj(iota')/iota') / 2 for an
    involution iota.  Anti-holomorphic factors have vanishing d/dz derivative,
    so they enter the jet only through their value at z0."""
    ij = moebius_jet(iota, z0, order + 1)
    dij = ij.derivative()
    f0_here = F0(z0, order)
    f0_there = F0(ij.value, order).compose(ij.truncate(order))
    bar = complex(dij.value).conjugate()
    return 0.5 * (f0_here + f0_there * dij.truncate(order).reciprocal() * bar)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def _rel(diff: float, *scales: float) -> float:
    return diff / max(1.0, *scales)


def _jet_rel(lhs: Jet, rhs: Jet, *scales: float) -> float:
    """|lhs - rhs| through their common order, relative to |lhs|, |rhs| and
    any further scales."""
    n = min(lhs.order, rhs.order)
    return _rel((lhs.truncate(n) - rhs.truncate(n)).norm(), lhs.norm(), rhs.norm(), *scales)


def _pullback(F: Jet, g: Jet, order: int) -> Jet:
    """(F o g) / g' to the given order, for F's jet at g's value and g's jet
    of one order more."""
    return F.compose(g.truncate(order)) * g.derivative().truncate(order).reciprocal()


def check_identities(f: JetProvider, P: QuadPoly, gamma: MoebiusMap,
                     samples: Sequence[complex], order: int = DEFAULT_ORDER,
                     seed: int = 7) -> dict[str, float]:
    """Max relative residuals of Lambda1/2/3/5 and B1/2/3 over the samples.

    f supplies the locally schlicht map for Lambda1/2 and B1; gamma supplies
    the group element for Lambda3/B2 (paired with an exactly gamma-invariant
    q) and, through its fixed points, the involution used for B3's synthetic
    equivariant slot.
    """
    rng = np.random.default_rng(seed)

    def rpoly(deg, decay=0.7):
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        return [ck * decay ** k for k, ck in enumerate(c)]

    h_coeffs = rpoly(5)
    F_coeffs = rpoly(5)
    G_coeffs = rpoly(5)
    q_coeffs = rpoly(4)
    # B1 composes through f2 and divides by f2'; keep f2 schlicht on the
    # sampling disk (dominant linear term) so the 1/f2' factors of the
    # identity stay bounded
    f2_coeffs = [0.08 * c for c in rpoly(5, decay=0.5)]
    f2_coeffs[1] += 1.0

    pot = invariant_potential(gamma)
    iota = pot.involution()
    if iota is None:
        # parabolic gamma: B3 needs an involution; use one whose fixed points
        # sit well away from the samples, with its own exact invariant q.
        centre = sum(samples) / len(samples)
        spread = max(1.0, max(abs(z - centre) for z in samples))
        off = 2.3 * spread * cmath.exp(0.4j)
        iota_pot = invariant_potential(
            _involution_fixing(centre + off, centre - 0.9 * off))
        iota = iota_pot.involution()
    else:
        iota_pot = pot

    res = {k: 0.0 for k in
           ("lambda1", "lambda2", "lambda3", "lambda5", "b1", "b2", "b3")}

    for zs in samples:
        fj = f(zs, order)
        qj = schwarzian(fj)
        # Lambda1: Lambda_{S(f)}((P o f)/f') = 0
        Pf = quadpoly_jet(P, fj.value, order).compose(fj)
        Fj = Pf * fj.derivative().truncate(Pf.order).reciprocal()
        out = lambda_apply(qj.truncate(Fj.order - 3), Fj)
        res["lambda1"] = nan_max(res["lambda1"],
                                 _rel(out.norm(), Fj.norm() * (1 + qj.norm())))

        # Lambda2: Lambda_{S(f)}((h o f)/f') = (Lambda_0 h) o f * (f')^2
        hj = Jet.from_polynomial(h_coeffs, fj.value, order)
        Hf = hj.compose(fj) * fj.derivative().truncate(order - 1).reciprocal()
        lhs = lambda_apply(qj.truncate(Hf.order - 3), Hf)
        h3 = hj.derivative().derivative().derivative()
        rhs = h3.compose(fj.truncate(h3.order)) * fj.derivative() * fj.derivative()
        res["lambda2"] = nan_max(res["lambda2"], _jet_rel(lhs, rhs))

        # Lambda3: Lambda_q((F o gamma)/gamma') = Lambda_q(F) o gamma (gamma')^2
        gj = moebius_jet(gamma, zs, order + 1)
        dg = gj.derivative()
        qz = pot.jet(zs, order)
        Fg = Jet.from_polynomial(F_coeffs, gj.value, order)
        lhs = lambda_apply(qz, _pullback(Fg, gj, order))
        qw = pot.jet(gj.value, order)
        LF = lambda_apply(qw, Fg)
        rhs = LF.compose(gj.truncate(LF.order)) * dg * dg
        res["lambda3"] = nan_max(res["lambda3"], _jet_rel(lhs, rhs))

        # Lambda5: (B_q[F,G])' = Lambda_q(F) G + F Lambda_q(G)
        qp = Jet.from_polynomial(q_coeffs, zs, order)
        Fp = Jet.from_polynomial(F_coeffs, zs, order)
        Gp = Jet.from_polynomial(G_coeffs, zs, order)
        lhs = b_apply(qp, Fp, Gp).derivative()
        rhs = lambda_apply(qp, Fp) * Gp.truncate(order - 3) \
            + Fp.truncate(order - 3) * lambda_apply(qp, Gp)
        res["lambda5"] = nan_max(res["lambda5"], _jet_rel(lhs, rhs))

        # B1: B_{S(f1)}[F,G] o f2 = B_{S(f1 o f2)}[(F o f2)/f2', (G o f2)/f2']
        f2j = Jet.from_polynomial(f2_coeffs, zs, order)
        w = f2j.value
        f1j = f(w, order)
        Fw = Jet.from_polynomial(F_coeffs, w, order)
        Gw = Jet.from_polynomial(G_coeffs, w, order)
        B_at_w = b_apply(schwarzian(f1j), Fw, Gw)
        lhs = B_at_w.compose(f2j.truncate(B_at_w.order))
        comp = f1j.compose(f2j)
        rhs = b_apply(schwarzian(comp), _pullback(Fw, f2j, order), _pullback(Gw, f2j, order))
        # relative to the operand that feeds the composition: that is where
        # the cancellation happens for steep outer maps
        res["b1"] = nan_max(res["b1"], _jet_rel(lhs, rhs, B_at_w.norm()))

        # B2: B_q[F,G] o gamma = B_q[(F o gamma)/gamma', (G o gamma)/gamma']
        Gg = Jet.from_polynomial(G_coeffs, gj.value, order)
        B_at_g = b_apply(qw, Fg, Gg)
        lhs = B_at_g.compose(gj.truncate(B_at_g.order))
        rhs = b_apply(qz, _pullback(Fg, gj, order), _pullback(Gg, gj, order))
        res["b2"] = nan_max(res["b2"], _jet_rel(lhs, rhs))

        # B3 (pointwise): B[F,G] - B[F,G] o iota conj(iota') = B[F, H]
        res["b3"] = nan_max(res["b3"], _b3_residual(iota_pot, iota, F_coeffs, G_coeffs,
                                                    zs, order))
    return res


def _involution_fixing(p1: complex, p2: complex) -> MoebiusMap:
    sigma = MoebiusMap(1, -p1, 1, -p2)
    return sigma.inverse() @ MoebiusMap(1, 0, 0, -1) @ sigma


def _b3_residual(pot: InvariantPotential, iota: MoebiusMap,
                 F_coeffs, G_coeffs, zs: complex, order: int) -> float:
    F0 = poly_provider(F_coeffs)
    ij = moebius_jet(iota, zs, order + 1)
    ws = ij.value
    dij = ij.derivative()

    def b_value(point: complex) -> complex:
        qj = pot.jet(point, order)
        Fj = _sym_equivariant_jet(F0, iota, point, order)
        Gj = Jet.from_polynomial(G_coeffs, point, order)
        return b_apply(qj, Fj, Gj).value

    lhs = b_value(zs) - b_value(ws) * complex(dij.value).conjugate()
    qj = pot.jet(zs, order)
    Fj = _sym_equivariant_jet(F0, iota, zs, order)
    Gj = Jet.from_polynomial(G_coeffs, zs, order)
    Hj = Gj - _pullback(Jet.from_polynomial(G_coeffs, ws, order), ij, order)
    rhs = b_apply(qj, Fj, Hj).value
    return _rel(abs(lhs - rhs), abs(lhs), abs(rhs), Fj.norm() * Gj.norm())


# ---------------------------------------------------------------------------
# Lambda4: general solution of Lambda_q(G) = Q with q = S(f)
# ---------------------------------------------------------------------------

class QuadratureError(NumericalError):
    """Dyadic refinement exhausted without the two finest levels agreeing."""


#: ``solve_lambda_report``'s value, its residual, its panel count and the
#: quadrature's error estimate
LambdaSolveResult = namedtuple("LambdaSolveResult", "value residual panels quad_error")


def _moment_integrals(f: JetProvider, Q, z0: complex, z1: complex,
                      max_levels: int) -> tuple[np.ndarray, int, float]:
    """J_k = int_{z0}^{z1} f(u)^k Q(u)/f'(u) du, k = 0,1,2, straight segment,
    32-point Gauss-Legendre per panel with dyadic refinement until two levels
    agree to 1e-10 relative (or max_levels runs out).  A critical
    point of f at either end makes 1/f' singular there, which no refinement
    resolves: QuadratureError at once."""
    for end in (z0, z1):
        if abs(f(end, 1).derivative().value) < 1e-300:
            raise QuadratureError(f"quadrature did not converge: f' vanishes at the "
                                  f"endpoint {end}, a critical point of f")
    dz = z1 - z0
    nodes, weights = gauss_legendre(32)

    def level(n_panels: int) -> np.ndarray:
        total = np.zeros(3, dtype=complex)
        for p in range(n_panels):
            a = p / n_panels
            b = (p + 1) / n_panels
            mid, half = (a + b) / 2, (b - a) / 2
            for x, w in zip(nodes, weights):
                t = mid + half * x
                u = z0 + t * dz
                fu = f(u, 1)
                fp = fu.derivative().value
                if abs(fp) < 1e-300:
                    raise QuadratureError(f"quadrature did not converge: f' vanishes at {u} "
                                          f"on the path, a critical point of f")
                base = Q(u) / fp
                fv = fu.value
                total += (w * half) * np.array([base, fv * base, fv * fv * base])
        return total * dz

    prev = level(1)
    panels = 1
    for lvl in range(1, max_levels + 1):
        panels = 2 ** lvl
        cur = level(panels)
        err = float(np.max(np.abs(cur - prev)))
        scale = float(np.max(np.abs(cur))) + 1e-30
        prev = cur
        if err <= 1e-10 * max(scale, 1.0):
            return cur, panels, err
    raise QuadratureError(
        f"quadrature did not converge: {panels} panels still disagree by {err:.3e}")


def _dft_jet(Q, z1: complex, radius: float, order: int) -> Jet:
    """Jet of an analytic Q at z1 from n_samples = 24 equally spaced samples
    on a circle; aliasing error is O((radius/r_sing)^{n_samples}) per
    coefficient."""
    n_samples = 24
    vals = [Q(z1 + radius * cmath.exp(2j * math.pi * j / n_samples))
            for j in range(n_samples)]
    coeffs = []
    for k in range(order + 1):
        acc = 0j
        for j, v in enumerate(vals):
            acc += v * cmath.exp(-2j * math.pi * j * k / n_samples)
        coeffs.append(acc / (n_samples * radius ** k))
    return Jet(z1, coeffs)


def solve_lambda_report(f: JetProvider, Q, z0: complex, z1: complex,
                        abc: tuple[complex, complex, complex] = (0, 0, 0),
                        max_levels: int = 10) -> LambdaSolveResult:
    """G(z1) for the general solution

        G(z) = 1/2 int_{z0}^{z} (f(z)-f(u))^2 / (f'(z) f'(u)) Q(u) du
               + (a f(z)^2 + b f(z) + c) / f'(z),

    with a jet check that Lambda_q(G)(z1) = Q(z1).  The jet of G at z1 is
    reconstructed from the quadrature constants J_k and the jets of the
    integrands (Q's jet comes from a micro-stencil of cheap Q evaluations on
    a circle of radius 0.25 max(|z1 - z0|, 1) around z1), then
    differentiated exactly.
    """
    J, panels, quad_err = _moment_integrals(f, Q, z0, z1, max_levels)
    a, b, c = abc
    n = DEFAULT_ORDER
    fj = f(z1, n)
    fv, fpv = fj.value, fj.derivative().value
    value = (fv * fv * J[0] - 2 * fv * J[1] + J[2]) / (2 * fpv) \
        + (a * fv * fv + b * fv + c) / fpv
    Qj = _dft_jet(Q, z1, 0.25 * max(abs(z1 - z0), 1.0), n)
    fp = fj.derivative()
    inv_fp = fp.truncate(n).reciprocal()
    base = Qj.truncate(n) * inv_fp
    J0 = (base).antiderivative(J[0])
    fjn = fj.truncate(n)
    J1 = (fjn * base).antiderivative(J[1])
    J2 = (fjn * fjn * base).antiderivative(J[2])
    Gj = (fjn * fjn * J0.truncate(n) - 2 * fjn * J1.truncate(n) + J2.truncate(n)) \
        * (2 * fp.truncate(n)).reciprocal() \
        + (a * fjn * fjn + b * fjn + Jet.constant(c, z1, n)) * fp.truncate(n).reciprocal()
    qj = schwarzian(fj)
    resid = abs(lambda_apply(qj.truncate(Gj.order - 3), Gj).value - Q(z1))
    resid /= max(1.0, abs(Q(z1)), abs(value))
    return LambdaSolveResult(value, resid, panels, quad_err)
