"""Acceptance criteria, one test per criterion, each timed against its stated
budget and printed as a single pass line (run with -s to see them).

Tolerances are the contract values; nothing here is calibrated after the fact.
"""

import math
import time

import numpy as np
import pytest

from conftest import FOUR_CUSP_T, FOUR_CUSP_ZB, make_genus1_rep, make_genus2_rep
from oracles import (KILLING_MATRIX, b0_bracket, coboundary, direction_family,
                     finite_difference_cocycle, local_kernel_basis, random_quadpoly)
from charvar.cocycles import random_parabolic_cocycle
from charvar.goldman import CUP_SIGN, cup_product_on_chain, goldman_closed, pairing
from charvar.kawai import (AccessoryDirection, GridOffset, PointDirection,
                           kawai_experiment)
from charvar.monodromy import MonodromyEngine, build_potential
from charvar.schwarzian import (check_identities, exp_provider, poly_provider,
                                solve_lambda_report)
from charvar.sl2 import MoebiusMap, QuadPoly, killing
from charvar.words import (GroupRingElement, Signature, dual_generators,
                           fox_derivative, fundamental_class_chain,
                           prefix_products, verify_presentation_identities)

BASIS = [QuadPoly(1, 0, 0), QuadPoly(0, 1, 0), QuadPoly(0, 0, 1)]


class _Timer:
    def __init__(self, criterion, limit, desc):
        self.criterion, self.limit, self.desc = criterion, limit, desc

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *a):
        dt = time.perf_counter() - self.t0
        if exc_type is None:
            assert dt < self.limit, f"criterion {self.criterion} overran: {dt:.1f}s"
            print(f"[criterion {self.criterion}] PASS in {dt:.2f}s "
                  f"(< {self.limit:.0f}s): {self.desc}")
        else:
            print(f"[criterion {self.criterion}] FAIL after {dt:.2f}s: {self.desc}")
        return False


def test_criterion_1_killing_matrix():
    with _Timer(1, 1.0, "Killing matrix C and -B0/2 agreement on basis pairs"):
        C = np.array([[killing(p, q) for q in BASIS] for p in BASIS])
        assert np.array_equal(C, KILLING_MATRIX)
        for p in BASIS:
            for q in BASIS:
                assert abs(killing(p, q) + 0.5 * b0_bracket(p, q)) <= 1e-14


def _criterion2_signatures():
    splits = {0: [()], 1: [(2,), ()], 2: [(3,), (2, 2), ()],
              3: [(2, 3), (4,), ()], 4: [(2, 2, 3), (5,), ()]}
    for g in range(4):
        for mn in range(5):
            for elliptic in splits[mn]:
                cusps = mn - len(elliptic)
                yield Signature(g, elliptic + (None,) * cusps)


def test_criterion_2_symbolic_identity_suite():
    with _Timer(2, 5.0, "Fox-1/Fox-2, sharp identities, dual-generator words, "
                        "g <= 3, m+n <= 4 (exact integer arithmetic)"):
        for sig in _criterion2_signatures():
            R = prefix_products(sig)
            Rword = R[-1]
            duals = dual_generators(sig)
            for k in range(1, sig.g + 1):
                a_k, b_k = sig.gen(f"a{k}"), sig.gen(f"b{k}")
                # (Fox-1) reproduced by the general Fox derivative
                assert fox_derivative(Rword, f"a{k}") == \
                    GroupRingElement.from_word(R[k - 1]) - \
                    GroupRingElement.from_word(R[k] * b_k)
                assert fox_derivative(Rword, f"b{k}") == \
                    GroupRingElement.from_word(R[k - 1] * a_k) - \
                    GroupRingElement.from_word(R[k])
                # sharp identities; the b-side sign resolves to -1 (the +1
                # variant printed in the source material does not reduce)
                one_minus_alpha = GroupRingElement.one() - \
                    GroupRingElement.from_word(duals.alphas[k - 1])
                assert fox_derivative(Rword, f"a{k}").anti_involution() == \
                    GroupRingElement.from_word(R[k - 1].inverse()) * one_minus_alpha
                one_minus_beta = GroupRingElement.one() - \
                    GroupRingElement.from_word(duals.betas[k - 1])
                plus = GroupRingElement.from_word(R[k].inverse()) * one_minus_beta
                sharp_b = fox_derivative(Rword, f"b{k}").anti_involution()
                assert sharp_b == -plus
                assert sharp_b != plus
            for i in range(1, sig.num_marked + 1):
                # (Fox-2)
                assert fox_derivative(Rword, f"c{i}") == \
                    GroupRingElement.from_word(R[sig.g + i - 1])
            report = verify_presentation_identities(sig)
            assert report.all_pass
            if sig.g:
                assert report.alpha_convention == "section_3.1.1"
                assert report.beta_sign == -1


def _orb3_rep():
    # the coboundary-invariance defect scales with the relation residual
    # amplified by Ad norms of the prefix words
    data = build_potential([0, 1, FOUR_CUSP_T], [3, None, None], None,
                           [0.2 + 0.1j], base_point=FOUR_CUSP_ZB)
    rho, _, _ = MonodromyEngine(data).representation()
    assert rho.signature.orders == (None, None, 3, None)
    return rho


def test_criterion_3_goldman_well_definedness():
    with _Timer(3, 30.0, "coboundary/antisymmetry/bilinearity/kernel-shift over "
                         "50 random combinations (genus 2 and (0; inf,inf,3,inf))"):
        rng = np.random.default_rng(101)
        reps = [(make_genus2_rep(101), goldman_closed, False),
                (_orb3_rep(), lambda r, c1, c2: pairing(r, c1, c2).value, True)]
        for rho, pair, orbifold in reps:
            for _ in range(25):
                chi1 = random_parabolic_cocycle(rho, rng)
                chi2 = random_parabolic_cocycle(rho, rng)
                v = pair(rho, chi1, chi2)
                scale = max(1.0, abs(v), chi1.norm() * chi2.norm())
                # coboundary invariance, both slots
                P = random_quadpoly(rng)
                dP = coboundary(rho, P)
                assert abs(pair(rho, chi1 + dP, chi2) - v) <= 1e-8 * scale * max(1, P.norm())
                assert abs(pair(rho, chi1, chi2 + dP) - v) <= 1e-8 * scale * max(1, P.norm())
                # antisymmetry
                assert abs(v + pair(rho, chi2, chi1)) <= 1e-9 * scale
                # bilinearity
                a = complex(rng.standard_normal(), rng.standard_normal())
                chi3 = random_parabolic_cocycle(rho, rng)
                lhs = pair(rho, a * chi1 + chi3, chi2)
                rhs = a * v + pair(rho, chi3, chi2)
                assert abs(lhs - rhs) <= 1e-10 * scale * max(1.0, abs(a))
                # P_2i kernel-shift invariance: the correction term changes by
                # <chi1(c_i^-1), K> for K in ker(Ad rho(c_i) - 1)
                if orbifold:
                    for i in range(1, rho.signature.num_marked + 1):
                        gw = rho.signature.gen(f"c{i}")
                        for K in local_kernel_basis(rho, gw):
                            assert abs(killing(chi1(gw.inverse()), K)) <= \
                                1e-10 * max(1.0, chi1.norm())


@pytest.mark.filterwarnings("ignore:representation is visibly reducible")
def test_criterion_4_cross_path_agreement():
    with _Timer(4, 5.0, "cup product on the 2-cycle vs goldman_closed "
                        f"(documented global sign {CUP_SIGN:+d}), genus 1 and 2"):
        rng = np.random.default_rng(7)
        for rho in (make_genus1_rep(1), make_genus1_rep(2),
                    make_genus2_rep(41), make_genus2_rep(42)):
            chain = fundamental_class_chain(rho.signature)
            for _ in range(10):
                chi1 = random_parabolic_cocycle(rho, rng)
                chi2 = random_parabolic_cocycle(rho, rng)
                gd = goldman_closed(rho, chi1, chi2)
                cp = cup_product_on_chain(rho, chi1, chi2, chain)
                scale = max(1.0, abs(gd), chi1.norm() * chi2.norm())
                assert abs(cp - CUP_SIGN * gd) <= 1e-10 * scale


def test_criterion_5_lambda_b_identity_suite():
    with _Timer(5, 10.0, "Lambda1/2/3/5, B1/B2 <= 1e-9, B3 <= 1e-8, "
                         "Lambda4 solver residual <= 1e-8 at 20 samples"):
        rng = np.random.default_rng(55)
        samples = [complex(x, y) for x, y in zip(0.7 * rng.standard_normal(20),
                                                 0.7 * rng.standard_normal(20))]
        for gamma in (MoebiusMap(1, 1, 1, 2), MoebiusMap(1, 1, 0, 1),
                      MoebiusMap(0, 1, -1, 0)):
            res = check_identities(exp_provider(), QuadPoly(1, 0.5, -0.25),
                                   gamma, samples, seed=5)
            for key in ("lambda1", "lambda2", "lambda3", "lambda5", "b1", "b2"):
                assert res[key] <= 1e-9, (key, res[key])
            assert res["b3"] <= 1e-8
        r1 = solve_lambda_report(poly_provider([0, 1]), lambda z: 6.0 + 0j,
                                 0j, 0.7 + 0.2j)
        r2 = solve_lambda_report(exp_provider(), lambda z: complex(z) ** 2 - 0.3j,
                                 0j, 0.5 + 0.1j, (0.1, 0.2, -0.3))
        assert r1.residual <= 1e-8 and abs(r1.value - (0.7 + 0.2j) ** 3) <= 1e-10
        assert r2.residual <= 1e-8


def test_criterion_6_monodromy_local_types():
    with _Timer(6, 20.0, "lasso trace types, relation closure, Wronskian drift "
                         "on {0,1,t,inf} (cusps and e in {2,3,6})"):
        acc = [0.2 + 0.1j]
        data = build_potential([0, 1, FOUR_CUSP_T], [None] * 3, None, acc,
                               base_point=FOUR_CUSP_ZB)
        engine = MonodromyEngine(data)
        rho, drift, _ = engine.representation()
        for g in rho.signature.generators:
            assert abs(abs(rho.images[g].trace()) - 2) <= 1e-6
        prod = MoebiusMap.identity()
        for i in range(1, 5):
            prod = prod @ rho.images[f"c{i}"]
        assert prod.psl_distance(MoebiusMap.identity()) <= 1e-6
        assert drift <= 1e-9
        for e in (2, 3, 6):
            data_e = build_potential([0, 1, FOUR_CUSP_T], [e, None, None], None,
                                     acc, base_point=FOUR_CUSP_ZB)
            engine_e = MonodromyEngine(data_e)
            rho_e, drift_e, _ = engine_e.representation()
            got = abs(rho_e.images["c3"].trace())
            assert abs(got - 2 * math.cos(math.pi / e)) <= 1e-6
            assert max(rho_e.trace_residuals().values()) <= 1e-6
            assert drift_e <= 1e-9


def test_criterion_7_kawai_pullback_consequences():
    with _Timer(7, 60.0, "fiber isotropy (5-marked), base-fiber constancy along "
                         "the fiber (4-marked 3x3 grid), antisymmetry"):
        # (a) five marked points, two accessory directions
        base5 = build_potential([0, 1, 2.2 + 0.4j, -0.9 + 0.9j], [None] * 4, None,
                                [0.15 + 0.05j, -0.1 + 0.2j], base_point=0.35 - 1.3j)
        (res5,) = kawai_experiment(base5, [PointDirection((0, 0, 1, 0))], grid=[GridOffset()])
        tlab = res5.labels[-1]
        fiber_fiber = abs(res5.pairing("c0", "c1"))
        base_fiber = max(abs(res5.pairing("c0", tlab)), abs(res5.pairing("c1", tlab)))
        assert fiber_fiber <= 1e-4 * base_fiber
        assert res5.antisymmetry_defect <= 1e-8 * res5.scale

        # (b) four marked points, 3x3 grid in (t, c)
        base4 = build_potential([0, 1, FOUR_CUSP_T], [None] * 3, None,
                                [0.2 + 0.1j], base_point=FOUR_CUSP_ZB)
        grid = [GridOffset(t=(dt,), c=(dc,))
                for dt in (0, 0.035 + 0.02j, 0.07 - 0.01j)
                for dc in (0, 0.06 + 0.03j, 0.12 - 0.04j)]
        results4 = kawai_experiment(base4, [PointDirection((0, 0, 1))], grid=grid)
        by_t = {}
        for res in results4:
            by_t.setdefault(res.offset.t, []).append(res.pairing("c0", "t2"))
        assert len(by_t) == 3
        for t_off, vals in by_t.items():
            assert len(vals) == 3
            centre = sum(vals) / len(vals)
            spread = max(abs(v - centre) for v in vals)
            assert spread <= 1e-3 * abs(centre), (t_off, vals)

        # (c) antisymmetry of every pairing matrix on the grid
        scale = max(res.scale for res in (*results4, res5))
        for res in (*results4, res5):
            assert res.antisymmetry_defect <= 1e-8 * scale

            # hygiene thresholds along the way
            assert res.relation_residual <= 1e-5
            assert res.wronskian_drift <= 1e-9
            assert max(res.trace_drifts.values()) <= 1e-6


def test_criterion_8_finite_difference_hygiene():
    with _Timer(8, 10.0, "4th-order step-doubling stability and exact-zero "
                         "constant families"):
        data = build_potential([0, 1, FOUR_CUSP_T], [None] * 3, None,
                               [0.2 + 0.1j], base_point=FOUR_CUSP_ZB)
        engine = MonodromyEngine(data)
        rho, _, _ = engine.representation()
        for direction in (AccessoryDirection(0), PointDirection((0, 0, 1))):
            fam = direction_family(engine.paths, data, direction, rho)
            c_h = finite_difference_cocycle(fam, 0.0, 1e-3)
            c_2h = finite_difference_cocycle(fam, 0.0, 2e-3)
            rel = max((c_h.values[g] - c_2h.values[g]).norm()
                      for g in c_h.values) / max(1.0, c_h.norm())
            assert rel <= 1e-5
        chi0 = finite_difference_cocycle(lambda s: rho, 0.0, 1e-3)
        scale = max(max(abs(e) for e in m.tuple()) for m in rho.images.values())
        assert chi0.norm() <= 1e-12 * scale
