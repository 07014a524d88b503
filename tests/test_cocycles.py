import cmath
import math

import numpy as np
import pytest

from conftest import (local_solves, make_genus2_rep, near_identity_sl2, rand_sl2,
                      thrice_punctured_rep)
from oracles import (BranchJumpError, coboundary, conjugated, direction_family,
                     elliptic_trace_targets, evaluate_ring, finite_difference_cocycle,
                     local_kernel_basis, lstsq_local_coboundary, matrix_to_poly,
                     random_quadpoly, random_word)
from charvar.cocycles import (Cocycle, CocycleNotParabolicError, Representation,
                              elliptic_trace_residual, local_coboundaries,
                              random_parabolic_cocycle, reduce_by_coboundary,
                              relator_extension_matrix, word_images)
from charvar.sl2 import MoebiusMap, QuadPoly, ad_matrix, adjoint_action, killing
from charvar.words import Signature, relator


@pytest.fixture(scope="module")
def rho2():
    return make_genus2_rep(23)


@pytest.fixture(scope="module")
def rho_tp():
    return thrice_punctured_rep()


def _float_bits(x: float) -> int:
    """The bit pattern of a float: equal only if equal bit for bit, NaNs
    included."""
    return int(np.float64(x).view(np.uint64))


class TestRepresentation:
    def test_relator_and_traces(self, rho_tp):
        assert rho_tp.relator_residual() < 1e-14
        assert max(rho_tp.trace_residuals().values()) < 1e-14

    def test_elliptic_trace_targets(self):
        assert elliptic_trace_targets(2) == [pytest.approx(0.0, abs=1e-15)]
        # order 6: k in {1, 5}, both give |2cos(pi k/6)| = sqrt(3)
        assert elliptic_trace_targets(6) == pytest.approx([np.sqrt(3)] * 2)
        assert sorted(set(round(t, 12) for t in elliptic_trace_targets(5))) == \
            pytest.approx(sorted({round(2 * np.cos(2 * np.pi / 5), 12),
                                  round(2 * np.cos(np.pi / 5), 12)}))

    def test_elliptic_trace_residual_is_the_minimum_over_every_k(self):
        # the distance from the nearest k is the minimum over every k bit for
        # bit, for every order up to 200: traces on and between the targets,
        # at 0 and 2, past 2, and infinite or NaN
        rng = np.random.default_rng(12)
        spread = [0.0, 1e-300, 2.0, 2.0 + 1e-15, 2.5, 1e300, math.inf, math.nan,
                  *rng.uniform(0.0, 2.0, 6).tolist()]
        for order in range(2, 201):
            targets = elliptic_trace_targets(order)
            near = [targets[i] for i in (0, len(targets) // 3, -1)]
            for t in spread + near + [x + d for x in near for d in (-1e-12, 3e-16)]:
                want = min(abs(t - target) for target in targets)
                assert _float_bits(elliptic_trace_residual(t, order)) == _float_bits(want), \
                    (order, t)

    def test_visibly_reducible(self):
        d1 = MoebiusMap(2, 0, 0, 0.5, normalize=False)
        d2 = MoebiusMap(3, 0, 0, 1 / 3, normalize=False)
        rho = Representation(Signature(1), {"a1": d1, "b1": d2})
        assert rho.visibly_reducible
        assert not make_genus2_rep(5).visibly_reducible

    def test_conjugated(self, rho2):
        g = rand_sl2(np.random.default_rng(9))
        conj = conjugated(rho2, g)
        assert conj.relator_residual() < 1e-12
        assert conj.images["a1"].psl_distance(g @ rho2.images["a1"] @ g.inverse()) < 1e-12

    def test_images_are_read_only(self, rho2):
        with pytest.raises(TypeError):
            rho2.images["a1"] = MoebiusMap.identity()
        # a copy: the mapping given stays the caller's to change
        images = dict(rho2.images)
        rho = Representation(rho2.signature, images)
        images["a1"] = MoebiusMap.identity()
        assert rho == rho2 and rho.images["a1"] is rho2.images["a1"]

    def test_relator_frame_is_a_fresh_walk(self, rho2, rho_tp):
        # bit for bit one walk of R and the inverses of its prefixes, built
        # once per representation
        for rho in (rho2, rho_tp):
            letters, prefixes = word_images(rho, relator(rho.signature))
            frame = rho.relator_frame
            assert [(n, e, m.tuple()) for n, e, m in frame.letters] == \
                [(n, e, m.tuple()) for n, e, m in letters]
            assert [p.tuple() for p in frame.prefixes] == [p.tuple() for p in prefixes]
            assert [p.tuple() for p in frame.inverses] == \
                [p.inverse().tuple() for p in prefixes]
            assert rho.relator_frame is frame

    def test_missing_generator(self):
        with pytest.raises(ValueError):
            Representation(Signature(1), {"a1": MoebiusMap.identity()})


class TestEvaluation:
    def test_identity_and_inverse(self, rho2):
        rng = np.random.default_rng(0)
        chi = random_parabolic_cocycle(rho2, rng)
        assert chi(Signature(2).gen("a1") * Signature(2).gen("a1").inverse()).norm() == 0
        for _ in range(20):
            w = random_word(rho2.signature, int(rng.integers(1, 8)), rng)
            lhs = chi(w.inverse())
            rhs = -1 * adjoint_action(rho2.image(w.inverse()), chi(w))
            assert (lhs - rhs).norm() < 1e-11 * max(1, chi(w).norm())

    def test_bracketing_consistency(self, rho2):
        # chi(uv) = chi(u) + rho(u).chi(v) for arbitrary splits of a word
        rng = np.random.default_rng(1)
        chi = random_parabolic_cocycle(rho2, rng)
        for _ in range(30):
            u = random_word(rho2.signature, int(rng.integers(0, 6)), rng)
            v = random_word(rho2.signature, int(rng.integers(0, 6)), rng)
            lhs = chi(u * v)
            rhs = chi(u) + adjoint_action(rho2.image(u), chi(v))
            scale = max(1.0, lhs.norm(), rhs.norm())
            assert (lhs - rhs).norm() < 1e-12 * scale

    def test_coboundary_on_words(self, rho2):
        rng = np.random.default_rng(2)
        P = random_quadpoly(rng)
        delta = coboundary(rho2, P)
        for _ in range(100):
            w = random_word(rho2.signature, int(rng.integers(0, 9)), rng)
            want = adjoint_action(rho2.image(w), P) - P
            assert (delta(w) - want).norm() < 1e-10 * max(1.0, want.norm())

    def test_ring_evaluation_of_sharp_fox(self, rho2):
        # chi(# dR/da_k) equals the term-by-term sum over R_{k-1}^-1 (1 - alpha_k)
        from charvar.words import GroupRingElement, dual_generators, fox_derivative
        from charvar.words import prefix_products, relator
        rng = np.random.default_rng(20)
        chi = random_parabolic_cocycle(rho2, rng)
        duals = dual_generators(rho2.signature)
        R = prefix_products(rho2.signature)
        for k in (1, 2):
            sharp = fox_derivative(relator(rho2.signature), f"a{k}").anti_involution()
            got = evaluate_ring(chi, sharp)
            want = chi(R[k - 1].inverse()) - chi(R[k - 1].inverse() * duals.alphas[k - 1])
            assert (got - want).norm() < 1e-11 * max(1, want.norm())

    def test_ring_evaluation_linear(self, rho2):
        from charvar.words import GroupRingElement
        rng = np.random.default_rng(3)
        chi = random_parabolic_cocycle(rho2, rng)
        w1 = random_word(rho2.signature, 4, rng)
        w2 = random_word(rho2.signature, 3, rng)
        x = GroupRingElement.from_word(w1, 2) - GroupRingElement.from_word(w2, 3)
        got = evaluate_ring(chi, x)
        want = 2 * chi(w1) - 3 * chi(w2)
        assert (got - want).norm() < 1e-12 * max(1, want.norm())
        assert evaluate_ring(chi, GroupRingElement.zero()).norm() == 0


def _local_kinds(rng) -> Representation:
    """Marked images of every kind a local system meets, each conjugated by a
    random SL2 matrix: parabolic, elliptic of order 3, loxodromic, and
    within 1e-4 of the identity (the relator is not needed for local
    solves)."""
    def conj(m):
        h = rand_sl2(rng)
        return h @ m @ h.inverse()
    w, lam = cmath.exp(1j * math.pi / 3), 2 * cmath.exp(0.3j)
    images = {"c1": conj(MoebiusMap(1, 1, 0, 1)),
              "c2": conj(MoebiusMap(w, 0, 0, 1 / w, normalize=False)),
              "c3": conj(MoebiusMap(lam, 0, 0, 1 / lam, normalize=False)),
              "c4": near_identity_sl2(rng, 1e-4)}
    return Representation(Signature(0, (None, None, 3, None)), images)


class TestLocalSolve:
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_matches_per_solve_lstsq(self, seed):
        # the stacked SVD against one lstsq per system, for three local
        # coboundaries and one inconsistent assignment on all four kinds
        rng = np.random.default_rng(seed)
        rho = _local_kinds(rng)
        gens = rho.signature.generators
        chis = [Cocycle(rho, {g: adjoint_action(rho.images[g], P) - P
                              for g in gens for P in [random_quadpoly(rng)]})
                for _ in range(3)]
        chis.append(Cocycle(rho, {g: random_quadpoly(rng) for g in gens}))
        batch = local_solves(rho, chis, gens, tol=1e6)
        eps = np.finfo(float).eps
        for chi, row in zip(chis, batch):
            for gamma, solve in zip(gens, row):
                sol, residual, kernel_dim = lstsq_local_coboundary(rho, chi, gamma)
                assert np.linalg.norm(solve.poly.vector() - sol) <= 1e-13 * np.linalg.norm(sol)
                assert solve.kernel_dim == kernel_dim == 1
                # no larger than the oracle's beyond the rounding of
                # evaluating M P - chi(gamma): two rounding-level residuals
                # of equally accurate solutions order at random
                M = ad_matrix(rho.images[gamma]) - np.eye(3)
                bound = 8 * eps * np.linalg.norm(M, 2) * np.linalg.norm(sol)
                assert solve.residual <= residual + bound, (gamma, solve.residual, residual)
                # a batch entry is bit for bit the batch of one
                assert solve == local_solves(rho, [chi], [gamma], tol=1e6)[0][0]
        # and a system is bit for bit itself in a batch of several
        # representations' systems
        other = _local_kinds(np.random.default_rng(seed + 10))
        systems = [(other, [Cocycle(other, chi.values) for chi in chis[:2]], gens[::-1]),
                   (rho, chis, gens)]
        assert local_coboundaries(systems, tol=1e6) == [
            local_solves(r, cs, gs, tol=1e6) for r, cs, gs in systems]

    def test_rank_cutoff_is_lstsq_rcond(self):
        # a loxodromic image sheared by 10^k: the second singular value of
        # Ad g - 1 falls through _RCOND x the first (7.7e-9 at k = 4,
        # 7.7e-11 at k = 5), and the kernel dimensions follow lstsq's
        sig = Signature(0, (None,) * 3)
        lam = 2 * cmath.exp(0.3j)
        D = MoebiusMap(lam, 0, 0, 1 / lam, normalize=False)
        dims = []
        for k in range(1, 6):
            h = MoebiusMap(1, 10 ** k, 0, 1)
            g = h @ D @ h.inverse()
            rho = Representation(sig, {"c1": g, "c2": g.inverse(), "c3": MoebiusMap.identity()})
            chi = Cocycle(rho, {c: QuadPoly(1, 2j, 3) for c in sig.generators})
            (row,) = local_solves(rho, [chi], ["c1"], tol=math.inf)
            dims.append(row[0].kernel_dim)
            assert row[0].kernel_dim == lstsq_local_coboundary(rho, chi, "c1")[2]
        assert dims == [1, 1, 1, 1, 2]

    def test_identity_image_has_full_kernel(self):
        sig = Signature(0, (None,) * 3)
        c1 = MoebiusMap(1, 1, 0, 1)
        rho = Representation(sig, {"c1": c1, "c2": MoebiusMap.identity(), "c3": c1.inverse()})
        chi = coboundary(rho, QuadPoly(1, 2, 3))
        (row,) = local_solves(rho, [chi], ["c1", "c2"])
        assert [s.kernel_dim for s in row] == [1, 3]
        assert row[1].poly == QuadPoly.zero() and row[1].residual == 0.0

    def test_non_finite_system_raises(self, rho_tp):
        # checked before LAPACK sees any system, so a non-finite one raises
        # even after a cocycle that is no local coboundary
        rng = np.random.default_rng(8)
        sig = rho_tp.signature
        words = sig.generators
        chi = coboundary(rho_tp, random_quadpoly(rng))
        nan = Cocycle(rho_tp, {**chi.values, "c2": QuadPoly(complex("nan"), 0, 0)})
        with pytest.raises(ArithmeticError, match="non-finite local system at c2"):
            local_solves(rho_tp, [chi, nan], words)
        huge = Representation(sig, {**rho_tp.images,
                                    "c3": MoebiusMap(1e200, 0, 0, 1e-200, normalize=False)})
        with pytest.raises(ArithmeticError, match="non-finite local system at c3"):
            local_solves(huge, [Cocycle(huge, chi.values)], words)
        bad = Cocycle(rho_tp, {g: random_quadpoly(rng) for g in sig.generators})
        with pytest.raises(ArithmeticError, match="non-finite local system at c2"):
            local_solves(rho_tp, [bad, nan], words)
        with pytest.raises(CocycleNotParabolicError):
            local_solves(rho_tp, [chi, bad], words)

    def test_unknown_generator_is_named(self, orb3_rep):
        # as sig.gen does, a name the signature lacks is a ValueError naming it
        chi = random_parabolic_cocycle(orb3_rep, np.random.default_rng(25))
        for name in ("c5", "a1", "x"):
            for run in (lambda: local_solves(orb3_rep, [chi], [name]),
                        lambda: local_solves(orb3_rep, [chi], ["c1", name]),
                        lambda: orb3_rep.signature.gen(name)):
                with pytest.raises(ValueError, match=f"unknown generator '{name}'"):
                    run()

    def test_recovers_coboundary(self, rho_tp):
        rng = np.random.default_rng(4)
        P = random_quadpoly(rng)
        chi = coboundary(rho_tp, P)
        for gen in rho_tp.signature.generators:
            sol = local_solves(rho_tp, [chi], [gen])[0][0]
            assert sol.residual < 1e-12
            # solution may differ from P by a kernel element only
            diff = (sol.poly - P).vector()
            M = np.array([K.vector() for K in
                          local_kernel_basis(rho_tp, rho_tp.signature.gen(gen))]).T
            resid = diff - M @ np.linalg.lstsq(M, diff, rcond=None)[0]
            assert np.linalg.norm(resid) < 1e-9 * max(1, P.norm())

    def test_parabolic_kernel_is_constants(self):
        sig = Signature(0, (None,) * 3)
        rho = thrice_punctured_rep()
        ker = local_kernel_basis(rho, sig.gen("c1"))  # image (1,2;0,1)-conjugate
        assert len(ker) == 1

    def test_kernel_of_upper_unipotent(self):
        # rho(gamma) = (1,1;0,1): kernel of (Ad - 1) is the constants
        sig = Signature(0, (None,) * 3)
        c1 = MoebiusMap(1, 1, 0, 1)
        c2 = MoebiusMap(1, 0, 1, 1)
        c3 = (c1 @ c2).inverse()
        rho = Representation(sig, {"c1": c1, "c2": c2, "c3": c3})
        ker = local_kernel_basis(rho, sig.gen("c1"))
        assert len(ker) == 1
        k = ker[0]
        assert abs(k.p1) < 1e-12 and abs(k.p2) < 1e-12 and abs(k.p0) > 0.9

    def test_elliptic_always_solvable(self, orb3_rep):
        rng = np.random.default_rng(5)
        for _ in range(10):
            chi = random_parabolic_cocycle(orb3_rep, rng)
            for gen in ("c1", "c2", "c3", "c4"):
                sol = local_solves(orb3_rep, [chi], [gen])[0][0]
                assert sol.residual < 1e-9
                assert sol.kernel_dim == 1

    def test_elliptic_averaging_consistency(self):
        # for g of finite order e, any v with (1 + Ad g + ... + Ad g^{e-1}) v = 0
        # lies in the image of (Ad g - 1): restriction to cyclic subgroups is
        # always a coboundary
        import cmath
        from charvar.sl2 import ad_matrix
        rng = np.random.default_rng(21)
        for e in (2, 3, 6):
            zeta = cmath.exp(1j * cmath.pi / e)
            rot = MoebiusMap(zeta, 0, 0, zeta.conjugate(), normalize=False)
            h = rand_sl2(rng)
            g = h @ rot @ h.inverse()
            A = ad_matrix(g)
            avg = sum(np.linalg.matrix_power(A, k) for k in range(e)) / e
            for _ in range(10):
                v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                v = v - avg @ v
                sol, _, _, _ = np.linalg.lstsq(A - np.eye(3), v, rcond=1e-9)
                assert np.linalg.norm((A - np.eye(3)) @ sol - v) < \
                    1e-9 * max(1, np.linalg.norm(v))

    def test_inconsistent_raises(self, rho_tp):
        rng = np.random.default_rng(6)
        # a generic generator assignment is not locally solvable at a parabolic
        bad = Cocycle(rho_tp, {g: random_quadpoly(rng) for g in rho_tp.signature.generators})
        with pytest.raises(CocycleNotParabolicError):
            for gen in rho_tp.signature.generators:
                local_solves(rho_tp, [bad], [gen])

    def test_kernel_orthogonality(self, rho_tp):
        # <(Ad rho(g) - 1) X, K> = 0 for K in the kernel (Killing invariance)
        rng = np.random.default_rng(7)
        for gen in rho_tp.signature.generators:
            gw = rho_tp.signature.gen(gen)
            g = rho_tp.image(gw)
            for K in local_kernel_basis(rho_tp, gw):
                for _ in range(100):
                    X = random_quadpoly(rng)
                    val = killing(adjoint_action(g, X) - X, K)
                    assert abs(val) < 1e-10 * max(1.0, X.norm())


def _relator_residual(chi):
    return chi(relator(chi.base.signature)).norm()


def _local_residuals(rho, chi):
    """Local-solve residual at every marked generator; None where the
    solve rejects chi as no local coboundary."""
    out = {}
    for i in range(1, rho.signature.num_marked + 1):
        try:
            out[f"c{i}"] = local_solves(rho, [chi], [f"c{i}"])[0][0].residual
        except CocycleNotParabolicError:
            out[f"c{i}"] = None
    return out


class TestVerify:
    def test_coboundary_report(self, rho_tp):
        rng = np.random.default_rng(8)
        chi = coboundary(rho_tp, random_quadpoly(rng))
        assert _relator_residual(chi) < 1e-10 * max(1.0, chi.norm())
        local = _local_residuals(rho_tp, chi)
        assert len(local) == 3
        assert all(r is not None and r < 1e-10 for r in local.values())

    def test_random_assignment_fails(self, rho_tp):
        rng = np.random.default_rng(9)
        bad = Cocycle(rho_tp, {g: random_quadpoly(rng) for g in rho_tp.signature.generators})
        assert _relator_residual(bad) > 1e-2 or None in _local_residuals(rho_tp, bad).values()

    def test_random_parabolic_cocycle_is_exact(self, orb3_rep):
        rng = np.random.default_rng(10)
        chi = random_parabolic_cocycle(orb3_rep, rng)
        assert _relator_residual(chi) < 1e-9
        assert None not in _local_residuals(orb3_rep, chi).values()

    def test_relator_extension_matrix(self, rho2):
        rng = np.random.default_rng(11)
        T = relator_extension_matrix(rho2)
        chi = random_parabolic_cocycle(rho2, rng)
        v = np.concatenate([chi.values[g].vector() for g in rho2.signature.generators])
        rel = chi(relator(rho2.signature)).vector()
        assert np.linalg.norm(T @ v - rel) < 1e-10 * max(1, np.linalg.norm(v))


def _conjugation_family(rho, X):
    # rho_s = exp(sX) rho exp(-sX)
    def family(s):
        E = _expm(X, s)
        return conjugated(rho, E)
    return family


def _expm(X, s):
    M = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    A = s * X
    for k in range(1, 18):
        term = term @ A / k
        M = M + term
    return MoebiusMap(M[0, 0], M[0, 1], M[1, 0], M[1, 1])


class TestFiniteDifferences:
    def test_constant_family_zero(self, rho2):
        chi = finite_difference_cocycle(lambda s: rho2, 0.0, 1e-3)
        assert chi.norm() == 0.0

    def test_conjugation_family(self, rho2):
        # d/ds exp(sX) rho exp(-sX) at 0 gives chi = -(coboundary of X as a poly)
        X = np.array([[0.3 + 0.1j, -0.2], [0.5j, -0.3 - 0.1j]])
        chi = finite_difference_cocycle(_conjugation_family(rho2, X), 0.0, 1e-3)
        P = matrix_to_poly(X)
        delta = coboundary(rho2, P)
        worst = max((chi.values[g] + delta.values[g]).norm()
                    for g in rho2.signature.generators)
        assert worst < 1e-6 * max(1, P.norm())

    def test_sign_independence(self, rho2):
        X = np.array([[0.1, 0.4j], [-0.2, -0.1]])
        fam = _conjugation_family(rho2, X)

        def flipped(s):
            r = fam(s)
            imgs = dict(r.images)
            m = imgs["a1"]
            imgs["a1"] = MoebiusMap(-m.a, -m.b, -m.c, -m.d, normalize=False)
            return Representation(r.signature, imgs)

        c1 = finite_difference_cocycle(fam, 0.0, 1e-3)
        c2 = finite_difference_cocycle(flipped, 0.0, 1e-3)
        assert max((c1.values[g] - c2.values[g]).norm() for g in c1.values) == 0.0

    def test_branch_jump_detection(self, rho2):
        def jumpy(s):
            if s > 0:
                return conjugated(rho2, MoebiusMap(5, 1 + 2j, 0.5, 1))
            return rho2

        with pytest.raises(BranchJumpError):
            finite_difference_cocycle(jumpy, 0.0, 1e-3)

    def test_fd_lands_in_parabolic_space(self, four_cusp_engine, four_cusp_rep):
        from charvar.kawai import AccessoryDirection
        engine, data = four_cusp_engine
        fam = direction_family(engine.paths, data, AccessoryDirection(0), four_cusp_rep)
        chi = Cocycle(four_cusp_rep, finite_difference_cocycle(fam, 0.0, 1e-3).values)
        assert _relator_residual(chi) < 1e-6 * max(1.0, chi.norm())
        assert None not in _local_residuals(four_cusp_rep, chi).values()


class TestCoboundaryReduction:
    def test_class_preserved(self, orb3_rep):
        from charvar.goldman import pairing
        rng = np.random.default_rng(12)
        c1 = random_parabolic_cocycle(orb3_rep, rng)
        c2 = random_parabolic_cocycle(orb3_rep, rng)
        # one lstsq reduces both; each keeps its class
        r1, r2 = reduce_by_coboundary(orb3_rep, [c1, c2])
        v_raw = pairing(orb3_rep, c1, c2).value
        for a, b in ((r1, c2), (c1, r2), (r1, r2)):
            v_red = pairing(orb3_rep, a, b).value
            assert abs(v_raw - v_red) < 1e-8 * max(1, abs(v_raw))
        assert _relator_residual(r1) < 1e-8 and _relator_residual(r2) < 1e-8

    def test_representation_is_compared_by_value(self, orb3_rep):
        # reduction and addition take a representation rebuilt from the same
        # images as the cocycles' own, and refuse one with another image
        rng = np.random.default_rng(14)
        chi = random_parabolic_cocycle(orb3_rep, rng)
        rebuilt = Representation(orb3_rep.signature, dict(orb3_rep.images))
        assert rebuilt is not orb3_rep and rebuilt == orb3_rep
        (red,) = reduce_by_coboundary(rebuilt, [chi])
        assert red.base is rebuilt
        assert (chi + Cocycle(rebuilt, chi.values)).values["c1"] == 2 * chi.values["c1"]
        images = dict(orb3_rep.images, a1=MoebiusMap(1, 1e-9, 0, 1))
        other = Representation(orb3_rep.signature, images)
        assert other != orb3_rep
        with pytest.raises(ValueError, match="different representation"):
            reduce_by_coboundary(other, [chi])
        with pytest.raises(ValueError, match="different representations"):
            chi + Cocycle(other, chi.values)

    def test_kills_pure_coboundary(self, orb3_rep):
        rng = np.random.default_rng(13)
        delta = coboundary(orb3_rep, random_quadpoly(rng))
        (red,) = reduce_by_coboundary(orb3_rep, [delta])
        assert red.norm() < 1e-10 * max(1, delta.norm())
