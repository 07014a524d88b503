import warnings

import numpy as np
import pytest

from conftest import (FOUR_CUSP_T, FOUR_CUSP_ZB, kawai_inputs, local_solves,
                      make_closed_rep, make_genus1_rep, make_genus2_rep, near_identity_sl2,
                      rand_sl2, relator_walks, thrice_punctured_rep)
from oracles import coboundary, conjugated, evaluate_ring, local_kernel_basis, random_quadpoly
from charvar.cocycles import Cocycle, parabolic_parameter_basis, random_parabolic_cocycle
from charvar.goldman import (CUP_SIGN, _inverses, cup_product_on_chain, goldman_closed,
                             goldman_matrices, pairing)
from charvar.monodromy import MonodromyEngine, build_potential
from charvar.sl2 import QuadPoly, ad_matrix, adjoint_action, killing
from charvar.words import fox_derivative, fundamental_class_chain, relator


def _scale(chi1, chi2, value=0j):
    return max(1.0, abs(value), chi1.norm() * chi2.norm())


class TestClosed:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_coboundary_slot_invariance(self, seed):
        rho = make_genus2_rep(seed)
        rng = np.random.default_rng(seed)
        chi1 = random_parabolic_cocycle(rho, rng)
        chi2 = random_parabolic_cocycle(rho, rng)
        base = goldman_closed(rho, chi1, chi2)
        P = random_quadpoly(rng)
        s = _scale(chi1, chi2, base)
        assert abs(goldman_closed(rho, chi1 + coboundary(rho, P), chi2) - base) < 1e-9 * s
        assert abs(goldman_closed(rho, chi1, chi2 + coboundary(rho, P)) - base) < 1e-9 * s
        # a pure coboundary pairs to zero
        assert abs(goldman_closed(rho, coboundary(rho, P), chi2)) < 1e-9 * s

    def test_antisymmetry_and_self(self, genus2_rep):
        rng = np.random.default_rng(4)
        for _ in range(20):
            chi1 = random_parabolic_cocycle(genus2_rep, rng)
            chi2 = random_parabolic_cocycle(genus2_rep, rng)
            v = goldman_closed(genus2_rep, chi1, chi2)
            w = goldman_closed(genus2_rep, chi2, chi1)
            assert abs(v + w) < 1e-9 * _scale(chi1, chi2, v)
            assert abs(goldman_closed(genus2_rep, chi1, chi1)) < 1e-9 * _scale(chi1, chi1)

    def test_bilinearity(self, genus2_rep):
        rng = np.random.default_rng(5)
        for _ in range(30):
            chi1 = random_parabolic_cocycle(genus2_rep, rng)
            chi1b = random_parabolic_cocycle(genus2_rep, rng)
            chi2 = random_parabolic_cocycle(genus2_rep, rng)
            a = complex(rng.standard_normal(), rng.standard_normal())
            lhs = goldman_closed(genus2_rep, a * chi1 + chi1b, chi2)
            rhs = a * goldman_closed(genus2_rep, chi1, chi2) \
                + goldman_closed(genus2_rep, chi1b, chi2)
            assert abs(lhs - rhs) < 1e-10 * _scale(chi1, chi2, rhs) * max(1, abs(a))

    def test_conjugation_invariance(self, genus2_rep):
        rng = np.random.default_rng(6)
        g = rand_sl2(rng)
        chi1 = random_parabolic_cocycle(genus2_rep, rng)
        chi2 = random_parabolic_cocycle(genus2_rep, rng)
        v = goldman_closed(genus2_rep, chi1, chi2)
        rho_g = conjugated(genus2_rep, g)
        t1 = Cocycle(rho_g, {k: adjoint_action(g, p) for k, p in chi1.values.items()})
        t2 = Cocycle(rho_g, {k: adjoint_action(g, p) for k, p in chi2.values.items()})
        vg = goldman_closed(rho_g, t1, t2)
        g_size = max(1, max(abs(e) for e in g))
        assert abs(v - vg) < 1e-8 * _scale(chi1, chi2, v) * g_size ** 2

    def test_rejects_orbifold_signature(self, orb3_rep):
        rng = np.random.default_rng(7)
        chi = random_parabolic_cocycle(orb3_rep, rng)
        with pytest.raises(ValueError):
            goldman_closed(orb3_rep, chi, chi)


class TestCrossPath:
    # genus-1 representations are abelian, hence visibly reducible by design
    @pytest.mark.parametrize("make,seed", [(make_genus1_rep, 1), (make_genus1_rep, 2),
                                           (make_genus2_rep, 31), (make_genus2_rep, 32)])
    def test_cup_product_agrees(self, make, seed):
        rho = make(seed)
        rng = np.random.default_rng(seed)
        chi1 = random_parabolic_cocycle(rho, rng)
        chi2 = random_parabolic_cocycle(rho, rng)
        chain = fundamental_class_chain(rho.signature)
        cp = cup_product_on_chain(rho, chi1, chi2, chain)
        gd = goldman_closed(rho, chi1, chi2)
        assert abs(cp - CUP_SIGN * gd) < 1e-10 * _scale(chi1, chi2, gd)

    def test_cup_of_chi_with_itself(self, genus2_rep):
        rng = np.random.default_rng(8)
        chi = random_parabolic_cocycle(genus2_rep, rng)
        chain = fundamental_class_chain(genus2_rep.signature)
        assert abs(cup_product_on_chain(genus2_rep, chi, chi, chain)) < 1e-9 * _scale(chi, chi)

    def test_identity_slot_vanishes(self, genus2_rep):
        from charvar.words import FreeWord, GroupRingElement
        rng = np.random.default_rng(9)
        chi = random_parabolic_cocycle(genus2_rep, rng)
        term = [(GroupRingElement.one(), FreeWord.generator("a1"))]
        assert abs(cup_product_on_chain(genus2_rep, chi, chi, term)) < 1e-14


class TestOrbifold:
    def test_closed_consistency_through_shared_core(self, genus2_rep):
        # the (G-non) code path with an empty marked list is exactly (G-2)
        rng = np.random.default_rng(11)
        chi1 = random_parabolic_cocycle(genus2_rep, rng)
        chi2 = random_parabolic_cocycle(genus2_rep, rng)
        rep = pairing(genus2_rep, chi1, chi2)
        assert rep.value == goldman_closed(genus2_rep, chi1, chi2)
        assert rep.solves == {}

    def test_thrice_punctured_everything_trivial(self):
        # d = 0: every parabolic cocycle is a coboundary, the form vanishes
        rho = thrice_punctured_rep()
        rng = np.random.default_rng(12)
        for _ in range(10):
            chi1 = random_parabolic_cocycle(rho, rng)
            chi2 = random_parabolic_cocycle(rho, rng)
            rep = pairing(rho, chi1, chi2)
            assert abs(rep.value) < 1e-9 * _scale(chi1, chi2)

    def test_orbifold_invariances(self, orb3_rep):
        rng = np.random.default_rng(13)
        chi1 = random_parabolic_cocycle(orb3_rep, rng)
        chi2 = random_parabolic_cocycle(orb3_rep, rng)
        rep = pairing(orb3_rep, chi1, chi2)
        s = _scale(chi1, chi2, rep.value)
        P = random_quadpoly(rng)
        shifted = pairing(orb3_rep, chi1, chi2 + coboundary(orb3_rep, P))
        assert abs(shifted.value - rep.value) < 1e-8 * s
        swapped = pairing(orb3_rep, chi2, chi1)
        assert abs(rep.value + swapped.value) < 1e-9 * s
        assert all(s.kernel_dim == 1 for s in rep.solves.values())
        assert max(s.residual for s in rep.solves.values()) < 1e-8

    def test_p2_kernel_shift_invariance(self, orb3_rep):
        # shifting P_2i by ker(Ad rho(c_i) - 1) changes the value by
        # <chi1(c_i^-1), K>, which Killing-orthogonality kills
        rng = np.random.default_rng(14)
        chi1 = random_parabolic_cocycle(orb3_rep, rng)
        for i in range(1, 5):
            gw = orb3_rep.signature.gen(f"c{i}")
            for K in local_kernel_basis(orb3_rep, gw):
                assert abs(killing(chi1(gw.inverse()), K)) < 1e-10 * max(1, chi1.norm())

    def test_local_solve_failure_propagates(self, orb3_rep):
        from charvar.cocycles import CocycleNotParabolicError
        rng = np.random.default_rng(17)
        chi1 = random_parabolic_cocycle(orb3_rep, rng)
        bad = Cocycle(orb3_rep, {g: random_quadpoly(rng)
                                 for g in orb3_rep.signature.generators})
        with pytest.raises(CocycleNotParabolicError):
            pairing(orb3_rep, chi1, bad)

    @pytest.mark.parametrize("call", [lambda rho, chi: pairing(rho, chi, chi),
                                      lambda rho, chi: goldman_matrices([rho], [[chi, chi]]),
                                      lambda rho, chi: goldman_closed(rho, chi, chi)])
    def test_reducible_rho_is_a_property_not_a_warning(self, call):
        # a visibly reducible rho is a finding about the input: library
        # callers read the property, the CLI reports it, and the pairing
        # itself warns of nothing
        rho = make_genus1_rep(3)
        chi = random_parabolic_cocycle(rho, np.random.default_rng(16))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            call(rho, chi)
        assert record == [] and rho.visibly_reducible

    def test_pairing_acts_once_per_letter_and_marked_generator(self, orb3_rep, monkeypatch):
        # one walk of R per cocycle, one adjoint action per letter, and
        # chi1(c_i^-1) per marked c_i: 2L + m in all, for chi2 enters the
        # marked terms through its local solves alone
        import charvar.cocycles as cocycles
        import charvar.goldman as goldman
        rng = np.random.default_rng(15)
        chi1, chi2 = (random_parabolic_cocycle(orb3_rep, rng) for _ in range(2))
        calls = []

        def counted(g, P):
            calls.append(g)
            return adjoint_action(g, P)

        for mod in (cocycles, goldman):
            monkeypatch.setattr(mod, "adjoint_action", counted)
        pairing(orb3_rep, chi1, chi2)
        sig = orb3_rep.signature
        assert sig.num_marked == 4
        assert len(calls) == 2 * len(relator(sig)) + sig.num_marked

    def test_report_fields(self, orb3_rep):
        rng = np.random.default_rng(15)
        chi1 = random_parabolic_cocycle(orb3_rep, rng)
        chi2 = random_parabolic_cocycle(orb3_rep, rng)
        rep = pairing(orb3_rep, chi1, chi2)
        assert sorted(rep.solves) == ["c1", "c2", "c3", "c4"]
        assert len(rep.relator_residuals) == 2


def _fox_reference(rho, chi1, chi2, local_tol=1e-6):
    """The Goldman sum as Fox calculus writes it: each # dR/dgen built as a
    group-ring element and evaluated word by word."""
    sig = rho.signature
    R = relator(sig)
    total = 0j
    for gen in sig.generators:
        sharp = fox_derivative(R, gen).anti_involution()
        total -= killing(evaluate_ring(chi1, sharp), chi2(sig.gen(gen)))
        if gen.startswith("c"):
            solve = local_solves(rho, [chi2], [gen], local_tol)[0][0]
            total -= killing(chi1(sig.gen(gen).inverse()), solve.poly)
    return total


class TestPrefixScan:
    # criterion 3's representations and one at genus 8
    @pytest.mark.parametrize("which", ["genus2", "orb3", "genus8"])
    def test_matches_fox_reference(self, which, orb3_rep):
        rho = {"genus2": lambda: make_genus2_rep(101), "orb3": lambda: orb3_rep,
               "genus8": lambda: make_closed_rep(8, 3, near_identity_sl2)}[which]()
        rng = np.random.default_rng(21)
        chis = [random_parabolic_cocycle(rho, rng) for _ in range(4)]
        for chi1 in chis:
            for chi2 in chis:
                rep = pairing(rho, chi1, chi2)
                want = _fox_reference(rho, chi1, chi2)
                assert abs(rep.value - want) <= 1e-12 * _scale(chi1, chi2, want)
                R = relator(rho.signature)
                assert rep.relator_residuals == (chi1(R).norm(), chi2(R).norm())
                for i in range(1, rho.signature.num_marked + 1):
                    gen = f"c{i}"
                    assert rep.solves[gen] == local_solves(rho, [chi2], [gen])[0][0]

    @pytest.mark.parametrize("g", [2, 8])
    def test_adjoint_actions_per_closed_pairing(self, g, monkeypatch):
        import charvar.cocycles as cocycles
        import charvar.goldman as goldman
        rho = make_closed_rep(g, 3, near_identity_sl2)
        rng = np.random.default_rng(22)
        chi1 = random_parabolic_cocycle(rho, rng)
        chi2 = random_parabolic_cocycle(rho, rng)
        calls = []

        def counted(*args):
            calls.append(1)
            return adjoint_action(*args)

        for mod in (cocycles, goldman):
            monkeypatch.setattr(mod, "adjoint_action", counted)
        goldman_closed(rho, chi1, chi2)
        # one per letter of R (4g) for each cocycle's one walk of it: chi1's
        # prefix values and chi2's steps, whose sum is chi2(R)
        assert len(calls) == 8 * g


class TestMatrix:
    @pytest.mark.parametrize("which", ["genus2", "orb3", "four_cusp"])
    def test_entries_are_the_one_pair_values(self, which, genus2_rep, orb3_rep,
                                             four_cusp_rep):
        # one frame of R and one batch of local solves for all cocycles give
        # bit for bit what a pair's own frame and batch give
        rho = {"genus2": genus2_rep, "orb3": orb3_rep, "four_cusp": four_cusp_rep}[which]
        rng = np.random.default_rng(23)
        chis = [random_parabolic_cocycle(rho, rng) for _ in range(3)]
        omega, solves = goldman_matrices([rho], [chis])[0]
        for i, chi1 in enumerate(chis):
            for j, chi2 in enumerate(chis):
                rep = pairing(rho, chi1, chi2)
                assert omega[i][j] == rep.value
                assert solves[j] == rep.solves

    def test_one_relator_walk_per_representation(self, monkeypatch):
        # the matrix, n^2 one-pair calls, rho(R) and the relator extension
        # all read the frame of R that rho's first walk of it built
        walked = relator_walks(monkeypatch)
        rho = make_closed_rep(3, 5)
        rng = np.random.default_rng(25)
        chis = [random_parabolic_cocycle(rho, rng) for _ in range(3)]
        goldman_matrices([rho], [chis])
        for chi1 in chis:
            for chi2 in chis:
                goldman_closed(rho, chi1, chi2)
        rho.relator_residual()
        assert sum(r is rho for r in walked) == 1

    @pytest.mark.parametrize("fixture,rank", [("genus2_rep", 6), ("four_cusp_rep", 2),
                                              ("orb3_rep", 2)])
    def test_nondegenerate_on_parabolic_cohomology(self, fixture, rank, request):
        # one cocycle per basis vector of Z^1_par: the coboundaries span the
        # radical, so the rank is dim H^1_par = 2(3g - 3 + m + n)
        rho = request.getfixturevalue(fixture)
        assert rank == 2 * rho.signature.dimension
        P, N = parabolic_parameter_basis(rho)
        gens = rho.signature.generators
        chis = [Cocycle(rho, {g: QuadPoly.from_vector(v[3 * i:3 * i + 3])
                              for i, g in enumerate(gens)}) for v in (P @ N).T]
        omega, _ = goldman_matrices([rho], [chis])[0]
        svals = np.linalg.svd(np.array(omega), compute_uv=False)
        assert int(np.sum(svals > 1e-6 * svals[0])) == rank, svals


def _mp_goldman(mp, rho, chis, pairs):
    """[omega(chis[i], chis[j]) for i, j in pairs] at mp's working precision
    from the double images and values: the Fox sum
    -sum_x <chi_i(# dR/dx), chi_j(x)> - sum_c <chi_i(c^-1), P_jc> over the
    generators x and the marked generators c, by matrices:
    X = (-p1/2, -p0; p2, p1/2) for a QuadPoly, Ad(g) X = g X adj(g) with adj
    the adjugate (a ``MoebiusMap``'s inverse) and <X, Y> = tr(XY).  P_jc is
    the minimum-norm solution of (Ad rho(c) - 1) P = chi_j(c) by mp's SVD,
    singular values below 1e-9 of the largest dropped as the program drops
    them: the term is blind to the kernel only as far as chi_j(c) lies in
    the range, and a transported rho(c) is parabolic or elliptic to ~1e-12,
    so a kernel vector that the rounded system keeps would move it."""
    def mat(P):
        p0, p1, p2 = (mp.mpc(c) for c in P.coeffs())
        return mp.matrix([[-p1 / 2, -p0], [p2, p1 / 2]])

    def adj(g):
        return mp.matrix([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])

    def tr(X):
        return X[0, 0] + X[1, 1]

    images = {x: mp.matrix([[m.a, m.b], [m.c, m.d]]) for x, m in rho.images.items()}

    def sharps(chi):  # chi(# dR/dx) per generator x
        sharp = {x: mp.zeros(2) for x in images}
        prefix, c = mp.eye(2), mp.zeros(2)  # rho(P_j) and chi(P_j)
        for x, exp in relator(rho.signature):
            g, t = images[x], mat(chi.values[x])
            if exp == 1:  # dR/dx gains P_(j-1), and chi(P^-1) = -Ad(P^-1) chi(P)
                sharp[x] -= adj(prefix) * c * prefix
            else:  # chi(x^-1) = -Ad(x^-1) chi(x)
                g, t = adj(g), -(adj(g) * t * g)
            c += prefix * t * adj(prefix)
            prefix = prefix * g
            if exp != 1:  # dR/dx gains -P_j
                sharp[x] += adj(prefix) * c * prefix
        return sharp

    basis = [mp.matrix([[1, 0], [0, -1]]), mp.matrix([[0, 1], [0, 0]]),
             mp.matrix([[0, 0], [1, 0]])]  # traceless X as (X00, X01, X10)

    def solver(g):  # X -> the traceless P with g P adj(g) - P = X
        cols = [g * e * adj(g) - e for e in basis]
        u, s, v = mp.svd_c(mp.matrix([[col[0, 0], col[0, 1], col[1, 0]] for col in cols]).T)
        pinv = v.H * mp.diag([1 / x if x > s[0] * 1e-9 else 0 for x in s]) * u.H
        return lambda X: sum((y * e for y, e in zip(pinv * mp.matrix([X[0, 0], X[0, 1], X[1, 0]]),
                                                    basis)), mp.zeros(2))

    solvers = {c: solver(images[c]) for c in rho.signature.marked_generators}
    walks = {i: sharps(chis[i]) for i in {i for i, _ in pairs}}
    solves = {j: {c: solve(mat(chis[j].values[c])) for c, solve in solvers.items()}
              for j in {j for _, j in pairs}}
    out = []
    for i, j in pairs:
        terms = [tr(walks[i][x] * mat(chis[j].values[x])) for x in images]
        terms += [tr(-(adj(images[c]) * mat(chis[i].values[c]) * images[c]) * solves[j][c])
                  for c in solvers]
        out.append(-mp.fsum(terms))
    return out


#: the relative error of goldman_closed against the 40-digit walk over
#: GOLDMAN_ORACLE_SEEDS x GOLDMAN_ORACLE_PAIRS, (median, worst), recorded once
#: while the walk took two adjoint actions per inverse letter; with one per
#: letter they read 2.09e-12 and 8.24e-10, and as the letter sum of two
#: walks 3.63e-12 and 5.45e-10
GOLDMAN_ORACLE_SEEDS = range(801, 821)
GOLDMAN_ORACLE_PAIRS = ((0, 1), (2, 3), (4, 5))
GOLDMAN_ORACLE_ERRORS = (3.188673282785318e-12, 6.18546768196303e-10)


def test_closed_goldman_against_a_40_digit_oracle():
    # genus 8, six parabolic cocycles a seed: the double sum holds to twice
    # the recorded median and worst relative error of the 40-digit walk of
    # the same inputs (about 1.3 s on a 2-core x86-64 host)
    mp = pytest.importorskip("mpmath").mp
    errors = []
    with mp.workdps(40):
        for seed in GOLDMAN_ORACLE_SEEDS:
            rho = make_closed_rep(8, seed)
            rng = np.random.default_rng(seed)
            chis = [random_parabolic_cocycle(rho, rng) for _ in range(6)]
            wants = _mp_goldman(mp, rho, chis, GOLDMAN_ORACLE_PAIRS)
            for (i, j), want in zip(GOLDMAN_ORACLE_PAIRS, wants):
                got = goldman_closed(rho, chis[i], chis[j])
                errors.append(float(abs(mp.mpc(got) - want) / abs(want)))
    median, worst = GOLDMAN_ORACLE_ERRORS
    assert np.median(errors) <= 2 * median and max(errors) <= 2 * worst, \
        (np.median(errors), max(errors))


#: the error of the orbifold Goldman sum against the 40-digit sum,
#: |omega - oracle| / max(1, max |oracle|) per off-diagonal entry of each
#: matrix (the draws are of norm 1 and pair to ~1e-6; kawai's pair to pi),
#: (median, worst) over the entries of each input set; recorded once, on
#: the sum that paired # images with generator values (the letter sum of
#: two walks reads 3.45e-16 and 9.81e-16, and 1.71e-11 and 6.67e-11)
ORBIFOLD_ORACLE_ERRORS = {"draws": (3.9711402814638905e-16, 8.4894612486590235e-16),
                          "kawai": (1.823005620582609e-11, 6.361412673073989e-11)}


def _orbifold_matrices(which, request, monkeypatch):
    """(rho, cocycles, omega) of each input set of the orbifold oracle:
    four ``random_parabolic_cocycle`` draws on each of three orbifold
    fixtures, or the reduced tangent cocycles at every grid point of the
    committed kawai configs as ``kawai_experiment`` pairs them."""
    if which == "draws":
        out = []
        for seed, fixture in enumerate(("orb3_rep", "four_cusp_rep", "elliptic_rep"), 31):
            rho = request.getfixturevalue(fixture)
            rng = np.random.default_rng(seed)
            chis = [random_parabolic_cocycle(rho, rng) for _ in range(4)]
            out.append((rho, chis, goldman_matrices([rho], [chis])[0][0]))
        return out
    import charvar.kawai as kawai
    out, matrices = [], kawai.goldman_matrices

    def recorded(rhos, chis, *args, **kwargs):
        results = matrices(rhos, chis, *args, **kwargs)
        out.extend((rho, cs, omega) for rho, cs, (omega, _) in zip(rhos, chis, results))
        return results

    monkeypatch.setattr(kawai, "goldman_matrices", recorded)
    for config in ("kawai-4cusp.json", "kawai-5point.json"):
        base, t_dirs, grid, acc = kawai_inputs(config)
        kawai.kawai_experiment(base, t_dirs, grid=grid, accessory_directions=acc)
    return out


@pytest.mark.parametrize("which", sorted(ORBIFOLD_ORACLE_ERRORS))
def test_orbifold_goldman_against_a_40_digit_oracle(which, request, monkeypatch):
    # the marked-generator terms with their local solves, on cusps and
    # elliptic points: every off-diagonal entry holds to twice the recorded
    # median and worst error of the 40-digit sum of the same inputs
    mp = pytest.importorskip("mpmath").mp
    errors = []
    with mp.workdps(40):
        for rho, chis, omega in _orbifold_matrices(which, request, monkeypatch):
            pairs = [(i, j) for i in range(len(chis)) for j in range(len(chis)) if i != j]
            wants = _mp_goldman(mp, rho, chis, pairs)
            scale = max(1, *map(abs, wants))
            errors += [float(abs(mp.mpc(omega[i][j]) - w) / scale)
                       for (i, j), w in zip(pairs, wants)]
    median, worst = ORBIFOLD_ORACLE_ERRORS[which]
    assert np.median(errors) <= 2 * median and max(errors) <= 2 * worst, \
        (np.median(errors), max(errors))


@pytest.fixture(scope="module")
def elliptic_rep():
    # every marked point elliptic: orders 2, 3, 4 at the finite points, 6 at
    # infinity (signature orders 3, 4, 2, 6 in lasso order)
    data = build_potential([0, 1, FOUR_CUSP_T], [2, 3, 4], 6, [0.2 + 0.1j],
                           base_point=FOUR_CUSP_ZB)
    return MonodromyEngine(data).representation()[0]


class TestMarkedGenerators:
    @pytest.mark.parametrize("which", ["orb3", "four_cusp", "elliptic"])
    def test_terms_are_the_word_walk_values(self, which, orb3_rep, four_cusp_rep,
                                            elliptic_rep, monkeypatch):
        # the pairing reads chi(c_i^-1), rho(c_i) and chi(c_i) from each
        # generator's own image and value; walks of the one-letter words
        # give the same numbers bit for bit
        import charvar.cocycles as cocycles
        rho = {"orb3": orb3_rep, "four_cusp": four_cusp_rep, "elliptic": elliptic_rep}[which]
        sig = rho.signature
        marked = [f"c{i}" for i in range(1, sig.num_marked + 1)]
        rng = np.random.default_rng(24)
        chis = [random_parabolic_cocycle(rho, rng) for _ in range(2)]
        for chi in chis:
            inverses = _inverses(chi)
            assert list(inverses) == marked
            for c in marked:
                assert inverses[c] == chi(sig.gen(c).inverse())
                assert chi.values[c] == chi(sig.gen(c))  # the local solve's right side
        images = []

        def recorded(m):
            images.append(m)
            return ad_matrix(m)

        monkeypatch.setattr(cocycles, "ad_matrix", recorded)
        goldman_matrices([rho], [chis])
        assert images == [rho.image(sig.gen(c)) for c in marked]
