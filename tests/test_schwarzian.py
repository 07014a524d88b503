import numpy as np
import pytest

from charvar.jets import Jet, jet_exp, moebius_jet
from oracles import developing_jet, q_jet
from charvar.monodromy import build_potential
from charvar.schwarzian import (b_apply, check_identities, exp_provider,
                                invariant_potential, lambda_apply,
                                moebius_provider, poly_provider, quadpoly_jet,
                                schwarzian, solve_lambda_report)
from charvar.sl2 import MoebiusMap, QuadPoly


class TestSchwarzian:
    def test_moebius_kernel(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            g = MoebiusMap(*m)
            z0 = 0.5 * complex(*rng.standard_normal(2))
            j = moebius_jet(g, z0, 8)
            assert schwarzian(j).norm() < 1e-12 * max(1, j.norm())

    def test_exp(self):
        S = schwarzian(jet_exp(Jet.variable(0, 8)))
        assert abs(S.value + 0.5) < 1e-14

    def test_square(self):
        S = schwarzian(Jet.from_polynomial([0, 0, 1], 1.0, 8))
        assert abs(S.value + 1.5) < 1e-14

    def test_critical_point_rejected(self):
        with pytest.raises(ValueError):
            schwarzian(Jet.from_polynomial([0, 0, 1], 0.0, 8))

    def test_composition_rule(self):
        # S(f o g) = S(f) o g (g')^2 + S(g)
        rng = np.random.default_rng(1)
        g_coeffs = [0.1, 1.0, 0.3, -0.2]
        z0 = 0.2 + 0.1j
        jg = Jet.from_polynomial(g_coeffs, z0, 10)
        jf = jet_exp(Jet.variable(jg.value, 10))
        comp = jf.compose(jg)
        lhs = schwarzian(comp)
        dg = jg.derivative()
        Sf = schwarzian(jf)
        rhs = Sf.compose(jg.truncate(Sf.order)) * dg.truncate(lhs.order) * dg.truncate(lhs.order) \
            + schwarzian(jg).truncate(lhs.order)
        n = min(lhs.order, rhs.order)
        assert (lhs.truncate(n) - rhs.truncate(n)).norm() < 1e-11 * max(1, rhs.norm())


class TestLambda:
    def test_third_derivative_case(self):
        q0 = Jet.constant(0, 0, 8)
        assert lambda_apply(q0, Jet.from_polynomial([0, 0, 1], 0, 8)).norm() < 1e-15
        assert abs(lambda_apply(q0, Jet.from_polynomial([0, 0, 0, 1], 0, 8)).value - 6) < 1e-14

    def test_product_of_solutions_lambda1(self):
        # q = -1/2 from f = e^z; psi1 psi2 = e^{-z} is annihilated
        q = Jet.constant(-0.5, 0, 8)
        F = jet_exp(Jet.variable(0, 8) * -1)
        assert lambda_apply(q, F).norm() < 1e-13

    def test_insufficient_order(self):
        with pytest.raises(ValueError):
            lambda_apply(Jet.constant(0, 0, 2), Jet.constant(1, 0, 2))


class TestB:
    def test_values(self):
        q0 = Jet.constant(0, 0, 8)
        assert abs(b_apply(q0, Jet.constant(1, 0, 8),
                           Jet.from_polynomial([0, 0, 1], 0, 8)).value - 2) < 1e-14
        assert abs(b_apply(q0, Jet.variable(0, 8), Jet.variable(0, 8)).value + 1) < 1e-14

    def test_lambda5_product_rule(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = Jet.from_polynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4), 0.1, 8)
            F = Jet.from_polynomial(rng.standard_normal(5) + 1j * rng.standard_normal(5), 0.1, 8)
            G = Jet.from_polynomial(rng.standard_normal(5) + 1j * rng.standard_normal(5), 0.1, 8)
            lhs = b_apply(q, F, G).derivative()
            rhs = lambda_apply(q, F) * G.truncate(5) + F.truncate(5) * lambda_apply(q, G)
            n = min(lhs.order, rhs.order)
            assert (lhs.truncate(n) - rhs.truncate(n)).norm() < 1e-11 * max(1, rhs.norm())


class TestInvariantPotential:
    @pytest.mark.parametrize("gamma", [
        MoebiusMap(1, 1, 0, 1),             # parabolic, fixed point inf
        MoebiusMap(1, 0, 1, 1),             # parabolic, fixed point 0
        MoebiusMap(2, 0, 0, 0.5, normalize=False),   # hyperbolic
        MoebiusMap(0, 1, -1, 0),            # elliptic order 2
        MoebiusMap(2, 1, 1, 1),             # generic loxodromic
    ])
    def test_exact_invariance(self, gamma):
        pot = invariant_potential(gamma)
        rng = np.random.default_rng(3)
        for _ in range(6):
            z = 0.4 * complex(*rng.standard_normal(2)) + 2.1 + 1.3j
            gj = moebius_jet(gamma, z, 9)
            dg = gj.derivative()
            lhs = pot.jet(gj.value, 8).compose(gj.truncate(8)) * dg.truncate(8) * dg.truncate(8)
            rhs = pot.jet(z, 8)
            n = min(lhs.order, rhs.order)
            assert (lhs.truncate(n) - rhs.truncate(n)).norm() < 1e-10 * max(1, rhs.norm())

    def test_involution(self):
        pot = invariant_potential(MoebiusMap(2, 1, 1, 1))
        iota = pot.involution()
        assert (iota @ iota).is_identity(1e-10)
        assert invariant_potential(MoebiusMap(1, 1, 0, 1)).involution() is None


class TestCheckIdentities:
    def test_residuals_small(self):
        rng = np.random.default_rng(4)
        samples = [complex(x, y) for x, y in
                   zip(0.7 * rng.standard_normal(20), 0.7 * rng.standard_normal(20))]
        res = check_identities(exp_provider(), QuadPoly(1, 0.5, -0.25),
                               MoebiusMap(1, 1, 1, 2), samples)
        for key in ("lambda1", "lambda2", "lambda3", "lambda5", "b1", "b2"):
            assert res[key] <= 1e-9, (key, res[key])
        assert res["b3"] <= 1e-8

    def test_moebius_f_gives_zero_lambda1(self):
        res = check_identities(moebius_provider(MoebiusMap(1, 2, 1, 3)),
                               QuadPoly(0.3, -1, 2), MoebiusMap(1, 1, 0, 1),
                               [0.2 + 0.1j, -0.4 + 0.6j])
        assert res["lambda1"] <= 1e-12

    def test_exp_constant_p_at_reference_samples(self):
        res = check_identities(exp_provider(), QuadPoly(1, 0, 0),
                               MoebiusMap(1, 1, 1, 2), [0j, 1 + 1j])
        assert res["lambda1"] <= 1e-10


class TestSolveLambda:
    def test_homogeneous_solution(self):
        # Q = 0: G = (a f^2 + b f + c)/f' and Lambda_q(G) = 0
        f = exp_provider()
        rep = solve_lambda_report(f, lambda z: 0j, 0j, 0.6 + 0.2j, (0.5, -0.3, 0.2))
        import cmath
        fz = cmath.exp(0.6 + 0.2j)
        want = (0.5 * fz * fz - 0.3 * fz + 0.2) / fz
        assert abs(rep.value - want) < 1e-12 * abs(want)
        assert rep.residual < 1e-10

    def test_flat_case_closed_form(self):
        # f = z, Q = 6: G(z1) = (1/2) int (z1-u)^2 * 6 du = z1^3
        z1 = 0.7 + 0.2j
        val = solve_lambda_report(poly_provider([0, 1]), lambda z: 6.0 + 0j, 0j, z1).value
        assert abs(val - z1 ** 3) < 1e-12
        # and the abc part adds (a z^2 + b z + c)
        val2 = solve_lambda_report(poly_provider([0, 1]), lambda z: 6.0 + 0j, 0j, z1,
                                   (1, 2, 3)).value
        assert abs(val2 - (z1 ** 3 + z1 ** 2 + 2 * z1 + 3)) < 1e-12

    def test_residual_verification(self):
        rep = solve_lambda_report(exp_provider(), lambda z: complex(z) ** 2 - 0.3j,
                                  0j, 0.5 + 0.1j, (0.1, 0.2, -0.3))
        assert rep.residual < 1e-8
        assert rep.quad_error < 1e-9

    def test_quadrature_nonconvergence_raises(self):
        from charvar.schwarzian import QuadratureError
        # integrable singularity right next to the path, no refinement budget
        with pytest.raises(QuadratureError):
            solve_lambda_report(poly_provider([0, 1]), lambda z: 1 / (z - (0.5 + 1e-7j)),
                                0j, 1.0 + 0j, max_levels=3).value

    def test_critical_point_on_path(self):
        from charvar.schwarzian import QuadratureError
        # f = z^2 has f'(0) = 0 inside the segment; the 1/f' pole defeats the
        # refinement (the symmetric path -1 -> 1 would cancel it by parity)
        with pytest.raises(QuadratureError):
            solve_lambda_report(poly_provider([0, 0, 1]), lambda z: 1.0 + 0j, -1, 1.3,
                                max_levels=6).value

    def test_critical_point_on_a_node(self):
        from charvar.monodromy import gauss_legendre
        from charvar.schwarzian import QuadratureError
        # f = (z - c)^2 with c a Gauss node of the one-panel level on [0, 1]:
        # f' is exactly 0 there, the same failure as at an endpoint
        nodes, _ = gauss_legendre(32)
        c = 0.5 + 0.5 * nodes[3]
        with pytest.raises(QuadratureError, match="f' vanishes at .* on the path"):
            solve_lambda_report(poly_provider([c * c, -2 * c, 1]), lambda z: 1.0 + 0j, 0j, 1)


class TestMonodromyIntegration:
    """Cross-module checks with honest ODE data."""

    def test_developing_jet_solves_schwarz_equation(self):
        data = build_potential([0, 1], [None, None], None, [])
        for z0 in (0.4 + 0.9j, -0.3 + 0.5j):
            f = developing_jet(data, z0, 10)
            S = schwarzian(f)
            q = q_jet(data, z0, S.order)
            assert (S - q).norm() < 1e-9 * max(1, q.norm())

    def test_lambda1_with_developing_map(self):
        data = build_potential([0, 1], [None, None], None, [])
        z0 = 0.4 + 0.9j
        f = developing_jet(data, z0, 10)
        q = q_jet(data, z0, 10)
        P = QuadPoly(0.3, -0.7j, 1.1)
        Pf = quadpoly_jet(P, f.value, 10).compose(f)
        F = Pf * f.derivative().truncate(Pf.order).reciprocal()
        out = lambda_apply(q.truncate(F.order - 3), F)
        assert out.norm() < 1e-9 * max(1, F.norm() * (1 + q.norm()))

    def test_sphere_symmetry_is_invariant_potential(self):
        # z -> 1 - z preserves the {0,1,inf} all-cusp potential exactly;
        # Lambda3 equivariance holds with the honest rational q
        data = build_potential([0, 1], [None, None], None, [])
        gamma = MoebiusMap(-1, 1, 0, 1)  # z -> 1 - z ... (-z + 1)/1
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = 0.5 + 0.4 * complex(*rng.standard_normal(2)) + 0.8j
            gj = moebius_jet(gamma, z, 9)
            dg = gj.derivative()
            lhs = q_jet(data, gj.value, 8).compose(gj.truncate(8)) * dg.truncate(8) * dg.truncate(8)
            rhs = q_jet(data, z, 8)
            assert (lhs.truncate(8) - rhs.truncate(8)).norm() < 1e-10 * max(1, rhs.norm())
            F = Jet.from_polynomial([0.2, 1.1, -0.4, 0.3j], gj.value, 8)
            lam_lhs = lambda_apply(rhs, F.compose(gj.truncate(8)) * dg.truncate(8).reciprocal())
            lam_F = lambda_apply(q_jet(data, gj.value, 8), F)
            lam_rhs = lam_F.compose(gj.truncate(lam_F.order)) * dg * dg
            n = min(lam_lhs.order, lam_rhs.order)
            assert (lam_lhs.truncate(n) - lam_rhs.truncate(n)).norm() < \
                1e-8 * max(1, lam_rhs.norm())
