import cmath
import math
from pathlib import Path

import pytest

from conftest import FOUR_CUSP_T, FOUR_CUSP_ZB, four_cusp_data
from charvar.monodromy import (IntegrationError, MonodromyEngine, OrderingError,
                               build_lassos, build_potential,
                               integrate_fundamental, theta_of,
                               wronskian_drift)
from charvar.sl2 import MoebiusMap


class TestPotential:
    def test_three_cusp_residues(self):
        data = build_potential([0, 1], [None, None], None, [])
        assert data.residues == pytest.approx((0.5, -0.5))
        assert data.moment_residuals() == pytest.approx((0, 0), abs=1e-14)

    def test_four_cusp_residues(self):
        # points {0,1,t,inf} all cusps, accessory c at t:
        # m_t = c, m_1 = -1 - c t, m_0 = 1 + c t - c
        t, c = 0.3 + 0.4j, 0.2 - 0.7j
        data = build_potential([0, 1, t], [None] * 3, None, [c])
        m0, m1, mt = data.residues
        assert mt == c
        assert abs(m1 - (-1 - c * t)) < 1e-14
        assert abs(m0 - (1 + c * t - c)) < 1e-14
        assert max(data.moment_residuals()) < 1e-14

    def test_elliptic_theta(self):
        assert theta_of(None) == 1.0
        assert theta_of(6) == pytest.approx(35 / 36)
        data = build_potential([0, 1], [6, None], None, [])
        # sum m p = (theta_inf - theta_0 - theta_1)/2 = (1 - 35/36 - 1)/2
        target = (1 - 35 / 36 - 1) / 2
        assert sum(m * p for m, p in zip(data.residues, data.points)) == pytest.approx(target)

    def test_free_dimension_matches_signature(self):
        data = four_cusp_data()
        assert data.free_dimension() == 1  # d = 3*0 - 3 + 0 + 4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_potential([0, 1], [None, None], None, [1.0])  # wrong accessory count
        with pytest.raises(ValueError):
            build_potential([0, 0], [None, None], None, [])
        with pytest.raises(ValueError):
            build_potential([0], [None], None, [])

    def test_q_jet_matches_values(self):
        data = four_cusp_data()
        j = data.q_jet(0.4 - 0.8j, 6)
        assert abs(j.value - data.q(0.4 - 0.8j)) < 1e-12
        eps = 1e-5
        fd = (data.q(0.4 - 0.8j + eps) - data.q(0.4 - 0.8j - eps)) / (2 * eps)
        assert abs(j.derivative().value - fd) < 1e-6


class TestTransport:
    def test_flat_case(self):
        # q = 0: transport over 0 -> 1 in the row convention is [[1,0],[1,1]]
        m = integrate_fundamental([], [0, 1], 1e-12, 1e-14)
        assert max(abs(x - y) for x, y in zip(m, (1, 0, 1, 1))) < 1e-12

    def test_constant_q_two(self):
        # psi'' + psi = 0 (q = 2): solutions cos, sin; over 0 -> pi/2 the row
        # transport is [[0,-1],[1,0]]
        m = integrate_fundamental(lambda z: 2.0 + 0j, [0, math.pi / 2], 1e-12, 1e-14)
        want = (0, -1, 1, 0)
        assert max(abs(x - y) for x, y in zip(m, want)) < 1e-11
        assert wronskian_drift(m) < 1e-11

    def test_wronskian_closed_loop(self, four_cusp_engine):
        engine, _ = four_cusp_engine
        _, drift = engine.representation()
        assert drift < 1e-9

    def test_step_underflow_near_pole(self):
        data = four_cusp_data()
        with pytest.raises(IntegrationError):
            integrate_fundamental(data.half_q_terms(), [FOUR_CUSP_ZB, 0.0], 1e-12, 1e-14)


def _jet_transport(data, vertices, order=20, step_fraction=0.22):
    """Independent transport oracle: analytic continuation by re-expanded
    Taylor solutions of the ODE, no Runge-Kutta involved."""
    from charvar.monodromy import ode_solution_jet

    u = [(1 + 0j, 0j), (0j, 1 + 0j)]  # columns (psi, psi')
    for a, b in zip(vertices, vertices[1:]):
        z = a
        while abs(b - z) > 1e-14:
            radius = min(abs(z - p) for p in data.points)
            step = min(abs(b - z), step_fraction * radius)
            target = z + step * (b - z) / abs(b - z)
            qj = data.q_jet(z, order)
            cols = []
            for v, d in u:
                psi = ode_solution_jet(qj, v, d)
                cols.append((psi.eval(target), psi.derivative().eval(target)))
            u = cols
            z = target
    # row convention to match integrate_fundamental
    return (u[0][0], u[0][1], u[1][0], u[1][1])


def test_rk_transport_against_jet_continuation():
    # dual-route check: adaptive RK5(4) vs Taylor re-expansion, one lasso
    data = four_cusp_data()
    _, paths = build_lassos(data)
    path = paths[0]
    rk = integrate_fundamental(data, path.vertices, 1e-12, 1e-14)
    jet = _jet_transport(data, path.vertices)
    scale = max(abs(x) for x in rk)
    assert max(abs(x - y) for x, y in zip(rk, jet)) < 1e-9 * scale


def test_row_convention_is_a_homomorphism():
    # transport along lasso_a then lasso_b equals the left-to-right product of
    # the individual transports in the row convention
    data = four_cusp_data()
    _, paths = build_lassos(data)
    va, vb = paths[0].vertices, paths[1].vertices
    ma = integrate_fundamental(data, va, 1e-12, 1e-14)
    mb = integrate_fundamental(data, vb, 1e-12, 1e-14)
    mab = integrate_fundamental(data, va + vb, 1e-12, 1e-14)
    from charvar.sl2 import mat_mul
    prod = mat_mul(ma, mb)
    scale = max(abs(x) for x in prod)
    assert max(abs(x - y) for x, y in zip(mab, prod)) < 1e-9 * scale


def test_complex_path_trig():
    # transport along a bent polyline agrees with cos/sin of the total
    # parameter: the solution is path independent for entire q
    L1, L2 = 0.4 + 0.3j, 0.2 - 0.5j
    m = integrate_fundamental(lambda z: 2.0 + 0j, [0, L1, L1 + L2], 1e-12, 1e-14)
    s = L1 + L2
    want = (cmath.cos(s), -cmath.sin(s), cmath.sin(s), cmath.cos(s))
    assert max(abs(x - y) for x, y in zip(m, want)) < 1e-10


class TestLassos:
    def test_order_and_clearance(self):
        data = four_cusp_data()
        order, paths = build_lassos(data, radius_factor=0.3)
        assert order == [1, 2, 0, "inf"]
        gap = data.min_gap()
        for path in paths:
            assert path.min_clearance(data.points) >= 0.05 * gap
            if path.target != "inf":
                # the encircled point stays at roughly the chosen circle radius
                tc = path.target_clearance(data.points)
                assert 0.2 * gap <= tc <= 0.31 * gap

    def test_ordering_error_on_tie(self):
        # base point directly below two vertically aligned points -> tie
        data = build_potential([0, 1j], [None, None, None][:2], None, [],
                               base_point=-2j)
        with pytest.raises(OrderingError):
            build_lassos(data)

    def test_three_cusp_lasso_traces(self):
        data = build_potential([0, 1], [None, None], None, [])
        rho, _ = MonodromyEngine(data).representation()
        for m in rho.images.values():
            assert abs(abs(m.trace()) - 2) < 1e-6


class TestRepresentation:
    def test_four_cusp_traces_and_relation(self, four_cusp_rep):
        for g in four_cusp_rep.signature.generators:
            assert abs(abs(four_cusp_rep.images[g].trace()) - 2) < 1e-6
        assert four_cusp_rep.relator_residual() < 1e-6

    @pytest.mark.parametrize("e", [2, 3, 6])
    def test_elliptic_variant(self, e):
        data = build_potential([0, 1, FOUR_CUSP_T], [e, None, None], None,
                               [0.2 + 0.1j], base_point=FOUR_CUSP_ZB)
        engine = MonodromyEngine(data, rtol=1e-12, atol=1e-14)
        rho, _ = engine.representation()
        # point 0 is third in lasso order from this base point
        assert engine.signature.order_sequence() == (None, None, e, None)
        got = abs(rho.images["c3"].trace())
        assert abs(got - 2 * math.cos(math.pi / e)) < 1e-6
        assert max(rho.trace_residuals().values()) < 1e-6

    def test_rigid_three_cusp(self):
        data = build_potential([0, 1], [None, None], None, [])
        rho, _ = MonodromyEngine(data, rtol=1e-12, atol=1e-14).representation()
        prod = MoebiusMap.identity()
        for i in (1, 2, 3):
            prod = prod @ rho.images[f"c{i}"]
        assert prod.psl_distance(MoebiusMap.identity()) < 1e-6

    def test_homotopy_invariance(self):
        data = four_cusp_data()
        r1, _ = MonodromyEngine(data, rtol=1e-12, atol=1e-14,
                                arc_segments=16, radius_factor=0.3).representation()
        r2, _ = MonodromyEngine(data, rtol=1e-12, atol=1e-14,
                                arc_segments=24, radius_factor=0.22).representation()
        worst = max(r1.images[g].psl_distance(r2.images[g])
                    for g in r1.signature.generators)
        assert worst < 1e-8

    def test_base_point_change_conjugates(self):
        data = four_cusp_data()
        zb2 = -0.4 - 1.2j
        data2 = build_potential([0, 1, FOUR_CUSP_T], [None] * 3, None,
                                [0.2 + 0.1j], base_point=zb2)
        r1, _ = MonodromyEngine(data, rtol=1e-12, atol=1e-14).representation()
        r2, _ = MonodromyEngine(data2, rtol=1e-12, atol=1e-14).representation()
        M = MoebiusMap(*integrate_fundamental(data.half_q_terms(),
                                              [zb2, FOUR_CUSP_ZB], 1e-12, 1e-14))
        worst = max(r2.images[g].psl_distance(M @ r1.images[g] @ M.inverse())
                    for g in r1.signature.generators)
        assert worst < 1e-8

    def test_orb3_signature(self, orb3_rep):
        assert orb3_rep.signature.order_sequence() == (None, None, 3, None)
        assert orb3_rep.signature.dimension == 1
        assert orb3_rep.relator_residual() < 1e-6

    def test_not_visibly_reducible(self, four_cusp_rep):
        assert not four_cusp_rep.visibly_reducible()

    def test_impossible_relation_tolerance_raises(self, four_cusp_engine):
        engine, _ = four_cusp_engine
        with pytest.raises(OrderingError):
            engine.representation(relation_tol=1e-16)


def test_one_integration_per_lasso(monkeypatch, capsys):
    import charvar.monodromy as mono
    from charvar.cli import main
    from charvar.kawai import GridOffset, PointDirection, kawai_experiment

    calls = []
    integrate = mono.integrate_fundamental

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(mono, "integrate_fundamental", counted)
    config = Path(__file__).resolve().parents[1] / "configs" / "sphere-4cusp.json"
    assert main(["monodromy", "--input", str(config)]) == 0
    capsys.readouterr()
    assert len(calls) == 4  # the Wronskian drift comes from the same transports
    calls.clear()
    kawai_experiment(four_cusp_data(), [PointDirection((0, 0, 1))], grid=[GridOffset()])
    assert len(calls) == 4 + 2 * 4 * 4  # base rho, then 4 stencil points per direction
