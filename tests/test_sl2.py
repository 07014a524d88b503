import numpy as np
import pytest

from conftest import COPIES, rand_sl2
from oracles import (KILLING_MATRIX, b0_bracket, matrix_to_poly, poly_to_matrix,
                     project_traceless)
from charvar.sl2 import MoebiusMap, QuadPoly, ad_matrix, adjoint_action, killing

BASIS = [QuadPoly(1, 0, 0), QuadPoly(0, 1, 0), QuadPoly(0, 0, 1)]


def test_killing_matrix_entries():
    C = np.array([[killing(p, q) for q in BASIS] for p in BASIS])
    assert np.array_equal(C, KILLING_MATRIX)
    assert killing(BASIS[0], BASIS[2]) == -1
    assert killing(BASIS[1], BASIS[1]) == 0.5


def test_killing_equals_matrix_trace_form():
    # <x,y> = tr(xy) on traceless matrices
    rng = np.random.default_rng(0)
    for _ in range(50):
        P1 = QuadPoly(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        P2 = QuadPoly(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        X1, X2 = poly_to_matrix(P1), poly_to_matrix(P2)
        assert abs(killing(P1, P2) - np.trace(X1 @ X2)) < 1e-12 * max(1, P1.norm() * P2.norm())
    X = np.array([[1, 0], [0, -1]])
    assert np.trace(X @ X) == 2
    assert killing(QuadPoly(0, -2, 0), QuadPoly(0, -2, 0)) == 2


def test_matrix_to_poly_dictionary():
    assert matrix_to_poly([[0, 1], [0, 0]]) == QuadPoly(-1, 0, 0)
    assert matrix_to_poly([[1, 0], [0, -1]]) == QuadPoly(0, -2, 0)
    assert matrix_to_poly([[0, 0], [1, 0]]) == QuadPoly(0, 0, 1)


def test_matrix_poly_roundtrip_and_linearity():
    rng = np.random.default_rng(1)
    for _ in range(30):
        P = QuadPoly(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        assert (matrix_to_poly(poly_to_matrix(P)) - P).norm() < 1e-15 * max(1, P.norm())
    with pytest.raises(ValueError):
        matrix_to_poly([[1, 0], [0, 1]])


def test_adjoint_examples():
    assert adjoint_action(MoebiusMap.identity(), QuadPoly(1, 2, 3)) == QuadPoly(1, 2, 3)
    # z -> z+1 sends z^2 to (z-1)^2
    got = adjoint_action(MoebiusMap(1, 1, 0, 1), QuadPoly(0, 0, 1))
    assert (got - QuadPoly(1, -2, 1)).norm() < 1e-14
    # diagonal fixes the Cartan direction z
    got = adjoint_action(MoebiusMap(2, 0, 0, 0.5, normalize=False), QuadPoly(0, 1, 0))
    assert (got - QuadPoly(0, 1, 0)).norm() < 1e-14


def test_adjoint_ad_invariance():
    rng = np.random.default_rng(2)
    for _ in range(200):
        g = rand_sl2(rng)
        P1 = QuadPoly(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        P2 = QuadPoly(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        lhs = killing(adjoint_action(g, P1), adjoint_action(g, P2))
        rhs = killing(P1, P2)
        scale = max(1.0, abs(rhs), P1.norm() * P2.norm() * max(abs(e) for e in g) ** 4)
        assert abs(lhs - rhs) < 1e-10 * scale


def test_adjoint_sign_quotient():
    rng = np.random.default_rng(3)
    g = rand_sl2(rng)
    neg = MoebiusMap(-g.a, -g.b, -g.c, -g.d, normalize=False)
    P = QuadPoly(1 + 1j, -2, 0.5j)
    assert adjoint_action(g, P) == adjoint_action(neg, P)


def test_ad_matrix_matches_action():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = rand_sl2(rng)
        M = ad_matrix(g)
        for j, e in enumerate(BASIS):
            col = adjoint_action(g, e).vector()
            assert np.linalg.norm(M[:, j] - col) < 1e-12 * max(1, np.linalg.norm(col))


def test_b0_examples_and_relation():
    assert b0_bracket(QuadPoly(1, 0, 0), QuadPoly(0, 0, 1)) == 2
    assert b0_bracket(QuadPoly(0, 1, 0), QuadPoly(0, 1, 0)) == -1
    assert b0_bracket(QuadPoly(1, 0, 0), QuadPoly(1, 0, 0)) == 0
    rng = np.random.default_rng(5)
    for _ in range(50):
        P1 = QuadPoly(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        P2 = QuadPoly(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        assert abs(killing(P1, P2) + 0.5 * b0_bracket(P1, P2)) \
            < 1e-13 * max(1, P1.norm() * P2.norm())


def test_b0_z_independence_symbolic():
    # F''G + FG'' - F'G' expanded in jets: coefficients on z, z^2 vanish and the
    # constant coefficient equals b0_bracket
    from charvar.jets import Jet
    rng = np.random.default_rng(6)
    for _ in range(30):
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        P1, P2 = QuadPoly(*c[:3]), QuadPoly(*c[3:])
        F = Jet.from_polynomial(c[:3], 0, 4)
        G = Jet.from_polynomial(c[3:], 0, 4)
        expr = (F.derivative().derivative() * G.truncate(2)
                + F.truncate(2) * G.derivative().derivative()
                - F.derivative().truncate(2) * G.derivative().truncate(2))
        assert abs(expr.coeffs[1]) < 1e-14 and abs(expr.coeffs[2]) < 1e-14
        assert abs(expr.coeffs[0] - b0_bracket(P1, P2)) < 1e-14 * max(1, P1.norm() * P2.norm())


def test_moebius_normalization_and_psl():
    m = MoebiusMap(2, 0, 0, 2)  # det 4, normalized to +-identity
    assert abs(m.a * m.d - m.b * m.c - 1) < 1e-14
    assert m.is_identity(1e-12)
    g = MoebiusMap(3, 1, 2, 1)
    neg = MoebiusMap(-g.a, -g.b, -g.c, -g.d, normalize=False)
    assert g.psl_distance(neg) < 1e-15
    with pytest.raises(ValueError):
        MoebiusMap(1, 1, 1, 1)  # singular


def test_moebius_map_is_its_lift():
    # a map is the value of its det-1 lift: equal to that Mat2 and to any
    # map built from it, never to the negative lift, and normalize is only
    # ever a keyword
    g = MoebiusMap(2, 1, 1, 1)
    assert g == (2, 1, 1, 1) and hash(g) == hash((2, 1, 1, 1))
    assert g == MoebiusMap(*g) == MoebiusMap(*g, normalize=False)
    assert MoebiusMap(4, 2, 2, 2) == g != MoebiusMap(*(-x for x in g), normalize=False)
    assert (g @ g.inverse()) == MoebiusMap.identity() == (1, 0, 0, 1)
    with pytest.raises(TypeError):
        MoebiusMap(2, 1, 1, 1, False)


def test_moebius_make_and_replace_validate():
    # namedtuple's _make and _replace go through __new__: no singular map
    with pytest.raises(ValueError, match="singular"):
        MoebiusMap._make((0, 0, 0, 0))
    g = MoebiusMap(2, 1, 1, 1)
    with pytest.raises(ValueError, match="singular"):
        g._replace(a=1, b=1, c=1, d=1)
    assert MoebiusMap._make((4, 2, 2, 2)) == g == g._replace()
    assert g._replace(b=0) == MoebiusMap(2, 0, 1, 1)


def test_moebius_copies_and_pickles_keep_the_bits():
    # a product is a lift of det ~1, not normalized; a copy that normalized
    # it again would move its bits (934 of 1000 such products did)
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = rand_sl2(rng) @ rand_sl2(rng)
        for route in COPIES:
            h = route(g)
            assert type(h) is MoebiusMap and h == g
            assert np.array(h).tobytes() == np.array(g).tobytes()


def test_quad_poly_is_a_value_with_vector_arithmetic():
    # +, -, * act on the coefficients, never as a tuple's concatenation or
    # repetition, with an int, a complex or a numpy scalar on either side
    P, Q = QuadPoly(1, 2j, -3), QuadPoly(0.5, 1, 1j)
    s = 2 - 1j
    for got, want in ((P + Q, (1.5, 1 + 2j, -3 + 1j)), (P - Q, (0.5, -1 + 2j, -3 - 1j)),
                      (-P, (-1, -2j, 3)), (P * s, (s, 2j * s, -3 * s)),
                      (s * P, (s, 2j * s, -3 * s)), (-1 * P, (-1, -2j, 3)),
                      (2 * P, (2, 4j, -6)), (P * 2, (2, 4j, -6)),
                      (np.complex128(s) * P, (s, 2j * s, -3 * s)),
                      (np.float64(2) * P, (2, 4j, -6))):
        assert type(got) is QuadPoly and got.coeffs() == want, (got, want)
    assert QuadPoly() == QuadPoly.zero() == (0, 0, 0)
    assert QuadPoly.from_vector(P.vector()) == P and P.vector().dtype == complex
    # equal values hash equal, and a field cannot be rebound
    assert P == QuadPoly(1 + 0j, 2j, -3 + 0j) and hash(P) == hash(QuadPoly(1 + 0j, 2j, -3 + 0j))
    assert len({P, QuadPoly(*P.coeffs()), Q}) == 2
    with pytest.raises(AttributeError):
        P.p0 = 0
    with pytest.raises(AttributeError):
        P.extra = 0


def test_moebius_action_and_fixed_points():
    g = MoebiusMap(1, 1, 0, 1)
    assert g(0) == 1
    assert g("inf") == "inf"
    assert "inf" in g.fixed_points()
    h = MoebiusMap(2, 0, 0, 0.5, normalize=False)
    pts = h.fixed_points()
    assert "inf" in pts and any(p == 0 for p in pts if p != "inf")


def test_project_traceless():
    X = np.array([[1 + 1j, 2], [3, 5 - 1j]])
    Y = project_traceless(X)
    assert abs(Y[0, 0] + Y[1, 1]) < 1e-15


def _numpy_conjugation(g, P):
    gm = np.array([[g.a, g.b], [g.c, g.d]])
    return matrix_to_poly(gm @ poly_to_matrix(P) @ np.linalg.inv(gm))


def test_adjoint_matches_numpy_conjugation():
    # random SL2 elements, stretched by diag(s, 1/s) and a shear so that
    # entries reach ~1e2
    rng = np.random.default_rng(8)
    biggest = 0.0
    for _ in range(300):
        s = 10 ** rng.uniform(0, 0.5)
        t = 10 ** rng.uniform(-1, 1.5) * np.exp(2j * np.pi * rng.uniform())
        g = rand_sl2(rng) @ MoebiusMap(s, 0, 0, 1 / s, normalize=False) \
            @ MoebiusMap(1, t, 0, 1, normalize=False)
        P = QuadPoly(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        gn = max(abs(e) for e in g)
        biggest = max(biggest, gn)
        got = adjoint_action(g, P)
        want = _numpy_conjugation(g, P)
        assert (got - want).norm() <= 1e-12 * max(got.norm(), P.norm(), 1.0) * gn * gn
    assert 50 < biggest < 1e3


def _kawai_config():
    from pathlib import Path
    from charvar.cli import main
    config = Path(__file__).resolve().parents[1] / "configs" / "kawai-4cusp.json"
    assert main(["kawai", "--input", str(config)]) == 0


def _closed_pairing_genus8():
    from conftest import make_closed_rep, near_identity_sl2
    from charvar.cocycles import random_parabolic_cocycle
    from charvar.goldman import goldman_closed
    rho = make_closed_rep(8, 3, near_identity_sl2)
    rng = np.random.default_rng(22)
    goldman_closed(rho, random_parabolic_cocycle(rho, rng),
                   random_parabolic_cocycle(rho, rng))


@pytest.mark.parametrize("run,calls", [(_closed_pairing_genus8, 64), (_kawai_config, 72)],
                         ids=["closed-g8", "kawai-config"])
def test_adjoint_matches_numpy_conjugation_on_production_inputs(run, calls, monkeypatch):
    # every adjoint action that a closed pairing and `charvar kawai` on the
    # committed config make, against the numpy conjugation, at the bound the
    # per-call check used; the closed genus-8 pairing makes 8g (one walk of R
    # per cocycle), and the kawai run 12 per cocycle and grid point (4 for
    # its relator residual, 4 walking R for the pairing, 4 for chi(c_i^-1))
    import charvar.cocycles as cocycles
    import charvar.goldman as goldman
    worst = []

    def checked(g, P):
        got = adjoint_action(g, P)
        gn = max(abs(e) for e in g)
        scale = max(got.norm(), P.norm(), 1.0) * max(1.0, gn * gn)
        worst.append((got - _numpy_conjugation(g, P)).norm() / scale)
        return got

    for mod in (cocycles, goldman):
        monkeypatch.setattr(mod, "adjoint_action", checked)
    run()
    assert len(worst) == calls
    assert max(worst) <= 1e-12
