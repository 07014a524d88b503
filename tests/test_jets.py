import math

import numpy as np
import pytest

from oracles import jet_eval
from charvar.jets import Jet, jet_exp, moebius_jet
from charvar.sl2 import MoebiusMap


def _poly_eval(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _poly_mul(a, b):
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_der(a):
    return [k * a[k] for k in range(1, len(a))]


def _poly_compose(outer, inner):
    out = [0j]
    for c in reversed(outer):
        out = _poly_mul(out, inner)
        out = [out[0] + c] + list(out[1:])
    return out


def _jet_of(coeffs, z0, order):
    return Jet.from_polynomial(coeffs, z0, order)


def _rand_poly(rng, deg):
    return list(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))


def test_from_polynomial_recentre_exact():
    rng = np.random.default_rng(0)
    for _ in range(40):
        coeffs = _rand_poly(rng, 6)
        z0 = complex(*rng.standard_normal(2))
        j = _jet_of(coeffs, z0, 6)
        # jet coefficient k equals p^{(k)}(z0)/k!
        d = list(coeffs)
        fact = 1.0
        for k in range(7):
            assert abs(j.coeffs[k] - _poly_eval(d, z0) / fact) < 1e-12 * max(
                1, abs(_poly_eval(d, z0)))
            d = _poly_der(d)
            fact *= k + 1


def test_arithmetic_exact_on_polynomials():
    rng = np.random.default_rng(1)
    for _ in range(40):
        a = _rand_poly(rng, 3)
        b = _rand_poly(rng, 3)
        z0 = complex(*rng.standard_normal(2)) * 0.5
        ja, jb = _jet_of(a, z0, 6), _jet_of(b, z0, 6)
        jm = ja * jb
        want = _jet_of(_poly_mul(a, b), z0, 6)
        assert max(abs(x - y) for x, y in zip(jm.coeffs, want.coeffs)) < 1e-12 * want.norm()
        jd = ja.derivative()
        wantd = _jet_of(_poly_der(a), z0, 5)
        assert max(abs(x - y) for x, y in zip(jd.coeffs, wantd.coeffs)) \
            < 1e-12 * max(1, wantd.norm())
        js = ja + jb
        assert abs(js.value - (_poly_eval(a, z0) + _poly_eval(b, z0))) < 1e-12 * max(1, js.norm())


def test_compose_exact_on_polynomials():
    rng = np.random.default_rng(2)
    for _ in range(30):
        outer = _rand_poly(rng, 3)
        inner = [c * 0.6 ** k for k, c in enumerate(_rand_poly(rng, 2))]
        z0 = 0.3 * complex(*rng.standard_normal(2))
        ji = _jet_of(inner, z0, 6)
        jo = _jet_of(outer, ji.value, 6)
        comp = jo.compose(ji)
        want = _jet_of(_poly_compose(outer, inner), z0, 6)
        assert max(abs(x - y) for x, y in zip(comp.coeffs, want.coeffs)) < \
            1e-11 * max(1, want.norm())


def test_compose_base_mismatch():
    with pytest.raises(ValueError):
        Jet.variable(0, 4).compose(Jet.variable(1, 4))


def test_reciprocal():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = _rand_poly(rng, 4)
        if abs(a[0]) < 0.3:
            a[0] += 1.0
        j = _jet_of(a, 0.2 + 0.1j, 8)
        prod = j * j.reciprocal()
        assert abs(prod.coeffs[0] - 1) < 1e-12
        assert max(abs(c) for c in prod.coeffs[1:]) < 1e-11 * max(1, j.norm())
    with pytest.raises(ZeroDivisionError):
        Jet(0, (0, 1, 1)).reciprocal()


def test_derivative_antiderivative_roundtrip():
    j = Jet.from_polynomial([1, 2, 3, 4], 0.5, 6)
    back = j.derivative().antiderivative(j.value)
    assert max(abs(x - y) for x, y in zip(back.coeffs, j.coeffs)) < 1e-14


def test_exp_jet():
    import cmath
    z0 = 0.3 - 0.2j
    j = jet_exp(Jet.variable(z0, 10))
    for k in range(11):
        want = cmath.exp(z0) / np.prod([max(i, 1) for i in range(1, k + 1)], dtype=float)
        assert abs(j.coeffs[k] - want) < 1e-13 * abs(want)


def test_moebius_jet_values():
    m = MoebiusMap(2, 1, 1, 1)
    z0 = 0.4 + 0.3j
    j = moebius_jet(m, z0, 8)
    assert abs(j.value - m(z0)) < 1e-13
    # derivative of (az+b)/(cz+d) is det/(cz+d)^2 = 1/(cz+d)^2 after normalization
    den = m.c * z0 + m.d
    assert abs(j.derivative().value - 1 / den ** 2) < 1e-12


def test_make_and_replace_validate():
    # namedtuple's _make and _replace go through __new__: a jet keeps at
    # least its value, and its base and coefficients become complex
    with pytest.raises(ValueError, match="at least its value"):
        Jet._make((0, ()))
    j = Jet._make((1, [2, 3]))
    assert j == Jet(1, (2, 3)) and type(j.coeffs) is tuple
    assert all(type(x) is complex for x in (j.base, *j.coeffs))
    with pytest.raises(ValueError, match="at least its value"):
        j._replace(coeffs=())
    assert j._replace(base=0.5) == Jet(0.5, j.coeffs)


def test_eval_matches_polynomial():
    coeffs = [1, -2, 0.5, 3j]
    j = Jet.from_polynomial(coeffs, 1.1, 6)
    for z in (0.9, 1.3 + 0.2j):
        assert abs(jet_eval(j, z) - _poly_eval(coeffs, z)) < 1e-12


def test_norm_keeps_a_nan_in_any_coefficient():
    # max() keeps a NaN only when it comes first
    nan = float("nan")
    assert math.isnan(Jet(0, [1, nan]).norm())
    assert math.isnan(Jet(0, [nan, 1]).norm())
    assert Jet(0, [1, -3j, 2]).norm() == 3.0
