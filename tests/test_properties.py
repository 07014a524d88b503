"""Property tests: the exact presentation identities and the Fox fundamental
formula on random signatures and words, the equivariance of the adjoint
action and invariance of the Killing form on random SL(2,C) elements, and
random marked spheres through the monodromy subcommand and their tangent
cocycles.  Derandomized, so every run draws the same cases."""

import cmath
import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.cli import main
from charvar.cocycles import tangent_cocycle
from charvar.monodromy import (IntegrationError, OrderingError, build_lassos,
                               potential_tangent, transport)
from charvar.serialize import sphere_in
from charvar.sl2 import MoebiusMap, QuadPoly, adjoint_action, killing
from charvar.words import (FreeWord, GroupRingElement, Signature, fox_derivative, relator,
                           verify_presentation_identities)

PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def signatures(draw):
    """g <= 3, elliptic orders 2..7, at most 3 cusps, marked points in any
    order (the interleaved form that monodromy representations use)."""
    g = draw(st.integers(0, 3))
    elliptic = draw(st.lists(st.integers(2, 7), max_size=3))
    cusps = draw(st.integers(0, 3))
    return Signature(g, draw(st.permutations(elliptic + [None] * cusps)))


@PROPERTY
@given(signatures())
def test_presentation_identities_hold(sig):
    report = verify_presentation_identities(sig)
    assert report.all_pass, [c for c in report.checks if not c.status]


@st.composite
def words(draw):
    """A signature and a word of up to 12 letters in its generators (not
    reduced: FreeWord reduces it)."""
    sig = draw(signatures())
    if not sig.generators:
        return sig, FreeWord()
    letters = draw(st.lists(st.tuples(st.sampled_from(sig.generators), st.sampled_from((1, -1))),
                            max_size=12))
    return sig, FreeWord(letters)


@PROPERTY
@given(words())
def test_fox_fundamental_formula(case):
    # w - 1 = sum_x (dw/dx)(x - 1) in Z[F]
    sig, w = case
    one = GroupRingElement.one()
    total = GroupRingElement.zero()
    for x in sig.generators:
        total = total + fox_derivative(w, x) * (GroupRingElement.from_word(sig.gen(x)) - one)
    assert total == GroupRingElement.from_word(w) - one


@st.composite
def spheres(draw):
    """3 to 5 distinct finite points on the grid 0.25 Z^2 in [-1, 1]^2, orders
    from {cusp, 2, 3, 4, 6} there and at infinity, small accessory residues."""
    cells = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                          min_size=3, max_size=5, unique=True))
    order = st.sampled_from((None, 2, 3, 4, 6))
    small = st.floats(-0.3, 0.3)
    return {"points": [[x / 4, y / 4] for x, y in cells],
            "orders": [draw(order) for _ in cells],
            "order_infinity": draw(order),
            "accessory": [[draw(small), draw(small)] for _ in cells[2:]]}


@settings(PROPERTY, max_examples=40)
@given(spheres())
def test_monodromy_ends_in_a_report(cfg):
    # any such sphere ends in a JSON report with exit 0 or, when a lasso or
    # a check fails, exit 2 with the reason; never a traceback
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["monodromy", "--json", json.dumps(cfg)])
    rep = json.loads(out.getvalue())
    assert code in (0, 2)
    if "error" in rep:
        assert code == 2
        return
    tols = rep["tolerances"]
    assert rep["relation_residual"] <= tols["relation"]
    # exit 2 without an error means a check over its tolerance; a NaN or an
    # infinity is written as a string and fails too
    def within(x, tol):
        return isinstance(x, float) and x <= tol

    passed = (all(within(t, tols["trace"]) for t in rep["trace_residuals"].values())
              and within(rep["wronskian_drift"], tols["wronskian"]))
    assert code == (0 if passed else 2)


@settings(PROPERTY, max_examples=40)
@given(spheres(), st.data())
def test_tangent_cocycles_kill_the_relator(cfg, draw):
    # along a random deformation the lasso product stays +-1, so the tangent
    # cocycle, which carries the stems' Taylor tangents and the circles' ray
    # integrals, must kill the relator: chi(R) = 0 to rounding
    data = sphere_in(cfg)
    unit = st.floats(-1, 1)
    velocity = [[complex(draw.draw(unit), draw.draw(unit)) for _ in range(n)]
                for n in (len(data.points), data.free_dimension())]
    try:
        ((rho, drift, (dimages,)),) = transport([(build_lassos(data), data)],
                                                tangents=[[potential_tangent(data, *velocity)]])
    except (OrderingError, IntegrationError):
        return  # the monodromy subcommand's exit-2 reports
    if not drift <= 1e-9:
        return  # past the subcommand's Wronskian tolerance
    chi = tangent_cocycle(rho, dimages)
    assert chi(relator(rho.signature)).norm() <= 1e-6 * max(1.0, chi.norm())


_coeff = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
_traceless = st.tuples(_coeff, _coeff, _coeff)


def _exp(x) -> MoebiusMap:
    """exp of the traceless matrix (x0, x1; x2, -x0): always in SL(2,C)."""
    d = cmath.sqrt(x[0] * x[0] + x[1] * x[2])
    s = cmath.sinh(d) / d if abs(d) > 1e-12 else 1.0
    return MoebiusMap(cmath.cosh(d) + s * x[0], s * x[1], s * x[2], cmath.cosh(d) - s * x[0],
                      normalize=False)


def _size(m: MoebiusMap) -> float:
    return max(1.0, max(abs(e) for e in m.tuple()))


@PROPERTY
@given(_traceless, _traceless, _traceless)
def test_adjoint_action_is_a_homomorphism(x, y, p):
    g, h, P = _exp(x), _exp(y), QuadPoly(*p)
    lhs = adjoint_action(g @ h, P)
    rhs = adjoint_action(g, adjoint_action(h, P))
    scale = max(1.0, P.norm()) * (_size(g) * _size(h)) ** 2
    assert (lhs - rhs).norm() <= 1e-13 * scale


@PROPERTY
@given(_traceless, _traceless, _traceless)
def test_killing_form_is_invariant(x, p1, p2):
    g, P1, P2 = _exp(x), QuadPoly(*p1), QuadPoly(*p2)
    got = killing(adjoint_action(g, P1), adjoint_action(g, P2))
    scale = max(1.0, P1.norm() * P2.norm()) * _size(g) ** 4
    assert abs(got - killing(P1, P2)) <= 1e-13 * scale
