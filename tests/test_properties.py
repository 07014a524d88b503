"""Property tests: the exact presentation identities on random signatures, and
the equivariance of the adjoint action and invariance of the Killing form on
random SL(2,C) elements.  Derandomized, so every run draws the same cases."""

import cmath

from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.sl2 import MoebiusMap, QuadPoly, adjoint_action, killing
from charvar.words import Signature, verify_presentation_identities

PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def signatures(draw):
    """g <= 3, elliptic orders 2..7, at most 3 cusps, marked points in any
    order (the interleaved form that monodromy representations use)."""
    g = draw(st.integers(0, 3))
    elliptic = draw(st.lists(st.integers(2, 7), max_size=3))
    cusps = draw(st.integers(0, 3))
    orders = draw(st.permutations(elliptic + [None] * cusps))
    return Signature(g, tuple(elliptic), cusps, marked_orders=tuple(orders))


@PROPERTY
@given(signatures())
def test_presentation_identities_hold(sig):
    report = verify_presentation_identities(sig)
    assert report.all_pass, [c for c in report.checks if not c.status]


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
