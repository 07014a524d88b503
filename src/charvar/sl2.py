"""sl(2,C) as quadratic polynomials, Moebius/adjoint actions, Killing pairing.

The dictionary is (a, b; c, -a) <-> (c z^2 - 2 a z - b) d/dz and the pairing is
normalized so that <x, y> = tr(xy) on traceless matrices, which on the basis
{1, z, z^2} is the matrix [[0,0,-1],[0,1/2,0],[-1,0,0]].  A MoebiusMap is
the namedtuple (a, b, c, d) of its det-1 lift, so it is a ``Mat2`` itself:
``mat_mul`` and ``mat_inv_unit`` take it as it is, and it unpacks in place.
"""

from __future__ import annotations

import cmath
from collections import namedtuple

import numpy as np

Mat2 = tuple[complex, complex, complex, complex]  # row-major (a, b, c, d)


class NumericalError(ArithmeticError):
    """A failure the program detects in its own numerics; the CLI ends in
    an exit-2 report naming it by its message."""


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def mat_det(x: Mat2) -> complex:
    return x[0] * x[3] - x[1] * x[2]


def mat_inv_unit(x: Mat2) -> Mat2:
    """Inverse of a determinant-1 matrix (the adjugate)."""
    return (x[3], -x[1], -x[2], x[0])


def frobenius(x: Mat2) -> float:
    return (abs(x[0]) ** 2 + abs(x[1]) ** 2 + abs(x[2]) ** 2 + abs(x[3]) ** 2) ** 0.5


class QuadPoly(namedtuple("QuadPoly", "p0 p1 p2", defaults=(0j, 0j, 0j))):
    """Quadratic polynomial p0 + p1 z + p2 z^2 standing for a vector field;
    ``+``, ``-`` and ``*`` act on the coefficients, never as a tuple's."""

    __slots__ = ()
    __array_ufunc__ = None  # a numpy scalar on the left defers to __rmul__

    def coeffs(self) -> tuple[complex, complex, complex]:
        return (self.p0, self.p1, self.p2)

    def __call__(self, z: complex) -> complex:
        return self.p0 + z * (self.p1 + z * self.p2)

    def __add__(self, other: "QuadPoly") -> "QuadPoly":
        return QuadPoly(self.p0 + other.p0, self.p1 + other.p1, self.p2 + other.p2)

    def __sub__(self, other: "QuadPoly") -> "QuadPoly":
        return QuadPoly(self.p0 - other.p0, self.p1 - other.p1, self.p2 - other.p2)

    def __neg__(self) -> "QuadPoly":
        return QuadPoly(-self.p0, -self.p1, -self.p2)

    def __mul__(self, s: complex) -> "QuadPoly":
        return QuadPoly(self.p0 * s, self.p1 * s, self.p2 * s)

    __rmul__ = __mul__

    def norm(self) -> float:
        return max(abs(self.p0), abs(self.p1), abs(self.p2))

    @classmethod
    def zero(cls) -> "QuadPoly":
        return cls(0j, 0j, 0j)

    @classmethod
    def from_vector(cls, v) -> "QuadPoly":
        return cls(complex(v[0]), complex(v[1]), complex(v[2]))

    def vector(self) -> np.ndarray:
        return np.array(self.coeffs(), dtype=complex)


class MoebiusMap(namedtuple("MoebiusMap", "a b c d")):
    """PSL(2,C) element: its lift, a ``Mat2`` normalized to det 1, with which
    it compares equal; the negative lift is the same map but another value.
    ``normalize=False`` takes the entries as they are: products and inverses
    of normalized maps."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too: both validate

    def __new__(cls, a: complex, b: complex, c: complex, d: complex, *,
                normalize: bool = True):
        if normalize:
            det = a * d - b * c
            if abs(det) < 1e-30:
                raise ValueError("singular matrix cannot define a Moebius map")
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        return super().__new__(cls, complex(a), complex(b), complex(c), complex(d))

    def __getnewargs_ex__(self):  # a copy or a pickle keeps the lift's bits
        return tuple(self), {"normalize": False}

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1, 0, 0, 1, normalize=False)

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(*mat_mul(self, other), normalize=False)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a, normalize=False)

    def trace(self) -> complex:
        return self.a + self.d

    def __call__(self, z: complex):
        """Moebius action on C u {inf} (inf encoded as the string 'inf')."""
        if z == "inf":
            return "inf" if abs(self.c) < 1e-300 else self.a / self.c
        den = self.c * z + self.d
        if abs(den) < 1e-300:
            return "inf"
        return (self.a * z + self.b) / den

    def psl_distance(self, other: "MoebiusMap") -> float:
        """min over signs of the Frobenius distance of SL2 lifts."""
        dplus = frobenius(tuple(x - y for x, y in zip(self, other)))
        dminus = frobenius(tuple(x + y for x, y in zip(self, other)))
        return min(dplus, dminus)

    def is_identity(self, tol: float = 1e-9) -> bool:
        return self.psl_distance(MoebiusMap.identity()) <= tol

    def fixed_points(self) -> list[complex]:
        """Fixed points in C (inf, when fixed, reported as 'inf')."""
        if abs(self.c) < 1e-14 * max(1.0, abs(self.a), abs(self.d)):
            pts: list = ["inf"]
            if abs(self.a - self.d) > 1e-14:
                pts.append(self.b / (self.d - self.a))
            return pts
        disc = cmath.sqrt((self.a - self.d) ** 2 + 4 * self.b * self.c)
        return [((self.a - self.d) + disc) / (2 * self.c),
                ((self.a - self.d) - disc) / (2 * self.c)]

    def __repr__(self) -> str:
        return f"MoebiusMap({self.a:.6g}, {self.b:.6g}, {self.c:.6g}, {self.d:.6g})"


def adjoint_action(g: MoebiusMap, P: QuadPoly) -> QuadPoly:
    """(g . P)(z) = P(g^-1 z) / (g^-1)'(z) in closed form; equals the matrix
    conjugation g X g^-1 of X = (-p1/2, -p0; p2, p1/2) (checked in the
    tests)."""
    a, b, c, d = g
    q0 = P.p0 * a * a - P.p1 * a * b + P.p2 * b * b
    q1 = -2 * P.p0 * a * c + P.p1 * (a * d + b * c) - 2 * P.p2 * b * d
    q2 = P.p0 * c * c - P.p1 * c * d + P.p2 * d * d
    return QuadPoly(q0, q1, q2)


def ad_matrix(g: MoebiusMap) -> np.ndarray:
    """Matrix of the adjoint action on the basis (1, z, z^2)."""
    a, b, c, d = g
    return np.array(
        [
            [a * a, -a * b, b * b],
            [-2 * a * c, a * d + b * c, -2 * b * d],
            [c * c, -c * d, d * d],
        ],
        dtype=complex,
    )


def killing(P1: QuadPoly, P2: QuadPoly) -> complex:
    """<P1, P2> = coeffs(P1)^T C coeffs(P2); equals tr(X1 X2) on matrices."""
    return (
        -P1.p0 * P2.p2
        - P1.p2 * P2.p0
        + 0.5 * P1.p1 * P2.p1
    )

