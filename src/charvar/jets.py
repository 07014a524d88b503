"""Truncated power-series (jet) arithmetic at a movable base point.

A Jet is the namedtuple (base, coeffs) = (z0, (c0..cN)) of sum c_k (z - z0)^k.
Arithmetic is exact on polynomials of degree <= N, which is what makes
third-derivative identities testable at the 1e-12 level without finite
differences.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from typing import Sequence

DEFAULT_ORDER = 8


def nan_max(*values: float) -> float:
    """max() that keeps a NaN: a residual that came out NaN is the worst one,
    where max() would keep whichever operand came first."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


class Jet(namedtuple("Jet", "base coeffs")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too: both validate

    def __new__(cls, base: complex, coeffs: Sequence[complex]):
        if len(coeffs) == 0:
            raise ValueError("a jet needs at least its value")
        return super().__new__(cls, complex(base), tuple(complex(c) for c in coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: complex, z0: complex, order: int = DEFAULT_ORDER) -> "Jet":
        return cls(z0, (value,) + (0j,) * order)

    @classmethod
    def variable(cls, z0: complex, order: int = DEFAULT_ORDER) -> "Jet":
        coeffs = [complex(z0), 1.0 + 0j] + [0j] * (order - 1)
        return cls(z0, coeffs[: order + 1])

    @classmethod
    def from_polynomial(cls, poly_coeffs: Sequence[complex], z0: complex,
                        order: int = DEFAULT_ORDER) -> "Jet":
        """Jet of p(z) = sum poly_coeffs[k] z^k at z0 (exact re-centering)."""
        z = cls.variable(z0, order)
        out = cls.constant(0j, z0, order)
        for c in reversed(list(poly_coeffs)):
            out = out * z + cls.constant(c, z0, order)
        return out

    # -- ring structure ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> complex:
        return self.coeffs[0]

    def _match(self, other: "Jet") -> int:
        if abs(self.base - other.base) > 1e-12 * max(1.0, abs(self.base)):
            raise ValueError("jet base points differ")
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.base, (self.coeffs[0] + other,) + self.coeffs[1:])
        n = self._match(other)
        return Jet(self.base, tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return Jet(self.base, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            s = complex(other)
            return Jet(self.base, tuple(c * s for c in self.coeffs))
        n = self._match(other)
        out = [0j] * (n + 1)
        for i in range(n + 1):
            ci = self.coeffs[i]
            if ci == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += ci * other.coeffs[j]
        return Jet(self.base, out)

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / complex(other))

    # -- calculus ------------------------------------------------------------

    def derivative(self) -> "Jet":
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.base, tuple((k + 1) * self.coeffs[k + 1] for k in range(self.order)))

    def antiderivative(self, constant: complex = 0j) -> "Jet":
        out = [complex(constant)] + [self.coeffs[k] / (k + 1) for k in range(self.order + 1)]
        return Jet(self.base, out)

    def reciprocal(self) -> "Jet":
        c0 = self.coeffs[0]
        if abs(c0) < 1e-300:
            raise ZeroDivisionError("jet has zero value; reciprocal undefined")
        n = self.order
        out = [1.0 / c0] + [0j] * n
        for k in range(1, n + 1):
            acc = 0j
            for j in range(1, k + 1):
                acc += self.coeffs[j] * out[k - j]
            out[k] = -acc / c0
        return Jet(self.base, out)

    def compose(self, inner: "Jet") -> "Jet":
        """self o inner; requires inner's value to sit at self's base point
        (within 1e-8 relative)."""
        if abs(inner.value - self.base) > 1e-8 * max(1.0, abs(self.base)):
            raise ValueError(
                f"composition mismatch: inner value {inner.value} vs outer base {self.base}")
        n = min(self.order, inner.order)
        u = Jet(inner.base, (0j,) + inner.coeffs[1:n + 1])  # inner - outer base, exactly
        out = Jet.constant(self.coeffs[n], inner.base, n)
        for k in range(n - 1, -1, -1):
            out = out * u + Jet.constant(self.coeffs[k], inner.base, n)
        return out

    def truncate(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(self.base, self.coeffs[: order + 1])

    def norm(self) -> float:
        return nan_max(*(abs(c) for c in self.coeffs))

    def __repr__(self) -> str:
        return f"Jet(base={self.base:.4g}, coeffs={[f'{c:.4g}' for c in self.coeffs]})"


def jet_exp(j: Jet) -> Jet:
    """exp of a jet: e^{c0} * sum (j - c0)^k / k!, exact at the jet order."""
    n = j.order
    u = Jet(j.base, (0j,) + j.coeffs[1:])
    out = Jet.constant(1.0, j.base, n)
    term = Jet.constant(1.0, j.base, n)
    for k in range(1, n + 1):
        term = term * u * (1.0 / k)
        out = out + term
    return out * cmath.exp(j.coeffs[0])


def moebius_jet(m, z0: complex, order: int = DEFAULT_ORDER) -> Jet:
    """Jet of z -> (az + b)/(cz + d) at z0 (m: a Mat2, a MoebiusMap included)."""
    a, b, c, d = m
    z = Jet.variable(z0, order)
    return (z * a + b) * (z * c + d).reciprocal()
