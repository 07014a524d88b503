"""Reference Taylor step with tangents by the differentiated series, for the
tests to hold ``charvar.monodromy._transfer`` against.

Same step, same conventions and the same untangented recursion (summed in the
same order, so T comes out bit for bit the same), but each tangent runs its
own differentiated recursion instead of the variation-of-constants integral.
"""

from __future__ import annotations

import math
from operator import mul

from charvar.monodromy import _MAX_TERMS, _TAIL, IntegrationError
from charvar.sl2 import mat_inv_unit, mat_mul


def _ends(c):
    """Value and tau-slope of sum c_n tau^n at tau = +1, then at tau = -1."""
    even, odd = c[0::2], c[1::2]
    e, o = sum(even), sum(odd)
    de = sum(map(mul, range(0, 2 * len(even), 2), even))
    do = sum(map(mul, range(1, 2 * len(odd), 2), odd))
    return e + o, de + do, e - o, do - de


def reference_transfer(poles, tangents, z0: complex, h: complex):
    """(T, [dT per tangent]) from z0 to z0 + h as ``_transfer`` and
    ``_step_tangents`` compute them.

    With g = h/2, z = z0 + g + g tau and, per pole, x = g / (p - z0 - g),
    q/2 expands as g^-2 sum_k P_k tau^k with
        P_k = (k+1) sum A x^(k+2) - g sum B x^(k+1),
    and psi = sum c_n tau^n obeys (n+2)(n+1) c_(n+2) = -sum_j P_j c_(n-j).
    A tangent (dp, dB) per pole differentiates P_k with the step frozen:
        dP_k = (k+1) sum B dp x^(k+2) - (k+1)(k+2)/g sum A dp x^(k+3)
               - g sum dB x^(k+1),
    and the differentiated recursion, from zero initial data, adds
    -sum_j dP_j c_(n-j) to the right-hand side.  The tangent terms also enter
    the stopping test.
    """
    g = h / 2
    xs = [g / (p - z0 - g) for p, _, _ in poles]
    ax = [A * x for (_, A, _), x in zip(poles, xs)]
    bg = [B * g for _, _, B in poles]
    rows = [([B * dp * x for (_, _, B), (dp, _), x in zip(poles, tan, xs)],
             [A * dp * x * x / g for (_, A, _), (dp, _), x in zip(poles, tan, xs)],
             [dB * g for _, dB in tan]) for tan in tangents]
    pw = list(xs)  # x^(k+1)
    P: list[complex] = []
    dP: list[list[complex]] = [[] for _ in tangents]
    a, b = [1.0 + 0j, 0j], [0j, 1.0 + 0j]  # psi_a and psi_b / g
    da = [([0j, 0j], [0j, 0j]) for _ in tangents]
    big, quiet = 1.0, 0
    for n in range(_MAX_TERMS):
        k1 = n + 1
        P.append(k1 * sum(map(mul, pw, ax)) - sum(map(mul, pw, bg)))
        for (al, be, ga), dPt in zip(rows, dP):
            dPt.append(k1 * (sum(map(mul, pw, al)) - (k1 + 1) * sum(map(mul, pw, be)))
                       - sum(map(mul, pw, ga)))
        pw = list(map(mul, pw, xs))
        f = -1.0 / ((n + 2) * k1)
        ar, br = a[n::-1], b[n::-1]
        a.append(f * sum(map(mul, P, ar)))
        b.append(f * sum(map(mul, P, br)))
        size = abs(a[-1]) + abs(b[-1])
        for dPt, (dat, dbt) in zip(dP, da):
            dat.append(f * (sum(map(mul, dPt, ar)) + sum(map(mul, P, dat[n::-1]))))
            dbt.append(f * (sum(map(mul, dPt, br)) + sum(map(mul, P, dbt[n::-1]))))
            size += abs(dat[-1]) + abs(dbt[-1])
        size *= n + 2
        if not math.isfinite(size):
            raise IntegrationError(f"non-finite Taylor series at {z0:.6g}")
        big = max(big, size)
        quiet = quiet + 1 if size <= _TAIL * big else 0
        if quiet == 2:
            break
    else:
        raise IntegrationError(f"Taylor series did not converge in {_MAX_TERMS} terms")

    def ends(a, b):  # column matrices S+ and S- of one pair of solutions
        va, sa, wa, ta = _ends(a)
        vb, sb, wb, tb = _ends(b)
        return (va, g * vb, sa / g, sb), (wa, g * wb, ta / g, tb)

    splus, sminus = ends(a, b)
    inv = mat_inv_unit(sminus)  # det S- is the Wronskian, 1
    dT = []
    for dat, dbt in da:
        dplus, dminus = ends(dat, dbt)
        # det S- stays 1, so d(S-^-1) is the adjugate of dS-
        dT.append(tuple(x + y for x, y in zip(mat_mul(dplus, inv),
                                              mat_mul(splus, mat_inv_unit(dminus)))))
    return mat_mul(splus, inv), dT
