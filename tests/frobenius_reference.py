"""Reference Frobenius local monodromy with tangents by the differentiated
series, for the tests to hold ``charvar.monodromy._local_monodromy`` against.

The same expansion at the marked point and the same untangented recursion,
but each tangent differentiates the Laurent coefficients of the potential and
runs its own differentiated Frobenius recursion (two convolutions per tangent
per term), and the tangent terms enter the stopping test, instead of the
Duhamel integral along the ray from the marked point.
"""

from __future__ import annotations

import cmath
import math
from operator import mul

from charvar.monodromy import _MAX_TERMS, _TAIL, IntegrationError, LoopPath, _sub
from charvar.sl2 import mat_det, mat_inv_unit, mat_mul


def reference_laurent(poles, tangents, path: LoopPath, s: complex):
    """Yields (P_m, [dP_m per tangent]) for m = 1, 2, ...: the Laurent
    coefficients of the potential R(u) = sum R_m u^(m-2) about a marked point
    in its local coordinate u, scaled to the entry point as P_m = R_m s^m,
    s = u(entry).  R_0 = theta/4 enters through the exponents.

    At a finite pole p, u = z - p and R = q/2; with r_i = s / (p_i - p) over
    the other poles, for m >= 2
        P_m = (m-1) sum A r^m - s sum B r^(m-1),
    and P_1 = s B_p.  At infinity u = w = 1/(z - c) and R = (q/2) w^-4, the
    equation of phi = w psi; with d_i = p_i - c and r_i = s d_i, for m >= 1
        P_m = sum ((m+1) A + B d) r^m,
    and the w^-3 term sum B vanishes by the first moment constraint.  A
    tangent differentiates the coefficients with the entry point frozen; at a
    finite pole that is the motion of the other poles relative to p.  Both
    cases read P_m = (m+k) sum u r^(m-1) + sum v r^(m-1) and dP_m =
    (m+k) sum (du + m dw) r^(m-1) + sum dv r^(m-1), with k = -1 or +1.
    """
    if path.target == "inf":
        d = [p - path.centre for p, _, _ in poles]
        r = [s * x for x in d]
        u = [A * x for (_, A, _), x in zip(poles, r)]
        v = [B * y * x for (_, _, B), y, x in zip(poles, d, r)]
        rows = [([B * dp * x for (_, _, B), (dp, _), x in zip(poles, tan, r)],
                 [A * s * dp for (_, A, _), (dp, _) in zip(poles, tan)],
                 [dB * y * x for (_, dB), y, x in zip(tan, d, r)]) for tan in tangents]
        m, k, pw = 1, 1, [1.0] * len(poles)  # pw = r^(m-1)
    else:
        j = path.target
        yield s * poles[j][2], [s * tan[j][1] for tan in tangents]
        others = [poles[i] for i in range(len(poles)) if i != j]
        r = [s / (p - poles[j][0]) for p, _, _ in others]
        u = [A * x for (_, A, _), x in zip(others, r)]
        v = [-B * s for _, _, B in others]
        rows = []
        for tan in tangents:
            rel = [(dp - tan[j][0], dB) for i, (dp, dB) in enumerate(tan) if i != j]
            rows.append(([B * dp * x for (_, _, B), (dp, _), x in zip(others, rel, r)],
                         [-A * x * x * dp / s for (_, A, _), (dp, _), x in zip(others, rel, r)],
                         [-dB * s for _, dB in rel]))
        m, k, pw = 2, -1, r
    while True:
        yield ((m + k) * sum(map(mul, pw, u)) + sum(map(mul, pw, v)),
               [(m + k) * (sum(map(mul, pw, du)) + m * sum(map(mul, pw, dw)))
                + sum(map(mul, pw, dv)) for du, dw, dv in rows])
        pw = list(map(mul, pw, r))
        m += 1


def reference_local_monodromy(poles, tangents, path: LoopPath):
    """(C, [E per tangent], Wronskian drift) for the circle of ``path``
    (column convention, row-major 4-tuples): C = Phi N Phi^-1 is the exact
    monodromy of the loop from the entry point, E = dPhi Phi^-1 along each
    tangent, and the drift compares the Frobenius Wronskian with its exact
    value.

    In the local coordinate u (see ``reference_laurent``) the exponents are
    rho = (1 +- 1/e)/2 at an order-e point, and
        n (n + 2 rho - 1) a_n = -sum_(m=1..n) R_m a_(n-m)
    gives the basis u^rho sum a_n u^n, which the loop multiplies by
    exp(2 pi i rho): N = diag(exp(2 pi i rho)).  At a cusp rho = 1/2 is
    double, the second solution is phi_1 log u + u^(1/2) sum b_n u^n with
        n^2 b_n = -sum_(m=1..n) R_m b_(n-m) - 2 n a_n,
    and N = [[-1, -2 pi i], [0, -1]].  The powers u^rho and the log commute
    with N, so Phi is replaced by the matrix Mh of the reduced data
    (sum a_n s^n, rho sum a_n s^n + sum n a_n s^n) of each basis function,
    whose determinant is exactly rho_- - rho_+ (cusp: 1), and by G, the map
    from reduced data to (psi, psi') at the entry point: diag(1, 1/s), and at
    infinity [[1/s, 0], [1, -1]] since psi = phi / w.  A tangent varies the
    coefficients (dMh) and, at a finite pole, moves the pole under the frozen
    entry point, which adds -dp (psi', -(q/2) psi): E = G dMh Mh^-1 G^-1 -
    dp K with K = [[0, 1], [-q/2, 0]].  The exponents do not move, so dN = 0.
    """
    entry = path.stem[1]
    inf = path.target == "inf"
    if inf:
        s = 1 / (entry - path.centre)
        g, ginv = (1 / s, 0j, 1 + 0j, -1 + 0j), (s, 0j, s, -1 + 0j)
    else:
        s = entry - poles[path.target][0]
        g, ginv = (1 + 0j, 0j, 0j, 1 / s), (1 + 0j, 0j, 0j, s)
    cusp = path.order is None
    dlt = 0.0 if cusp else 1.0 / path.order
    coeffs = reference_laurent(poles, tangents, path, s)
    P: list[complex] = []
    dP: list[list[complex]] = [[] for _ in tangents]
    a, b = [1.0 + 0j], [0j if cusp else 1.0 + 0j]
    ar: list[complex] = []  # a_(n-1), ..., a_0, the convolution's other factor
    br: list[complex] = []
    da = [([0j], [0j], [], []) for _ in tangents]  # da, db and both reversed
    big, quiet = 1.0, 0
    for n in range(1, _MAX_TERMS):
        pn, dpn = next(coeffs)
        P.append(pn)
        for dPt, x in zip(dP, dpn):
            dPt.append(x)
        fa, fb = -1.0 / (n * (n + dlt)), -1.0 / (n * (n - dlt))
        ar.insert(0, a[-1])
        br.insert(0, b[-1])
        a.append(fa * sum(map(mul, P, ar)))
        b.append(fb * (sum(map(mul, P, br)) + (2 * n * a[-1] if cusp else 0)))
        size = abs(a[-1]) + abs(b[-1])
        for dPt, (dat, dbt, dar, dbr) in zip(dP, da):
            dar.insert(0, dat[-1])
            dbr.insert(0, dbt[-1])
            dat.append(fa * (sum(map(mul, dPt, ar)) + sum(map(mul, P, dar))))
            dbt.append(fb * (sum(map(mul, dPt, br)) + sum(map(mul, P, dbr))
                             + (2 * n * dat[-1] if cusp else 0)))
            size += abs(dat[-1]) + abs(dbt[-1])
        size *= n + 1
        if not math.isfinite(size):
            raise IntegrationError(f"non-finite Frobenius series at {path.target}")
        big = max(big, size)
        quiet = quiet + 1 if size <= _TAIL * big else 0
        if quiet == 2:
            break
    else:
        raise IntegrationError(f"Frobenius series at {path.target} did not converge "
                               f"in {_MAX_TERMS} terms")

    rho_a, rho_b = (1 + dlt) / 2, (1 - dlt) / 2

    def reduced(a, b):  # Mh, or dMh from the differentiated series
        sa, sb = sum(a), sum(b)
        ta = sum(map(mul, range(len(a)), a))
        tb = sum(map(mul, range(len(b)), b))
        if cusp:
            return (sa, sb, sa / 2 + ta, sb / 2 + tb + sa)
        return (sa, sb, rho_a * sa + ta, rho_b * sb + tb)

    mh = reduced(a, b)
    det = mat_det(mh)
    drift = abs(det / (1.0 if cusp else -dlt) - 1.0)
    mh_inv = tuple(x / det for x in mat_inv_unit(mh))
    if cusp:
        n_mat = (-1.0 + 0j, -2j * math.pi, 0j, -1.0 + 0j)
    else:
        n_mat = (-cmath.exp(1j * math.pi * dlt), 0j, 0j, -cmath.exp(-1j * math.pi * dlt))
    c = mat_mul(g, mat_mul(mat_mul(mh, mat_mul(n_mat, mh_inv)), ginv))
    es = [mat_mul(g, mat_mul(mat_mul(reduced(dat, dbt), mh_inv), ginv))
          for dat, dbt, _, _ in da]
    if not inf:
        q2 = sum(A / (entry - p) ** 2 + B / (entry - p) for p, A, B in poles)
        es = [_sub(e, (0j, dp, -q2 * dp, 0j))
              for e, dp in zip(es, (tan[path.target][0] for tan in tangents))]
    return c, es, drift
