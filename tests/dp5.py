"""Independent transport oracle: adaptive Dormand-Prince 5(4) over a
polyline, for the tests to hold the Taylor transport against.

Same ODE and conventions as ``conftest.transport``, the Taylor transport
(psi'' = -(q/2) psi, q/2 given as (pole, theta/4, m/2) triples, row-convention
result), but a Runge-Kutta method with error control instead of series.
"""

from __future__ import annotations

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9


def _segment(q2, singularities, za, zb, u, rtol, atol):
    """Advance the column fundamental matrix u (row-major 4-tuple) from za to
    zb; step size is error-controlled and capped at 0.2x the distance to the
    nearest singularity."""
    dz = zb - za
    seg_len = abs(dz)
    if seg_len < 1e-300:
        return u

    def deriv(tau, y):
        q2v = q2(za + tau * dz)
        return (dz * y[2], dz * y[3], -dz * q2v * y[0], -dz * q2v * y[1])

    def cap(tau):
        if not singularities:
            return 0.35
        z = za + tau * dz
        return 0.2 * min(abs(z - p) for p in singularities) / seg_len

    tau = 0.0
    h = min(0.35, cap(0.0))
    k1 = deriv(tau, u)
    while tau < 1.0:
        h = min(h, cap(tau), 1.0 - tau)
        if h < 1e-13:
            raise RuntimeError("step underflow near singularity")
        y = u
        y2 = tuple(y[i] + h * _A21 * k1[i] for i in range(4))
        k2 = deriv(tau + _C2 * h, y2)
        y3 = tuple(y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in range(4))
        k3 = deriv(tau + _C3 * h, y3)
        y4 = tuple(y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in range(4))
        k4 = deriv(tau + _C4 * h, y4)
        y5 = tuple(y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
                   for i in range(4))
        k5 = deriv(tau + _C5 * h, y5)
        y6 = tuple(y[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i]
                               + _A65 * k5[i]) for i in range(4))
        k6 = deriv(tau + h, y6)
        ynew = tuple(y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i]
                                 + _B6 * k6[i]) for i in range(4))
        k7 = deriv(tau + h, ynew)
        errn = 0.0
        for i in range(4):
            e = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i]
                     + _E6 * k6[i] + _E7 * k7[i])
            sc = atol + rtol * max(abs(y[i]), abs(ynew[i]))
            errn = max(errn, abs(e) / sc)
        if errn <= 1.0:
            tau += h
            u = ynew
            k1 = k7  # FSAL
            grow = 0.9 * errn ** -0.2 if errn > 1e-10 else 6.0
            h *= min(6.0, max(0.25, grow))
        else:
            h *= max(0.25, 0.9 * errn ** -0.2)
    return u


def dp5_transport(poles, vertices, rtol=1e-13, atol=1e-15):
    """Row-convention transport matrix along the polyline ``vertices``."""
    poles = list(poles)

    def q2(z):
        total = 0j
        for p, A, B in poles:
            w = z - p
            total += A / (w * w) + B / w
        return total

    sing = [p for p, _, _ in poles]
    u = (1 + 0j, 0j, 0j, 1 + 0j)
    for a, b in zip(vertices, vertices[1:]):
        u = _segment(q2, sing, a, b, u, rtol, atol)
    return (u[0], u[2], u[1], u[3])
