"""Host-speed probe.

On a shared 2-core VM, other tenants slow the cores by up to 2x, in phases
that last seconds to minutes, so raw wall times of identical runs differ by
10-35%.  An untraced run times ``kernel`` -- a frozen copy of the stage
arithmetic of a Dormand-Prince lasso step, owned by the benchmark so that
program changes cannot move it -- every ``EVERY_S`` seconds, also in the
middle of a call.  Each reported time is the raw time multiplied by
``(NOMINAL_S / median kernel time around it) ** ELASTICITY``: seconds at the
host speed where the kernel takes ``NOMINAL_S``.  The raw times are recorded
too.
"""

from __future__ import annotations

import signal
import statistics
import time

EVERY_S = 0.1
#: Dormand-Prince steps per kernel call
STEPS = 120
#: samples a short interval borrows from around its midpoint
NEAR = 9
#: kernel time that defines the reporting speed (about its fastest on that VM)
NOMINAL_S = 0.0012
#: d log(program time) / d log(kernel time) across contention phases,
#: measured on that VM by regression: 0.82 for kawai-4cusp passes, 0.78 for
#: goldman-g8 passes, 0.78 for monodromy-scan runs (ten seeds run twice) and
#: 0.78 for the set-up of the three workloads (a pure tuple loop as the
#: kernel gave 0.80 and 0.62)
ELASTICITY = 0.8

_POLES = ((0j, 0.25, 0.11 + 0.02j), (1 + 0j, 0.25, -0.06 + 0.01j),
          (0.3 + 0.4j, 0.25, -0.05 - 0.03j))


def _q2(z: complex) -> complex:
    total = 0j
    for p, a, b in _POLES:
        w = z - p
        total += a / (w * w) + b / w
    return total


def kernel():
    za, dz = -0.4 - 1.2j, 0.9 + 1.6j
    h = 1.0 / STEPS

    def deriv(tau, y):
        q = _q2(za + tau * dz)
        return (dz * y[2], dz * y[3], -dz * q * y[0], -dz * q * y[1])

    y = (1 + 0j, 0j, 0j, 1 + 0j)
    err = 0.0
    for n in range(STEPS):
        tau = n * h
        k1 = deriv(tau, y)
        y2 = tuple(y[i] + h * 0.2 * k1[i] for i in range(4))
        k2 = deriv(tau + 0.2 * h, y2)
        y3 = tuple(y[i] + h * (0.075 * k1[i] + 0.225 * k2[i]) for i in range(4))
        k3 = deriv(tau + 0.3 * h, y3)
        y4 = tuple(y[i] + h * (0.97 * k1[i] - 3.7 * k2[i] + 3.5 * k3[i]) for i in range(4))
        k4 = deriv(tau + 0.8 * h, y4)
        y = tuple(y[i] + h * (0.1 * k1[i] + 0.4 * k3[i] + 0.5 * k4[i]) for i in range(4))
        err = max(err, max(abs(v) for v in y))
    return y, err


class Probe:
    """Times the kernel on demand, or every ``EVERY_S`` seconds from a
    SIGALRM handler while started, so samples fall inside long calls too.
    ``clock`` is perf_counter minus the time spent in the kernel: durations
    read from it leave the probe out."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # ``clock`` at each sample
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        kernel()
        d = time.perf_counter() - t0
        self.times.append(t0 - self.spent)
        self.samples.append(d)
        self.spent += d

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a run shorter than EVERY_S
            self.sample()

    def factor_near(self, t0: float, t1: float) -> float:
        """Factor from the samples taken during [t0, t1] (``clock`` times),
        or the ``NEAR`` nearest to its midpoint if fewer were."""
        inside = [d for t, d in zip(self.times, self.samples) if t0 <= t <= t1]
        if len(inside) < NEAR:
            mid = (t0 + t1) / 2
            near = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))[:NEAR]
            inside = [self.samples[i] for i in near]
        return (NOMINAL_S / statistics.median(inside)) ** ELASTICITY
