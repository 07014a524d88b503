"""Pullback experiments: tangent cocycles along accessory and marked-point
families, paired through the orbifold Goldman form.

The structural consequences checked at desk scale: accessory (fiber)
directions pair to ~0 with one another, the fiber-base pairing is constant
along the fiber coordinate, and the full pairing matrix is antisymmetric.
The absolute normalization against the canonical cotangent form is not
asserted (it lives in out-of-scope quasiconformal pairings).

An experiment transports and differentiates every grid point in one call
(``monodromy.transport``: every series of every grid point in one lockstep
batch, then one quadrature per kind for every tangent) and solves all their
local systems in one batch (``goldman.goldman_matrices``); each grid point's
report is bit for bit that of its offset run alone.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional, Sequence

from .cocycles import reduce_by_coboundary, tangent_cocycle
from .goldman import goldman_matrices
from .monodromy import (RELATION_TOL, MonodromyEngine, SphereData, Transport,
                        build_potential, potential_tangent, transport)
from .sl2 import Mat2, MoebiusMap


class AccessoryDirection(namedtuple("AccessoryDirection", "index scale", defaults=(1.0,))):
    """Perturb free residue ``index`` at rate ``scale``; the two dependent
    residues re-solve."""
    __slots__ = ()

    def label(self) -> str:
        return f"c{self.index}"

    def velocity(self, data: SphereData) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
        """(point velocities, accessory velocities) at ``data``."""
        acc = [0j] * data.free_dimension()
        if not 0 <= self.index < len(acc):
            raise ValueError(f"accessory index {self.index} out of range 0..{len(acc) - 1}")
        acc[self.index] = complex(self.scale)
        return (0j,) * len(data.points), tuple(acc)


class PointDirection(namedtuple("PointDirection", "velocities")):
    """Move finite marked points with the given ``velocities`` (frozen paths)."""
    __slots__ = ()

    def label(self) -> str:
        moving = [i for i, v in enumerate(self.velocities) if v != 0]
        return "t" + "".join(str(i) for i in moving)

    def velocity(self, data: SphereData) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
        """(point velocities, accessory velocities) at ``data``."""
        if len(self.velocities) != len(data.points):
            raise ValueError("velocity vector length must match finite point count")
        return tuple(complex(v) for v in self.velocities), (0j,) * data.free_dimension()


Direction = AccessoryDirection | PointDirection


def displace(data: SphereData, direction: Direction, s: complex) -> SphereData:
    dpts, dacc = direction.velocity(data)
    return build_potential([p + s * v for p, v in zip(data.points, dpts)],
                           data.orders, data.order_infinity,
                           [a + s * w for a, w in zip(data.accessory(), dacc)],
                           data.base_point)


def _abs_trace_rate(image: MoebiusMap, derivative: Mat2) -> float:
    """|d|tr|/ds| of one generator's image; families that stay on the
    character variety keep it at noise level."""
    t = image.trace()
    dt = derivative[0] + derivative[3]
    return abs((t.conjugate() * dt).real) / max(abs(t), 1e-300)


#: one grid point of a kawai experiment: the offsets along the t and the
#: accessory directions, as tuples of complex numbers
GridOffset = namedtuple("GridOffset", "t c", defaults=((), ()))


class GridResult(namedtuple("GridResult", "offset labels omega relation_residual wronskian_drift "
                            "trace_drifts cocycle_relator_residuals local_residuals kernel_dims")):
    """One grid point's report: its ``GridOffset``, the direction labels, the
    pairing matrix omega over them, and the residuals of its checks."""
    __slots__ = ()

    @property
    def scale(self) -> float:
        return max(max(abs(v) for v in row) for row in self.omega)

    @property
    def antisymmetry_defect(self) -> float:
        n = len(self.labels)
        worst = 0.0
        for i in range(n):
            for j in range(n):
                worst = max(worst, abs(self.omega[i][j] + self.omega[j][i]))
        return worst

    def pairing(self, label1: str, label2: str) -> complex:
        return self.omega[self.labels.index(label1)][self.labels.index(label2)]


def _displaced(base: SphereData, t_directions, acc_directions, offset: GridOffset
               ) -> SphereData:
    data = base
    for off, d in zip(offset.t, t_directions):
        data = displace(data, d, off)
    for off, d in zip(offset.c, acc_directions):
        data = displace(data, d, off)
    return data


def _grid_result(offset: GridOffset, labels: list[str], tr: Transport, chis, omega,
                 solves) -> GridResult:
    rho = tr.rho
    drifts = {lab: max(_abs_trace_rate(rho.images[g], dimages[g])
                       for g in rho.signature.generators)
              for lab, dimages in zip(labels, tr.images)}
    frame = rho.relator_frame
    relres = {lab: chi.along(frame.letters, frame.prefixes)[-1].norm() / max(1.0, chi.norm())
              for lab, chi in zip(labels, chis)}
    local = {k: max(s[k].residual for s in solves) for k in solves[0]}
    kdims = {k: s.kernel_dim for k, s in solves[0].items()}  # rho's alone
    return GridResult(offset, labels, omega,
                      relation_residual=rho.relator_residual(),
                      wronskian_drift=tr.drift,
                      trace_drifts=drifts,
                      cocycle_relator_residuals=relres,
                      local_residuals=local, kernel_dims=kdims)


def kawai_experiment(base: SphereData,
                     t_directions: Sequence[PointDirection],
                     grid: Sequence[GridOffset] = (GridOffset(),),
                     accessory_directions: Optional[Sequence[AccessoryDirection]] = None,
                     relation_tol: float = RELATION_TOL) -> list[GridResult]:
    """Pairing matrices of all direction pairs at each of a grid of (t, c)
    offsets, one ``GridResult`` per grid point, in the order of ``grid``.

    Paths and homotopy classes are frozen per grid point.  One ``transport``
    call takes every grid point with the tangents of every direction there:
    each lasso's stem once, each circle's monodromy exact, every series of
    every grid point in one lockstep batch, one quadrature over all stem
    steps and one over all circles.  The Goldman matrices share one batch of
    local solves (``goldman_matrices``).  Each grid point's report is bit for
    bit that of its offset run alone.  An empty grid, or no direction at
    all, is a ValueError.
    """
    if accessory_directions is None:
        accessory_directions = [AccessoryDirection(i) for i in range(base.free_dimension())]
    if not accessory_directions and not t_directions:
        raise ValueError("a kawai experiment needs at least one direction")
    if not grid:
        raise ValueError("a kawai experiment needs at least one grid point")
    for offset in grid:
        if len(offset.t) > len(t_directions) or len(offset.c) > len(accessory_directions):
            raise ValueError(f"grid offsets {offset} exceed the {len(t_directions)} t and "
                             f"{len(accessory_directions)} accessory directions")
    directions = list(accessory_directions) + list(t_directions)
    labels = [d.label() for d in directions]
    points = [_displaced(base, t_directions, accessory_directions, offset) for offset in grid]
    tangents = [[potential_tangent(data, *d.velocity(data)) for d in directions]
                for data in points]
    transports = transport([(MonodromyEngine(data), data) for data in points], relation_tol,
                           tangents)
    rhos = [tr.rho for tr in transports]
    chis = [[tangent_cocycle(tr.rho, dimages) for dimages in tr.images] for tr in transports]
    # the classes are unchanged; the pairing sums are far better conditioned
    matrices = goldman_matrices(rhos, [reduce_by_coboundary(rho, cs)
                                       for rho, cs in zip(rhos, chis)])
    # the diagonal of each matrix is a self-pairing null check
    return [_grid_result(offset, labels, tr, cs, omega, solves)
            for offset, tr, cs, (omega, solves) in zip(grid, transports, chis, matrices)]
