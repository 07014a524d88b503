"""Pullback experiments: finite-difference cocycles along accessory and
marked-point families, paired through the orbifold Goldman form.

The structural consequences checked at desk scale: accessory (fiber)
directions pair to ~0 with one another, the fiber-base pairing is constant
along the fiber coordinate, and the full pairing matrix is antisymmetric.
The absolute normalization against the canonical cotangent form is not
asserted (it lives in out-of-scope quasiconformal pairings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cocycles import (Cocycle, Representation, finite_difference_cocycle,
                       reduce_by_coboundary, verify_cocycle)
from .goldman import goldman_orbifold
from .monodromy import MonodromyEngine, SphereData, build_potential


@dataclass(frozen=True)
class AccessoryDirection:
    """Perturb one free residue; the two dependent residues re-solve."""
    index: int
    scale: complex = 1.0

    def label(self) -> str:
        return f"c{self.index}"


@dataclass(frozen=True)
class PointDirection:
    """Move finite marked points with the given velocities (frozen paths)."""
    velocities: tuple[complex, ...]

    def label(self) -> str:
        moving = [i for i, v in enumerate(self.velocities) if v != 0]
        return "t" + "".join(str(i) for i in moving)


Direction = AccessoryDirection | PointDirection


def displace(data: SphereData, direction: Direction, s: complex) -> SphereData:
    acc = list(data.accessory())
    pts = list(data.points)
    if isinstance(direction, AccessoryDirection):
        acc[direction.index] += s * direction.scale
    else:
        if len(direction.velocities) != len(pts):
            raise ValueError("velocity vector length must match finite point count")
        pts = [p + s * v for p, v in zip(pts, direction.velocities)]
    return build_potential(pts, data.orders, data.order_infinity, acc, data.base_point)


def direction_family(engine: MonodromyEngine, base: SphereData, direction: Direction,
                     rho: Representation, relation_tol: float = 1e-5):
    """s -> Representation along one deformation direction, memoized so that
    stencil evaluations are reused for trace diagnostics; ``rho`` is the
    representation at s = 0 and seeds the memo."""
    cache: dict[float, Representation] = {0.0: rho}

    def family(s: float) -> Representation:
        if s not in cache:
            cache[s] = engine.representation(displace(base, direction, s),
                                             relation_tol=relation_tol)[0]
        return cache[s]

    return family


def trace_drift(family, h: float) -> float:
    """4th-order d|tr|/ds estimate per marked generator, maximized; families
    that stay on the character variety must keep this at noise level."""
    reps = {k: family(k * h) for k in (-2, -1, 1, 2)}
    worst = 0.0
    for gen in reps[1].signature.generators:
        vals = {k: abs(reps[k].images[gen].trace()) for k in reps}
        d = (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * h)
        worst = max(worst, abs(d))
    return worst


@dataclass(frozen=True)
class GridOffset:
    t: tuple[complex, ...] = ()
    c: tuple[complex, ...] = ()


@dataclass
class GridResult:
    offset: GridOffset
    labels: list[str]
    omega: list[list[complex]]
    relation_residual: float
    wronskian_drift: float
    trace_drifts: dict[str, float]
    cocycle_relator_residuals: dict[str, float]
    local_residuals: dict[str, float] = field(default_factory=dict)
    kernel_dims: dict[str, int] = field(default_factory=dict)

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

    def as_dict(self) -> dict:
        from .serialize import complex_out
        return {
            "t_offsets": [complex_out(v) for v in self.offset.t],
            "c_offsets": [complex_out(v) for v in self.offset.c],
            "labels": list(self.labels),
            "omega": [[complex_out(v) for v in row] for row in self.omega],
            "scale": self.scale,
            "antisymmetry_defect": self.antisymmetry_defect,
            "relation_residual": self.relation_residual,
            "wronskian_drift": self.wronskian_drift,
            "trace_drifts": dict(self.trace_drifts),
            "cocycle_relator_residuals": dict(self.cocycle_relator_residuals),
            "local_residuals": dict(self.local_residuals),
            "kernel_dims": dict(self.kernel_dims),
        }


@dataclass
class KawaiReport:
    base: SphereData
    h: float
    labels: list[str]
    results: list[GridResult]

    @property
    def scale(self) -> float:
        return max(r.scale for r in self.results)

    @property
    def max_antisymmetry_defect(self) -> float:
        return max(r.antisymmetry_defect for r in self.results)

    def as_dict(self) -> dict:
        return {
            "h": self.h,
            "labels": list(self.labels),
            "scale": self.scale,
            "max_antisymmetry_defect": self.max_antisymmetry_defect,
            "grid": [r.as_dict() for r in self.results],
        }


def _grid_point(base: SphereData, t_directions, acc_directions, offset: GridOffset,
                h: float, rtol: float, relation_tol: float) -> GridResult:
    data = base
    for off, d in zip(offset.t, t_directions):
        data = displace(data, d, off)
    for off, d in zip(offset.c, acc_directions):
        data = displace(data, d, off)

    engine = MonodromyEngine(data, rtol=rtol)
    rho, drift = engine.representation(relation_tol=relation_tol)

    directions = list(acc_directions) + list(t_directions)
    labels = [d.label() for d in directions]
    cocycles: list[Cocycle] = []
    drifts: dict[str, float] = {}
    relres: dict[str, float] = {}
    for d, lab in zip(directions, labels):
        fam = direction_family(engine, data, d, rho, relation_tol)
        chi = Cocycle(rho, finite_difference_cocycle(fam, 0.0, h).values)
        # the class is unchanged; the pairing sums are far better conditioned
        cocycles.append(reduce_by_coboundary(chi))
        drifts[lab] = trace_drift(fam, h)
        relres[lab] = verify_cocycle(rho, chi).relator_residual / max(1.0, chi.norm())

    n = len(directions)
    omega = [[0j] * n for _ in range(n)]
    local: dict[str, float] = {}
    kdims: dict[str, int] = {}
    for i in range(n):
        for j in range(n):
            rep = goldman_orbifold(rho, cocycles[i], cocycles[j])
            omega[i][j] = rep.value  # the diagonal is a self-pairing null check
            for k, v in rep.local_residuals.items():
                local[k] = max(local.get(k, 0.0), v)
            kdims.update(rep.kernel_dims)

    return GridResult(offset, labels, omega,
                      relation_residual=rho.relator_residual(),
                      wronskian_drift=drift,
                      trace_drifts=drifts,
                      cocycle_relator_residuals=relres,
                      local_residuals=local, kernel_dims=kdims)


def kawai_experiment(base: SphereData,
                     t_directions: Sequence[PointDirection],
                     h: float = 1e-3,
                     grid: Sequence[GridOffset] = (GridOffset(),),
                     accessory_directions: Optional[Sequence[AccessoryDirection]] = None,
                     rtol: float = 1e-12,
                     relation_tol: float = 1e-5) -> KawaiReport:
    """Pairing matrices of all direction pairs over a grid of (t, c) offsets.

    Paths and homotopy classes are frozen per grid point; each family
    evaluates the 4-point stencil against those paths.
    """
    if accessory_directions is None:
        accessory_directions = [AccessoryDirection(i) for i in range(base.free_dimension())]
    labels = [d.label() for d in list(accessory_directions) + list(t_directions)]
    results = [_grid_point(base, t_directions, accessory_directions, offset,
                           h, rtol, relation_tol) for offset in grid]
    return KawaiReport(base, h, labels, results)
