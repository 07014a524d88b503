import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from conftest import FOUR_CUSP_T, FOUR_CUSP_ZB, four_cusp_data, relator_walks
from oracles import direction_family, finite_difference_cocycle, moment_residuals
from charvar.cli import _grid_out
from charvar.cocycles import Cocycle, tangent_cocycle
from charvar.kawai import (AccessoryDirection, GridOffset, PointDirection,
                           _abs_trace_rate, displace, kawai_experiment)
from charvar.monodromy import build_potential, potential_tangent, transport
from charvar.serialize import complex_in, dumps_deterministic, int_in, sphere_in

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DIRECTIONS = (AccessoryDirection(0), PointDirection((0, 0, 1)))


def _experiment(config):
    """(base, t directions, grid, accessory directions) of a kawai config,
    read as ``charvar kawai`` reads it."""
    cfg = json.loads((CONFIGS / config).read_text())
    t_dirs = [PointDirection(tuple(map(complex_in, d["velocities"])))
              for d in cfg.get("t_directions", [])]
    acc = None
    if "accessory_directions" in cfg:
        acc = [AccessoryDirection(int_in(d["index"]), complex_in(d.get("scale", 1.0)))
               for d in cfg["accessory_directions"]]
    grid = [GridOffset(tuple(map(complex_in, g.get("t", []))),
                       tuple(map(complex_in, g.get("c", [])))) for g in cfg.get("grid", [{}])]
    return sphere_in(cfg["sphere"]), t_dirs, grid, acc


def _tangents(data):
    return [potential_tangent(data, *d.velocity(data)) for d in DIRECTIONS]


def test_displace_accessory_resolves_dependents():
    data = four_cusp_data(0.2 + 0.1j)
    moved = displace(data, AccessoryDirection(0), 0.05)
    assert moved.accessory()[0] == pytest.approx(0.25 + 0.1j)
    assert max(moment_residuals(moved)) < 1e-13
    assert moved.points == data.points


def test_displace_point_keeps_accessory():
    data = four_cusp_data(0.2 + 0.1j)
    moved = displace(data, PointDirection((0, 0, 1)), 0.01)
    assert moved.points[2] == pytest.approx(FOUR_CUSP_T + 0.01)
    assert moved.accessory() == data.accessory()
    assert max(moment_residuals(moved)) < 1e-13


def test_trace_drift_small_along_families(four_cusp_engine, four_cusp_rep):
    # exact d|tr|/ds from the tangents, and the 4th-order stencil of |tr| along
    # the displaced families as the independent check
    engine, data = four_cusp_engine
    ((rho, _, derivatives),) = transport([(engine.paths, data)], tangents=[_tangents(data)])
    h = 1e-3
    for d, dimages in zip(DIRECTIONS, derivatives):
        exact = max(_abs_trace_rate(rho.images[g], dimages[g])
                    for g in rho.signature.generators)
        assert exact < 1e-9
        fam = direction_family(engine.paths, data, d, four_cusp_rep)
        for g in rho.signature.generators:
            t = {k: abs(fam(k * h).images[g].trace()) for k in (-2, -1, 1, 2)}
            assert abs(t[-2] - 8 * t[-1] + 8 * t[1] - t[2]) / (12 * h) < 1e-6


@pytest.mark.parametrize("fixture", ["four_cusp", "orb3"])
def test_tangent_cocycles_match_finite_differences(fixture, request):
    engine, data = request.getfixturevalue(f"{fixture}_engine")
    rho = request.getfixturevalue(f"{fixture}_rep")
    ((_, _, derivatives),) = transport([(engine.paths, data)], tangents=[_tangents(data)])
    for d, dimages in zip(DIRECTIONS, derivatives):
        chi = tangent_cocycle(rho, dimages)
        fd = finite_difference_cocycle(direction_family(engine.paths, data, d, rho), 0, 1e-3)
        diff = max((chi.values[g] - fd.values[g]).norm() for g in chi.values)
        assert diff <= 1e-7 * max(1.0, chi.norm()), d


def test_single_grid_point_experiment():
    base = four_cusp_data()
    (res,) = kawai_experiment(base, [PointDirection((0, 0, 1))], grid=[GridOffset()])
    assert res.labels == ["c0", "t2"]
    assert res.antisymmetry_defect <= 1e-8 * res.scale
    assert res.relation_residual < 1e-6
    assert res.wronskian_drift < 1e-9
    assert max(res.trace_drifts.values()) < 1e-6
    assert max(res.cocycle_relator_residuals.values()) < 1e-6
    assert all(k == 1 for k in res.kernel_dims.values())
    # the off-diagonal pairing is the interesting number; it must be far from 0
    assert abs(res.pairing("c0", "t2")) > 1.0
    # omega(c, t) = pi*i along the fiber
    assert abs(res.pairing("c0", "t2") / (math.pi * 1j) - 1) <= 1e-9


def test_reduced_cocycles_keep_omega_accurate():
    # reduce_by_coboundary cancels each tangent cocycle ~50-fold, so its
    # rounding sets omega's: on the committed config's grid and over 40 seeded
    # offsets about it, omega(c0, t2) = pi*i to ~2e-11 (subtracting the
    # coboundary through the 3x3 adjoint matrix read 3e-11 to 4e-11 in the
    # median and up to 1e-10 on the grid)
    base, t_dirs, grid, _ = _experiment("kawai-4cusp.json")
    rng = np.random.default_rng(1)
    grid += [GridOffset(t=(complex(*0.06 * rng.standard_normal(2)),),
                        c=(complex(*0.06 * rng.standard_normal(2)),)) for _ in range(40)]
    results = kawai_experiment(base, t_dirs, grid=grid)
    errs = [abs(r.pairing("c0", "t2") / (math.pi * 1j) - 1) for r in results]
    assert max(errs[:3]) <= 5e-11, errs[:3]
    assert statistics.median(errs[3:]) <= 2.5e-11


@pytest.mark.parametrize("orders", [(2, None, None), (3, None, None),
                                    (None, None, 2), (None, None, 3)],
                         ids=["order2-at-0", "order3-at-0", "order2-at-t", "order3-at-t"])
def test_omega_is_pi_i_on_orbifolds(orders):
    # an elliptic point of order 2 or 3 at the point 0 or at t
    base = build_potential([0, 1, FOUR_CUSP_T], orders, None, [0.2 + 0.1j],
                           base_point=FOUR_CUSP_ZB)
    (res,) = kawai_experiment(base, [PointDirection((0, 0, 1))])
    assert abs(res.pairing("c0", "t2") / (math.pi * 1j) - 1) <= 1e-7
    assert res.antisymmetry_defect <= 1e-8 * res.scale


@pytest.mark.parametrize("config", ["kawai-4cusp.json", "kawai-5point.json"])
def test_grid_points_are_independent(config, monkeypatch):
    # one derivative stage and one batch of local solves take every grid
    # point; each grid point's report (omega and every residual) must be bit
    # for bit that of its offset run alone.  kawai-5point mixes cusps and
    # elliptic points (order 3, and 2 at infinity) and circles and stem
    # steps whose series differ in length within one batch
    from collections import namedtuple

    import charvar.monodromy as mono
    batches = []
    circle_tangents = mono._circle_tangents
    Circle = namedtuple("Circle", "order a")

    def recorded(series, circles, poles, tangents):
        batches.append([(i, Circle(path.order, series.coeffs[row, 0, :series.lengths[row]]))
                        for i, path, _, row in circles])
        return circle_tangents(series, circles, poles, tangents)

    monkeypatch.setattr(mono, "_circle_tangents", recorded)
    base, t_dirs, grid, acc = _experiment(config)
    results = kawai_experiment(base, t_dirs, grid=grid, accessory_directions=acc)
    assert len(grid) == 3 and len(batches) == 1
    assert sorted({i for i, _ in batches[0]}) == [0, 1, 2]
    assert len({len(cir.a) for _, cir in batches[0]}) > 1
    if config == "kawai-5point.json":
        assert {cir.order for _, cir in batches[0]} == {None, 2, 3}
    for offset, point in zip(grid, results):
        (alone,) = kawai_experiment(base, t_dirs, grid=[offset], accessory_directions=acc)
        assert dumps_deterministic(_grid_out(point)) == dumps_deterministic(
            _grid_out(alone)), offset


def test_grid_offsets_and_report_shape():
    base = four_cusp_data()
    grid = [GridOffset(t=(0.0,), c=(0.0,)), GridOffset(t=(0.02,), c=(0.01 + 0.005j,))]
    results = kawai_experiment(base, [PointDirection((0, 0, 1))], grid=grid)
    assert [r.offset for r in results] == grid
    assert [_grid_out(r)["labels"] for r in results] == [["c0", "t2"]] * 2
    assert max(r.scale for r in results) > 1.0


def test_fd_step_doubling_stability(four_cusp_engine, four_cusp_rep):
    engine, data = four_cusp_engine
    fam = direction_family(engine.paths, data, AccessoryDirection(0), four_cusp_rep)
    c1 = Cocycle(four_cusp_rep, finite_difference_cocycle(fam, 0.0, 1e-3).values)
    c2 = Cocycle(four_cusp_rep, finite_difference_cocycle(fam, 0.0, 2e-3).values)
    rel = max((c1.values[g] - c2.values[g]).norm() for g in c1.values) / c1.norm()
    assert rel < 1e-5


def test_constant_family_zero_cocycle(four_cusp_rep):
    chi = finite_difference_cocycle(lambda s: four_cusp_rep, 0.0, 1e-3)
    scale = max(max(abs(e) for e in m.tuple()) for m in four_cusp_rep.images.values())
    assert chi.norm() <= 1e-12 * scale



def test_grid_point_pairs_each_cocycle_once(monkeypatch):
    # two cocycles on four marked points at each grid point: one batch of
    # local solves for every grid point, 2 x 4 systems each (not one solve
    # per cocycle and point, nor one set per ordered pair, nor one batch per
    # grid point), one walk of the relator on rho's side per grid point, for
    # the pairing, the cocycles' relator residuals and rho's alike, and one
    # walk of it per cocycle
    import charvar.goldman as goldman
    calls = {"solve": [], "walk": 0}
    walked = relator_walks(monkeypatch)
    batch, walk = goldman.local_coboundaries, goldman._walk

    def solves(systems, tol=1e-6):
        calls["solve"].append([(len(chis), len(gens)) for _, chis, gens in systems])
        return batch(systems, tol)

    def walks(chi, frame):
        calls["walk"] += 1
        return walk(chi, frame)

    monkeypatch.setattr(goldman, "local_coboundaries", solves)
    monkeypatch.setattr(goldman, "_walk", walks)
    for grid in ([GridOffset()], [GridOffset(), GridOffset(t=(0.02,)), GridOffset(c=(0.01,))]):
        calls.update(solve=[], walk=0)
        walked.clear()
        results = kawai_experiment(four_cusp_data(), [PointDirection((0, 0, 1))], grid=grid)
        assert [r.labels for r in results] == [["c0", "t2"]] * len(grid)
        assert calls == {"solve": [[(2, 4)] * len(grid)], "walk": 2 * len(grid)}
        assert len(walked) == len(grid)
