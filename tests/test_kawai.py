import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from conftest import FOUR_CUSP_T, FOUR_CUSP_ZB, four_cusp_data, relator_walks
from oracles import direction_family, finite_difference_cocycle
from charvar.cocycles import Cocycle, tangent_cocycle
from charvar.kawai import (AccessoryDirection, GridOffset, PointDirection,
                           _abs_trace_rate, displace, kawai_experiment)
from charvar.monodromy import build_potential, potential_tangent
from charvar.serialize import complex_in, sphere_in

DIRECTIONS = (AccessoryDirection(0), PointDirection((0, 0, 1)))


def _tangents(data):
    return [potential_tangent(data, *d.velocity(data)) for d in DIRECTIONS]


def test_displace_accessory_resolves_dependents():
    data = four_cusp_data(0.2 + 0.1j)
    moved = displace(data, AccessoryDirection(0), 0.05)
    assert moved.accessory()[0] == pytest.approx(0.25 + 0.1j)
    assert max(moved.moment_residuals()) < 1e-13
    assert moved.points == data.points


def test_displace_point_keeps_accessory():
    data = four_cusp_data(0.2 + 0.1j)
    moved = displace(data, PointDirection((0, 0, 1)), 0.01)
    assert moved.points[2] == pytest.approx(FOUR_CUSP_T + 0.01)
    assert moved.accessory() == data.accessory()
    assert max(moved.moment_residuals()) < 1e-13


def test_trace_drift_small_along_families(four_cusp_engine, four_cusp_rep):
    # exact d|tr|/ds from the tangents, and the 4th-order stencil of |tr| along
    # the displaced families as the independent check
    engine, data = four_cusp_engine
    rho, _, derivatives = engine.representation(tangents=_tangents(data))
    h = 1e-3
    for d, dimages in zip(DIRECTIONS, derivatives):
        exact = max(_abs_trace_rate(rho.images[g], dimages[g])
                    for g in rho.signature.generators)
        assert exact < 1e-9
        fam = direction_family(engine, data, d, four_cusp_rep)
        for g in rho.signature.generators:
            t = {k: abs(fam(k * h).images[g].trace()) for k in (-2, -1, 1, 2)}
            assert abs(t[-2] - 8 * t[-1] + 8 * t[1] - t[2]) / (12 * h) < 1e-6


@pytest.mark.parametrize("fixture", ["four_cusp", "orb3"])
def test_tangent_cocycles_match_finite_differences(fixture, request):
    engine, data = request.getfixturevalue(f"{fixture}_engine")
    rho = request.getfixturevalue(f"{fixture}_rep")
    _, _, derivatives = engine.representation(tangents=_tangents(data))
    for d, dimages in zip(DIRECTIONS, derivatives):
        chi = tangent_cocycle(rho, dimages)
        fd = finite_difference_cocycle(direction_family(engine, data, d, rho), 0, 1e-3)
        diff = max((chi.values[g] - fd.values[g]).norm() for g in chi.values)
        assert diff <= 1e-7 * max(1.0, chi.norm()), d


def test_single_grid_point_experiment():
    base = four_cusp_data()
    rep = kawai_experiment(base, [PointDirection((0, 0, 1))], grid=[GridOffset()])
    assert rep.labels == ["c0", "t2"]
    res = rep.results[0]
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
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "kawai-4cusp.json").read_text())
    grid = [GridOffset(tuple(map(complex_in, g["t"])), tuple(map(complex_in, g["c"])))
            for g in cfg["grid"]]
    rng = np.random.default_rng(1)
    grid += [GridOffset(t=(complex(*0.06 * rng.standard_normal(2)),),
                        c=(complex(*0.06 * rng.standard_normal(2)),)) for _ in range(40)]
    rep = kawai_experiment(sphere_in(cfg["sphere"]), [PointDirection((0, 0, 1))], grid=grid)
    errs = [abs(r.pairing("c0", "t2") / (math.pi * 1j) - 1) for r in rep.results]
    assert max(errs[:3]) <= 5e-11, errs[:3]
    assert statistics.median(errs[3:]) <= 2.5e-11


@pytest.mark.parametrize("orders", [(2, None, None), (3, None, None),
                                    (None, None, 2), (None, None, 3)],
                         ids=["order2-at-0", "order3-at-0", "order2-at-t", "order3-at-t"])
def test_omega_is_pi_i_on_orbifolds(orders):
    # an elliptic point of order 2 or 3 at the point 0 or at t
    base = build_potential([0, 1, FOUR_CUSP_T], orders, None, [0.2 + 0.1j],
                           base_point=FOUR_CUSP_ZB)
    res = kawai_experiment(base, [PointDirection((0, 0, 1))]).results[0]
    assert abs(res.pairing("c0", "t2") / (math.pi * 1j) - 1) <= 1e-7
    assert res.antisymmetry_defect <= 1e-8 * res.scale


def test_grid_offsets_and_report_shape():
    base = four_cusp_data()
    grid = [GridOffset(t=(0.0,), c=(0.0,)), GridOffset(t=(0.02,), c=(0.01 + 0.005j,))]
    rep = kawai_experiment(base, [PointDirection((0, 0, 1))], grid=grid)
    assert len(rep.results) == 2
    d = rep.as_dict()
    assert len(d["grid"]) == 2
    assert d["labels"] == ["c0", "t2"]
    assert rep.scale > 1.0


def test_fd_step_doubling_stability(four_cusp_engine, four_cusp_rep):
    engine, data = four_cusp_engine
    fam = direction_family(engine, data, AccessoryDirection(0), four_cusp_rep)
    c1 = Cocycle(four_cusp_rep, finite_difference_cocycle(fam, 0.0, 1e-3).values)
    c2 = Cocycle(four_cusp_rep, finite_difference_cocycle(fam, 0.0, 2e-3).values)
    rel = max((c1.values[g] - c2.values[g]).norm() for g in c1.values) / c1.norm()
    assert rel < 1e-5


def test_constant_family_zero_cocycle(four_cusp_rep):
    chi = finite_difference_cocycle(lambda s: four_cusp_rep, 0.0, 1e-3)
    scale = max(max(abs(e) for e in m.tuple()) for m in four_cusp_rep.images.values())
    assert chi.norm() <= 1e-12 * scale



def test_grid_point_pairs_each_cocycle_once(monkeypatch):
    # two cocycles on four marked points: one batch of 2 x 4 local solves
    # (not one solve per cocycle and point, 8, nor one set per ordered pair,
    # 16), one walk of the relator on rho's side, for the pairing, the
    # cocycles' relator residuals and rho's alike, and one walk of it per
    # cocycle
    import charvar.goldman as goldman
    calls = {"solve": [], "walk": 0}
    walked = relator_walks(monkeypatch)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    batch = goldman.local_coboundaries

    def solves(rho, chis, gens, tol=1e-6):
        calls["solve"].append((len(chis), len(gens)))
        return batch(rho, chis, gens, tol)

    monkeypatch.setattr(goldman, "local_coboundaries", solves)
    monkeypatch.setattr(goldman, "_walk", counting("walk", goldman._walk))
    rep = kawai_experiment(four_cusp_data(), [PointDirection((0, 0, 1))])
    assert rep.labels == ["c0", "t2"]
    assert calls == {"solve": [(2, 4)], "walk": 2}
    assert len(walked) == 1
