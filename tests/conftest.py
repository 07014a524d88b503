import cmath
import copy
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from charvar.cocycles import Representation, local_coboundaries
from charvar.kawai import AccessoryDirection, GridOffset, PointDirection
from charvar.monodromy import (MonodromyEngine, _assemble, _circle_row, _circle_tangents,
                               _lassos, _local_monodromy, _lockstep, _row, _stem, _step_row,
                               _step_tangents, _transfer, _transport, build_potential)
from charvar.serialize import complex_in, int_in, sphere_in
from charvar.sl2 import MoebiusMap
from charvar.words import Signature, relator


#: the routes by which a value is copied: copy, deepcopy and a pickle round trip
COPIES = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]


def rand_sl2(rng) -> MoebiusMap:
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return MoebiusMap(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def make_genus1_rep(seed=0) -> Representation:
    # the torus group is abelian: commuting diagonals give an exact relator
    rng = np.random.default_rng(seed)
    lam = 1.3 + 0.4j + 0.2 * (rng.standard_normal() + 1j * rng.standard_normal())
    mu = 0.7 - 0.9j + 0.2 * (rng.standard_normal() + 1j * rng.standard_normal())
    A = MoebiusMap(lam, 0, 0, 1 / lam, normalize=False)
    B = MoebiusMap(mu, 0, 0, 1 / mu, normalize=False)
    return Representation(Signature(1), {"a1": A, "b1": B})


def make_genus2_rep(seed=11) -> Representation:
    """Exact genus-2 representation: pick A1, B1 at random and solve
    [A2, B2] = [A1, B1]^{-1} (trace matching plus a conjugation solve)."""
    return make_closed_rep(2, seed)


def near_identity_sl2(rng, scale=0.3) -> MoebiusMap:
    """exp of a random traceless matrix with entries of size ~scale."""
    x = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    d = cmath.sqrt(x[0] * x[0] + x[1] * x[2])
    s = cmath.sinh(d) / d
    return MoebiusMap(cmath.cosh(d) + s * x[0], s * x[1], s * x[2],
                      cmath.cosh(d) - s * x[0], normalize=False)


def make_closed_rep(g, seed=11, draw=rand_sl2) -> Representation:
    """Exact genus-g representation: handles 1..g-1 from ``draw``, the last
    handle solved from [A_g, B_g] = (prod_{k<g} [A_k, B_k])^{-1}."""
    rng = np.random.default_rng(seed)
    while True:
        images = {}
        W = MoebiusMap.identity()
        for k in range(1, g):
            A, B = draw(rng), draw(rng)
            images[f"a{k}"], images[f"b{k}"] = A, B
            W = W @ A @ B @ A.inverse() @ B.inverse()
        for A, B in _closing_handles(W.inverse(), rng):
            images[f"a{g}"], images[f"b{g}"] = A, B
            rho = Representation(Signature(g), dict(images))
            if rho.relator_residual() < 1e-12:
                return rho


def relator_walks(monkeypatch) -> list:
    """The representation of every ``word_images`` walk of the relator made
    from now on, in order."""
    import charvar.cocycles as cocycles
    walked = []
    walk = cocycles.word_images

    def counted(rho, w):
        if w == relator(rho.signature):
            walked.append(rho)
        return walk(rho, w)

    monkeypatch.setattr(cocycles, "word_images", counted)
    return walked


def _closing_handles(W, rng):
    """Candidate pairs (A, B) with [A, B] = W; none when this draw is badly
    conditioned."""
    Wm = np.array([[W.a, W.b], [W.c, W.d]])
    D = Wm - np.eye(2)
    if abs(D[1, 1]) < 0.2:
        return
    B2m = None
    for _ in range(40):
        x11, x12, x21 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x22 = -(D[0, 0] * x11 + D[0, 1] * x21 + D[1, 0] * x12) / D[1, 1]
        X = np.array([[x11, x12], [x21, x22]])
        det = np.linalg.det(X)
        if abs(det) > 0.1:
            B2m = X / np.sqrt(det)
            break
    if B2m is None:
        return
    B2p = Wm @ B2m
    M = np.zeros((4, 4), dtype=complex)  # A2 B2 - B2' A2 = 0, row per entry
    for i in range(2):
        for j in range(2):
            r = 2 * i + j
            for k in range(2):
                M[r, 2 * i + k] += B2m[k, j]
                M[r, 2 * k + j] -= B2p[i, k]
    _, s, vh = np.linalg.svd(M)
    null = vh[s < 1e-8 * s[0]].conj()
    if null.shape[0] == 0:
        return
    for _ in range(40):
        co = rng.standard_normal(null.shape[0]) + 1j * rng.standard_normal(null.shape[0])
        A2m = (co @ null).reshape(2, 2)
        det = np.linalg.det(A2m)
        if abs(det) > 0.1:
            A2m = A2m / np.sqrt(det)
            yield (MoebiusMap(A2m[0, 0], A2m[0, 1], A2m[1, 0], A2m[1, 1]),
                   MoebiusMap(B2m[0, 0], B2m[0, 1], B2m[1, 0], B2m[1, 1]))


def lasso_polyline(path, arc_segments=16):
    """The full polyline of a lasso: out along the stem, round its circle
    (counterclockwise, or clockwise with 4x the segments about infinity) and
    back, for the transports that integrate the whole loop."""
    zb, entry = path.stem
    radius, start = abs(entry - path.centre), cmath.phase(entry - path.centre)
    n, sgn = (4 * arc_segments, -1) if path.target == "inf" else (arc_segments, 1)
    circle = [path.centre + radius * cmath.exp(1j * (start + sgn * 2 * math.pi * k / n))
              for k in range(1, n + 1)]
    return [zb, entry] + circle + [zb]


def _integrals(quadrature, series, items, poles, tangents, count):
    """The integrals per tangent of one ``quadrature`` call over ``items``
    of one representation, by row of its batch of ``count`` rows: the
    ``ints`` that ``_assemble`` reads (all empty without tangents)."""
    ints = [()] * count
    if tangents:
        for item, x in zip(items, quadrature(series, items, np.array([poles], dtype=complex),
                                             np.array([tangents], dtype=complex))):
            ints[item[-1]] = x
    return ints


def transport(poles, vertices, tangents=()):
    """(M, [dM per tangent]) along a polyline in the row convention: the
    transport of one stem, planned (``_transport``), summed in one batch,
    its tangents integrated by one ``_step_tangents`` call and accumulated
    (``_stem``)."""
    rows, steps = [], []
    _transport(poles, vertices, rows, steps)
    series = _lockstep(rows) if rows else None
    ints = _integrals(_step_tangents, series, [(0, *step) for step in steps], poles, tangents,
                      len(rows))
    u, du = _stem(steps, series, ints, len(tangents))
    return _row(u), [_row(d) for d in du]


def transfers(poles, steps, tangents=()):
    """(T, [dT per tangent], series length) of ``_transfer`` for each step
    (z0, h) of ``steps``, their series summed in one batch and their
    tangents integrated by one ``_step_tangents`` call."""
    rows = []
    planned = [(z0, h, _step_row(poles, z0, h, rows)) for z0, h in steps]
    series = _lockstep(rows)
    ints = _integrals(_step_tangents, series, [(0, *step) for step in planned], poles, tangents,
                      len(rows))
    return [(*_transfer(z0, h, series, row, ints[row]), series.lengths[row])
            for z0, h, row in planned]


def local_monodromies(poles, paths, tangents=()):
    """(C, drift, [E per tangent]) of ``_local_monodromy`` for the circle of
    each of ``paths``, their Frobenius
    series summed in one batch and their tangents integrated by one
    ``_circle_tangents`` call."""
    rows = []
    circles = [_circle_row(poles, path, rows) for path in paths]
    series = _lockstep(rows)
    ints = _integrals(_circle_tangents, series,
                      [(0, path, circle[0], circle[-1]) for path, circle in zip(paths, circles)],
                      poles, tangents, len(rows))
    return [_local_monodromy(path, circle, series, ints[circle[-1]])
            for path, circle in zip(paths, circles)]


def lassos(poles, paths, tangents=()):
    """(images, drift, [dL per tangent] per lasso) of one representation
    with its derivatives along ``tangents``: the ``_lassos`` batch of this
    one job, assembled (``_assemble``)."""
    (plan,), series, ints = _lassos([(poles, paths)], [tangents])
    return _assemble(plan, series, ints, len(tangents))


def local_solves(rho, chis, gens, tol=1e-6):
    """[[LocalSolve per generator name of ``gens``] per cocycle of ``chis``]:
    ``local_coboundaries`` of the one system (rho, chis, gens)."""
    return local_coboundaries([(rho, chis, gens)], tol)[0]


def thrice_punctured_rep() -> Representation:
    # exact parabolic triple: c1 c2 c3 = 1 with all |traces| = 2
    c1 = MoebiusMap(1, 2, 0, 1, normalize=False)
    c2 = MoebiusMap(1, 0, -2, 1, normalize=False)
    c3 = (c1 @ c2).inverse()
    sig = Signature(0, (None,) * 3)
    return Representation(sig, {"c1": c1, "c2": c2, "c3": c3})


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def kawai_inputs(config):
    """(base, t directions, grid, accessory directions) of the committed
    kawai config named ``config``, read as ``charvar kawai`` reads it."""
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


FOUR_CUSP_T = 0.3 + 0.4j
FOUR_CUSP_ZB = 0.5 - 1.5j


def four_cusp_data(accessory=0.2 + 0.1j):
    return build_potential([0, 1, FOUR_CUSP_T], [None, None, None], None,
                           [accessory], base_point=FOUR_CUSP_ZB)


def orb3_data(accessory=0.2 + 0.1j):
    # lasso order from this base point is (1, t, 0, inf): order 3 at the point
    # 0 lands at generator c3, signature orders (inf, inf, 3, inf)
    return build_potential([0, 1, FOUR_CUSP_T], [3, None, None], None,
                           [accessory], base_point=FOUR_CUSP_ZB)


@pytest.fixture(scope="session")
def four_cusp_engine():
    data = four_cusp_data()
    return MonodromyEngine(data), data


@pytest.fixture(scope="session")
def four_cusp_rep(four_cusp_engine):
    engine, _ = four_cusp_engine
    return engine.representation()[0]


@pytest.fixture(scope="session")
def orb3_engine():
    data = orb3_data()
    return MonodromyEngine(data), data


@pytest.fixture(scope="session")
def orb3_rep(orb3_engine):
    engine, _ = orb3_engine
    return engine.representation()[0]


@pytest.fixture(scope="session")
def genus2_rep():
    return make_genus2_rep()


@pytest.fixture(scope="session")
def genus1_rep():
    return make_genus1_rep()
