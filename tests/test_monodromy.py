import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (FOUR_CUSP_T, FOUR_CUSP_ZB, four_cusp_data, lasso_polyline, lassos,
                      local_monodromies, transfers, transport)
from oracles import moment_residuals, q, q_jet
import charvar.monodromy as mono
from charvar.monodromy import (_MAX_TERMS, IntegrationError, LoopPath, MonodromyEngine,
                               OrderingError, _at_nodes, _circle_row, _lockstep, _powers,
                               _ray_rule, _row, _step_row, _transport, build_lassos,
                               build_potential, gauss_legendre, potential_tangent, theta_of,
                               wronskian_drift)
from charvar.serialize import sphere_in
from charvar.sl2 import MoebiusMap, mat_mul

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestPotential:
    def test_three_cusp_residues(self):
        data = build_potential([0, 1], [None, None], None, [])
        assert data.residues == pytest.approx((0.5, -0.5))
        assert moment_residuals(data) == pytest.approx((0, 0), abs=1e-14)

    def test_four_cusp_residues(self):
        # points {0,1,t,inf} all cusps, accessory c at t:
        # m_t = c, m_1 = -1 - c t, m_0 = 1 + c t - c
        t, c = 0.3 + 0.4j, 0.2 - 0.7j
        data = build_potential([0, 1, t], [None] * 3, None, [c])
        m0, m1, mt = data.residues
        assert mt == c
        assert abs(m1 - (-1 - c * t)) < 1e-14
        assert abs(m0 - (1 + c * t - c)) < 1e-14
        assert max(moment_residuals(data)) < 1e-14

    def test_elliptic_theta(self):
        assert theta_of(None) == 1.0
        assert theta_of(6) == pytest.approx(35 / 36)
        data = build_potential([0, 1], [6, None], None, [])
        # sum m p = (theta_inf - theta_0 - theta_1)/2 = (1 - 35/36 - 1)/2
        target = (1 - 35 / 36 - 1) / 2
        assert sum(m * p for m, p in zip(data.residues, data.points)) == pytest.approx(target)

    def test_free_dimension_matches_signature(self):
        data = four_cusp_data()
        assert data.free_dimension() == 1  # d = 3*0 - 3 + 0 + 4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_potential([0, 1], [None, None], None, [1.0])  # wrong accessory count
        with pytest.raises(ValueError):
            build_potential([0, 0], [None, None], None, [])
        with pytest.raises(ValueError):
            build_potential([0], [None], None, [])

    def test_replace_validates_as_construction(self):
        # a sphere is a value: a replaced copy is a new sphere, equal and of
        # equal hash where no field changed, and checked as a new one is
        data = four_cusp_data()
        same = data.replace()
        assert same is not data and same == data and hash(same) == hash(data)
        moved = data.replace(points=(0, 1, 0.5 + 0.5j))
        assert moved.points == (0, 1, 0.5 + 0.5j) and moved.residues == data.residues
        assert moved != data
        for bad, message in ((dict(points=(0, 0, 1)), "distinct"),
                             (dict(base_point=data.points[2]), "lies on marked point 2"),
                             (dict(residues=data.residues[:2]), "length mismatch"),
                             (dict(orders=(None, None, 10 ** 9)), "maximum")):
            with pytest.raises(ValueError, match=message):
                data.replace(**bad)
        with pytest.raises(TypeError):
            data.replace(accessory=(0.1,))

    def test_q_jet_matches_values(self):
        data = four_cusp_data()
        j = q_jet(data, 0.4 - 0.8j, 6)
        assert abs(j.value - q(data, 0.4 - 0.8j)) < 1e-12
        eps = 1e-5
        fd = (q(data, 0.4 - 0.8j + eps) - q(data, 0.4 - 0.8j - eps)) / (2 * eps)
        assert abs(j.derivative().value - fd) < 1e-6


def _euler_transport(order):
    """Closed-form row transport from 1 to 2 of psi'' + (theta/4) z^-2 psi = 0,
    whose solutions are z^alpha, alpha = (1 +- 1/o)/2 (cusp: z^(1/2) and
    z^(1/2) log z)."""
    if order is None:
        r2 = math.sqrt(2)
        phi1 = (r2, 1 / (2 * r2))  # z^(1/2): value and slope at 2
        phi2 = (r2 * math.log(2), (math.log(2) + 2) / (2 * r2))  # z^(1/2) log z
        # (psi, psi') = (1, 0) at 1 is phi1 - phi2/2; (0, 1) is phi2
        psi_a = (phi1[0] - phi2[0] / 2, phi1[1] - phi2[1] / 2)
        return (psi_a[0], psi_a[1], phi2[0], phi2[1])
    a1, a2 = (1 + 1 / order) / 2, (1 - 1 / order) / 2

    def at_two(c1, c2):
        return (c1 * 2 ** a1 + c2 * 2 ** a2,
                c1 * a1 * 2 ** (a1 - 1) + c2 * a2 * 2 ** (a2 - 1))

    psi_a = at_two(-a2 / (a1 - a2), a1 / (a1 - a2))
    psi_b = at_two(1 / (a1 - a2), -1 / (a1 - a2))
    return psi_a + psi_b


class TestTransport:
    def test_flat_case(self):
        # q = 0: transport over 0 -> 1 in the row convention is [[1,0],[1,1]]
        m, _ = transport([], [0, 1])
        assert max(abs(x - y) for x, y in zip(m, (1, 0, 1, 1))) < 1e-12

    def test_euler_transport_closed_form(self):
        for order in (2, 3, 6, None):
            m, _ = transport([(0, theta_of(order) / 4, 0)], [1, 2])
            want = _euler_transport(order)
            assert max(abs(x - y) for x, y in zip(m, want)) < 1e-12, order
            assert wronskian_drift(m) < 1e-12

    def test_wronskian_closed_loop(self, four_cusp_engine):
        engine, _ = four_cusp_engine
        _, drift, _ = engine.representation()
        assert drift < 1e-9

    def test_step_underflow_near_pole(self):
        data = four_cusp_data()
        with pytest.raises(IntegrationError, match="runs into a pole"):
            transport(data.half_q_terms(), [FOUR_CUSP_ZB, 0.0])

    @pytest.mark.parametrize("end", [1e160, -1e200j, 1e308])
    def test_squared_length_overflow_raises(self, end):
        # a finite vertex whose squared distance overflows: a named
        # IntegrationError that gives the vertex, not an OverflowError
        with pytest.raises(IntegrationError, match=re.escape(f"step overflow on the path to "
                                                             f"{complex(end):.6g}")):
            transport([(0, 0.25, 0.1)], [1, end])

    def test_non_finite_series_raises(self):
        # a residue of 1e200 overflows the Taylor coefficients of a step from
        # 1 and the Frobenius coefficients at the cusp 0
        runs = {"Taylor series at 1+0j":
                lambda: transport([(0, 0.25, 1e200)], [1, 1j]),
                "Frobenius series at 0":
                lambda: local_monodromies([(0, 0.25, 1e200)], [LoopPath((2, 1), 0, 0, None)])}
        for name, run in runs.items():
            with pytest.raises(IntegrationError, match=re.escape(f"non-finite {name}")):
                run()

    def test_divergent_series_raises(self, monkeypatch):
        # a term cap below what the a-priori count asks for: the Frobenius
        # series at the order-3 point 0 converge like (0.5 / 2)^n
        import charvar.monodromy as mono
        monkeypatch.setattr(mono, "_MAX_TERMS", 8)
        poles = [(0, theta_of(3) / 4, 0.1), (2, 0.25, -0.1)]
        runs = {"Taylor series at 1+0j":
                lambda: transport([(0, 0.25, 0.1)], [1, 1.5]),
                "Frobenius series at 0":
                lambda: local_monodromies(poles, [LoopPath((1j, 0.5), 0, 0, 3)])}
        for name, run in runs.items():
            with pytest.raises(IntegrationError,
                               match=re.escape(f"{name} did not converge in 8 terms")):
                run()

    def test_huge_residue_raises(self):
        # finite, but the solutions grow like exp(1e3): the transport overflows
        with pytest.raises(IntegrationError):
            transport([(0, 0.25, 1e6)], [1, 1j])


def test_euler_loop_traces():
    # the loop around the single pole 0 multiplies z^alpha by exp(2 pi i alpha):
    # trace -2 cos(pi/o), and -2 at a cusp
    square = [1, 1j, -1, -1j, 1]
    for order in (2, 3, 6, None):
        m, _ = transport([(0, theta_of(order) / 4, 0)], square)
        want = -2 * math.cos(math.pi / order) if order else -2.0
        assert abs(m[0] + m[3] - want) < 1e-12, order


def _sphere(source):
    """A committed sphere config, or a seeded 5-point sphere drawn as the
    benchmark's scan draws them (orders from {cusp, 2, 3, 4, 6})."""
    if isinstance(source, str):
        cfg = json.loads((CONFIGS / source).read_text())
        return sphere_in(cfg.get("sphere", cfg))
    rng = np.random.default_rng(source)
    points = [complex(x, y) for x, y in rng.uniform(-1.0, 1.0, size=(5, 2))]
    orders = [(None, 2, 3, 4, 6)[int(i)] for i in rng.integers(0, 5, size=6)]
    accessory = [complex(x, y) for x, y in 0.2 * rng.standard_normal((3, 2))]
    return build_potential(points, orders[:5], orders[5], accessory)


def test_transport_against_dp5_oracle():
    # dual-route check: adaptive Dormand-Prince 5(4) round the whole polyline
    # of every lasso, against the Taylor transport of the same polyline and
    # against the lasso image from one stem and the exact local monodromy
    from dp5 import dp5_transport

    for config in ("kawai-4cusp.json", "sphere-elliptic3.json"):
        data = _sphere(config)
        poles = data.half_q_terms()
        for path in build_lassos(data):
            ref = dp5_transport(poles, lasso_polyline(path))
            scale = max(abs(x) for x in ref)
            m, _ = transport(poles, lasso_polyline(path))
            image = _row(lassos(poles, [path])[0][0])
            for got in (m, image):
                assert max(abs(x - y) for x, y in zip(got, ref)) <= 1e-11 * scale, \
                    (config, path.target)


# seed 0 draws a sphere whose stem misses the clearance (OrderingError)
@pytest.mark.parametrize("source", ["sphere-elliptic3.json", "sphere-4cusp.json", 1, 2, 3])
def test_lasso_traces_are_exact(source):
    # the local monodromy is exact, so a lasso's trace is -2 cos(pi/o) (a
    # cusp: -2) up to the rounding of S^-1 C S
    data = _sphere(source)
    poles = data.half_q_terms()
    for path in build_lassos(data):
        m = _row(lassos(poles, [path])[0][0])
        want = -2 * math.cos(math.pi / path.order) if path.order else -2.0
        bound = 1e-14 * max(1.0, max(abs(x) for x in m)) ** 2
        assert abs(m[0] + m[3] - want) <= bound, (source, path.target)


def _recorded_steps(monkeypatch, run):
    """Every step (z0, h) that ``run()`` transports and the T its transport
    took from the lockstep batch, in one (poles, tangents, [(z0, h), ...],
    [T, ...]) batch per representation: the steps of all its stems, with the
    tangents its call (``_lassos``) takes for it."""
    batches, jobs = [], []
    lassos, assemble, transfer = mono._lassos, mono._assemble, mono._transfer

    def planned(calls, tangents=()):  # the poles and tangents of a call's jobs
        jobs[:] = [(poles, [[tuple(map(complex, v)) for v in t]
                            for t in (tangents[i] if any(tangents) else [])])
                   for i, (poles, _) in enumerate(calls)]
        return lassos(calls, tangents)

    def assembled(plan, series, ints, count):  # one batch per job, filled as it is assembled
        batches.append((*jobs.pop(0), [], []))
        return assemble(plan, series, ints, count)

    def transferred(z0, h, series, row, ints):
        T, dts = transfer(z0, h, series, row, ints)
        batches[-1][2].append((z0, h))
        batches[-1][3].append(T)
        return T, dts
    with monkeypatch.context() as patch:
        patch.setattr(mono, "_lassos", planned)
        patch.setattr(mono, "_assemble", assembled)
        patch.setattr(mono, "_transfer", transferred)
        run()
    return [batch for batch in batches if batch[2]]


def _kawai_steps(monkeypatch, capsys):
    """The kawai config's steps, one batch per grid point: 4 stems each,
    48 steps in all, each batch carrying both tangents of its grid point."""
    from charvar.cli import main

    batches = _recorded_steps(monkeypatch, lambda: main(
        ["kawai", "--input", str(CONFIGS / "kawai-4cusp.json")]))
    capsys.readouterr()
    assert len(batches) == 3 and sum(len(steps) for _, _, steps, _ in batches) == 48
    assert all(len(t) == 2 for _, t, _, _ in batches)
    return batches


def _flat(batches):
    return [(poles, z0, h, T) for poles, _, steps, ts in batches
            for (z0, h), T in zip(steps, ts, strict=True)]


def _bits(values):
    """The bit patterns of complex numbers: equal only if equal bit for bit,
    signed zeros included."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64).tolist()


#: worst cases of the step rule: z0 = 0, h = 1/2 and a pole straight ahead at
#: 1, so x = 1/3; a cusp (A = 1/4) or an order-3 point (A = 2/9) with |B| up
#: to 20 there, and an order-3 point and a cusp off the path
WORST_STEPS = [[(1.0 + 0j, A, B), (-0.9 + 0.5j, 2 / 9, -B / 2), (0.2 - 1.1j, 1 / 4, 1 - 2j)]
               for A in (1 / 4, 2 / 9) for B in (20 + 0j, -20j, 3 - 4j, 0j)]
#: a motion (dp, dB) of the pole ahead, a change of its residue, and both at
#: once on every pole
WORST_TANGENTS = [[(0.7 - 0.4j, 0j), (0j, 0j), (0j, 0j)],
                  [(0j, 1 - 2j), (0j, 0j), (0j, 0j)],
                  [(0.3 + 0.1j, -2j), (1j, 0.5 + 0j), (-0.2 + 0j, 1 + 0j)]]


#: real and imaginary parts for the complex-product grid: signed zeros,
#: infinities, a NaN, subnormals, the ends of the range and plain numbers
PRODUCT_PARTS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e300, -1e-300,
                 1.5, -3.25]


def test_pmul_is_the_cpython_complex_product():
    # the lockstep's two product forms round every product as CPython does,
    # bit for bit (signed zeros, infinities and NaN bits included), in the
    # broadcasts of the lockstep and on planes that may be strided views:
    # _pmul, a complex x held as stacked (re, im) planes times a complex y
    # given as its two planes, and _rmul, a real factor f (a float array or
    # a Python float) times a stacked x, which CPython takes as (f, 0.0) x
    from charvar.monodromy import _pmul, _rmul

    zs = np.array([complex(a, b) for a in PRODUCT_PARTS for b in PRODUCT_PARTS])
    reals = np.array(PRODUCT_PARTS)
    n, r = len(zs), len(reals)

    def strided(values, shape):  # a non-contiguous view
        return np.broadcast_to(values, shape).copy().T.copy().T

    def planes(x):  # stacked (re, im) planes on a new axis 0, a strided view
        return strided(np.stack((x.real, x.imag)), (2, *x.shape))

    def cpython(xs, ys, got):
        xs, ys = np.broadcast_arrays(xs, ys)
        assert got.shape == (2, *xs.shape)
        values = np.empty(xs.shape, dtype=complex)
        values.real, values.imag = got
        want = [complex(a) * complex(b) for a, b in zip(xs.ravel().tolist(), ys.ravel().tolist())]
        assert _bits(values.ravel()) == _bits(want), (np.shape(xs), np.shape(ys))

    complex_cases = [
        # pw (poles x 1 x rows) times (u, v, r) (poles x 3 x rows): every pair
        (strided(zs.reshape(n, 1, 1), (n, 1, n)),
         np.stack((strided(zs, (n, n)), strided(zs[::-1], (n, n)),
                   np.roll(strided(zs, (n, n)), 3, axis=1)), axis=1)),
        # P_0, ..., P_j (terms x lists x rows) times c_j, ..., c_0
        (zs[:120].reshape(3, 2, 20), strided(zs[::-1][:120].reshape(3, 2, 20), (3, 2, 20))),
    ]
    with np.errstate(all="ignore"):
        for x, y in complex_cases:
            out = np.empty((2, *np.broadcast_shapes(x.shape, y.shape)))
            cpython(x, y, _pmul(planes(x), y.real, y.imag, out))
        real_cases = [
            (np.repeat(reals, n), np.tile(zs, r).reshape(1, -1)),  # j + k, rows
            (np.stack((np.repeat(reals, n), np.repeat(reals[::-1], n))),  # -1/(n(n+e)),
             np.stack((np.tile(zs, r), np.tile(zs[::-1], r)))),  # lists x rows
            (reals[:, None], strided(zs, (r, n))),  # n, terms x (lists x rows)
            *[(f, zs.reshape(1, n)) for f in PRODUCT_PARTS],  # a Python float: 2.0 n
        ]
        for f, x in real_cases:
            cpython(f, x, _rmul(f, planes(x)))


def _relative_gap(got, ref):
    return max(abs(x - y) for x, y in zip(got, ref)) / max(abs(x) for x in ref)


def test_untangented_step_is_bit_identical_to_the_series(monkeypatch, capsys):
    # a planned step's T, summed in the lockstep batch of every step and
    # circle of its transport, is bit for bit that of the differentiated-
    # series reference, which sums the same recursion in the same order, one
    # series alone: on every step of the kawai config (one batch for its
    # three grid points) and of three seeded 5-point spheres
    from taylor_reference import reference_transfer

    steps = _flat(_kawai_steps(monkeypatch, capsys))
    for seed in (1, 2, 3):
        steps += _flat(_recorded_steps(monkeypatch,
                                       lambda: MonodromyEngine(_sphere(seed)).representation()))
    assert len(steps) > 100
    for poles, z0, h, T in steps:
        ref, dts = reference_transfer(poles, [], z0, h)
        assert _bits(T) == _bits(ref) and dts == []


def _batch_tangents(poles, tangents, steps):
    """dT per tangent for each (z0, h) of one batch, by one ``_step_tangents``
    call over the steps' summed series."""
    return [dts for _, dts, _ in transfers(poles, steps, tangents)]


def test_step_tangents_match_the_differentiated_series(monkeypatch, capsys):
    # the Gauss-Legendre integral against the differentiated recursion, on
    # every kawai step, each representation's steps in one batch, and on the worst
    # cases the step rule allows
    from taylor_reference import reference_transfer

    batches = [(poles, tangents, steps) for poles, tangents, steps, _
               in _kawai_steps(monkeypatch, capsys)]
    # a batch's series differ in length, so it pads the shorter ones
    lengths = [{n for *_, n in transfers(poles, steps)} for poles, _, steps in batches]
    assert all(len(ls) > 1 for ls in lengths) and min(map(min, lengths)) < max(map(max, lengths))
    batches += [(poles, WORST_TANGENTS, [(0j, 0.5 + 0j)]) for poles in WORST_STEPS]
    for poles, tangents, steps in batches:
        for (z0, h), dts in zip(steps, _batch_tangents(poles, tangents, steps), strict=True):
            _, refs = reference_transfer(poles, tangents, z0, h)
            assert len(dts) == len(refs) == len(tangents)
            for dt, ref in zip(dts, refs):
                assert _relative_gap(dt, ref) <= 1e-13, (poles, z0, h)


def test_gauss_legendre_rule_is_exact_on_polynomials():
    # the Taylor steps' and rays' 16 nodes and the Lambda4 solver's 32
    for m in (16, 32):
        nodes, weights = gauss_legendre(m)
        assert len(nodes) == len(set(nodes)) == m and all(-1 < t < 1 for t in nodes)
        assert nodes[1::2] == tuple(-t for t in nodes[::2]) and weights[1::2] == weights[::2]
        for k in range(2 * m):
            exact = 2 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(sum(w * t ** k for t, w in zip(nodes, weights)) - exact) <= 1e-15, (m, k)
    _assert_power_table(gauss_legendre(16)[0], _powers(gauss_legendre(16)[0]))


def test_node_values_do_not_depend_on_the_batch():
    # a batch pads its series with zeros to the longest; the values of each
    # series at the nodes must be bit for bit those of its batch of one, also
    # once the longest passes 128 terms, where OpenBLAS sums a dot product in
    # blocks whose bounds move with the length
    rng = np.random.default_rng(12)
    nodes, _ = gauss_legendre(16)
    powers = _powers(nodes)
    lengths = [20, 60, 100, 128, 140, 300]
    coeffs = np.zeros((len(lengths), 2, max(lengths)), dtype=complex)
    for k, n in enumerate(lengths):
        coeffs[k, :, :n] = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    series = mono._Series(coeffs, lengths, [None] * len(lengths), [], _MAX_TERMS)
    alone = [_at_nodes(series, [k], powers) for k in range(len(lengths))]
    for count in (5, 6):
        together = _at_nodes(series, list(range(count)), powers)
        for k, values in enumerate(alone[:count]):
            assert together[:, k].tolist() == values[:, 0].tolist(), lengths[k]


def _assert_power_table(nodes, powers):
    # t^k at every node for every coefficient of the longest series a step
    # or a Frobenius expansion may sum
    assert powers.shape == (_MAX_TERMS + 2, len(nodes))
    for k, row in enumerate(powers):
        assert all(x == pytest.approx(t ** k, rel=1e-13, abs=1e-300)
                   for t, x in zip(nodes, row)), k


def _commutator(x, y):
    return tuple(a - b for a, b in zip(mat_mul(x, y), mat_mul(y, x)))


def _local_sources():
    """The three configs, the seeded 5-point spheres 1-10, and sphere 1 with
    every order at infinity (the seeds draw only cusps, 2 and 3 there)."""
    sources = [_sphere(c) for c in ("kawai-4cusp.json", "sphere-elliptic3.json",
                                    "sphere-4cusp.json")]
    sources += [_sphere(seed) for seed in range(1, 11)]
    one = _sphere(1)
    sources += [build_potential(one.points, one.orders, o, one.accessory())
                for o in (None, 2, 3, 4, 6)]
    return sources


def _random_tangents(data, rng, count=2):
    k = len(data.points)
    return [potential_tangent(data, rng.standard_normal(k) + 1j * rng.standard_normal(k),
                              rng.standard_normal(k - 2) + 1j * rng.standard_normal(k - 2))
            for _ in range(count)]


def _circles(data, poles, tangents=()):
    """(C, drift, [E per tangent]) of ``_local_monodromy`` for every lasso of
    ``data`` at build_lassos' radius, MAX_RADIUS_FACTOR, with the paths."""
    paths = build_lassos(data)
    return local_monodromies(poles, paths, tangents), paths


def test_local_tangents_match_the_differentiated_series():
    # the Duhamel integral along the ray from the marked point gives E up to
    # a matrix that commutes with C, so [E, C], the only way a lasso reads E,
    # must match the differentiated Frobenius series of the reference; the
    # untangented expansion is the reference's, bit for bit.  One
    # ``_circle_tangents`` call takes all circles of a sphere.  The circles
    # take build_lassos' radius, MAX_RADIUS_FACTOR, where the ray rule's
    # integrands come closest to a singularity
    from frobenius_reference import reference_local_monodromy

    rng = np.random.default_rng(9)
    seen = set()
    for data in _local_sources():
        tangents = _random_tangents(data, rng)
        poles = data.half_q_terms()
        circles, paths = _circles(data, poles, tangents)
        assert len(circles) == len(paths)
        for (c, drift, es), path in zip(circles, paths):
            seen.add((path.target == "inf", path.order))
            assert (c, [], drift) == reference_local_monodromy(poles, [], path)
            cr, refs, _ = reference_local_monodromy(poles, tangents, path)
            assert len(es) == len(refs) == 2
            for e, ref in zip(es, refs):
                gap = max(abs(x - y) for x, y in zip(_commutator(e, c), _commutator(ref, cr)))
                scale = max(map(abs, ref)) * max(map(abs, cr))
                assert gap <= 1e-13 * scale, (data.points, path.target, path.order)
    assert seen == {(at_inf, o) for at_inf in (False, True) for o in (None, 2, 3, 4, 6)}


def test_circle_batch_entries_are_the_one_circle_values():
    # a circle's E from a batch that mixes finite points and infinity,
    # cusps and elliptic points, and series of different lengths (so the
    # zero padding is exercised) is bit for bit its batch of one
    from conftest import local_monodromies

    rng = np.random.default_rng(10)
    kinds, lengths = set(), set()
    for data in _local_sources():
        tangents = _random_tangents(data, rng)
        poles = data.half_q_terms()
        batch, paths = _circles(data, poles, tangents)
        for (_, _, es), path in zip(batch, paths):
            kinds.add((path.target == "inf", path.order is None))
            (alone,) = local_monodromies(poles, [path], tangents)
            assert repr(es) == repr(alone[2])
        rows = []
        for path in paths:
            _circle_row(poles, path, rows)
        lengths.add(len(set(_lockstep(rows).lengths)) > 1)
    assert kinds == {(at_inf, cusp) for at_inf in (False, True) for cusp in (False, True)}
    assert lengths == {True}


def test_ray_rule_is_exact_on_polynomials():
    # sum W_i t_i^k against the exact moments, as rationals: t^(g+k) for
    # g = 0 and +-1/e, and t^k log t, for every k below the node count
    from fractions import Fraction

    for order in (None, 2, 3, 4, 5, 6, 7):
        nodes, w1, w2, powers = _ray_rule(order)
        assert len(set(nodes)) == 16 and all(0 < t < 1 for t in nodes)
        _assert_power_table(nodes, powers)
        if order is None:
            rules = [(w1, lambda k: Fraction(1, k + 1)),
                     (w2, lambda k: -Fraction(1, (k + 1) ** 2))]
        else:
            rules = [(w, lambda k, g=Fraction(sign, order): 1 / (g + k + 1))
                     for w, sign in ((w1, 1), (w2, -1))]
        for weights, exact in rules:
            for k in range(16):
                want = float(exact(k))
                got = sum(w * t ** k for w, t in zip(weights, nodes))
                assert abs(got - want) <= 1e-15 * abs(want), (order, k)


def _mp_transfer(mp, poles, z0, h):
    """T from z0 to z0 + h at mp's working precision: the midpoint series of
    ``_transfer`` summed until its terms fall below 10^-(dps + 5)."""
    g = h / 2
    xs = [g / (p - z0 - g) for p, _, _ in poles]
    pw = list(xs)  # x^(n+1)
    P, a, b = [], [mp.mpc(1), mp.mpc(0)], [mp.mpc(0), mp.mpc(1)]
    tail = mp.mpf(10) ** -(mp.dps + 5)
    n = 0
    while n < 20 or abs(a[-1]) + abs(b[-1]) + abs(a[-2]) + abs(b[-2]) > tail:
        P.append(mp.fsum(((n + 1) * A * x - g * B) * y
                         for (_, A, B), x, y in zip(poles, xs, pw)))
        pw = [x * y for x, y in zip(xs, pw)]
        f = -mp.mpf(1) / ((n + 2) * (n + 1))
        a.append(f * mp.fdot(P, a[n::-1]))
        b.append(f * mp.fdot(P, b[n::-1]))
        n += 1

    def ends(c, sign):
        return (mp.fsum(x * sign ** k for k, x in enumerate(c)),
                mp.fsum(k * x * sign ** (k - 1) for k, x in enumerate(c) if k))
    (va, sa), (vb, sb) = ends(a, 1), ends(b, 1)
    (wa, ta), (wb, tb) = ends(a, -1), ends(b, -1)
    splus = mp.matrix([[va, g * vb], [sa / g, sb]])
    sminus = mp.matrix([[wa, g * wb], [ta / g, tb]])
    return splus * mp.inverse(sminus)


def test_step_tangents_against_a_40_digit_oracle():
    # dT on the worst step (cusp straight ahead, |B| = 20) as a central
    # difference of the 70-digit transfer with step 1e-25, good to ~43
    # digits; the quadrature and the differentiated series must both be
    # rounding-close to it
    mp = pytest.importorskip("mpmath").mp
    from taylor_reference import reference_transfer

    poles, z0, h = WORST_STEPS[0], 0j, 0.5 + 0j
    [dts] = _batch_tangents(poles, WORST_TANGENTS, [(z0, h)])
    _, refs = reference_transfer(poles, WORST_TANGENTS, z0, h)
    with mp.workdps(70):
        eps = mp.mpf(10) ** -25
        mpoles = [tuple(mp.mpc(v) for v in pole) for pole in poles]
        for tangent, dt, ref in zip(WORST_TANGENTS, dts, refs):
            def moved(s):  # A = theta/4 stays fixed
                return [(p + s * mp.mpc(dp), A, B + s * mp.mpc(dB))
                        for (p, A, B), (dp, dB) in zip(mpoles, tangent)]
            fd = (_mp_transfer(mp, moved(eps), mp.mpc(z0), mp.mpc(h))
                  - _mp_transfer(mp, moved(-eps), mp.mpc(z0), mp.mpc(h))) / (2 * eps)
            exact = [complex(fd[i, j]) for i in range(2) for j in range(2)]
            for got in (dt, ref):
                assert _relative_gap(got, exact) <= 1e-14, tangent


def _moved(data, v, w, s):
    return build_potential([p + s * x for p, x in zip(data.points, v)],
                           data.orders, data.order_infinity,
                           [a + s * y for a, y in zip(data.accessory(), w)],
                           base_point=data.base_point)


def _stencil(f, h=1e-3):
    """4th-order central difference of a matrix-valued s -> f(s) at 0."""
    m = [f(k * h) for k in (-2, -1, 1, 2)]
    return [(8 * (m[2][i] - m[1][i]) - (m[3][i] - m[0][i])) / (12 * h) for i in range(4)]


def test_tangents_match_difference_quotients():
    # dM along an accessory residue and along a moving point, against the
    # 4th-order stencil of the transport itself
    data = four_cusp_data()
    vertices = lasso_polyline(build_lassos(data)[0])
    for v, w in (((0, 0, 0), (1,)), ((0, 0, 1), (0,))):
        _, (dm,) = transport(data.half_q_terms(), vertices, [potential_tangent(data, v, w)])
        fd = _stencil(lambda s: transport(
            _moved(data, v, w, s).half_q_terms(), vertices)[0])
        scale = max(abs(x) for x in dm)
        assert max(abs(x - y) for x, y in zip(dm, fd)) < 1e-9 * scale


@pytest.mark.parametrize("config", ["sphere-elliptic3.json", "sphere-4cusp.json"])
def test_lasso_tangents_match_difference_quotients(config):
    # dL = [L, X] on every lasso, cusp, elliptic and infinity alike: an
    # accessory residue, the lasso's own point and another point move
    data = _sphere(config)
    paths = build_lassos(data)
    k = len(data.points)
    directions = [((0,) * k, (1,))] + [(tuple(int(i == j) for i in range(k)), (0,))
                                       for j in range(k)]
    for v, w in directions:
        tangent = potential_tangent(data, v, w)
        for path in paths:
            ((dm,),) = lassos(data.half_q_terms(), [path], [tangent])[2]
            fd = _stencil(lambda s: _row(lassos(
                _moved(data, v, w, s).half_q_terms(), [path])[0][0]))
            scale = max(abs(x) for x in dm)
            assert max(abs(x - y) for x, y in zip(dm, fd)) < 1e-9 * scale, (v, path.target)


def test_row_convention_is_a_homomorphism():
    # transport along lasso_a then lasso_b equals the left-to-right product of
    # the individual transports in the row convention
    data = four_cusp_data()
    paths = build_lassos(data)
    va, vb = lasso_polyline(paths[0]), lasso_polyline(paths[1])
    poles = data.half_q_terms()
    ma, _ = transport(poles, va)
    mb, _ = transport(poles, vb)
    mab, _ = transport(poles, va + vb)
    prod = mat_mul(ma, mb)
    scale = max(abs(x) for x in prod)
    assert max(abs(x - y) for x, y in zip(mab, prod)) < 1e-9 * scale


class TestLassos:
    def test_order_and_clearance(self):
        data = four_cusp_data()
        paths = build_lassos(data)
        assert [path.target for path in paths] == [1, 2, 0, "inf"]
        gap = data.min_gap()
        for path in paths:
            assert path.min_clearance(data.points) >= 0.05 * gap
            if path.target != "inf":
                # the circle about the point has the chosen radius
                assert 0.2 * gap <= abs(path.stem[1] - path.centre) <= 0.3 * gap

    def test_ordering_error_on_tie(self):
        # base point directly below two vertically aligned points -> tie
        data = build_potential([0, 1j], [None, None, None][:2], None, [],
                               base_point=-2j)
        with pytest.raises(OrderingError):
            build_lassos(data)

    def test_three_cusp_lasso_traces(self):
        data = build_potential([0, 1], [None, None], None, [])
        rho, _, _ = MonodromyEngine(data).representation()
        for m in rho.images.values():
            assert abs(abs(m.trace()) - 2) < 1e-6


class TestRepresentation:
    def test_four_cusp_traces_and_relation(self, four_cusp_rep):
        for g in four_cusp_rep.signature.generators:
            assert abs(abs(four_cusp_rep.images[g].trace()) - 2) < 1e-6
        assert four_cusp_rep.relator_residual() < 1e-6

    @pytest.mark.parametrize("e", [2, 3, 6])
    def test_elliptic_variant(self, e):
        data = build_potential([0, 1, FOUR_CUSP_T], [e, None, None], None,
                               [0.2 + 0.1j], base_point=FOUR_CUSP_ZB)
        rho, _, _ = MonodromyEngine(data).representation()
        # point 0 is third in lasso order from this base point
        assert rho.signature.orders == (None, None, e, None)
        got = abs(rho.images["c3"].trace())
        assert abs(got - 2 * math.cos(math.pi / e)) < 1e-6
        assert max(rho.trace_residuals().values()) < 1e-6

    def test_rigid_three_cusp(self):
        data = build_potential([0, 1], [None, None], None, [])
        rho, _, _ = MonodromyEngine(data).representation()
        prod = MoebiusMap.identity()
        for i in (1, 2, 3):
            prod = prod @ rho.images[f"c{i}"]
        assert prod.psl_distance(MoebiusMap.identity()) < 1e-6

    def test_homotopy_invariance(self, monkeypatch):
        # circles of two radii: MAX_RADIUS_FACTOR = 0.3 and a smaller 0.22
        import charvar.monodromy as mono
        data = four_cusp_data()
        e1 = MonodromyEngine(data)
        monkeypatch.setattr(mono, "MAX_RADIUS_FACTOR", 0.22)
        e2 = MonodromyEngine(data)
        assert e1.paths[0].stem[1] != e2.paths[0].stem[1]
        r1, r2 = e1.representation()[0], e2.representation()[0]
        worst = max(r1.images[g].psl_distance(r2.images[g])
                    for g in r1.signature.generators)
        assert worst < 1e-8

    def test_base_point_change_conjugates(self):
        data = four_cusp_data()
        zb2 = -0.4 - 1.2j
        data2 = build_potential([0, 1, FOUR_CUSP_T], [None] * 3, None,
                                [0.2 + 0.1j], base_point=zb2)
        r1, _, _ = MonodromyEngine(data).representation()
        r2, _, _ = MonodromyEngine(data2).representation()
        M = MoebiusMap(*transport(data.half_q_terms(), [zb2, FOUR_CUSP_ZB])[0])
        worst = max(r2.images[g].psl_distance(M @ r1.images[g] @ M.inverse())
                    for g in r1.signature.generators)
        assert worst < 1e-8

    def test_orb3_signature(self, orb3_rep):
        assert orb3_rep.signature.orders == (None, None, 3, None)
        assert orb3_rep.signature.dimension == 1
        assert orb3_rep.relator_residual() < 1e-6

    def test_not_visibly_reducible(self, four_cusp_rep):
        assert not four_cusp_rep.visibly_reducible

    def test_impossible_relation_tolerance_raises(self, four_cusp_engine):
        engine, _ = four_cusp_engine
        with pytest.raises(OrderingError):
            engine.representation(relation_tol=1e-16)

    def test_nan_relation_residual_raises(self, four_cusp_engine, monkeypatch):
        # NaN compares False with every tolerance, so it must not pass as small
        import charvar.monodromy as mono
        nan = float("nan")
        monkeypatch.setattr(mono, "_stem", lambda steps, series, ints, count: ((nan, 0, 0, 1), []))
        engine, _ = four_cusp_engine
        with pytest.raises(OrderingError):
            engine.representation()


def test_one_integration_per_lasso(monkeypatch, capsys):
    import charvar.monodromy as mono
    from charvar.cli import main
    from charvar.kawai import GridOffset, PointDirection, kawai_experiment

    calls, rows = [], []

    def counted(name):
        fn = getattr(mono, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            if name == "_lockstep":
                rows.append(len(args[0]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(mono, name, wrapped)

    for name in ("_transport", "_transfer", "_lockstep", "_step_tangents", "_local_monodromy",
                 "_circle_tangents"):
        counted(name)
    assert main(["monodromy", "--input", str(CONFIGS / "sphere-4cusp.json")]) == 0
    capsys.readouterr()
    # the Wronskian drift comes from the same transports, which carry no
    # tangents; one batch sums every series of the representation
    assert calls.count("_transport") == 4
    assert calls.count("_lockstep") == 1
    assert calls.count("_step_tangents") == 0
    assert calls.count("_circle_tangents") == 0
    calls.clear()
    kawai_experiment(four_cusp_data(), [PointDirection((0, 0, 1))], grid=[GridOffset()])
    # each stem once; one local expansion per lasso
    assert calls.count("_transport") == 4
    assert calls.count("_local_monodromy") == 4
    # one batch of step tangents per representation: every step of every
    # stem, carrying both tangents; and one batch of circle tangents
    assert calls.count("_step_tangents") == 1
    assert calls.count("_circle_tangents") == 1
    # series per grid point: 16 Taylor steps on the stems plus 4 Frobenius
    # expansions (84 Taylor steps when the circles were integrated), all in
    # one lockstep batch
    assert calls.count("_transfer") + calls.count("_local_monodromy") == 20
    assert calls.count("_lockstep") == 1 and rows[-1] == 20
    calls.clear()
    kawai_experiment(four_cusp_data(), [PointDirection((0, 0, 1))],
                     grid=[GridOffset(), GridOffset(t=(0.01,)), GridOffset(t=(-0.01j,))])
    # and one batch for every grid point
    assert calls.count("_lockstep") == 1 and rows[-1] == 60


def test_truncated_local_series_exits_2(capsys, monkeypatch):
    # a Frobenius series stopped early shows in its Wronskian, which the
    # drift compares with the exact value, so the subcommand exits 2: every
    # circle is summed again alone, with a tail that stops it early
    import charvar.monodromy as mono
    from charvar.cli import main

    lockstep, local, tail = mono._lockstep, mono._local_monodromy, mono._TAIL
    batches = []

    def recorded(rows):
        batches.append(rows)
        return lockstep(rows)

    def truncated(path, circle, series, ints):
        *head, row = circle
        monkeypatch.setattr(mono, "_TAIL", 2.0 ** -22)
        try:
            short = lockstep([batches[-1][row]])
        finally:
            monkeypatch.setattr(mono, "_TAIL", tail)
        assert short.lengths[0] < series.lengths[row]
        return local(path, (*head, 0), short, ints)

    monkeypatch.setattr(mono, "_lockstep", recorded)
    monkeypatch.setattr(mono, "_local_monodromy", truncated)
    assert main(["monodromy", "--input", str(CONFIGS / "sphere-4cusp.json")]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["wronskian_drift"] > rep["tolerances"]["wronskian"]


def _rows_of_every_kind():
    """One batch's rows (``_Row``): the Taylor steps and circles of every
    lasso of four spheres with 3 to 5 finite points (so 2 to 5 poles per
    row), with heads at the finite points, rows at infinity, cusp log rows
    and the +-1/e shifts of orders 2 to 6, and a Taylor step 0.9 of the way
    to a pole, whose series runs past 128 terms."""
    rows = []
    for data in (_sphere("sphere-elliptic3.json"), _sphere("sphere-4cusp.json"), _sphere(1),
                 _sphere(4)):
        poles = data.half_q_terms()
        for path in build_lassos(data):
            _transport(poles, path.stem, rows, [])
            _circle_row(poles, path, rows)
    _step_row([(1.0 + 0j, 0.25, 0.3 - 0.2j)], 0j, 0.9 + 0j, rows)
    return rows


def test_lockstep_is_the_scalar_series_bit_for_bit():
    # every row of one batch, whatever its kind, length and pole count, is
    # bit for bit the scalar recurrence summed alone, zeros past its end,
    # and so are the sums its transfer matrix or local monodromy reads;
    # rows that stopped are computed on quietly, under np.errstate
    from operator import mul

    from oracles import scalar_series

    rows = _rows_of_every_kind()
    kinds = {(len(row.a), bool(row.laurent[0]), row.log, row.shifts[0]) for row in rows}
    assert {(2, False, False, 1)} < kinds  # Taylor steps, and the circles:
    assert {(1, True, True, 0.0), (1, False, True, 0.0)} < kinds  # cusps, finite and infinity
    assert {e for _, _, log, e in kinds if not log} >= {1, 1 / 2, 1 / 3, 1 / 4, 1 / 6}
    assert len({len(row.laurent[1]) for row in rows}) >= 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = _lockstep(rows)
    assert max(series.lengths) > 128
    for i, row in enumerate(rows):
        a, b = scalar_series(row.laurent, list(row.a), list(row.b), row.shifts, row.log, "")
        n = series.lengths[i]
        assert series.status[i] is None and n == len(a) == len(b), i
        assert _bits(series.coeffs[i, :, :n]) == _bits([a, b]), i
        assert not series.coeffs[i, :, n:].any()
        for c, sums in zip((a, b), series.sums[i]):
            even, odd = c[0::2], c[1::2]
            assert _bits(sums) == _bits(
                [sum(even), sum(map(mul, range(0, n, 2), even)), sum(odd),
                 sum(map(mul, range(1, n, 2), odd)), sum(c), sum(map(mul, range(n), c))]), i


def _failing_rows():
    """Two rows (``_Row``) whose series turn non-finite: a circle's and a
    Taylor step's."""
    return [mono._Row(((-1.3e308 * (1 + 1j),), [], [], [], [], 0), (1.0 + 0j,), (1.0 + 0j,),
                      (0.0, 0.0), False),  # a_1 = -P_0: finite parts, |a_1| > 1.8e308
            mono._Row(((), [0.25 * 3.0], [-1e300], [3.0], [3.0], 1), (1.0 + 0j, 0j),
                      (0j, 1.0 + 0j), (1, 1), False)]  # grows past the largest float


def test_lockstep_rows_do_not_depend_on_their_order():
    # the batch orders its rows by kind and returns them in the order given:
    # reversed or shuffled, every row's coefficients, length, status and
    # sums are the same bits, failed rows included
    rows = [*_rows_of_every_kind(), *_failing_rows()]
    series = _lockstep(rows)
    assert series.status[-2:] == ["non-finite"] * 2
    shuffled = np.random.default_rng(26).permutation(len(rows)).tolist()
    for order in (list(range(len(rows)))[::-1], shuffled):
        other = _lockstep([rows[i] for i in order])
        for i, row in enumerate(order):
            assert other.lengths[i] == series.lengths[row], (i, row)
            assert other.status[i] == series.status[row], (i, row)
            assert _bits(other.coeffs[i]) == _bits(series.coeffs[row]), (i, row)
            assert _bits(other.sums[i]) == _bits(series.sums[row]), (i, row)


def test_lockstep_fails_a_row_as_the_scalar_series_does(monkeypatch):
    # a non-finite term and a term cap: each row fails as the scalar
    # recurrence does, beside rows that settle.  A term whose finite parts
    # overflow hypot is non-finite too, where the scalar recurrence's abs()
    # raises OverflowError
    from oracles import scalar_series

    rows = [*_failing_rows(), _rows_of_every_kind()[0]]

    def failure(run):
        try:
            run()
        except (IntegrationError, OverflowError) as exc:
            return type(exc), str(exc)

    def scalar(row):
        return failure(lambda: scalar_series(row.laurent, list(row.a), list(row.b), row.shifts,
                                             row.log, "the row"))

    for cap in (400, 8):
        monkeypatch.setattr(mono, "_MAX_TERMS", cap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = _lockstep(rows)
        got = [failure(lambda: mono._settled(series, i, lambda: "the row"))
               for i in range(len(rows))]
        assert got[0] == (IntegrationError, "non-finite the row"), cap
        assert scalar(rows[0])[0] is OverflowError
        assert got[1:] == [scalar(row) for row in rows[1:]], cap
    assert series.status == ["non-finite", "non-finite", "diverged"]


def _scaled(data, scale):
    return data.replace(residues=tuple(scale * m for m in data.residues))


def _onto_stem(data, lasso, point):
    """``data`` with ``point`` moved to the middle of the stem of lasso
    ``lasso`` of its own lassos."""
    zb, entry = build_lassos(data)[lasso].stem
    points = list(data.points)
    points[point] = (zb + entry) / 2
    return data.replace(points=tuple(points))


def _outcome(run):
    """The lasso images and drift of each job, bit for bit, or the error
    raised (type and message)."""
    try:
        return [(_bits(images), _bits([drift])) for images, drift in run()]
    except (IntegrationError, OrderingError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _toward(data, point, other, share):
    """``data`` with ``point`` moved ``share`` of the way to point ``other``."""
    points = list(data.points)
    points[point] += share * (points[other] - points[point])
    return data.replace(points=tuple(points))


def _fault_data():
    """The kawai config's three grid points p0, p1, p2, a sphere whose
    engine cannot be built (an argument tie), and p1 with residues that
    break its relation."""
    from charvar.kawai import AccessoryDirection, PointDirection, displace

    base = four_cusp_data()
    p0, p1, p2 = (base, displace(base, PointDirection((0, 0, 1)), 0.04),
                  displace(base, AccessoryDirection(0), 0.05 + 0.02j))
    tie = build_potential([0, 1j], [None, None], None, [], base_point=-2j)
    moments = p1.replace(residues=tuple(m + 0.3 for m in p1.residues))
    return p0, p1, p2, tie, moments


def _jobs(pairs):
    """(paths, data) per entry of ``pairs``: a sphere, or a pair (the
    sphere whose lassos are frozen, the data transported along them), every
    job's lassos built here, before any transport."""
    pairs = [pair if isinstance(pair, tuple) else (pair, pair) for pair in pairs]
    return [(build_lassos(frozen), data) for frozen, data in pairs]


def test_transport_is_the_scalar_walk_on_one_fault(monkeypatch):
    # all jobs are planned, summed in one batch and assembled in order; with
    # no fault, or with faults that only planning or only the assembly and
    # relation checks meet, the results or the error are those of the
    # scalar walk job after job, lasso after lasso, step after step:
    # across the grid points of the kawai config (each job an engine's
    # frozen lassos at some data) and of seeded spheres, with a lowered term
    # cap and with a fault of every kind
    from charvar.monodromy import transport
    from oracles import scalar_transport

    p0, p1, p2, tie, moments = _fault_data()
    scenarios = [
        [p0, p1, p2],
        [p0, (p1, _onto_stem(p1, 1, 0))],  # a pole on a stem
        [p0, (p1, _scaled(p1, 1e200))],  # non-finite series
        [p0, (p1, moments)],  # the relation misses
        [(p0, _scaled(p0, 3e5)), p1],  # non-finite transport
        [p0, (p1, _toward(p1, 1, 2, 0.5))],  # a Frobenius series diverges
        [p0, tie],  # an engine that cannot be built
    ]
    spheres = [_sphere(seed) for seed in (2, 3, 5)] + [p0, p1, p2]
    runs = [(400, pairs) for pairs in scenarios] + [(cap, spheres) for cap in range(14, 40, 2)]
    errors, transported, images = [], 0, []
    assemble = mono._assemble

    def recorded(*args):  # the lasso images of each job, as it is assembled
        las = assemble(*args)
        images.append(las[0])
        return las

    def transported_images(jobs):
        images.clear()
        return [(im, tr.drift) for tr, im in zip(transport(jobs), images, strict=True)]
    monkeypatch.setattr(mono, "_assemble", recorded)
    for cap, pairs in runs:
        monkeypatch.setattr(mono, "_MAX_TERMS", cap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(lambda: transported_images(_jobs(pairs)))
        want = _outcome(lambda: scalar_transport(_jobs(pairs)))
        assert got == want, (cap, want)
        if isinstance(want, list):
            transported += 1
        else:
            errors.append(want[1])
    assert transported
    for kind in ("non-finite Taylor series", "runs into a pole", "lasso product misses",
                 "non-finite transport", "Frobenius series at", "did not converge",
                 "argument tie"):
        assert any(kind in error for error in errors), kind


def test_transport_raises_faults_by_phase():
    # a call plans every job, then assembles and checks job after job: a
    # step that runs into a pole, anywhere in the call, outranks an earlier
    # job's or lasso's series fault, which the scalar walk meets first; an
    # earlier job's assembly fault or relation miss outranks a later job's;
    # an engine that cannot be built is raised by the caller, before the call
    from charvar.monodromy import transport
    from oracles import scalar_transport

    p0, p1, p2, tie, moments = _fault_data()
    cases = [  # (jobs, the error the call raises, the error the walk meets first)
        ([p0, (p1, _scaled(p1, 1e200)), (p2, _onto_stem(p2, 1, 0))], "runs into a pole",
         "non-finite Taylor series"),
        ([p0, (p1, _scaled(_onto_stem(p1, 0, 0), 1e200))], "runs into a pole",
         "non-finite Taylor series"),
        ([p0, (p1, _onto_stem(p1, 2, 1)), (p2, _scaled(p2, 1e200))], "runs into a pole",
         "Frobenius series at 1"),
        ([p0, (p1, _onto_stem(p1, 1, 0)), (p2, _scaled(p2, 1e200))], "runs into a pole",
         "runs into a pole"),
        ([(p0, _scaled(p0, 3e5)), (p1, _scaled(p1, 1e200))], "non-finite transport",
         "non-finite transport"),
        ([p0, (p1, moments), (p2, _scaled(p2, 1e200))], "lasso product misses",
         "lasso product misses"),
        ([p0, tie, (p2, _scaled(p2, 1e200))], "argument tie", "argument tie"),
        ([p0, (p1, _scaled(p1, 1e200)), tie], "argument tie", "argument tie"),
    ]
    for pairs, raised, walked in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(lambda: transport(_jobs(pairs)))
        assert raised in got[1], (got, raised)
        assert walked in _outcome(lambda: scalar_transport(_jobs(pairs)))[1], walked
    # an earlier job's non-finite tangent transport (velocities of 1e308)
    # outranks a later job's relation miss, and not the other way round
    huge = [potential_tangent(p0, [1e308] * 3, [1e308])]
    tame = [potential_tangent(moments, [0, 0, 1], [0])]
    jobs = _jobs([p0, (p1, moments)])
    with pytest.raises(IntegrationError, match="non-finite tangent transport"):
        transport(jobs, tangents=[huge, tame])
    with pytest.raises(OrderingError, match="lasso product misses"):
        transport(jobs[::-1], tangents=[tame, huge])


def _transport_bits(transports):
    return [(_bits([x for m in tr.rho.images.values() for x in (m.a, m.b, m.c, m.d)]),
             _bits([tr.drift])) for tr in transports]


@pytest.mark.parametrize("sources", [(1, 2, 3), ("kawai-4cusp.json", "sphere-4cusp.json")])
def test_tangents_leave_the_transport_bit_for_bit(sources):
    # the quadratures read the batch and change nothing else: one call with
    # tangents gives the rho and the drift of the same call without
    from charvar.monodromy import transport

    rng = np.random.default_rng(13)
    spheres = [_sphere(source) for source in sources]
    tangents = [_random_tangents(data, rng) for data in spheres]

    def jobs():
        return [(build_lassos(data), data) for data in spheres]
    with_tangents = transport(jobs(), tangents=tangents)
    assert all(len(tr.images) == 2 for tr in with_tangents)
    assert _transport_bits(with_tangents) == _transport_bits(transport(jobs()))


def test_a_transport_error_outranks_an_earlier_tangent_error():
    # a job whose tangent transport is non-finite (velocities of 1e308)
    # fails when it is assembled, after every job is planned: a later job's
    # step that runs into a pole is the one raised
    from charvar.monodromy import transport

    base = four_cusp_data()
    huge = potential_tangent(base, [1e308] * 3, [1e308])
    blocked = _onto_stem(base, 1, 0)

    def run(second):
        return transport([(build_lassos(base), base), (build_lassos(base), second)],
                         tangents=[[huge], [potential_tangent(second, [0, 0, 1], [0])]])
    with pytest.raises(IntegrationError, match="non-finite tangent transport"):
        run(base)
    with pytest.raises(IntegrationError, match="runs into a pole"):
        run(blocked)

