import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_genus1_rep, orb3_data
from oracles import cocycle_out
from charvar import cli
from charvar.cli import main
from charvar.cocycles import random_parabolic_cocycle
from charvar.monodromy import MAX_ORDER
from charvar.serialize import (dumps_deterministic, representation_in, representation_out,
                               signature_in, signature_out, sphere_in, sphere_out)
from charvar.sl2 import NumericalError
from charvar.words import MAX_RELATOR_LETTERS, Signature


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


SIG2 = '{"g":2,"elliptic":[],"cusps":0}'


def test_identities_pass(capsys):
    code, rep = run_cli(capsys, "identities", "--sig", SIG2)
    assert code == 0
    assert rep["all_pass"] is True
    assert rep["alpha_convention"] == "section_3.1.1"
    assert rep["beta_sign"] == -1
    assert rep["version"]


def test_fox_matches_closed_form(capsys):
    code, rep = run_cli(capsys, "fox", "--sig", SIG2, "--word", "R", "--gen", "a1")
    assert code == 0
    # dR/da_1 = R_0 - R_1 b_1 = 1 - a1 b1 a1^-1
    terms = {t["word"]: t["coeff"] for t in rep["derivative"]}
    assert terms == {"1": 1, "a1 b1 a1^-1": -1}


@pytest.mark.parametrize("argv", [
    ["identities", "--sig", '{"g": 200}'],
    ["fox", "--sig", '{"g": 2000}', "--word", "R", "--gen", "a2000"],
], ids=["identities-g200", "fox-g2000"])
def test_word_layer_at_a_large_genus_ends_promptly(capsys, argv):
    # a product cancels only where its two reduced factors meet, and a Fox
    # derivative reads its prefixes as slices, so neither is cubic in the
    # genus (25 s and 18 s before)
    start = time.perf_counter()
    code, rep = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code == 0
    assert rep.get("all_pass", True) is True


def test_fox_explicit_word(capsys):
    code, rep = run_cli(capsys, "fox", "--sig", SIG2, "--word", "a1^-1", "--gen", "a1")
    assert code == 0
    assert rep["derivative"] == [{"coeff": -1, "word": "a1^-1"}]


def test_bad_signature_is_input_error(capsys):
    code, rep = run_cli(capsys, "identities", "--sig", "{not json")
    assert code == 1
    assert "error" in rep


def test_fox_unknown_generator(capsys):
    code, rep = run_cli(capsys, "fox", "--sig", SIG2, "--word", "R", "--gen", "c9")
    assert code == 1
    assert "unknown generator" in rep["error"]


def test_goldman_tolerance_failure_exit_2(capsys, tmp_path, orb3_rep):
    rng = np.random.default_rng(1)
    from oracles import random_quadpoly
    chi1 = random_parabolic_cocycle(orb3_rep, rng)
    bad = {"values": {g: [[v.real, v.imag] for v in
                          random_quadpoly(rng).coeffs()]
                      for g in orb3_rep.signature.generators}}
    bundle = {"representation": representation_out(orb3_rep),
              "cocycle1": cocycle_out(chi1), "cocycle2": bad}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bundle))
    code, rep = run_cli(capsys, "goldman", "--input", str(path))
    assert code == 2
    assert "error" in rep


def test_monodromy_tolerance_failure_exit_2(capsys, tmp_path):
    cfg = {"points": [[0, 0], [1, 0]], "orders": [None, None],
           "order_infinity": None, "accessory": []}
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(cfg))
    code, rep = run_cli(capsys, "monodromy", "--input", str(path),
                        "--tol", "wronskian=1e-18")
    assert code == 2
    assert rep["tolerances"]["wronskian"] == 1e-18


@pytest.mark.parametrize("argv", [[], ["kawai", "--bogus"], ["no-such-command"],
                                  ["fox", "--sig", SIG2]])
def test_usage_error_is_input_error(capsys, argv):
    # a usage error is bad input like any other: a JSON report and exit 1,
    # not argparse's usage text and exit 2
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out)["error"].startswith("charvar")


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["kawai", "--help"]])
def test_version_and_help_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_missing_kawai_config(capsys):
    code, rep = run_cli(capsys, "kawai", "--input", "missing.json")
    assert code == 1
    assert "error" in rep
    code, rep = run_cli(capsys, "kawai", "--input", "/no/such/file.json")
    assert code == 1


def test_monodromy_subcommand(capsys, tmp_path):
    cfg = {"points": [[0, 0], [1, 0]], "orders": [None, None],
           "order_infinity": None, "accessory": []}
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(cfg))
    code, rep = run_cli(capsys, "monodromy", "--input", str(path))
    assert code == 0
    assert rep["relation_residual"] < 1e-6
    assert max(rep["trace_residuals"].values()) < 1e-6
    assert rep["wronskian_drift"] < 1e-9
    assert set(rep["representation"]["images"]) == {"c1", "c2", "c3"}


def test_goldman_subcommand_roundtrip(capsys, tmp_path, orb3_rep):
    rng = np.random.default_rng(0)
    chi1 = random_parabolic_cocycle(orb3_rep, rng)
    chi2 = random_parabolic_cocycle(orb3_rep, rng)
    bundle = {"representation": representation_out(orb3_rep),
              "cocycle1": cocycle_out(chi1), "cocycle2": cocycle_out(chi2)}
    path = tmp_path / "bundle.json"
    path.write_text(dumps_deterministic(bundle))
    code, rep = run_cli(capsys, "goldman", "--input", str(path))
    assert code == 0
    from charvar.goldman import pairing
    want = pairing(orb3_rep, chi1, chi2).value
    got = complex(rep["value"][0], rep["value"][1])
    # JSON roundtrip of the representation loses a little precision
    assert abs(got - want) < 1e-7 * max(1, abs(want))
    assert set(rep["p2_list"]) == {"c1", "c2", "c3", "c4"}


def test_lambda_check_subcommand(capsys):
    code, rep = run_cli(capsys, "lambda-check")
    assert code == 0
    assert rep["max_residual"] <= 1e-8
    assert set(rep["residuals"]) >= {"lambda1", "lambda2", "lambda3", "lambda5",
                                     "b1", "b2", "b3", "lambda4_solver"}


@pytest.mark.parametrize("name", ["identity", "solver"])
def test_lambda_check_holds_each_residual_to_its_own_tolerance(capsys, name):
    # lambda1 ... b3 answer to identity and lambda4_solver to solver: a
    # tightened tolerance fails its own residuals though the other one is
    # the looser, where the worst residual was held to the loosest tolerance
    code, rep = run_cli(capsys, "lambda-check", "--tol", f"{name}=1e-30")
    assert code == 2
    assert rep["tolerances"][name] == 1e-30
    held = [v for k, v in rep["residuals"].items() if (k == "lambda4_solver") == (name == "solver")]
    assert 0 < max(held) <= 1e-8


def test_determinism_byte_identical(capsys):
    code1 = main(["identities", "--sig", SIG2])
    out1 = capsys.readouterr().out
    code2 = main(["identities", "--sig", SIG2])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_kawai_stdout_is_independent_of_blas_threads():
    # the stem and circle tangents read their series at the quadrature nodes
    # by numpy matmuls: the report must not depend on how many threads the
    # BLAS may split them over
    root = Path(__file__).resolve().parents[1]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "charvar.cli", "kawai", "--input",
                              str(root / "configs" / "kawai-4cusp.json")],
                             capture_output=True, env=env, cwd=root, timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1] and b'"omega"' in outs[0]


@pytest.mark.parametrize("config, digest", [("sphere-4cusp.json", "1bfe356468bd8c5a"),
                                            ("sphere-elliptic3.json", "49e5e12ea5a7567b")])
def test_monodromy_report_bytes_are_pinned(capsys, config, digest):
    # the monodromy report comes from a lockstep numpy recurrence that
    # rounds as Python's scalar one does, with no BLAS, and from the stem
    # transports and the exact local monodromy in Python in a fixed order,
    # so its bytes are pinned: a change that moves them updates the pin and
    # says why
    root = Path(__file__).resolve().parents[1]
    code = main(["monodromy", "--input", str(root / "configs" / config)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def _random_sphere(seed):
    """A seeded sphere as the benchmark's monodromy scan draws them: 4 or 5
    finite points (by the parity of the seed) uniform in [-1, 1]^2, orders
    from {cusp, 2, 3, 4, 6} at every point and at infinity, and accessory
    residues 0.2 N(0, 1), with the default base point."""
    rng = random.Random(seed)
    k = 4 + seed % 2
    points = [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(k)]
    orders = [rng.choice([None, 2, 3, 4, 6]) for _ in range(k + 1)]
    accessory = [[0.2 * rng.gauss(0, 1), 0.2 * rng.gauss(0, 1)] for _ in range(k - 2)]
    return {"points": points, "orders": orders[:k], "order_infinity": orders[k],
            "accessory": accessory}


@pytest.mark.parametrize("seed, digest", [(2, "1527bbfe1def408a"), (3, "029603a70b994fd0"),
                                          (4, "ddf35f4d5f9642fb"), (5, "963f69ae07d4440d"),
                                          (6, "2230bec872b15f34"), (7, "5dbd616ab59361e9")])
def test_random_sphere_report_bytes_are_pinned(capsys, seed, digest):
    # the scan's path: a drawn sphere through `monodromy --json`, every
    # lockstep product and sum in Python's rounding, so its bytes are pinned
    # as the committed configs' are; the draws cover 4 and 5 points and a
    # cusp or an elliptic point at infinity
    code = main(["monodromy", "--json", json.dumps(_random_sphere(seed))])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("config, digest", [("kawai-4cusp.json", "2d1bb99cfc4eac60"),
                                            ("kawai-5point.json", "893c75fd0f94130c")])
def test_kawai_report_bytes_are_pinned(capsys, config, digest):
    # the kawai report takes the same transports, and its derivative stage
    # reads the series at the quadrature nodes by matmuls of at most 128
    # terms, which OpenBLAS sums in one pass: its bytes are pinned too (on
    # this numpy and BLAS), and a change that moves them updates the pin and
    # says why
    root = Path(__file__).resolve().parents[1]
    code = main(["kawai", "--input", str(root / "configs" / config)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_closed_stdout_ends_quietly():
    # a reader that closes at once (`charvar kawai ... | true`): exit 1, with
    # no traceback from a second write to the closed pipe and no "Exception
    # ignored" from the interpreter's exit flush
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.Popen([sys.executable, "-m", "charvar.cli", "kawai", "--input",
                            str(root / "configs" / "kawai-4cusp.json")],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=root,
                           env=dict(os.environ, PYTHONPATH=path))
    run.stdout.close()
    stderr = run.stderr.read()
    assert run.wait(timeout=120) == 1
    assert b"Traceback" not in stderr and b"Exception ignored" not in stderr, stderr


def test_tolerance_override_unknown_rejected(capsys):
    code, rep = run_cli(capsys, "monodromy", "--json", "{}", "--tol", "bogus=1")
    assert code == 1


def test_serialize_roundtrips(orb3_rep):
    rep2 = representation_in(json.loads(dumps_deterministic(representation_out(orb3_rep))))
    assert rep2.signature == orb3_rep.signature
    for g in orb3_rep.signature.generators:
        scale = max(abs(e) for e in orb3_rep.images[g].tuple())
        assert rep2.images[g].psl_distance(orb3_rep.images[g]) < 1e-12 * scale
    data = orb3_data()
    data2 = sphere_in(json.loads(dumps_deterministic(sphere_out(data))))
    assert data2.points == data.points
    assert data2.orders == data.orders
    assert max(abs(a - b) for a, b in zip(data2.residues, data.residues)) < 1e-15


@pytest.mark.parametrize("sig", [Signature(2), Signature(1, (2, 3, None)),
                                 Signature(0, (None, 3, None, 2))],
                         ids=["closed", "canonical", "interleaved"])
def test_signature_round_trips(sig):
    # a signature is its genus and its orders in generator order: it comes
    # back equal from its JSON, with the same hash
    back = signature_in(json.loads(dumps_deterministic(signature_out(sig))))
    assert back == sig and hash(back) == hash(sig)


def test_signature_orders_in_canonical_order_are_the_default():
    # "orders" that list the elliptic orders, then the cusps, name the same
    # signature as no "orders" at all; other orders must be a rearrangement
    plain = {"g": 1, "elliptic": [2, 3], "cusps": 1}
    spelled = signature_in(dict(plain, orders=[2, 3, None]))
    assert spelled == signature_in(plain) and hash(spelled) == hash(signature_in(plain))
    assert signature_out(spelled) == plain
    mixed = signature_in({"g": 0, "elliptic": [3, 2], "cusps": 1, "orders": [2, None, 3]})
    assert signature_out(mixed) == {"g": 0, "elliptic": [2, 3], "cusps": 1,
                                    "orders": [2, None, 3]}
    for orders in ([2, None, 4], [2, 3], [2, 3, None, None]):
        with pytest.raises(ValueError, match="orders inconsistent"):
            signature_in(dict(plain, orders=orders))


#: `charvar fox` on each signature, word and generator below (every
#: generator of the signature, and words it may not have): a fixed set whose
#: reports are pinned together
FOX_SIGNATURES = ['{"g":0,"elliptic":[2,3],"cusps":1}', '{"g":1,"elliptic":[],"cusps":2}',
                  '{"g":2,"elliptic":[3],"cusps":0}',
                  '{"g":1,"elliptic":[3,2],"cusps":1,"orders":[3,null,2]}']
FOX_WORDS = ["R", "1", "a1 b1^-1 c1^2", "c2^-3 a1 c1", "b1^2 a1^-1 b1 a2"]


def test_fox_report_bytes_are_pinned(capsys):
    # the exact word layer: a change that moves any of these reports updates
    # the pin and says why
    digest = hashlib.sha256()
    for text in FOX_SIGNATURES:
        for word in FOX_WORDS:
            for gen in signature_in(json.loads(text)).generators:
                code = main(["fox", "--sig", text, "--word", word, "--gen", gen])
                digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest()[:16] == "1cf06629b70f95ce"


def _json_paths(doc, path=()):
    """Every path into a JSON document: the root, then each key and index."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _json_paths(value, path + (key,))


@pytest.mark.filterwarnings("ignore:representation is visibly reducible")
def test_every_malformed_input_ends_in_one_report(capsys, tmp_path):
    # each value of each subcommand's input, the whole input included,
    # replaced by a value of every JSON kind: whatever it breaks, the run
    # prints one JSON report and exits 0, 1 or 2, never a traceback
    root = Path(__file__).resolve().parents[1]
    _, bundle = _bundle_path(tmp_path, make_genus1_rep(), 5)
    inputs = [("kawai", json.loads((root / "configs" / "kawai-4cusp.json").read_text())),
              ("monodromy", json.loads((root / "configs" / "sphere-4cusp.json").read_text())),
              ("goldman", bundle),
              ("lambda-check", dict(LAMBDA, order=8, seed=7))]
    faults = []
    for command, doc in inputs:
        for path in _json_paths(doc):
            for value in (None, 5, "x", [], {}):
                text = _set(doc, list(path), value) if path else json.dumps(value)
                try:
                    code = main([command, "--json", text])
                    out = capsys.readouterr().out
                    if not (code in (0, 1, 2) and out.count("\n") == 1
                            and "version" in json.loads(out)):
                        faults.append((command, path, value, code, out))
                except Exception as e:  # noqa: BLE001 - every escape is a fault
                    faults.append((command, path, value, repr(e)))
    assert not faults, faults


def test_deterministic_float_format():
    s = dumps_deterministic({"x": 0.1, "y": [1.0, float("nan")], "z": 3})
    assert s == '{"x":0.10000000000000001,"y":[1.0,"nan"],"z":3}'


def test_kawai_subcommand_end_to_end(capsys, tmp_path):
    cfg = {
        "sphere": {"points": [[0, 0], [1, 0], [0.3, 0.4]],
                   "orders": [None, None, None], "order_infinity": None,
                   "accessory": [[0.2, 0.1]], "base_point": [0.5, -1.5]},
        "t_directions": [{"velocities": [[0, 0], [0, 0], [1, 0]]}],
        "grid": [{"t": [[0, 0]], "c": [[0, 0]]}],
    }
    path = tmp_path / "kawai.json"
    path.write_text(json.dumps(cfg))
    code, rep = run_cli(capsys, "kawai", "--input", str(path))
    assert code == 0
    assert rep["labels"] == ["c0", "t2"]
    assert rep["max_antisymmetry_defect"] <= 1e-8 * rep["scale"]
    omega = rep["grid"][0]["omega"]
    assert abs(complex(*omega[0][1])) > 1.0


def test_monodromy_ordering_error_is_reported(capsys):
    # from this base point 0 and 1 lie at the same argument: build_lassos fails
    cfg = {"points": [[0, 0], [1, 0], [0.3, 0.4]], "orders": [None, None, None],
           "accessory": [[0.2, 0.1]], "base_point": [-1, 0]}
    code, rep = run_cli(capsys, "monodromy", "--json", json.dumps(cfg))
    assert code == 2
    assert "argument tie" in rep["error"]


def test_monodromy_non_finite_transport_is_reported(capsys):
    # a residue of 1e200 overflows the transport: a report, not "nan" figures
    cfg = {"points": [[0, 0], [1, 0], [0.3, 0.4]], "orders": [None, None, None],
           "accessory": [[1e200, 0]]}
    code, rep = run_cli(capsys, "monodromy", "--json", json.dumps(cfg))
    assert code == 2
    assert "non-finite" in rep["error"]


def test_monodromy_nan_drift_is_a_failure(capsys, tmp_path, monkeypatch):
    # NaN compares False with every tolerance, so it must not pass as small
    import charvar.monodromy as mono
    monkeypatch.setattr(mono, "wronskian_drift", lambda m: float("nan"))
    cfg = {"points": [[0, 0], [1, 0]], "orders": [None, None],
           "order_infinity": None, "accessory": []}
    code, rep = run_cli(capsys, "monodromy", "--json", json.dumps(cfg))
    assert code == 2
    assert rep["wronskian_drift"] == "nan"


def _bundle_path(tmp_path, rho, seed):
    rng = np.random.default_rng(seed)
    bundle = {"representation": representation_out(rho),
              "cocycle1": cocycle_out(random_parabolic_cocycle(rho, rng)),
              "cocycle2": cocycle_out(random_parabolic_cocycle(rho, rng))}
    path = tmp_path / "bundle.json"
    path.write_text(dumps_deterministic(bundle))
    return path, bundle


def test_goldman_closed_residuals_come_from_the_pairing(capsys, tmp_path, genus2_rep):
    # the report's relator residuals are the pairing's own walk of R; they
    # must be bit for bit what a separate evaluation of chi(R) gives
    from charvar import __version__
    from charvar.goldman import goldman_closed
    from charvar.serialize import cocycle_in, complex_out
    from charvar.words import relator
    path, bundle = _bundle_path(tmp_path, genus2_rep, 3)
    assert main(["goldman", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    rho = representation_in(bundle["representation"])
    chi1 = cocycle_in(bundle["cocycle1"], rho)
    chi2 = cocycle_in(bundle["cocycle2"], rho)
    want = {"config": {"signature": bundle["representation"]["signature"]},
            "tolerances": {"local": 1e-6},
            "representation_relator_residual": rho.relator_residual(),
            "value": complex_out(goldman_closed(rho, chi1, chi2)),
            "residuals": {"chi1_relator": chi1(relator(rho.signature)).norm(),
                          "chi2_relator": chi2(relator(rho.signature)).norm()},
            "p2_list": {}, "version": __version__}
    assert out == dumps_deterministic(want) + "\n"


def _set(bundle, path, value):
    bundle = json.loads(json.dumps(bundle))
    node = bundle
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(bundle)


def test_goldman_non_finite_pairing_is_reported(capsys, tmp_path, genus2_rep):
    # a finite coefficient of 1e308 overflows the sums: a numerical failure
    _, bundle = _bundle_path(tmp_path, genus2_rep, 4)
    code, rep = run_cli(capsys, "goldman", "--json",
                        _set(bundle, ["cocycle1", "values", "a1", 0], [1e308, 0]))
    assert code == 2
    assert rep["error"].startswith("non-finite Goldman pairing")


@pytest.mark.parametrize("path, value", [
    (["cocycle1", "values", "a1", 0], [float("nan"), 0]),
    (["cocycle2", "values", "b2", 1], [0, float("inf")]),
    (["representation", "images", "a1", 0], [float("nan"), 0]),
    (["representation", "images", "b1", 3], [float("-inf"), 0]),
], ids=["cocycle-nan", "cocycle-inf", "representation-nan", "representation-inf"])
def test_goldman_non_finite_input_is_input_error(capsys, tmp_path, genus2_rep, path, value):
    _, bundle = _bundle_path(tmp_path, genus2_rep, 4)
    code, rep = run_cli(capsys, "goldman", "--json", _set(bundle, path, value))
    assert code == 1
    assert "non-finite number" in rep["error"]


def test_goldman_non_finite_local_system_is_reported(capfd, tmp_path, orb3_rep):
    # an image entry of 1e308 overflows Ad rho(c1); handed to LAPACK, the
    # local solve printed to stdout and exited 1
    _, bundle = _bundle_path(tmp_path, orb3_rep, 4)
    code = main(["goldman", "--json",
                 _set(bundle, ["representation", "images", "c1", 0], [1e308, 0])])
    rep = json.loads(capfd.readouterr().out)
    assert code == 2
    assert rep["error"] == "non-finite local system at c1"


def test_nan_tolerance_is_input_error(capsys, tmp_path, genus2_rep):
    # local=nan would pass every local residual (residual > nan is False),
    # and local=-1 would fail every one
    path, _ = _bundle_path(tmp_path, genus2_rep, 4)
    for value in ("nan", "-1"):
        code, rep = run_cli(capsys, "goldman", "--input", str(path), "--tol", f"local={value}")
        assert code == 1
        assert "tolerance local must be finite and >= 0" in rep["error"]


SPHERE = {"points": [[0, 0], [1, 0], [0.3, 0.4]], "orders": [None, None, None],
          "accessory": [[0.2, 0.1]], "base_point": [0.5, -1.5]}
NAN_POINT = dict(SPHERE, points=[[0, 0], [1, 0], [float("nan"), 0.4]])
VELOCITY = [{"velocities": [[0, 0], [0, 0], [1, 0]]}]


@pytest.mark.parametrize("argv", [
    ["lambda-check", "--json", '{"gamma": [[NaN, 0], [1, 0], [1, 0], [2, 0]]}'],
    ["monodromy", "--json", json.dumps(NAN_POINT)],
    ["kawai", "--json", json.dumps({"sphere": NAN_POINT, "t_directions": VELOCITY})],
    ["kawai", "--json", json.dumps({"sphere": SPHERE, "t_directions": [
        {"velocities": [[0, 0], [0, 0], [float("nan"), 0]]}]})],
], ids=["lambda-gamma", "monodromy-point", "kawai-point", "kawai-velocity"])
def test_nan_input_is_input_error(capsys, argv):
    code, rep = run_cli(capsys, *argv)
    assert code == 1
    assert "non-finite number" in rep["error"]


@pytest.mark.parametrize("argv", [
    ["lambda-check", "--json", '{"order": Infinity}'],
    ["lambda-check", "--json", '{"seed": NaN}'],
    ["lambda-check", "--json", '{"order": 8.5}'],
    ["kawai", "--json", json.dumps({"sphere": SPHERE, "t_directions": VELOCITY,
                                    "accessory_directions": [{"index": float("inf")}]})],
    ["monodromy", "--json", json.dumps(dict(SPHERE, orders=[float("inf"), None, None]))],
    ["monodromy", "--json", json.dumps(dict(SPHERE, order_infinity=True))],
    ["fox", "--sig", '{"g": Infinity}', "--word", "R", "--gen", "a1"],
    ["fox", "--sig", '{"g": 0, "cusps": 3.5}', "--word", "R", "--gen", "c1"],
    ["fox", "--sig", '{"g": 0, "elliptic": [2.5], "cusps": 2}', "--word", "R", "--gen", "c1"],
    ["fox", "--sig", '{"g": 0, "elliptic": [2], "cusps": 1, "orders": [null, "2"]}',
     "--word", "R", "--gen", "c1"],
], ids=["lambda-order", "lambda-seed", "lambda-order-fraction", "kawai-index",
        "monodromy-order", "monodromy-order-bool", "signature-g", "signature-cusps",
        "signature-elliptic", "signature-orders"])
def test_non_integer_input_is_input_error(capsys, argv):
    # every JSON integer goes through serialize.int_in, so infinity is an
    # input error (exit 1), not an OverflowError from int() (exit 2)
    code, rep = run_cli(capsys, *argv)
    assert code == 1
    assert "expected an integer" in rep["error"]


#: every shape of a number that is not one: a number is a JSON number or a
#: list [re, im] of exactly two, never a boolean or a string
BAD_NUMBERS = {"one": [0], "empty": [], "three": [0.2, 0.1, 99], "string": "00",
               "bool": True, "bool-part": [True, 0], "nested": [[0, 0], 0], "null": None,
               "huge-int": 10 ** 400}
LAMBDA = {"f": {"kind": "exp", "scale": 1.0}, "gamma": [[1, 0], [1, 0], [1, 0], [2, 0]],
          "P": [1, 0.5, -0.25], "samples": [[0.1, 0.2]]}
KAWAI = {"sphere": SPHERE, "t_directions": VELOCITY, "grid": [{"c": [[0, 0]]}]}
#: (subcommand, its input, the path of one number in it); None is the
#: goldman bundle of ``_bundle_path``
NUMBER_SITES = {
    "monodromy-point": ("monodromy", SPHERE, ["points", 2]),
    "monodromy-accessory": ("monodromy", SPHERE, ["accessory", 0]),
    "monodromy-base": ("monodromy", SPHERE, ["base_point"]),
    "kawai-offset": ("kawai", KAWAI, ["grid", 0, "c", 0]),
    "kawai-velocity": ("kawai", KAWAI, ["t_directions", 0, "velocities", 2]),
    "goldman-image": ("goldman", None, ["representation", "images", "a1", 0]),
    "goldman-cocycle": ("goldman", None, ["cocycle1", "values", "b2", 2]),
    "lambda-scale": ("lambda-check", LAMBDA, ["f", "scale"]),
    "lambda-gamma": ("lambda-check", LAMBDA, ["gamma", 0]),
    "lambda-P": ("lambda-check", LAMBDA, ["P", 1]),
    "lambda-sample": ("lambda-check", LAMBDA, ["samples", 0]),
}


def _site_input(site, tmp_path, rho, value):
    """The argv of ``site``'s subcommand with ``value`` at its number."""
    command, doc, path = NUMBER_SITES[site]
    doc = _bundle_path(tmp_path, rho, 4)[1] if doc is None else doc
    return [command, "--json", _set(doc, path, value)]


@pytest.mark.parametrize("site", NUMBER_SITES)
def test_every_number_site_takes_a_number_and_a_pair(capsys, tmp_path, genus2_rep, site):
    # the sites of the table below, each given a plain number and a pair
    for value in (1.25, [1.25, -0.5]):
        code, rep = run_cli(capsys, *_site_input(site, tmp_path, genus2_rep, value))
        assert code in (0, 2) and "version" in rep, (value, rep.get("error"))


@pytest.mark.parametrize("shape", BAD_NUMBERS)
@pytest.mark.parametrize("site", NUMBER_SITES)
def test_malformed_number_is_input_error(capsys, tmp_path, genus2_rep, site, shape):
    # every number of every subcommand goes through serialize.complex_in,
    # so each shape that is not a number ends in a JSON report and exit 1,
    # not in a traceback nor in a silent acceptance
    code, rep = run_cli(capsys, *_site_input(site, tmp_path, genus2_rep, BAD_NUMBERS[shape]))
    assert code == 1
    assert "number" in rep["error"]


@pytest.mark.parametrize("site", ["lambda-P", "goldman-cocycle"])
@pytest.mark.parametrize("count", [0, 2, 4])
def test_polynomial_needs_three_coefficients(capsys, tmp_path, genus2_rep, site, count):
    command, _, path = NUMBER_SITES[site]
    text = _site_input(site, tmp_path, genus2_rep, 0.5)[-1]
    code, rep = run_cli(capsys, command, "--json",
                        _set(json.loads(text), path[:-1], [[1, 0]] * count))
    assert code == 1
    assert "three coefficients" in rep["error"]


def test_fox_word_above_the_maximum_is_input_error(capsys):
    # the Fox derivative of a1^n has n terms of up to n letters, so the
    # letters are counted from the exponents and a longer word is refused
    # at once, naming the maximum; a word of the maximum still answers
    from charvar.words import MAX_WORD_LETTERS

    start = time.perf_counter()
    code, rep = run_cli(capsys, "fox", "--sig", SIG2, "--word", "a1^99999999", "--gen", "a1")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert f"maximum {MAX_WORD_LETTERS}" in rep["error"]
    code, rep = run_cli(capsys, "fox", "--sig", SIG2, "--word",
                        f"b1 a1^{MAX_WORD_LETTERS - 2} b1^-1", "--gen", "a1")
    assert code == 0
    assert len(rep["derivative"]) == MAX_WORD_LETTERS - 2


#: finite input whose two dependent residues solve to -inf
OVERFLOWING = {"points": [[0, 0], [1, 0], [0, 1]], "orders": [None, None, None],
               "order_infinity": None, "accessory": [[1.7e308, 1.7e308]]}


@pytest.mark.parametrize("argv", [
    ["monodromy", "--json", json.dumps(OVERFLOWING)],
    ["kawai", "--json", json.dumps({"sphere": OVERFLOWING, "t_directions": VELOCITY})],
], ids=["monodromy", "kawai"])
def test_overflowing_residues_are_input_error(capsys, argv):
    # the sphere is rejected as it is built, not transported into a
    # "non-finite Taylor series" report that echoes residues of -inf
    code, rep = run_cli(capsys, *argv)
    assert code == 1
    assert "must be finite" in rep["error"]


def test_lambda_check_order_above_the_maximum_is_input_error(capsys):
    # the jet arithmetic's cost grows with the order, so an order past the
    # stated maximum is refused at once, naming the maximum; an order below
    # what the Schwarzian needs is refused naming the minimum
    from charvar.cli import MAX_JET_ORDER, MIN_JET_ORDER

    for order, bound in ((MAX_JET_ORDER + 1, f"maximum {MAX_JET_ORDER}"),
                         (MIN_JET_ORDER - 1, f"minimum {MIN_JET_ORDER}"),
                         (-3, f"minimum {MIN_JET_ORDER}")):
        code, rep = run_cli(capsys, "lambda-check", "--json", json.dumps({"order": order}))
        assert code == 1
        assert bound in rep["error"], order
    code, rep = run_cli(capsys, "lambda-check", "--json", json.dumps({"order": MIN_JET_ORDER}))
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["lambda-check", "--json", json.dumps({"order": 10 ** 400})],
    ["identities", "--sig", json.dumps({"g": 10 ** 400})],
], ids=["lambda-order", "signature-g"])
def test_huge_integer_is_input_error(capsys, argv):
    # an int is read with no float conversion, so a 401-digit one is an
    # input error, not an OverflowError from math.isfinite (exit 2)
    code, rep = run_cli(capsys, *argv)
    assert code == 1
    assert "integer out of range" in rep["error"]


@pytest.mark.parametrize("argv", [
    ["identities", "--sig", json.dumps({"g": MAX_RELATOR_LETTERS // 4, "cusps": 1})],
    ["fox", "--sig", json.dumps({"g": 10 ** 9}), "--word", "R", "--gen", "a1"],
    ["goldman", "--json", json.dumps({"representation": {"signature": {"g": 10 ** 9},
                                                         "images": {}},
                                      "cocycle1": {}, "cocycle2": {}})],
], ids=["identities", "fox", "goldman"])
def test_signature_above_the_relator_maximum_is_input_error(capsys, argv):
    # the relator's 4g + m + n letters are counted before any generator name
    # is built, so a signature of genus 1e9 is refused at once
    start = time.perf_counter()
    code, rep = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert f"maximum {MAX_RELATOR_LETTERS}" in rep["error"]


@pytest.mark.parametrize("spelling", ["cusp", "inf"])
def test_a_cusp_is_spelled_null(capsys, spelling):
    # null is the one spelling of a cusp, at a point and at infinity
    for cfg in (dict(SPHERE, orders=[spelling, None, None]),
                dict(SPHERE, order_infinity=spelling)):
        code, rep = run_cli(capsys, "monodromy", "--json", json.dumps(cfg))
        assert code == 1
        assert "expected an integer" in rep["error"]


def _raising(exc):
    def call(*args, **kwargs):
        raise exc
    return call


#: per subcommand, the library call a failure is injected into and the
#: input; None is the goldman bundle of ``_bundle_path``
FAILING_CALLS = {"goldman": ("pairing", None),
                 "lambda-check": ("check_identities", LAMBDA),
                 "monodromy": ("MonodromyEngine", SPHERE),
                 "kawai": ("kawai_experiment", KAWAI)}


@pytest.mark.parametrize("command", FAILING_CALLS)
def test_numerical_failure_ends_the_report_with_exit_2(capsys, monkeypatch, tmp_path,
                                                       genus2_rep, command):
    # the dispatcher alone turns an ArithmeticError into exit 2 and ends the
    # report the subcommand has built so far: a NumericalError is named by
    # its message, any other ArithmeticError as "Type: message"
    name, doc = FAILING_CALLS[command]
    doc = _bundle_path(tmp_path, genus2_rep, 4)[1] if doc is None else doc
    for exc, message in ((NumericalError("lost"), "lost"),
                         (ZeroDivisionError("lost"), "ZeroDivisionError: lost")):
        monkeypatch.setattr(cli, name, _raising(exc))
        code, rep = run_cli(capsys, command, "--json", json.dumps(doc))
        assert code == 2
        assert {"config", "tolerances", "error"} <= set(rep)
        assert rep["error"] == message


def test_monodromy_with_an_order_1e8_point_ends_promptly(capsys):
    # the trace residual of an order-e point reads only the k near the
    # trace, so an order of 1e8 costs what a small one does (it enumerated
    # every k < e, 32 s at 1e8)
    cfg = dict(SPHERE, orders=[10 ** 8, None, None])
    start = time.perf_counter()
    code, rep = run_cli(capsys, "monodromy", "--json", json.dumps(cfg))
    assert time.perf_counter() - start < 10
    assert code in (0, 1, 2)
    assert set(rep["trace_residuals"]) == {"c1", "c2", "c3", "c4"}


@pytest.mark.parametrize("order", [10 ** 10, 10 ** 17, 10 ** 300],
                         ids=["1e10", "1e17", "1e300"])
@pytest.mark.parametrize("site", ["orders", "order_infinity"])
@pytest.mark.parametrize("free", ["accessory", "residues"])
def test_order_above_the_maximum_is_input_error(capsys, order, site, free):
    # above MAX_ORDER, theta = 1 - 1/o^2 is a cusp's to rounding, and an
    # order of 1e17 divided by zero, 10^300 overflowed the float conversion:
    # any order above it is refused, naming the maximum, at a point or at
    # infinity, with the residues solved or given
    cfg = dict(SPHERE, **{site: [order, None, None] if site == "orders" else order})
    if free == "residues":
        del cfg["accessory"]
        cfg["residues"] = [[0.1, 0], [0.2, 0], [-0.3, 0]]
    code, rep = run_cli(capsys, "monodromy", "--json", json.dumps(cfg))
    assert code == 1
    assert f"maximum {MAX_ORDER}" in rep["error"]
    assert set(rep) == {"error", "version"}


@pytest.mark.parametrize("site", ["orders", "order_infinity"])
def test_order_at_the_maximum_ends_in_a_report(capsys, site):
    cfg = dict(SPHERE, **{site: [MAX_ORDER, None, None] if site == "orders" else MAX_ORDER})
    code, rep = run_cli(capsys, "monodromy", "--json", json.dumps(cfg))
    assert code in (0, 2)
    assert rep["config"][site] == cfg[site]
    assert "wronskian_drift" in rep


def _out_runs(tmp_path, rho):
    """Per subcommand, the arguments of an exit-0 run, of an exit-1 run
    whose options parse, and of an exit-2 run (None where no input provokes
    one)."""
    bundle = str(_bundle_path(tmp_path, rho, 4)[0])
    sphere, kawai = json.dumps(SPHERE), json.dumps(KAWAI)
    return {
        "fox": (["--sig", SIG2, "--word", "R", "--gen", "a1"],
                ["--sig", SIG2, "--word", "R", "--gen", "c9"], None),
        "identities": (["--sig", SIG2], ["--sig", "not json"], None),
        "goldman": (["--input", bundle], ["--input", "/no/such/file.json"],
                    ["--input", bundle, "--tol", "local=0"]),
        "lambda-check": ([], ["--json", '{"order": 3}'], ["--tol", "identity=0"]),
        "monodromy": (["--json", sphere], ["--json", json.dumps(NAN_POINT)],
                      ["--json", sphere, "--tol", "wronskian=1e-18"]),
        "kawai": (["--json", kawai], ["--input", "/no/such/file.json"],
                  ["--json", kawai, "--tol", "antisymmetry=0"]),
    }


@pytest.mark.parametrize("command", ["fox", "identities", "goldman", "lambda-check",
                                     "monodromy", "kawai"])
def test_out_receives_every_parsed_report(capsys, tmp_path, orb3_rep, command):
    # every report printed once the options parse is the file's content,
    # byte for byte, whatever the exit code; a stale file is overwritten
    out = tmp_path / "report.json"
    for code, args in enumerate(_out_runs(tmp_path, orb3_rep)[command]):
        if args is None:
            continue
        out.write_text("stale")
        assert main([command, *args, "--out", str(out)]) == code, args
        assert out.read_text() == capsys.readouterr().out, args


def test_out_is_not_written_on_a_usage_error(capsys, tmp_path):
    # a usage error parsed no --out: it only prints
    out = tmp_path / "report.json"
    out.write_text("stale")
    assert main(["kawai", "--bogus", "--out", str(out)]) == 1
    assert "error" in json.loads(capsys.readouterr().out)
    assert out.read_text() == "stale"


@pytest.mark.parametrize("command, config, tol", [("monodromy", "sphere-4cusp.json", "trace=1"),
                                                 ("kawai", "kawai-4cusp.json", "relation=1e-5")])
@pytest.mark.parametrize("prefix", ["--inp", "--ou", "--to"])
def test_an_option_prefix_is_a_usage_error(capsys, tmp_path, command, config, tol, prefix):
    # an option is taken only as spelled in full: argparse's default would
    # take --inp, --ou and --to for --input, --out and --tol and exit 0
    path = str(Path(__file__).resolve().parents[1] / "configs" / config)
    out = tmp_path / "report.json"
    value = {"--inp": path, "--ou": str(out), "--to": tol}[prefix]
    argv = [command, *([] if prefix == "--inp" else ["--input", path]), prefix, value]
    assert main(argv) == 1
    assert capsys.readouterr().out == dumps_deterministic(
        {"error": f"charvar: unrecognized arguments: {prefix} {value}",
         "version": cli.__version__}) + "\n"
    assert not out.exists()


def test_grid_offsets_beyond_the_directions_are_one_report(capsys):
    # the offset is named by its record's repr, byte for byte
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "kawai-4cusp.json").read_text())
    cfg["grid"] = [{"t": [[0, 0], [0.1, 0]]}]
    assert main(["kawai", "--json", json.dumps(cfg)]) == 1
    assert capsys.readouterr().out == (
        '{"error":"grid offsets GridOffset(t=(0j, (0.1+0j)), c=()) exceed the 1 t and 1 '
        'accessory directions","version":"0.1.0"}\n')


def test_out_write_failure_is_one_report(capsys, tmp_path):
    # a path that cannot be written is an input error: one report on stdout
    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["identities", "--sig", SIG2, "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(f"cannot write {out}")


@pytest.mark.parametrize("command", ["fox", "identities", "goldman", "lambda-check",
                                     "monodromy", "kawai"])
def test_unknown_tolerance_is_input_error(capsys, tmp_path, orb3_rep, command):
    # fox and identities check nothing, so --tol is no option of theirs (a
    # usage error); the others know no tolerance x
    args = _out_runs(tmp_path, orb3_rep)[command][0]
    code, rep = run_cli(capsys, command, *args, "--tol", "x=1")
    assert code == 1
    assert set(rep) == {"error", "version"}


def test_lambda_check_nan_residual_fails(capsys):
    # some samples' lambda3/b2 residuals come out NaN; max() used to drop them
    code, rep = run_cli(capsys, "lambda-check", "--json",
                        '{"gamma": [[1e150, 0], [1, 0], [1, 0], [2e-150, 0]]}')
    assert code == 2
    assert rep["residuals"]["lambda3"] == rep["residuals"]["b2"] == "nan"
    assert rep["max_residual"] == "nan"


def test_lambda_check_quadrature_error_is_reported(capsys):
    # f = z^2 has a critical point at the solver's start point 0
    code, rep = run_cli(capsys, "lambda-check", "--json",
                        '{"f": {"kind": "poly", "coeffs": [[0, 0], [0, 0], [1, 0]]}}')
    assert code == 2
    assert rep["error"].startswith("quadrature did not converge")
    assert rep["residuals"]["lambda1"] <= 1e-8


def test_lambda_check_zero_division_is_reported(capsys, monkeypatch):
    # an ArithmeticError that is not the program's own, raised inside the
    # solver: injected (the package's ``schwarzian`` attribute is the
    # function, not the module)
    import importlib
    schwarzian = importlib.import_module("charvar.schwarzian")

    def critical(*args, **kwargs):
        raise ZeroDivisionError("critical point of f on integration path")

    monkeypatch.setattr(schwarzian, "_moment_integrals", critical)
    code, rep = run_cli(capsys, "lambda-check")
    assert code == 2
    assert rep["error"] == "ZeroDivisionError: critical point of f on integration path"


def test_lambda_check_empty_samples_is_input_error(capsys):
    # a parabolic gamma used to divide by len(samples) == 0
    code, rep = run_cli(capsys, "lambda-check", "--json",
                        '{"gamma": [[1, 0], [1, 0], [0, 0], [1, 0]], "samples": []}')
    assert code == 1
    assert "samples" in rep["error"]


@pytest.mark.parametrize("text", ['[1]', '{"f": 3}', '{"gamma": null}', '{"P": 5}',
                                  '{"samples": [null]}', '{"f": {"kind": "poly"}}'])
def test_lambda_check_malformed_config_is_input_error(capsys, text):
    code, rep = run_cli(capsys, "lambda-check", "--json", text)
    assert code == 1
    assert rep["error"].startswith("bad lambda-check config")


@pytest.mark.parametrize("edit", ["missing", "unknown"])
def test_goldman_cocycle_generators_are_checked(capsys, tmp_path, genus2_rep, edit):
    # a cocycle without b1 used to die with KeyError inside the pairing
    _, bundle = _bundle_path(tmp_path, genus2_rep, 5)
    values = bundle["cocycle2"]["values"]
    if edit == "missing":
        del values["b1"]
    else:
        values["c1"] = values["b1"]
    code, rep = run_cli(capsys, "goldman", "--json", json.dumps(bundle))
    assert code == 1
    assert rep["error"].startswith("bad goldman bundle: cocycle generators")


@pytest.mark.parametrize("edit", ["missing", "unknown"])
def test_goldman_representation_generators_are_checked(capsys, tmp_path, genus2_rep, edit):
    # an image for a generator the signature does not have used to be kept
    # (and read by the reducibility check) with exit 0
    _, bundle = _bundle_path(tmp_path, genus2_rep, 5)
    images = bundle["representation"]["images"]
    if edit == "missing":
        del images["b2"]
    else:
        images["c7"] = images["a1"]
    code, rep = run_cli(capsys, "goldman", "--json", json.dumps(bundle))
    assert code == 1
    assert rep["error"].startswith("bad goldman bundle: representation generators")
    assert ("c7" if edit == "unknown" else "b2") in rep["error"]


@pytest.mark.parametrize("cfg,message", [
    # one t and one accessory direction: a second offset of each used to be
    # dropped while the report echoed it as applied
    ({"sphere": SPHERE, "t_directions": VELOCITY,
      "grid": [{"t": [[0, 0], [5, 5]], "c": [[0, 0], [7, 7]]}]}, "exceed"),
    ({"sphere": SPHERE, "t_directions": [], "accessory_directions": []},
     "at least one direction"),
    ({"sphere": SPHERE, "t_directions": VELOCITY, "grid": []}, "at least one grid point"),
    # a grid that is an object, or that holds a non-object, used to end in
    # an AttributeError traceback
    ({"sphere": SPHERE, "t_directions": VELOCITY, "grid": {"t": [0.1]}},
     "bad kawai config: grid must be a list of objects"),
    ({"sphere": SPHERE, "t_directions": VELOCITY, "grid": [5]},
     "bad kawai config: grid must be a list of objects"),
], ids=["offsets-beyond-directions", "no-directions", "empty-grid", "grid-object",
        "grid-non-object"])
def test_kawai_grid_must_fit_the_directions(capsys, cfg, message):
    code, rep = run_cli(capsys, "kawai", "--json", json.dumps(cfg))
    assert code == 1
    assert message in rep["error"]


@pytest.mark.parametrize("offset, end", [([1e160, 0], "1e+160+0.4j"), ([1e200, 0], "1e+200+0.4j"),
                                         ([0, -1e200], "0.3-1e+200j"), ([1e308, 0], "1e+308+0.4j")])
def test_kawai_huge_grid_offset_is_a_named_failure(capsys, offset, end):
    # the displaced point is finite, but the squared length of its stem is
    # not: exit 2 with an IntegrationError that gives the stem's end, where a
    # float ** used to end in "OverflowError: (34, 'Numerical result out of
    # range')"
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "kawai-4cusp.json").read_text())
    cfg["grid"] = [{"t": [offset]}]
    code, rep = run_cli(capsys, "kawai", "--json", json.dumps(cfg))
    assert code == 2
    assert rep["error"] == f"step overflow on the path to {end}"


@pytest.mark.parametrize("offset, end", [([1e100, 0], "1e+100+0.4j"),
                                         ([1e150, 0], "1e+150+0.4j")])
def test_kawai_long_stem_underflow_names_the_path_not_a_pole(capsys, offset, end):
    # the stem to the displaced point is finite and its squared length too,
    # but its steps near the base point reach 0.79 against a segment of
    # 1e100: exit 2 naming the stem's end, where the report used to blame a
    # pole near the base point, 1.6 from the nearest one
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "kawai-4cusp.json").read_text())
    cfg["grid"] = [{"t": [offset]}]
    code, rep = run_cli(capsys, "kawai", "--json", json.dumps(cfg))
    assert code == 2
    assert rep["error"] == f"step underflow on the path to {end}"


@pytest.mark.parametrize("base, named", [
    ([0, 0], "base point 0+0j lies on marked point 0 at 0+0j"),
    ([0, 1], "base point 0+1j lies on marked point 2 at 0+1j")])
def test_monodromy_base_point_on_a_marked_point_is_bad_input(capsys, base, named):
    # exit 1 naming the point, where the lassos used to fail as a numerical
    # exit 2 ("argument tie", or a stem that clears the point by 0)
    cfg = {"points": [[0, 0], [1, 0], [0, 1]], "orders": [None, None, None],
           "accessory": [[0.1, 0]], "base_point": base}
    code, rep = run_cli(capsys, "monodromy", "--json", json.dumps(cfg))
    assert code == 1
    assert rep["error"] == f"bad sphere data: {named}"


def test_kawai_base_point_on_a_marked_point_is_bad_input(capsys):
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "kawai-4cusp.json").read_text())
    cfg["sphere"]["base_point"] = [0.3, 0.4]
    code, rep = run_cli(capsys, "kawai", "--json", json.dumps(cfg))
    assert code == 1
    assert rep["error"] == ("bad kawai config: base point 0.3+0.4j lies on marked point 2 "
                            "at 0.3+0.4j")


def _fiber_config(name):
    """The committed kawai config ``name`` restricted to its accessory
    directions: no t direction, and only the c offsets of its grid."""
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / f"{name}.json").read_text())
    cfg["t_directions"] = []
    cfg["grid"] = [{"c": g["c"]} for g in cfg["grid"]]
    return cfg


@pytest.mark.parametrize("name", ["kawai-4cusp", "kawai-5point"])
def test_kawai_fiber_pairings_at_noise_level_pass(capsys, monkeypatch, name):
    # the fiber pairs to ~0 with itself, so every pairing and the scale are
    # rounding noise (1e-11 .. 1e-9): the antisymmetry bound is relative to
    # the scale floored at 1, where a noise scale used to fail the run
    code, rep = run_cli(capsys, "kawai", "--json", json.dumps(_fiber_config(name)))
    assert code == 0
    assert rep["scale"] < 1e-8 and rep["max_antisymmetry_defect"] < 1e-8
    # a pairing made asymmetric by 1e-6 still fails
    import charvar.cli as cli
    experiment = cli.kawai_experiment

    def skewed(*args, **kwargs):
        results = experiment(*args, **kwargs)
        for result in results:
            result.omega[-1][0] += 1e-6
        return results

    monkeypatch.setattr(cli, "kawai_experiment", skewed)
    code, rep = run_cli(capsys, "kawai", "--json", json.dumps(_fiber_config(name)))
    assert code == 2
    assert rep["max_antisymmetry_defect"] > 1e-7


def test_repeated_calls_leave_no_traced_memory(capsys):
    # no array or cache of the package outlives a call: after a warm-up,
    # 30 in-process kawai and monodromy runs leave under 64 KB of growth in
    # what tracemalloc traces
    import gc
    import tracemalloc
    root = Path(__file__).resolve().parents[1]
    argvs = [["kawai", "--input", str(root / "configs" / "kawai-4cusp.json")],
             ["monodromy", "--input", str(root / "configs" / "sphere-4cusp.json")]]

    def run(times):
        for _ in range(times):
            for argv in argvs:
                assert main(argv) == 0
                capsys.readouterr()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        before = run(3)
        growth = run(30) - before
    finally:
        tracemalloc.stop()
    assert growth < 64 * 1024, growth
