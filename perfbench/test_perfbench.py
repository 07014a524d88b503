"""Checks of the benchmark itself:  python3 -m pytest perfbench -q

The traced counts are known answers for the program as it stands: 120 lasso
integrations per kawai-4cusp pass (12 of them Wronskian re-integrations) and
2g*K^2 Fox derivatives per goldman-g8 pass.  A tracer that missed an alias
would undercount them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import Item, Pass  # noqa: E402


def traced_run(workload: str) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", "3", "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_install_wraps_every_alias_and_uninstall_restores():
    import charvar
    from charvar import cli, cocycles, goldman, kawai, sl2, words
    before = (kawai.finite_difference_cocycle, goldman.adjoint_action,
              cli.goldman_orbifold, charvar.fox_derivative, cocycles.Cocycle.evaluate_ring)
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        assert kawai.finite_difference_cocycle is cocycles.finite_difference_cocycle
        assert goldman.adjoint_action is sl2.adjoint_action
        assert cli.goldman_orbifold is goldman.goldman_orbifold
        assert charvar.fox_derivative is words.fox_derivative
        after = (kawai.finite_difference_cocycle, goldman.adjoint_action,
                 cli.goldman_orbifold, charvar.fox_derivative, cocycles.Cocycle.evaluate_ring)
        assert all(a.__wrapped__ is b for a, b in zip(after, before))
    finally:
        tracer.uninstall()
    assert (kawai.finite_difference_cocycle, goldman.adjoint_action, cli.goldman_orbifold,
            charvar.fox_derivative, cocycles.Cocycle.evaluate_ring) == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0],
                    ["b", 5.0, 6.0, 0, 0]]
    times = tracer.self_times(lambda span: True)
    assert times["a"] == (1, 6.0) and times["b"] == (2, 3.0) and times["c"] == (1, 1.0)
    assert tracer.under(2, "a") and not tracer.under(0, "b")


def test_kawai_counts():
    m = traced_run("kawai-4cusp")
    assert m["monodromy.integrate_fundamental.calls"] == 120
    # 12 integrations only re-read the Wronskian: 1 - 12/120 are useful
    assert m["monodromy.useful_frac"] == pytest.approx(0.9)
    assert m["monodromy.MonodromyEngine.max_wronskian_drift.calls"] == 3
    assert m["kawai.family_hit_frac"] == pytest.approx(5 / 9)
    assert m["cli.main.calls"] == 1
    assert m["goldman.cup_product_on_chain.calls"] == 0


def test_goldman_counts():
    m = traced_run("goldman-g8")
    g, k = workloads.GENUS, workloads.COCYCLES
    assert m["words.fox_derivative.calls"] == 2 * g * k * k
    assert m["goldman.goldman_closed.calls"] == k * k
    assert m["cocycles.random_parabolic_cocycle.calls"] == k
    # the cross-check after the passes, traced and counted once
    assert m["goldman.cup_product_on_chain.calls"] == len(workloads.CUP_PAIRS)
    assert m["monodromy.integrate_fundamental.calls"] == 0
    assert set(m) >= {f"{mod}.{qual}.self_s" for mod, qual in TARGETS}


def test_genus_rep_closes_the_relator():
    import numpy as np
    rho = workloads.genus_rep(workloads.GENUS, np.random.default_rng(0))
    assert rho.relator_residual() <= 1e-12


def test_cli_exceptions_are_caught_by_kind():
    # an uncaught OrderingError from the MonodromyEngine constructor
    cfg = {"points": [[0, 0], [1, 0], [0.3, 0.4]], "orders": [None] * 3,
           "accessory": [[0.2, 0.1]], "base_point": [-1, 0]}
    kind, out = workloads.call_cli(["monodromy", "--json", json.dumps(cfg)])
    assert kind == "OrderingError" and out == ""
    assert workloads.call_cli(["no-such-command"])[0] == "exit 2"


def test_scan_inputs_follow_the_seed():
    assert workloads.Scan.configs(5) == workloads.Scan.configs(5)
    assert workloads.Scan.configs(5) != workloads.Scan.configs(6)
    assert len(workloads.Scan.configs(5)) == workloads.SCAN_CONFIGS


def scan_passes(kinds: list[str], npasses: int = 2) -> list:
    return [Pass([Item(1.0, kind, 1e-9) for kind in kinds], "same") for _ in range(npasses)]


def test_failures_count_once_per_item():
    scan = workloads.Scan()
    kinds = ["OrderingError"] * 6 + ["exit 2"] * 4 + ["ok"] * 54
    correct, attempted, failures, errors = run.verdict(scan, scan_passes(kinds, 3))
    assert correct and attempted == 64 and failures == {"OrderingError": 6, "exit 2": 4}
    assert len(errors) == 54


def test_failures_beyond_todays_make_the_run_incorrect():
    scan, n = workloads.Scan(), workloads.SCAN_CONFIGS
    too_many = int(scan.max_fail_frac * n) + 1
    assert not run.verdict(scan, scan_passes(["OrderingError"] * too_many
                                             + ["ok"] * (n - too_many)))[0]
    # nothing succeeded: no accuracy figure, and not correct
    correct, _, _, errors = run.verdict(scan, scan_passes(["exit 2"] * n))
    assert not correct and errors == []
    # a kind that today's runs never show
    assert not run.verdict(scan, scan_passes(["IntegrationError"] + ["ok"] * (n - 1)))[0]
    assert not run.verdict(workloads.Goldman(), scan_passes(["exit 2"] + ["ok"] * 99))[0]
    passes = scan_passes(["ok"] * n)
    passes[1].digest = "other"
    assert not run.verdict(scan, passes)[0]


def test_scan_reruns_a_configuration_to_check_determinism():
    scan = workloads.Scan()
    state = {"configs": scan.configs(5)[:4]}
    passes = [scan.run_pass(state, 0, workloads.Hooks())]
    assert scan.after(state, passes)[1]
    first = next(i for i, it in enumerate(passes[0].items) if it.kind == "ok")
    passes[0].outputs[first] += " "
    assert not scan.after(state, passes)[1]


def test_scan_exit_2_must_name_a_reason():
    tols = {"trace": 1e-6, "relation": 1e-5, "wronskian": 1e-9}
    report = {"tolerances": tols, "relation_residual": 1e-12,
              "trace_residuals": {"t0": 1e-9}, "wronskian_drift": 1e-12}
    item = Item(1.0, "exit 2")
    workloads.Scan.check(item, report)
    assert item.kind == "check"
    item = Item(1.0, "exit 2")
    workloads.Scan.check(item, {**report, "trace_residuals": {"t0": 1e-3}})
    assert item.kind == "exit 2"
    item = Item(1.0, "ok")
    workloads.Scan.check(item, report)
    assert item.kind == "ok" and item.error == 1e-9


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kawai-4cusp",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0 and out.stdout == ""
