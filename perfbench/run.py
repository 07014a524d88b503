"""charvar benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload kawai-4cusp --seed 1 --seconds 30 --trace 0

Run from the root of a charvar source tree.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run (see
perfbench/README.md).  The last line of stdout is the result object; the line
before it records the environment, the failures by kind, the report digests
and the raw times, and the same record is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
SETUP_PROBES = 10

# single-threaded baseline: serial kawai grid and one BLAS thread, fixed
# before numpy can be imported
os.environ.pop("CHARVAR_THREADS", None)
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(SRC))

from probe import Probe  # noqa: E402
from tracer import FAMILY, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Hooks  # noqa: E402


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] \
        if len(values) > 1 else values[0]


def e2e_metrics(setup_s: float, passes, probe, rss_mb: float, error) -> dict:
    """End-to-end metrics; with a probe, every time is scaled by the host
    speed measured around it.  Item latency and accuracy are those of the
    items that succeeded: a scan configuration that raises OrderingError takes
    2 ms against 300 ms for one that completes, so counting failures would
    move the median with the number of them.  With no item that succeeded
    (``error`` None) neither figure is given."""
    def scaled(t0: float, seconds: float) -> float:
        return seconds * (probe.factor_near(t0, t0 + seconds) if probe else 1.0)

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.mean(scaled(p.start, p.wall_s) for p in passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if error is not None:
        items = [scaled(it.start, it.ms / 1e3) * 1e3
                 for p in passes for it in p.items if it.kind == "ok"]
        metrics["item_ms.p50"] = (statistics.median(items), "ms")
        metrics["accuracy_digits"] = (-math.log10(max(error, sys.float_info.epsilon)),
                                      "digits")
    return metrics


#: targets that only the check after the passes calls; they are counted from
#: its spans, which every other target leaves out
IN_CHECK = ("goldman.cup_product_on_chain",)


def layer_metrics(tracer: Tracer, npasses: int, overhead: float) -> dict:
    """Calls and self seconds of every target per pass, where the traced
    set-up counts once and the traced passes are averaged; derived ratios."""
    in_setup = tracer.self_times(lambda span: span[4] == "setup")
    in_pass = tracer.self_times(lambda span: span[4] not in ("setup", "after"))
    in_check = tracer.self_times(lambda span: span[4] == "after")
    out = {}
    for mod, qual in TARGETS:
        name = f"{mod}.{qual}"
        c0, s0 = (in_check if name in IN_CHECK else in_setup).get(name, (0, 0.0))
        c1, s1 = in_pass.get(name, (0, 0.0))
        out[f"{name}.calls"] = (c0 + c1 / npasses, "calls/pass")
        out[f"{name}.self_s"] = (s0 + s1 / npasses, "s/pass")

    spans = tracer.spans
    integ = [i for i, s in enumerate(spans) if s[0] == "monodromy.integrate_fundamental"]
    useful = sum(tracer.under(i, "monodromy.MonodromyEngine.representation") for i in integ)
    busy = sum(spans[i][2] - spans[i][1] for i in integ)
    families = {i for i, s in enumerate(spans) if s[0] == FAMILY}
    missed = set()  # families under which a representation was computed
    for s in spans:
        if s[0] == "monodromy.MonodromyEngine.representation":
            parent = s[3]
            while parent >= 0 and parent not in families:
                parent = spans[parent][3]
            missed.add(parent)
    out["monodromy.useful_frac"] = (useful / len(integ) if integ else 0.0, "frac")
    out["monodromy.ms_per_integration"] = (busy * 1e3 / len(integ) if integ else 0.0,
                                           "ms/integration")
    out["kawai.family_hit_frac"] = (len(families - missed) / len(families)
                                    if families else 0.0, "frac")
    out["serialize.bytes_out"] = (tracer.bytes_out / npasses, "B/pass")
    out["trace.overhead_frac"] = (overhead, "frac")
    return out


def verdict(wl, passes) -> tuple[bool, int, dict, list]:
    """(correct, attempted, failed items by kind, errors of the items that
    succeeded).  Every pass repeats the same items, so an item is attempted
    once however many passes a run fits, and fails if it failed in any of
    them.  Correct means: the passes' reports agree byte for byte, some item
    succeeded, and the failures are of the workload's known kinds and at most
    its ``max_fail_frac`` of the items."""
    kind_of = [next((it.kind for it in column if it.kind != "ok"), "ok")
               for column in zip(*(p.items for p in passes))]
    failures: dict[str, int] = {}
    for kind in sorted(kind_of):
        if kind != "ok":
            failures[kind] = failures.get(kind, 0) + 1
    errors = [it.error for it, kind in zip(passes[0].items, kind_of) if kind == "ok"]
    correct = (bool(errors) and set(failures) <= set(wl.failure_kinds)
               and sum(failures.values()) <= wl.max_fail_frac * len(kind_of)
               and len({p.digest for p in passes}) == 1)
    return correct, len(kind_of), failures, errors


def measure_setup(workload: str, seed: int) -> tuple[float, list]:
    """Median over fresh interpreters of (import charvar + workload set-up),
    each scaled by the host speed probed around it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(raw * f for raw, f in samples), samples


def setup_only(wl, seed: int) -> int:
    probe = Probe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    t0 = time.perf_counter()
    import charvar  # noqa: F401
    wl.setup(seed)
    raw = time.perf_counter() - t0
    for _ in range(SETUP_PROBES):
        probe.sample()
    print(json.dumps([raw, probe.factor_near(-math.inf, math.inf)]))
    return 0


def run_passes(wl, state, deadline: float, hooks, limit=None) -> list:
    """Passes until the next one would end after ``deadline`` (at least
    one), or ``limit`` passes."""
    passes = []
    while True:
        t0 = hooks.clock()
        ps = wl.run_pass(state, len(passes), hooks)
        ps.start = t0
        ps.wall_s = hooks.clock() - t0
        passes.append(ps)
        if limit is not None and len(passes) >= limit:
            return passes
        if time.perf_counter() + ps.wall_s > deadline:
            return passes


def environment(args) -> dict:
    import numpy
    git = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "charvar").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": git, "src_sha256": src.hexdigest(),
        "charvar_threads": os.environ.get("CHARVAR_THREADS"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    missing = [p for p in ("src/charvar/__init__.py", *wl.required) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a charvar source tree, missing {missing}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(wl, args.seed)

    setup_s, setup_samples = measure_setup(args.workload, args.seed) if not args.trace \
        else (0.0, [])
    import charvar.cli  # noqa: F401  (imported before the timed region)
    state = wl.setup(args.seed)
    start = time.perf_counter()
    traced = []
    if args.trace:
        hooks = Hooks()
        passes = run_passes(wl, state, start + args.seconds / 2, hooks)
        # the same passes again, traced, so the overhead compares equal inputs
        tracer = hooks.tracer = Tracer()
        tracer.install()
        try:
            tracer.item = "setup"
            state = wl.setup(args.seed)
            traced = run_passes(wl, state, start + args.seconds, hooks, limit=len(passes))
            tracer.item = "after"
            after_error, after_ok = wl.after(state, traced)
        finally:
            tracer.uninstall()
        overhead = sum(p.wall_s for p in traced) / sum(p.wall_s for p in passes[:len(traced)]) - 1
    else:
        probe = Probe()
        hooks = Hooks(probe)
        probe.start()
        try:
            passes = run_passes(wl, state, start + args.seconds, hooks)
        finally:
            probe.stop()
        after_error, after_ok = wl.after(state, passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct, attempted, failures, errors = verdict(wl, passes + traced)
    # unlike the worst, the 90th percentile does not hang on one input; the
    # worst is recorded
    error = p90(errors) if errors else None

    record = {"env": environment(args), "passes": len(passes),
              "failures": failures,
              "report_sha256": [p.digest for p in passes],
              "worst_error": max([after_error] + errors), "p90_error": error}
    if args.trace:
        metrics = layer_metrics(tracer, len(traced), overhead)
        record["missing_targets"] = tracer.missing
        RESULTS.mkdir(exist_ok=True)
        with gzip.open(RESULTS / f"{args.workload}-seed{args.seed}-spans.tsv.gz", "wt") as fh:
            tracer.dump(fh)
    else:
        metrics = e2e_metrics(setup_s, passes, probe, rss_mb, error)
        raw_setup = statistics.median(raw for raw, _ in setup_samples)
        record["raw"] = {k: v for k, (v, _) in
                         e2e_metrics(raw_setup, passes, None, rss_mb, error).items()}
        if error is not None:
            record["raw"]["item_ms.p90"] = p90([it.ms for p in passes for it in p.items
                                                if it.kind == "ok"])
        record["pass_wall_s"] = [p.wall_s for p in passes]
        record["probe_samples"] = len(probe.samples)
    result = {"correct": bool(correct and after_ok), "attempted": attempted,
              "failed": sum(failures.values()),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        detail = {"pass_starts": [p.start for p in passes],
                  "probe": list(zip(probe.times, probe.samples)) if not args.trace else []}
        json.dump({**record, "result": result, **detail}, fh)
    print("perfbench " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
