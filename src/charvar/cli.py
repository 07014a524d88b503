"""Command-line front end.

Subcommands: fox, identities, goldman, lambda-check, monodromy, kawai.
Exit codes: 0 success; 2 a tolerance failure or a numerical failure (an
ArithmeticError), the report still emitted with its config and tolerances;
1 an input error (a ValueError), a usage error included.  All reports embed
the resolved tolerance set and the version.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .cocycles import LOCAL_TOL
from .goldman import pairing
from .jets import nan_max
from .kawai import (AccessoryDirection, GridOffset, GridResult, PointDirection,
                    kawai_experiment)
from .monodromy import RELATION_TOL, MonodromyEngine
from .schwarzian import (check_identities, exp_provider, moebius_provider, poly_provider,
                         solve_lambda_report)
from .serialize import (cocycle_in, complex_in, complex_out, dumps_deterministic, int_in,
                        moebius_in, object_in, poly_in, poly_out, representation_in,
                        representation_out, signature_in, signature_out, sphere_in,
                        sphere_out)
from .sl2 import MoebiusMap, NumericalError
from .words import fox_derivative, parse_word, relator, verify_presentation_identities


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: ``_dispatch`` reports it as JSON with
    exit code 1.  Subcommand parsers are of this class too.  An option is
    taken only as spelled in full: a prefix of one is a usage error."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _load_json(args) -> dict:
    if getattr(args, "input", None):
        try:
            with open(args.input) as fh:
                return json.load(fh)
        except OSError as e:
            raise InputError(f"cannot read {args.input}: {e}")
        except json.JSONDecodeError as e:
            raise InputError(f"malformed JSON in {args.input}: {e}")
    if getattr(args, "json", None):
        try:
            return json.loads(args.json)
        except json.JSONDecodeError as e:
            raise InputError(f"malformed inline JSON: {e}")
    raise InputError("provide --input FILE or --json TEXT")


def _parse_sig(text: str):
    try:
        return signature_in(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad signature: {e}")


def _tolerances(args, defaults: dict) -> dict:
    tols = dict(defaults)
    for item in args.tol or []:
        if "=" not in item:
            raise InputError(f"--tol expects name=value, got {item!r}")
        k, v = item.split("=", 1)
        if k not in tols:
            raise InputError(f"unknown tolerance {k!r}; known: {sorted(tols)}")
        tols[k] = float(v)
        if not (math.isfinite(tols[k]) and tols[k] >= 0):
            raise InputError(f"tolerance {k} must be finite and >= 0, got {v!r}")
    return tols


def _emit(report: dict, out, code: int) -> int:
    """Print the report, and write it to the path ``out`` first if one is
    given; a failure to write it is an input error, reported alone."""
    report["version"] = __version__
    text = dumps_deterministic(report)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            return _emit({"error": f"cannot write {out}: {e}"}, None, 1)
    print(text)
    return code


def _cmd_fox(args, report: dict) -> int:
    sig = _parse_sig(args.sig)
    if args.gen not in sig.generators:
        raise InputError(f"unknown generator {args.gen!r} for signature {sig}")
    word = relator(sig) if args.word == "R" else parse_word(args.word, sig)
    deriv = fox_derivative(word, args.gen)
    report.update({
        "config": {"sig": args.sig, "word": args.word, "gen": args.gen},
        "tolerances": {},
        "word": str(word),
        "derivative": [{"coeff": c, "word": str(w)} for w, c in deriv.sorted_terms(sig)],
    })
    return 0


def _cmd_identities(args, report: dict) -> int:
    sig = _parse_sig(args.sig)
    rep = verify_presentation_identities(sig)
    report.update({
        "config": {"sig": args.sig},
        "tolerances": {},
        "signature": signature_out(sig),
        "alpha_convention": rep.alpha_convention,
        "beta_sign": rep.beta_sign,
        "all_pass": rep.all_pass,
        "checks": [{"identity": c.identity, "status": c.status, "witness": c.witness}
                   for c in rep.checks],
    })
    return 0 if rep.all_pass else 2


#: goldman's default bound on each cocycle's chi(R) / max(1, |chi|): the
#: bundles of the test fixtures read at most 1.1e-12, and kawai's tangent
#: cocycles on the committed configs 5.2e-13
COCYCLE_TOL = 1e-8


def _cmd_goldman(args, report: dict) -> int:
    bundle = _load_json(args)
    tols = _tolerances(args, {"local": LOCAL_TOL, "relation": RELATION_TOL,
                              "cocycle": COCYCLE_TOL})
    try:
        rho = representation_in(bundle["representation"])
        chi1 = cocycle_in(bundle["cocycle1"], rho)
        chi2 = cocycle_in(bundle["cocycle2"], rho)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad goldman bundle: {e}")
    relation = rho.relator_residual()
    report.update({
        "config": {"signature": bundle["representation"]["signature"]},
        "tolerances": tols,
        "representation_relator_residual": relation,
    })
    result = pairing(rho, chi1, chi2, local_tol=tols["local"])
    residuals = {"chi1_relator": result.relator_residuals[0],
                 "chi2_relator": result.relator_residuals[1]}
    if rho.signature.num_marked:
        residuals["local"] = {k: s.residual for k, s in result.solves.items()}
    report.update({"value": complex_out(result.value), "residuals": residuals,
                   "p2_list": {k: poly_out(s.poly) for k, s in result.solves.items()}})
    cocycle = max(r / max(1.0, chi.norm())
                  for r, chi in zip(result.relator_residuals, (chi1, chi2)))
    return 0 if relation <= tols["relation"] and cocycle <= tols["cocycle"] else 2


#: lambda-check's kinds of f: the one key each takes besides "kind", and its
#: provider built from the config of f
_F_KINDS = {"exp": ("scale", lambda cfg: exp_provider(complex_in(cfg.get("scale", 1.0)))),
            "poly": ("coeffs", lambda cfg: poly_provider([complex_in(c) for c in cfg["coeffs"]])),
            "moebius": ("matrix", lambda cfg: moebius_provider(moebius_in(cfg["matrix"])))}
#: the smallest jet order lambda-check takes: ``schwarzian.schwarzian`` needs
#: the jet of f to order 4
MIN_JET_ORDER = 4
#: the largest jet order lambda-check takes: its cost grows with the order
#: (1.3 s at 64, 4.5 s at 128), and past about 30 the identities' residuals
#: already exceed the default tolerance
MAX_JET_ORDER = 64


def _cmd_lambda_check(args, report: dict) -> int:
    cfg = _load_json(args) if (args.input or args.json) else {}
    tols = _tolerances(args, {"identity": 1e-8, "solver": 1e-8})
    try:
        object_in(cfg, ("f", "gamma", "P", "samples", "order", "seed"))
        f_cfg = cfg.get("f", {"kind": "exp"})
        if not isinstance(f_cfg, dict) or f_cfg.get("kind") not in _F_KINDS:
            raise ValueError(f"unknown f {f_cfg!r}")
        key, provider = _F_KINDS[f_cfg["kind"]]
        f = provider(object_in(f_cfg, ("kind", key)))
        gamma = moebius_in(cfg["gamma"]) if "gamma" in cfg else MoebiusMap(1, 1, 1, 2)
        P = poly_in(cfg.get("P", [1, 0.5, -0.25]))
        samples = [complex_in(z) for z in cfg.get("samples",
                   [[0.1, 0.2], [0.4, -0.3], [-0.2, 0.5], [0.7, 0.1]])]
        if not samples:
            raise ValueError("samples must list at least one point")
        order, seed = int_in(cfg.get("order", 8)), int_in(cfg.get("seed", 7))
        if order < MIN_JET_ORDER:
            raise ValueError(f"order {order} is below the minimum {MIN_JET_ORDER}")
        if order > MAX_JET_ORDER:
            raise ValueError(f"order {order} is above the maximum {MAX_JET_ORDER}")
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad lambda-check config: {e}")
    report.update({"config": cfg, "tolerances": tols})
    residuals = check_identities(f, P, gamma, samples, order=order, seed=seed)
    report["residuals"] = residuals
    solve = solve_lambda_report(f, lambda z: 6.0 + 0j, complex(0), complex(0.8, 0.3),
                                (0, 0, 0))
    worst = nan_max(*residuals.values())  # lambda1 ... b3, each held to identity
    residuals["lambda4_solver"] = solve.residual
    report["max_residual"] = nan_max(worst, solve.residual)
    return 0 if worst <= tols["identity"] and solve.residual <= tols["solver"] else 2


def _cmd_monodromy(args, report: dict) -> int:
    cfg = _load_json(args)
    tols = _tolerances(args, {"trace": 1e-6, "relation": RELATION_TOL, "wronskian": 1e-9})
    try:
        data = sphere_in(cfg)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad sphere data: {e}")
    report.update({"config": sphere_out(data), "tolerances": tols})
    engine = MonodromyEngine(data)
    rho, wdrift, _ = engine.representation(relation_tol=tols["relation"])
    traces = rho.trace_residuals()
    report.update({
        "representation": representation_out(rho),
        "lasso_order": [str(path.target) for path in engine.paths],
        "relation_residual": rho.relator_residual(),
        "trace_residuals": traces,
        "wronskian_drift": wdrift,
    })
    return 0 if max(traces.values()) <= tols["trace"] and wdrift <= tols["wronskian"] else 2


def _grid_out(r: GridResult) -> dict:
    """One grid point of the kawai report."""
    return {
        "t_offsets": [complex_out(v) for v in r.offset.t],
        "c_offsets": [complex_out(v) for v in r.offset.c],
        "labels": r.labels,
        "omega": [[complex_out(v) for v in row] for row in r.omega],
        "scale": r.scale,
        "antisymmetry_defect": r.antisymmetry_defect,
        "relation_residual": r.relation_residual,
        "wronskian_drift": r.wronskian_drift,
        "trace_drifts": r.trace_drifts,
        "cocycle_relator_residuals": r.cocycle_relator_residuals,
        "local_residuals": r.local_residuals,
        "kernel_dims": r.kernel_dims,
    }


def _cmd_kawai(args, report: dict) -> int:
    cfg = _load_json(args)
    tols = _tolerances(args, {"antisymmetry": 1e-8, "relation": RELATION_TOL})
    try:
        object_in(cfg, ("sphere", "t_directions", "accessory_directions", "grid"))
        base = sphere_in(cfg["sphere"])
        t_dirs = [object_in(d, ("velocities",)) for d in cfg.get("t_directions", [])]
        t_dirs = [PointDirection(tuple(complex_in(v) for v in d["velocities"])) for d in t_dirs]
        acc = None
        if "accessory_directions" in cfg:
            acc = [object_in(d, ("index", "scale")) for d in cfg["accessory_directions"]]
            acc = [AccessoryDirection(int_in(d["index"]), complex_in(d.get("scale", 1.0)))
                   for d in acc]
        grid = cfg.get("grid", [{}])
        if not isinstance(grid, list) or not all(isinstance(g, dict) for g in grid):
            raise TypeError(f"grid must be a list of objects, got {grid!r}")
        grid = [object_in(g, ("t", "c")) for g in grid]
        grid = [GridOffset(tuple(complex_in(v) for v in g.get("t", [])),
                           tuple(complex_in(v) for v in g.get("c", []))) for g in grid]
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad kawai config: {e}")
    report.update({"config": cfg, "tolerances": tols})
    results = kawai_experiment(base, t_dirs, grid=grid, accessory_directions=acc,
                               relation_tol=tols["relation"])
    scale = max(r.scale for r in results)
    defect = max(r.antisymmetry_defect for r in results)
    report.update({"labels": results[0].labels, "scale": scale,
                   "max_antisymmetry_defect": defect,
                   "grid": [_grid_out(r) for r in results]})
    return 0 if defect <= tols["antisymmetry"] * max(scale, 1.0) else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand parser, built once per process: parsing leaves it as
    it was."""
    ap = _Parser(prog="charvar", description=__doc__)
    ap.add_argument("--version", action="version", version=f"charvar {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fox", help="Fox derivative of a word")
    p.add_argument("--sig", required=True,
                   help='signature JSON, e.g. {"g":2,"elliptic":[],"cusps":0}')
    p.add_argument("--word", required=True, help='word text, or "R" for the relator')
    p.add_argument("--gen", required=True)
    p.set_defaults(func=_cmd_fox)

    p = sub.add_parser("identities", help="exact presentation-identity suite")
    p.add_argument("--sig", required=True)
    p.set_defaults(func=_cmd_identities)

    for name, fn, desc in (
            ("goldman", _cmd_goldman, "Goldman pairing of a cocycle bundle"),
            ("lambda-check", _cmd_lambda_check, "Lambda/B identity residual table"),
            ("monodromy", _cmd_monodromy, "lasso monodromy representation"),
            ("kawai", _cmd_kawai, "pullback experiment over a (t,c) grid")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--input", help="path to JSON input")
        p.add_argument("--json", help="inline JSON input")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="override a tolerance (repeatable)")
        p.set_defaults(func=fn)
    for p in sub.choices.values():
        p.add_argument("--out", help="also write the JSON report to this path")

    return ap


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: write nothing more, and let the exit
        # flush of what is still buffered go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(argv) -> int:
    """Run one subcommand and emit its report (``_emit``), to ``--out`` too
    once the options are parsed.  A subcommand fills ``report`` in place,
    config and tolerances first, and returns its exit code.  An input error
    (a ValueError, a usage error included, or an OSError) is a report of the
    error alone, exit 1.  A numerical failure (an ArithmeticError) ends the
    report the subcommand has built so far with the error, exit 2: a
    NumericalError by its message, any other as ``Type: message``."""
    try:
        args = build_parser().parse_args(argv)
    except InputError as e:
        return _emit({"error": str(e)}, None, 1)
    report: dict = {}
    try:
        code = args.func(args, report)
    except ArithmeticError as e:
        own = isinstance(e, NumericalError)
        report["error"] = str(e) if own else f"{type(e).__name__}: {e}"
        code = 2
    except (OSError, ValueError) as e:  # InputError included
        report, code = {"error": str(e)}, 1
    return _emit(report, args.out, code)


if __name__ == "__main__":
    sys.exit(main())
