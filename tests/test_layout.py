import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WIDTH = 100


@pytest.mark.parametrize("folder", ["src", "tests"])
def test_lines_fit_the_width(folder):
    # the project's line width, for every Python file of the package and tests
    long = [f"{path.relative_to(ROOT)}:{n}"
            for path in sorted((ROOT / folder).rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > WIDTH]
    assert not long, f"lines over {WIDTH} columns: {long}"


def _importable(module: str, name: str) -> bool:
    """Whether ``from module import name`` succeeds: an attribute of the
    module, or a submodule of the package."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_perfbench_imports_resolve():
    # the benchmark imports these names from the package: deleting one
    # breaks every benchmark run, so each must resolve
    names = [(node.module, alias.name)
             for path in sorted((ROOT / "perfbench").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.level == 0
             and (node.module or "").split(".")[0] == "charvar"
             for alias in node.names]
    assert ("charvar.goldman", "goldman_closed") in names
    missing = [f"{mod}.{name}" for mod, name in names if not _importable(mod, name)]
    assert not missing, f"perfbench imports names the package lacks: {missing}"


def test_no_module_imports_a_private_name():
    # a name with a leading underscore (a dunder such as __version__ aside)
    # is private to its module: no module of the package imports one from
    # another
    private = [f"{path.relative_to(ROOT)}: {node.module} {alias.name}"
               for path in sorted((ROOT / "src").rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private, f"private names imported across modules: {private}"


def test_no_module_imports_inside_a_function():
    # every import of the package sits at the top level of its module: an
    # import in a function body is how an import cycle gets worked around,
    # and the modules have none
    nested = [f"{path.relative_to(ROOT)}:{node.lineno}"
              for path in sorted((ROOT / "src").rglob("*.py"))
              for fn in ast.walk(ast.parse(path.read_text()))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside a function: {nested}"


#: the names of perfbench's ``tracer.TARGETS`` that the package no longer
#: defines; their per-layer metrics read 0 until the benchmark drops them
GONE_TARGETS = {"cocycles.finite_difference_cocycle", "cocycles.verify_cocycle",
                "cocycles.solve_local_coboundary", "cocycles.Cocycle.evaluate_ring",
                "goldman.goldman_orbifold", "monodromy.integrate_fundamental",
                "monodromy.MonodromyEngine.max_wronskian_drift", "kawai.trace_drift"}


def _traced(module: str, qualname: str) -> bool:
    """Whether the tracer can wrap ``qualname`` of ``charvar.<module>``: the
    last part defined in the namespace of the module or class before it."""
    owner, _, attr = qualname.rpartition(".")
    holder = importlib.import_module(f"charvar.{module}")
    for part in owner.split(".") if owner else ():
        holder = getattr(holder, part, None)
    return attr in getattr(holder, "__dict__", {})


def test_perfbench_traced_names_resolve():
    # the benchmark times each layer by wrapping these names; deleting one
    # silently zeroes its per-layer metric, so each must resolve but the
    # ones already gone
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    missing = {f"{module}.{qual}" for module, qual in targets if not _traced(module, qual)}
    assert len(targets) - len(missing) >= 12
    assert not missing - GONE_TARGETS, f"traced names the package lacks: {missing - GONE_TARGETS}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_every_private_helper_is_used():
    # a private name defined at module level, or a private method, that no
    # code of the package reads is a leftover: a module-level one must be
    # read in its own module (no module imports another's private names),
    # a method anywhere in the package
    defined, loaded, attrs = [], {}, set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        module = str(path.relative_to(ROOT))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name, False) for name in names if _private(name)]
            if isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{sub.name}", True) for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and _private(sub.name)]
        loaded[module] = {n.id for n in ast.walk(tree)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        attrs |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert ("src/charvar/monodromy.py", "_lockstep", False) in defined
    unused = [f"{module}: {name}" for module, name, method in defined
              if not (name.rpartition(".")[2] in attrs if method else name in loaded[module])]
    assert not unused, f"private names nothing in src/ reads: {unused}"


def _src_trees():
    """(path relative to the root, module tree) of every module of the
    package."""
    return [(str(path.relative_to(ROOT)), ast.parse(path.read_text()))
            for path in sorted((ROOT / "src").rglob("*.py"))]


def test_no_exception_class_derives_from_runtime_error():
    # a failure the program detects derives from sl2.NumericalError, an
    # ArithmeticError, which the CLI answers with exit 2; a RuntimeError
    # would escape that handler
    runtime = [f"{module}: {node.name}" for module, tree in _src_trees()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               if any(getattr(base, "id", getattr(base, "attr", None)) == "RuntimeError"
                      for base in node.bases)]
    assert not runtime, f"exception classes deriving from RuntimeError: {runtime}"


def _imports_serialize(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return False
    return any(name.split(".")[-1] == "serialize" for name in names)


def test_only_the_cli_imports_serialize():
    # the CLI reads every input and shapes every report; the library
    # modules know no JSON
    importers = [f"{module}:{node.lineno}" for module, tree in _src_trees()
                 if not module.endswith("cli.py")
                 for node in ast.walk(tree) if _imports_serialize(node)]
    assert not importers, f"modules importing serialize: {importers}"


def test_no_module_defines_as_dict():
    # a report's JSON shape is written once, in cli.py
    defining = [f"{module}:{node.lineno}" for module, tree in _src_trees()
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "as_dict"]
    assert not defining, f"as_dict defined in src/: {defining}"


#: a bound as the README writes it: "`module.NAME` = value", the value an
#: integer or a power such as 10^8
_README_BOUND = re.compile(r"`(\w+)\.([A-Z][A-Z_]*)` = (\d+)(?:\^(\d+))?")


def test_readme_bounds_are_the_constants():
    # each bound the README states by name must be the constant's value
    stated = {(module, name): int(base) ** int(power or 1)
              for module, name, base, power in _README_BOUND.findall(
                  (ROOT / "README.md").read_text())}
    assert {("words", "MAX_WORD_LETTERS"), ("words", "MAX_RELATOR_LETTERS"),
            ("cli", "MIN_JET_ORDER"), ("cli", "MAX_JET_ORDER"),
            ("monodromy", "MAX_ORDER")} <= set(stated)
    wrong = {f"{module}.{name}": value for (module, name), value in stated.items()
             if getattr(importlib.import_module(f"charvar.{module}"), name) != value}
    assert not wrong, f"README bounds that are not the constants: {wrong}"


#: the classes of the package that stay dataclasses, each with its reason:
#: none, every record is a namedtuple or a plain class
DATACLASSES: dict[str, str] = {}


def test_no_module_uses_dataclass_but_the_allowlist():
    # every `charvar` command imports the whole package afresh, and each
    # @dataclass generates and execs its methods then (about 0.5 ms a class
    # on a 2-core x86-64 host, and about 1 ms for the dataclasses import): a
    # class is a dataclass only by the allowlist, now empty, and no module
    # imports dataclasses unless the allowlist names one of its classes
    classes, uses = [], []
    for path in sorted((ROOT / "src" / "charvar").glob("*.py")):
        tree = ast.parse(path.read_text())
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    if "dataclass" in ast.unparse(dec):
                        classes.append(f"{path.stem}.{node.name}")
                        decorators.update(id(n) for n in ast.walk(dec))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                uses += [f"{path.stem}: from dataclasses import {a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                uses += [f"{path.stem}: import {a.name}" for a in node.names
                         if a.name == "dataclasses"]
            elif isinstance(node, ast.Name) and node.id == "dataclass" \
                    and id(node) not in decorators:
                uses.append(f"{path.stem}:{node.lineno}: {node.id}")
    assert classes == list(DATACLASSES), f"dataclasses off the allowlist: {classes}"
    allowed = sorted({f"{name.split('.')[0]}: from dataclasses import dataclass"
                      for name in DATACLASSES})
    assert uses == allowed, f"uses of the dataclasses module: {uses}"


#: the classes of the package that define __eq__, __hash__ or __setattr__ by
#: hand, each with its reason; every other immutable value is a namedtuple,
#: which compares by its fields and whose fields cannot be rebound
HAND_ROLLED = {
    "words.Signature": "unequal to the tuple of its fields (tests/test_words.py)",
    "words.FreeWord": "a tuple's +, *, in and len mean other things for a word",
    "words.GroupRingElement": "a tuple's +, *, in and len mean other things for a ring element",
    "words.PresentationReport": "verify_presentation_identities builds it step by step",
}
#: the classes whose own methods write their fields past their __setattr__
SETATTR_WRITERS = {"words.FreeWord", "words.GroupRingElement"}
_BY_HAND = {"__eq__", "__hash__", "__setattr__"}


def _defines(node) -> set:
    """The names a statement of a class body binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _setattr_bypasses(node) -> list:
    return [n for n in ast.walk(node) if isinstance(n, ast.Attribute)
            and n.attr == "__setattr__" and getattr(n.value, "id", None) == "object"]


def test_values_are_namedtuples_but_the_allowlist():
    # a hand-written __eq__ or __hash__ is where value equality goes missing
    # (a map compared by identity made two parses of one representation
    # unequal), and a __setattr__ guard with object.__setattr__ behind it is
    # what a namedtuple gives for nothing
    by_hand, stray = [], []
    for module, tree in _src_trees():
        stem = Path(module).stem
        allowed = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                name = f"{stem}.{cls.name}"
                if any(_defines(node) & _BY_HAND for node in cls.body):
                    by_hand.append(name)
                if name in SETATTR_WRITERS:
                    allowed |= {id(n) for n in _setattr_bypasses(cls)}
        stray += [f"{module}:{n.lineno}" for n in _setattr_bypasses(tree) if id(n) not in allowed]
    assert sorted(by_hand) == sorted(HAND_ROLLED), \
        f"__eq__/__hash__/__setattr__ by hand in {sorted(by_hand)}, not {sorted(HAND_ROLLED)}"
    assert not stray, f"object.__setattr__ outside {sorted(SETATTR_WRITERS)}: {stray}"
