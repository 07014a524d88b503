"""In-memory span tracer that wraps charvar's public functions from outside.

The program is not changed: ``Tracer.install`` replaces every binding of each
target function -- the defining module's attribute, every ``from .x import y``
alias in the other charvar modules and the package namespace, and methods on
their class -- with a wrapper that records a span.  A span is
``[name, start, end, parent_index, item_id]``; spans stay in a list until the
run ends.  ``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "charvar"

#: (module, qualified name) of every wrapped function; the metric prefix is
#: "<module>.<qualified name>".  jets/schwarzian lie on no workload's path.
TARGETS = (
    ("words", "fox_derivative"),
    ("words", "prefix_products"),
    ("sl2", "adjoint_action"),
    ("cocycles", "finite_difference_cocycle"),
    ("cocycles", "reduce_by_coboundary"),
    ("cocycles", "verify_cocycle"),
    ("cocycles", "solve_local_coboundary"),
    ("cocycles", "Cocycle.evaluate_ring"),
    ("cocycles", "random_parabolic_cocycle"),
    ("goldman", "goldman_closed"),
    ("goldman", "goldman_orbifold"),
    ("goldman", "cup_product_on_chain"),
    ("monodromy", "integrate_fundamental"),
    ("monodromy", "build_lassos"),
    ("monodromy", "MonodromyEngine.representation"),
    ("monodromy", "MonodromyEngine.max_wronskian_drift"),
    ("kawai", "kawai_experiment"),
    ("kawai", "trace_drift"),
    ("serialize", "dumps_deterministic"),
    ("cli", "main"),
)

#: spans of the families that ``kawai.direction_family`` returns; a family
#: call with no ``MonodromyEngine.representation`` below it was a cache hit
FAMILY = "kawai.family"


class BindingMissed(RuntimeError):
    """An original function is still reachable after install."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item = None  # id stamped on every span opened while it is set
        self.bytes_out = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_bytes(self, text) -> None:
        self.bytes_out += len(text)

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = self._modules()
        originals = []
        for mod_name, qual in TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner, _, attr = qual.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = getattr(holder, "__dict__", {}).get(attr) if holder is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{qual}")
                continue
            hook = self._count_bytes if qual == "dumps_deterministic" else None
            wrapped = self.wrap(f"{mod_name}.{qual}", fn, hook)
            originals.append(fn)
            if owner:
                self._set(holder, attr, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, name, wrapped)
        kawai = sys.modules.get(f"{PACKAGE}.kawai")
        if kawai is not None and "direction_family" in vars(kawai):
            make = kawai.direction_family

            @functools.wraps(make)
            def direction_family(*args, **kwargs):
                return self.wrap(FAMILY, make(*args, **kwargs))

            self._set(kawai, "direction_family", direction_family)
        self._check_bindings(modules, originals)

    def _check_bindings(self, modules, originals) -> None:
        """Every module and class namespace of the package must now hold the
        wrapper, never the original: a missed alias would undercount."""
        ids = {id(fn) for fn in originals}
        for m in modules:
            for name, value in vars(m).items():
                spaces = [(name, value)]
                if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    spaces += [(f"{name}.{k}", v) for k, v in vars(value).items()]
                for where, v in spaces:
                    if id(v) in ids:
                        raise BindingMissed(f"{m.__name__}.{where} still holds the original")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self, select) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over the selected spans.  Spans nest
        on one thread, so a span's children are disjoint and the covered part
        is their sum."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for i, span in enumerate(self.spans):
            if not select(span):
                continue
            name, t0, t1 = span[:3]
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += (t1 - t0) - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def under(self, index: int, name: str) -> bool:
        """True if span ``index`` has an ancestor called ``name``."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, fh) -> None:
        fh.write("name\tstart\tend\tparent\titem\n")
        for name, t0, t1, parent, item in self.spans:
            fh.write(f"{name}\t{t0!r}\t{t1!r}\t{parent}\t{item}\n")
