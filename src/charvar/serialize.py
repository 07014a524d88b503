"""JSON encode/decode for all artifact types plus a deterministic dumper.

Complex numbers travel as [re, im] pairs; reports are emitted with sorted keys
and floats printed at 17 significant digits so identical configurations yield
byte-identical output.
"""

from __future__ import annotations

import cmath
import json
import math
import sys

from .cocycles import Cocycle, Representation
from .monodromy import SphereData, build_potential, default_base_point
from .sl2 import MoebiusMap, QuadPoly
from .words import MAX_RELATOR_LETTERS, Signature


def complex_out(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def complex_in(v) -> complex:
    """The one entry point of every number read from JSON: a number, or a
    list [re, im] of exactly two numbers.  A boolean, a string, a list of
    another length, NaN, infinity and an integer too large for a float are
    input errors."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
    if not all(map(_is_number, parts)):
        raise ValueError(f"expected a number or a pair [re, im] of numbers, got {v!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except OverflowError:
        raise ValueError(f"number out of range {v!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite number {v!r}")
    return z


def int_in(v) -> int:
    """The one entry point of every integer read from JSON: an integral
    number, an int taken as it is with no float conversion.  NaN, infinity,
    a fraction, a boolean, a string and an integer too large for a float are
    input errors."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"expected an integer, got {v!r}")
    if abs(v) > sys.float_info.max:
        raise ValueError(f"integer out of range {v!r}")
    return v


def _order_in(o):
    """A marked point's order: an integer, or null for a cusp (its one
    spelling)."""
    return None if o is None else int_in(o)


def poly_out(p: QuadPoly) -> list[list[float]]:
    return [complex_out(c) for c in p.coeffs()]


def poly_in(v) -> QuadPoly:
    """p0 + p1 z + p2 z^2 from exactly three coefficients [p0, p1, p2]."""
    if not isinstance(v, list) or len(v) != 3:
        raise ValueError(f"expected three coefficients [p0, p1, p2], got {v!r}")
    return QuadPoly(*map(complex_in, v))


def moebius_out(m: MoebiusMap) -> list[list[float]]:
    return [complex_out(c) for c in m.tuple()]


def moebius_in(v) -> MoebiusMap:
    return MoebiusMap(*(complex_in(c) for c in v))


def signature_out(sig: Signature) -> dict:
    out = {"g": sig.g, "elliptic": list(sig.elliptic_orders), "cusps": sig.cusps}
    if sig.orders != sig.elliptic_orders + (None,) * sig.cusps:
        out["orders"] = list(sig.orders)
    return out


def signature_in(d: dict) -> Signature:
    """A signature whose relator has at most MAX_RELATOR_LETTERS letters,
    counted before any generator name is built.  Its orders are the
    elliptic ones, then the cusps, unless ``"orders"`` lists them in another
    generator order: the same orders and as many cusps, or a ValueError."""
    g, cusps = int_in(d["g"]), int_in(d.get("cusps", 0))
    elliptic = tuple(map(int_in, d.get("elliptic", ())))
    size = 4 * g + len(elliptic) + cusps
    if size > MAX_RELATOR_LETTERS:
        raise ValueError(f"relator of {size} letters is above the maximum {MAX_RELATOR_LETTERS}")
    orders = tuple(map(_order_in, d["orders"])) if "orders" in d else elliptic + (None,) * cusps
    if g < 0 or cusps < 0:
        raise ValueError("genus and cusp count must be non-negative")
    finite = sorted(o for o in orders if o is not None)
    if finite != sorted(elliptic) or orders.count(None) != cusps:
        raise ValueError("orders inconsistent with elliptic/cusps")
    return Signature(g, orders)


def representation_out(rho: Representation) -> dict:
    return {"signature": signature_out(rho.signature),
            "images": {g: moebius_out(m) for g, m in rho.images.items()}}


def representation_in(d: dict) -> Representation:
    sig = signature_in(d["signature"])
    images = d["images"]
    if set(images) != set(sig.generators):
        raise ValueError(f"representation generators {list(images)} are not {sig.generators}")
    return Representation(sig, {g: moebius_in(v) for g, v in images.items()})


def cocycle_in(d: dict, rho: Representation) -> Cocycle:
    values = d.get("values", d) if isinstance(d, dict) else d  # or a bare generator map
    if not isinstance(values, dict):
        raise ValueError(f"a cocycle's values are a JSON object, got {values!r}")
    if set(values) != set(rho.signature.generators):
        raise ValueError(f"cocycle generators {list(values)} are not {rho.signature.generators}")
    return Cocycle(rho, {g: poly_in(v) for g, v in values.items()})


def sphere_out(data: SphereData) -> dict:
    return {
        "points": [complex_out(p) for p in data.points],
        "orders": [o for o in data.orders],
        "order_infinity": data.order_infinity,
        "residues": [complex_out(m) for m in data.residues],
        "base_point": complex_out(data.base_point),
    }


def sphere_in(d: dict) -> SphereData:
    points = [complex_in(p) for p in d["points"]]
    orders = [_order_in(o) for o in d["orders"]]
    o_inf = _order_in(d.get("order_infinity"))
    base = complex_in(d["base_point"]) if "base_point" in d else None
    if "residues" in d:
        residues = tuple(complex_in(m) for m in d["residues"])
        zb = base if base is not None else default_base_point(points)
        return SphereData(tuple(points), tuple(orders), o_inf, residues, zb)
    accessory = [complex_in(a) for a in d.get("accessory", [])]
    return build_potential(points, orders, o_inf, accessory, base)


# ---------------------------------------------------------------------------
# deterministic dumper
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e16:
        return f"{int(x)}.0"
    return format(x, ".17g")


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj, key=str)):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps_deterministic(obj) -> str:
    """JSON text with sorted keys and 17-significant-digit floats; identical
    inputs produce identical bytes."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)
