"""Definition files for quivers, representations, maps, and product specs.

One self-describing JSON format with a top-level ``kind`` tag. Complex
scalars are written as two-element ``[re, im]`` arrays (bare reals are
accepted on input); matrices are row-major nested lists. Serialization
normalizes map entries, so a dump/parse/dump cycle is byte-stable after
the first pass.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Any

import numpy as np

from .errors import ParseError
from .exprs import (
    Add,
    Atom,
    Expr,
    FreeMapDef,
    Id,
    Inv,
    Mul,
    ProductSpec,
    Scale,
    normalize,
)
from .quivers import Arc, Quiver, validate_quiver
from .reps import Rep

KINDS = ("quiver", "rep", "map", "product")


# ---------------------------------------------------------------------------
# Scalars and matrices

def _scalar_to_obj(k: complex) -> list[float]:
    k = complex(k)
    return [k.real, k.imag]


def _obj_to_scalar(obj: Any, where: str) -> complex:
    parts = obj if isinstance(obj, list) and len(obj) == 2 else [obj, 0]
    if all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        try:
            k = complex(*parts)
        except OverflowError:  # an integer beyond the floats
            k = complex(math.inf)
        if cmath.isfinite(k):
            return k
    raise ParseError(f"{where}: expected a finite scalar (number or [re, im]), got {obj!r}")


def _matrix_to_obj(m: np.ndarray) -> list[list[list[float]]]:
    return [[_scalar_to_obj(e) for e in row] for row in np.asarray(m)]


def _obj_to_matrix(obj: Any, where: str, empty_cols: int) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ParseError(f"{where}: expected a row-major list of rows")
    rows = len(obj)
    cols = len(obj[0]) if rows else empty_cols
    if any(len(r) != cols for r in obj):
        raise ParseError(f"{where}: ragged rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(obj):
        for j, entry in enumerate(row):
            out[i, j] = _obj_to_scalar(entry, f"{where}[{i}][{j}]")
    return out


def _require(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


# ---------------------------------------------------------------------------
# Quivers

def quiver_to_obj(q: Quiver) -> dict:
    return {
        "kind": "quiver",
        "vertices": list(q.vertices),
        "arcs": [{"name": a.name, "src": a.src, "dst": a.dst} for a in q.arcs],
    }


def obj_to_quiver(obj: Any, where: str = "quiver") -> Quiver:
    vertices = _require(obj, "vertices", where)
    arcs_obj = _require(obj, "arcs", where)
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError(f"{where}.vertices: expected a list of names")
    if not isinstance(arcs_obj, list):
        raise ParseError(f"{where}.arcs: expected a list")
    arcs = []
    for i, a in enumerate(arcs_obj):
        here = f"{where}.arcs[{i}]"
        fields = {key: _require(a, key, here) for key in ("name", "src", "dst")}
        for key, value in fields.items():
            if not isinstance(value, str):
                raise ParseError(f"{here}.{key}: expected a string, got {value!r}")
        arcs.append(Arc(**fields))
    q = Quiver(vertices, arcs)
    problems = validate_quiver(q)
    if problems:
        raise ParseError(f"{where}: " + "; ".join(problems))
    return q


# ---------------------------------------------------------------------------
# Representations

def rep_to_obj(x: Rep) -> dict:
    return {
        "kind": "rep",
        "quiver": quiver_to_obj(x.quiver),
        "dims": {v: int(x.dims[v]) for v in x.quiver.vertices},
        "mats": {a.name: _matrix_to_obj(x.mats[a.name]) for a in x.quiver.arcs},
    }


def obj_to_rep(obj: Any, where: str = "rep") -> Rep:
    q = obj_to_quiver(_require(obj, "quiver", where), f"{where}.quiver")
    dims_obj = _require(obj, "dims", where)
    mats_obj = _require(obj, "mats", where)
    if not isinstance(dims_obj, dict):
        raise ParseError(f"{where}.dims: expected an object")
    dims = {}
    for v, d in dims_obj.items():
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise ParseError(f"{where}.dims.{v}: expected a nonnegative integer")
        dims[v] = d
    if not isinstance(mats_obj, dict):
        raise ParseError(f"{where}.mats: expected an object")
    cols = {a.name: dims.get(a.src, 0) for a in q.arcs}  # [] has no row to count columns by
    try:  # np.zeros refuses a 0 x cols matrix with too large a cols
        mats = {name: _obj_to_matrix(m, f"{where}.mats.{name}", cols.get(name, 0))
                for name, m in mats_obj.items()}
        return Rep(q, dims, mats)
    except ValueError as e:
        raise ParseError(f"{where}: {e}") from e


# ---------------------------------------------------------------------------
# Expressions

def expr_to_obj(e: Expr) -> dict:
    match e:
        case Atom(arc):
            return {"op": "atom", "arc": arc}
        case Id(vertex):
            return {"op": "id", "vertex": vertex}
        case Add(terms):
            return {"op": "add", "terms": [expr_to_obj(t) for t in terms]}
        case Scale(k, of):
            return {"op": "scale", "k": _scalar_to_obj(k), "of": expr_to_obj(of)}
        case Mul(factors):
            return {"op": "mul", "factors": [expr_to_obj(f) for f in factors]}
        case Inv(of, mode):
            return {"op": "inv", "of": expr_to_obj(of), "mode": mode}
    raise ParseError(f"not an expression: {e!r}")


def obj_to_expr(obj: Any, where: str = "expr") -> Expr:
    op = _require(obj, "op", where)
    if op == "atom":
        return Atom(_require(obj, "arc", where))
    if op == "id":
        return Id(_require(obj, "vertex", where))
    if op == "add":
        terms = _require(obj, "terms", where)
        if not isinstance(terms, list) or not terms:
            raise ParseError(f"{where}.terms: expected a nonempty list")
        return Add(
            obj_to_expr(t, f"{where}.terms[{i}]") for i, t in enumerate(terms)
        )
    if op == "sub":
        # sugar: a - b parses to a + (-1) b and is normalized away on dump
        a = obj_to_expr(_require(obj, "minuend", where), f"{where}.minuend")
        b = obj_to_expr(_require(obj, "subtrahend", where), f"{where}.subtrahend")
        return Add((a, Scale(-1, b)))
    if op == "scale":
        k = _obj_to_scalar(_require(obj, "k", where), f"{where}.k")
        return Scale(k, obj_to_expr(_require(obj, "of", where), f"{where}.of"))
    if op == "mul":
        factors = _require(obj, "factors", where)
        if not isinstance(factors, list) or not factors:
            raise ParseError(f"{where}.factors: expected a nonempty list")
        return Mul(
            obj_to_expr(f, f"{where}.factors[{i}]") for i, f in enumerate(factors)
        )
    if op == "inv":
        mode = obj.get("mode", Inv.mode)
        if mode != Inv.mode:
            raise ParseError(f"{where}.mode: expected {Inv.mode!r}, got {mode!r}")
        return Inv(obj_to_expr(_require(obj, "of", where), f"{where}.of"))
    raise ParseError(f"{where}: unknown op {op!r}")


# ---------------------------------------------------------------------------
# Maps and products

def map_to_obj(f: FreeMapDef) -> dict:
    return {
        "kind": "map",
        "source": quiver_to_obj(f.source_quiver),
        "target": quiver_to_obj(f.target_quiver),
        "vertex_map": {v: f.vertex_map[v] for v in f.target_quiver.vertices},
        "entries": {
            a.name: expr_to_obj(normalize(f.entries[a.name]))
            for a in f.target_quiver.arcs
        },
    }


def obj_to_map(obj: Any, where: str = "map") -> FreeMapDef:
    source = obj_to_quiver(_require(obj, "source", where), f"{where}.source")
    target = obj_to_quiver(_require(obj, "target", where), f"{where}.target")
    entries_obj = _require(obj, "entries", where)
    if not isinstance(entries_obj, dict):
        raise ParseError(f"{where}.entries: expected an object")
    entries = {
        name: obj_to_expr(e, f"{where}.entries.{name}")
        for name, e in entries_obj.items()
    }
    vmap = obj.get("vertex_map")
    if vmap is not None and not isinstance(vmap, dict):
        raise ParseError(f"{where}.vertex_map: expected an object")
    # endpoint typing (unknown arcs, composition mismatches) is checked by the
    # FreeMapDef constructor, which names the offending entry
    return FreeMapDef(source, target, entries, vmap)


def product_to_obj(ps: ProductSpec) -> dict:
    return {
        "kind": "product",
        "p_quiver": quiver_to_obj(ps.p_quiver),
        "q_quiver": quiver_to_obj(ps.q_quiver),
        "target": quiver_to_obj(ps.target_quiver),
        "pairs": {
            a.name: list(ps.pairs[a.name]) for a in ps.target_quiver.arcs
        },
    }


def obj_to_product(obj: Any, where: str = "product") -> ProductSpec:
    p_q = obj_to_quiver(_require(obj, "p_quiver", where), f"{where}.p_quiver")
    q_q = obj_to_quiver(_require(obj, "q_quiver", where), f"{where}.q_quiver")
    target = obj_to_quiver(_require(obj, "target", where), f"{where}.target")
    pairs_obj = _require(obj, "pairs", where)
    if not isinstance(pairs_obj, dict):
        raise ParseError(f"{where}.pairs: expected an object")
    pairs = {}
    for name, pair in pairs_obj.items():
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"{where}.pairs.{name}: expected [p_arc, q_arc]")
        pairs[name] = (pair[0], pair[1])
    # older files carry the field; left multiplication is the only orientation
    if obj.get("left_multiplication", True) is not True:
        raise ParseError(f"{where}.left_multiplication: only true is supported")
    try:
        return ProductSpec(p_q, q_q, target, pairs)
    except ValueError as e:
        raise ParseError(f"{where}: {e}") from e


# ---------------------------------------------------------------------------
# Top level

Definition = Quiver | Rep | FreeMapDef | ProductSpec


def to_obj(thing: Definition) -> dict:
    if isinstance(thing, Quiver):
        return quiver_to_obj(thing)
    if isinstance(thing, Rep):
        return rep_to_obj(thing)
    if isinstance(thing, FreeMapDef):
        return map_to_obj(thing)
    if isinstance(thing, ProductSpec):
        return product_to_obj(thing)
    raise ParseError(f"cannot serialize {type(thing).__name__}")


def from_obj(obj: Any) -> Definition:
    kind = _require(obj, "kind", "definition")
    if kind == "quiver":
        return obj_to_quiver(obj)
    if kind == "rep":
        return obj_to_rep(obj)
    if kind == "map":
        return obj_to_map(obj)
    if kind == "product":
        return obj_to_product(obj)
    raise ParseError(f"definition.kind: expected one of {KINDS}, got {kind!r}")


def dumps(thing: Definition) -> str:
    return json.dumps(to_obj(thing), indent=2) + "\n"


def dump(thing: Definition, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(thing))


def loads(text: str) -> Definition:
    try:
        return from_obj(json.loads(text))
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise ParseError("definition is nested too deeply") from None


def parse_definition_file(path) -> Definition:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    try:
        return loads(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from e
