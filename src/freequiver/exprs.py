"""Symbolic free maps: expression ASTs over a source quiver, one per target arc.

An Expr is a tree over the node kinds Atom (an arc), Id (identity at a
vertex), Add, Scale, Mul and Inv. Mul stores its factors in composition
order: factors[0] is applied last, so rendering reads left to right exactly
like the usual right-to-left function notation ("y x" applies x first).

A FreeMapDef packages one typed Expr per target arc, together with the
identification of target vertices with source vertices (exact name equality
unless an explicit map is given). Evaluation substitutes a representation's
matrices for the atoms, at one point or at every point of a stack in one
walk; such maps respect direct sums and natural transformations by
construction, which is what the conformance harness re-verifies
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import RegularityError, TypecheckError
from .numerics import _EPS, CANCELLATION_TOL, certified_inverse, inverse_rule, pinv
from .quivers import (
    Path,
    Quiver,
    check_quiver,
    compose_paths,
    enumerate_paths,
    identity_path,
    path_of,
)
from .reps import Rep


# ---------------------------------------------------------------------------
# AST nodes

@dataclass(frozen=True)
class Atom:
    arc: str


@dataclass(frozen=True)
class Id:
    vertex: str


@dataclass(frozen=True)
class Add:
    terms: tuple["Expr", ...]

    def __init__(self, terms: Iterable["Expr"]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("Add needs at least one term")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class Scale:
    k: complex
    of: "Expr"

    def __init__(self, k, of: "Expr"):
        object.__setattr__(self, "k", complex(k))
        object.__setattr__(self, "of", of)


@dataclass(frozen=True)
class Mul:
    """factors[0] applied last (leftmost in rendered order)."""

    factors: tuple["Expr", ...]

    def __init__(self, factors: Iterable["Expr"]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("Mul needs at least one factor")
        object.__setattr__(self, "factors", factors)


@dataclass(frozen=True)
class Inv:
    """The two-sided inverse of its operand, the only kind: a pseudo-inverse
    does not commute with similarities, so it would not give a free map.
    mode is a constant, matched as the second positional field and written
    to definition files."""

    __match_args__ = ("of", "mode")
    mode = "two_sided"
    of: "Expr"


Expr = Union[Atom, Id, Add, Scale, Mul, Inv]


def ident(vertex: str) -> Id:
    return Id(vertex)


def add(*terms: Expr) -> Expr:
    return Add(terms) if len(terms) != 1 else terms[0]


def mul(*factors: Expr) -> Expr:
    return Mul(factors) if len(factors) != 1 else factors[0]


def scale(k, e: Expr) -> Scale:
    return Scale(k, e)


def inv(e: Expr) -> Inv:
    return Inv(e)


def sub(e1: Expr, e2: Expr) -> Expr:
    return Add((e1, Scale(-1, e2)))


# ---------------------------------------------------------------------------
# Rendering (right-to-left composition notation)

def _fmt_scalar(k: complex) -> str:
    if k.imag == 0.0:
        r = k.real
        if r.is_integer():
            return str(int(r))
        return repr(r)
    return f"({k.real:g}{k.imag:+g}j)"


def render_expr(e: Expr) -> str:
    match e:
        case Atom(arc):
            return arc
        case Id(vertex):
            return f"id_{vertex}"
        case Add(terms):
            parts = [render_expr(t) for t in terms]
            out = parts[0]
            for p in parts[1:]:
                if p.startswith("-"):
                    out += " - " + p[1:]
                else:
                    out += " + " + p
            return out
        case Scale(k, of):
            body = render_expr(of)
            if isinstance(of, (Add, Scale)):
                body = f"({body})"
            if k == -1:
                return f"-{body}"
            return f"{_fmt_scalar(k)} {body}"
        case Mul(factors):
            parts = []
            for f in factors:
                p = render_expr(f)
                if isinstance(f, (Add, Scale)):
                    p = f"({p})"
                parts.append(p)
            return " ".join(parts)
        case Inv(of):
            body = render_expr(of)
            if not isinstance(of, (Atom, Id)):
                body = f"({body})"
            return body + "^-1"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Typing

def typecheck(e: Expr, q: Quiver) -> tuple[str, str]:
    """Endpoints (src, dst) of e over q, or TypecheckError at the first
    violation (the message names the offending subexpression). Shapes are
    not checked: evaluation rejects an inverse of a rectangular value."""
    match e:
        case Atom(arc):
            if not q.has_arc(arc):
                raise TypecheckError(f"unknown arc {arc!r}", node=e)
            a = q.arc(arc)
            return (a.src, a.dst)
        case Id(vertex):
            if vertex not in q.vertices:
                raise TypecheckError(f"unknown vertex {vertex!r}", node=e)
            return (vertex, vertex)
        case Add(terms):
            ends = [typecheck(t, q) for t in terms]
            for t, (s, d) in zip(terms[1:], ends[1:]):
                if (s, d) != ends[0]:
                    raise TypecheckError(
                        f"non-parallel sum: {render_expr(terms[0])} is "
                        f"{ends[0][0]}->{ends[0][1]} but {render_expr(t)} is {s}->{d}",
                        node=e,
                    )
            return ends[0]
        case Scale(_, of):
            return typecheck(of, q)
        case Mul(factors):
            ends = [typecheck(f, q) for f in factors]
            for i in range(len(factors) - 1):
                if ends[i][0] != ends[i + 1][1]:
                    raise TypecheckError(
                        f"non-composable product: {render_expr(factors[i + 1])} ends at "
                        f"{ends[i + 1][1]!r} but {render_expr(factors[i])} starts at "
                        f"{ends[i][0]!r}",
                        node=e,
                    )
            return (ends[-1][0], ends[0][1])
        case Inv(of):
            return typecheck(of, q)[::-1]
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Normalization: flatten Add/Mul, hoist scalars, drop identities inside
# products, merge parallel like terms, sort sums by rendered form.

def _split_scale(e: Expr) -> tuple[complex, Expr]:
    if isinstance(e, Scale):
        return e.k, e.of
    return complex(1), e


def normalize(e: Expr) -> Expr:
    match e:
        case Atom(_) | Id(_):
            return e
        case Scale(k, of):
            core = normalize(of)
            kk, core = (k * _split_scale(core)[0], _split_scale(core)[1])
            if kk == 1:
                return core
            return Scale(kk, core)
        case Inv(of):
            return Inv(normalize(of))
        case Mul(factors):
            k_total = complex(1)
            flat: list[Expr] = []
            for f in factors:
                nf = normalize(f)
                kf, core = _split_scale(nf)
                k_total *= kf
                if isinstance(core, Mul):
                    flat.extend(core.factors)
                else:
                    flat.append(core)
            non_id = [f for f in flat if not isinstance(f, Id)]
            if non_id:
                flat = non_id
            else:
                flat = [flat[0]]
            out: Expr = flat[0] if len(flat) == 1 else Mul(tuple(flat))
            if k_total != 1:
                out = Scale(k_total, out)
            return out
        case Add(terms):
            flat: list[Expr] = []
            for t in terms:
                nt = normalize(t)
                if isinstance(nt, Add):
                    flat.extend(nt.terms)
                else:
                    flat.append(nt)
            merged: dict[Expr, complex] = {}
            order: list[Expr] = []
            for t in flat:
                k, core = _split_scale(t)
                if core not in merged:
                    merged[core] = complex(0)
                    order.append(core)
                merged[core] += k
            order.sort(key=render_expr)
            kept = [(merged[c], c) for c in order if merged[c] != 0]
            if not kept:
                return Scale(0, order[0])
            rebuilt = [c if k == 1 else Scale(k, c) for k, c in kept]
            return rebuilt[0] if len(rebuilt) == 1 else Add(tuple(rebuilt))
    raise TypeError(f"not an expression: {e!r}")


def _children(e: Expr) -> tuple:
    match e:
        case Add(kids) | Mul(kids):
            return kids
        case Scale(_, of) | Inv(of):
            return (of,)
    return ()


def _inverse_nodes(e: Expr) -> Iterator[Inv]:
    """e's inverse nodes, one per occurrence, each after its operand's."""
    for k in _children(e):
        yield from _inverse_nodes(k)
    if isinstance(e, Inv):
        yield e


# deepest entry a FreeMapDef takes, in nodes from root to leaf: far above every
# catalog map, far below where the recursive walks (hashing too) hit the limit
_MAX_DEPTH = 200


def _check_depth(e: Expr, entry: str) -> None:
    """TypecheckError if e is deeper than _MAX_DEPTH. Walks level by level,
    without recursion, keeping each distinct node once per level."""
    level, depth = [e], 1
    while level:
        if depth > _MAX_DEPTH:
            raise TypecheckError(f"entry for {entry!r} is nested deeper than {_MAX_DEPTH} levels")
        level = list({id(k): k for n in level for k in _children(n)}.values())
        depth += 1


def from_path_expr(p: Path) -> Expr:
    """Expression whose evaluation is the path's: atoms in rendered order."""
    if p.is_identity:
        return Id(p.src)
    if len(p.arcs) == 1:
        return Atom(p.arcs[0])
    return Mul(tuple(Atom(a) for a in reversed(p.arcs)))


# ---------------------------------------------------------------------------
# Evaluation

@dataclass
class InvDiagnostic:
    """Rank/invertibility record for one inverse node at one point."""

    entry: str | None
    node: str
    sigma_min: float
    sigma_max: float
    ok: bool


def eval_expr(e: Expr, x: Rep) -> np.ndarray:
    """Evaluate e on the representation x.

    x may also be a stack, its arc matrices stacked (size, m, n): numpy's
    products, SVDs and inverses broadcast over the leading axis, so one walk
    evaluates every point of the stack. The walk computes every distinct
    inverse node once and returns repeats from its memo.

    An inverse node is regular when numerics.inverse_rule passes its operand
    at every point of a stack. A non-empty square operand whose computed
    inverse certifies that rule through numerics.certified_inverse
    is not decomposed; any other operand is decided from its singular values.
    Irregular nodes raise RegularityError (naming the node)."""
    return _eval(e, x, None, {})


def _eval(e: Expr, x: Rep, entry, memo: dict) -> np.ndarray:
    """eval_expr's walk; memo maps inverse nodes to their values, and a node
    found there is not decided again."""
    match e:
        case Atom(arc):
            return x.mats[arc]
        case Id(vertex):
            return np.eye(x.dims[vertex], dtype=np.complex128)
        case Add(terms):
            vals = [_eval(t, x, entry, memo) for t in terms]
            return reduce(lambda a, b: a + b, vals)
        case Scale(k, of):
            return k * _eval(of, x, entry, memo)
        case Mul(factors):
            vals = [_eval(f, x, entry, memo) for f in factors]
            return reduce(lambda a, b: a @ b, vals)
        case Inv(of):
            value = memo.get(e)
            if value is None:
                m = _eval(of, x, entry, memo)
                if m.shape[-2] == m.shape[-1] > 0:
                    value = certified_inverse(m)
                if value is None:
                    ok, _, _, reason = inverse_rule(m)
                    if not np.all(ok):
                        node = render_expr(e)
                        raise RegularityError(
                            f"{reason} at {node}" + (f" (entry {entry!r})" if entry else ""),
                            node=node, entry=entry)
                    value = _inverse(m, ok)
                memo[e] = value
            return value
    raise TypeError(f"not an expression: {e!r}")


def _inverse(m: np.ndarray, ok) -> np.ndarray:
    """An inverse node's value at operand m, given inverse_rule's ok: a passing
    node's inverse, else the pseudo-inverse (a failing one's stand-in)."""
    if not np.all(ok):
        return pinv(m)
    return m.copy() if m.shape[-1] == 0 else np.linalg.inv(m)


def eval_tangents(f: "FreeMapDef", x: Rep, u: Mapping[str, np.ndarray],
                  memo: dict) -> dict[str, np.ndarray | None]:
    """Df(X)[H_b] per entry, stacked (B, rows, cols), for the directions u
    (arc -> (B, rows, cols)) at the single point X; an arc missing from u
    does not move, and an entry that no direction moves gives None.

    Upper-triangular block matrices form an algebra: the corner of
    [[A, A′], [0, A]]·[[C, C′], [0, C]] is A′C + AC′, and that of
    [[A, A′], [0, A]]⁻¹ is −A⁻¹A′A⁻¹. So one walk of n×n values and stacked
    n×n tangents gives the corners of f at every block point [[X, H_b], [0, X]].
    Values fold as _eval folds them; each inverse node is decided at X by
    eval_expr's rule through memo, so calls at the same X that share it (one
    per source arc in derivative_matrix) decide each node once.
    Each value's relative rounding error is estimated from its largest moduli:
    a sum's is its terms' over the sum, a product's its factors' plus ε, an
    inverse's κε, κ = |operand|·|inverse|. An inverse whose operand's error
    times κ exceeds CANCELLATION_TOL has lost those digits to cancellation,
    which its singular values do not show, and raises RegularityError."""
    tangents: dict = {}
    return {r: _tangent(e, (x, u, r, memo, tangents))[2] for r, e in f.entries.items()}


def _tangent(e: Expr, args: tuple) -> tuple[np.ndarray, float, np.ndarray | None]:
    """eval_tangents' walk: e's value at X, its estimated relative error and
    its tangent stack (None when no direction moves it). args is (x, u, entry,
    memo, tangents), tangents mapping inverse nodes to those in this pass."""
    x, u, entry, memo, tangents = args
    match e:
        case Atom(arc):
            return x.mats[arc], 0.0, u.get(arc)
        case Id(vertex):
            return np.eye(x.dims[vertex], dtype=np.complex128), 0.0, None
        case Add(terms):
            parts = [_tangent(t, args) for t in terms]
            value = reduce(lambda a, b: a + b, [v for v, _, _ in parts])
            err = sum(_peak(v) * (r + _EPS) for v, r, _ in parts)
            return value, err / top if (top := _peak(value)) else 0.0, _total(d for _, _, d in parts)
        case Scale(k, of):
            v, r, d = _tangent(of, args)
            return k * v, r + _EPS, None if d is None else k * d
        case Mul(factors):
            value, r, d = _tangent(factors[0], args)
            for g in factors[1:]:
                v, rg, dg = _tangent(g, args)  # (P·G)′ = P′G + PG′
                d = _total((None if d is None else d @ v, None if dg is None else value @ dg))
                value, r = value @ v, r + rg + _EPS
            return value, r, d
        case Inv(of):
            if e not in tangents:
                value, (a, r, d) = _eval(e, x, entry, memo), _tangent(of, args)
                kappa = _peak(a) * _peak(value)
                if kappa * r > CANCELLATION_TOL:
                    node = render_expr(e)
                    raise RegularityError(
                        f"operand cancellation leaves {kappa * r:.1e} relative error at {node}"
                        + (f" (entry {entry!r})" if entry else ""), node=node, entry=entry)
                tangents[e] = value, kappa * _EPS, None if d is None else -(value @ d @ value)
            return tangents[e]
    raise TypeError(f"not an expression: {e!r}")


def _peak(m: np.ndarray) -> float:
    """The largest modulus of m's entries, 0.0 for an empty m."""
    return float(np.abs(m).max(initial=0.0))


def _total(terms: Iterable[np.ndarray | None]) -> np.ndarray | None:
    """The sum of the terms that are not None; None when all are."""
    terms = [t for t in terms if t is not None]
    return reduce(lambda a, b: a + b, terms) if terms else None


# ---------------------------------------------------------------------------
# Free map definitions

def _resolve_vertex_map(
    source: Quiver, target: Quiver, vertex_map: Mapping[str, str] | None
) -> dict[str, str]:
    if vertex_map is None:
        missing = [v for v in target.vertices if v not in source.vertices]
        if missing:
            raise TypecheckError(
                f"target vertices {missing} have no same-named source vertex; "
                "pass an explicit vertex_map"
            )
        return {v: v for v in target.vertices}
    vm = dict(vertex_map)
    if set(vm) != set(target.vertices):
        raise TypecheckError("vertex_map keys must be exactly the target vertices")
    bad = [v for v, w in vm.items() if w not in source.vertices]
    if bad:
        raise TypecheckError(f"vertex_map sends {bad} outside the source quiver")
    return vm


@dataclass
class FreeMapDef:
    """A symbolic map between representation categories: for every arc of the
    target quiver, an expression over the source quiver whose endpoints match
    the (identified) endpoints of that arc."""

    source_quiver: Quiver
    target_quiver: Quiver
    entries: dict[str, Expr]
    vertex_map: dict[str, str] | None = None

    def __post_init__(self):
        check_quiver(self.source_quiver)
        check_quiver(self.target_quiver)
        self.vertex_map = _resolve_vertex_map(
            self.source_quiver, self.target_quiver, self.vertex_map
        )
        self.entries = dict(self.entries)
        for a in self.target_quiver.arcs:
            if a.name not in self.entries:
                raise TypecheckError(f"missing entry for target arc {a.name!r}")
            _check_depth(self.entries[a.name], a.name)
            got = typecheck(self.entries[a.name], self.source_quiver)
            want = (self.vertex_map[a.src], self.vertex_map[a.dst])
            if got != want:
                raise TypecheckError(
                    f"entry for {a.name!r} has endpoints {got[0]}->{got[1]}, "
                    f"expected {want[0]}->{want[1]}: {render_expr(self.entries[a.name])}"
                )
        extra = set(self.entries) - set(self.target_quiver.arc_names())
        if extra:
            raise TypecheckError(f"entries for unknown target arcs: {sorted(extra)}")

    def normalized(self) -> "FreeMapDef":
        return FreeMapDef(
            self.source_quiver,
            self.target_quiver,
            {r: normalize(e) for r, e in self.entries.items()},
            dict(self.vertex_map),
        )


MapLike = Union[FreeMapDef, Callable[[Rep], Rep]]


def identity_map(q: Quiver) -> FreeMapDef:
    return FreeMapDef(q, q, {a.name: Atom(a.name) for a in q.arcs})


def eval_map(f: FreeMapDef, x: Rep) -> Rep:
    """Evaluate every entry on x. The image lives over the target quiver with
    the same dimensions under the vertex identification (objects unchanged);
    of a stack, it is a stack of the same size, where an entry that reads no
    arc is one matrix repeated for every point.

    The entries are evaluated in entry order through one walk: they share
    one memo, so an inverse node that occurs in several of them is decided
    and factored once, and the first that fails raises RegularityError. An
    entry whose value is already another entry's array (a repeated inverse
    node, a repeated arc) gets a copy, so no two entries share storage."""
    if x.quiver != f.source_quiver:
        raise ValueError("representation is over a different quiver than the map's source")
    memo: dict = {}
    mats: dict[str, np.ndarray] = {}
    for r, e in f.entries.items():
        v = _eval(e, x, r, memo)
        if x.size is not None and v.ndim == 2:
            v = np.repeat(v[None], x.size, axis=0)
        mats[r] = v.copy() if any(v is w for w in mats.values()) else v
    dims = {v: x.dims[f.vertex_map[v]] for v in f.target_quiver.vertices}
    return Rep(f.target_quiver, dims, mats, x.size)


def is_regular(f: FreeMapDef, x: Rep) -> tuple[bool, list[InvDiagnostic]]:
    """True iff every inverse node passes numerics.inverse_rule at x, and one
    diagnostic per occurrence of an inverse node, in evaluation order. Each
    distinct node is decided once from its operand's singular values; the
    operand comes from eval_expr's walk, whose memo holds the inner nodes'
    values (a failing node's pseudo-inverse stands in)."""
    if x.quiver != f.source_quiver:
        raise ValueError("representation is over a different quiver than the map's source")
    memo, decided, diags = {}, {}, []
    for r, e in f.entries.items():
        for n in _inverse_nodes(e):
            if n not in decided:
                m = _eval(n.of, x, r, memo)
                ok, smin, smax, _ = inverse_rule(m)
                decided[n] = (float(smin), float(smax), bool(ok))
                memo[n] = _inverse(m, ok)
            diags.append(InvDiagnostic(r, render_expr(n), *decided[n]))
    return all(d.ok for d in diags), diags


def add_maps(f: FreeMapDef, g: FreeMapDef) -> FreeMapDef:
    _require_same_frame(f, g)
    return FreeMapDef(
        f.source_quiver,
        f.target_quiver,
        {r: normalize(Add((f.entries[r], g.entries[r]))) for r in f.entries},
        dict(f.vertex_map),
    )


def _require_same_frame(f: FreeMapDef, g: FreeMapDef) -> None:
    if (
        f.source_quiver != g.source_quiver
        or f.target_quiver != g.target_quiver
        or f.vertex_map != g.vertex_map
    ):
        raise ValueError("maps live on different quivers or identifications")


def map_leaves(e: Expr, leaf: Callable[[Expr], Expr]) -> Expr:
    """Rebuild e with every Atom and Id node replaced by leaf(node)."""
    match e:
        case Atom(_) | Id(_):
            return leaf(e)
        case Add(terms):
            return Add(tuple(map_leaves(t, leaf) for t in terms))
        case Scale(k, of):
            return Scale(k, map_leaves(of, leaf))
        case Mul(factors):
            return Mul(tuple(map_leaves(f, leaf) for f in factors))
        case Inv(of):
            return Inv(map_leaves(of, leaf))
    raise TypeError(f"not an expression: {e!r}")


def compose_maps(f: FreeMapDef, g: FreeMapDef) -> FreeMapDef:
    """f after g: substitute g's entries for f's atoms (and reidentify
    vertices), so eval(compose(f, g), x) == eval(f, eval(g, x))."""
    if g.target_quiver != f.source_quiver:
        raise ValueError("inner map's target quiver differs from outer map's source")

    def leaf(e: Expr) -> Expr:
        return g.entries[e.arc] if isinstance(e, Atom) else Id(g.vertex_map[e.vertex])

    entries = {
        r: normalize(map_leaves(e, leaf)) for r, e in f.entries.items()
    }
    vmap = {v: g.vertex_map[f.vertex_map[v]] for v in f.target_quiver.vertices}
    return FreeMapDef(g.source_quiver, f.target_quiver, entries, vmap)


# ---------------------------------------------------------------------------
# Polynomial structure

def _expand_terms(e: Expr, q: Quiver) -> list[tuple[complex, Path]]:
    match e:
        case Atom(arc):
            return [(complex(1), path_of(q, [arc]))]
        case Id(vertex):
            return [(complex(1), identity_path(vertex))]
        case Add(terms):
            out = []
            for t in terms:
                out.extend(_expand_terms(t, q))
            return out
        case Scale(k, of):
            return [(k * c, p) for c, p in _expand_terms(of, q)]
        case Mul(factors):
            lists = [_expand_terms(f, q) for f in factors]
            # factors[-1] applies first; build paths in application order
            combos: list[tuple[complex, Path]] = []

            def rec(i: int, coeff: complex, path: Path | None):
                if i < 0:
                    combos.append((coeff, path))
                    return
                for c, p in lists[i]:
                    nxt = p if path is None else compose_paths(path, p)
                    rec(i - 1, coeff * c, nxt)

            rec(len(lists) - 1, complex(1), None)
            return combos
        case Inv(_):
            raise ValueError(
                f"not a polynomial: inverse node {render_expr(e)} present"
            )
    raise TypeError(f"not an expression: {e!r}")


def to_monomials(f: FreeMapDef) -> list[tuple[complex, FreeMapDef]]:
    """Expand a polynomial map into (coefficient, monomial map) terms.

    Each monomial map carries a single path entry on one target arc and a
    zero entry (Scale(0, ...)) everywhere else; summing coefficient-weighted
    evaluations of the terms reproduces the original map's evaluations.
    Like terms are collected; terms come out sorted by (target arc, path
    length, path arc indices).
    """
    q = f.source_quiver
    collected: dict[tuple[str, Path], complex] = {}
    for r, e in f.entries.items():
        for c, p in _expand_terms(e, q):
            key = (r, p)
            collected[key] = collected.get(key, complex(0)) + c

    def sort_key(item):
        (r, p), _ = item
        return (
            f.target_quiver.arc_index(r),
            len(p),
            tuple(q.arc_index(a) for a in p.arcs),
        )

    terms = sorted(
        ((key, c) for key, c in collected.items() if c != 0), key=sort_key
    )
    zero_entries = {
        r: normalize(Scale(0, e)) for r, e in f.entries.items()
    }
    out = []
    for (r, p), c in terms:
        entries = dict(zero_entries)
        entries[r] = from_path_expr(p)
        out.append(
            (c, FreeMapDef(q, f.target_quiver, entries, dict(f.vertex_map)))
        )
    return out


def degree(f: FreeMapDef) -> int | float:
    """Max monomial length over the expanded entries; identity paths count as
    degree 0; math.inf when any inverse node is present."""
    if any(True for e in f.entries.values() for _ in _inverse_nodes(e)):
        return math.inf
    best = 0
    for _, e in f.entries.items():
        for c, p in _expand_terms(e, f.source_quiver):
            if c != 0:
                best = max(best, len(p))
    return best


# most paths random_polynomial_map draws per entry
_MAX_TERMS = 3


def random_polynomial_map(
    source: Quiver, target: Quiver, seed: int, max_degree: int = 3
) -> FreeMapDef:
    """Seeded polynomial map: each entry is a combination of 1 to _MAX_TERMS
    distinct paths of length <= max_degree between the endpoints of its arc,
    with coefficients in ±{1, 2, 3}. Target vertices are identified with the
    same-named source vertices."""
    vmap = _resolve_vertex_map(source, target, None)
    rng = np.random.Generator(np.random.PCG64(seed))
    entries: dict[str, Expr] = {}
    for a in target.arcs:
        s, d = vmap[a.src], vmap[a.dst]
        paths = enumerate_paths(source, s, d, max_degree)
        if not paths:
            raise ValueError(f"no path {s!r}->{d!r} of length <= {max_degree} "
                             f"for arc {a.name!r}")
        k = min(int(rng.integers(1, _MAX_TERMS + 1)), len(paths))
        terms: list[Expr] = []
        for i in sorted(rng.choice(len(paths), size=k, replace=False).tolist()):
            c = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
            core = from_path_expr(paths[i])
            terms.append(core if c == 1 else Scale(c, core))
        entries[a.name] = normalize(Add(tuple(terms)))
    return FreeMapDef(source, target, entries, dict(vmap))


# ---------------------------------------------------------------------------
# Products ("degree-2 monomial pairings" between two maps)

P_TAG = "p."
Q_TAG = "q."


@dataclass
class ProductSpec:
    """For each target arc, which arc of the left factor's quiver pairs with
    which arc of the right factor's quiver. The left factor is always
    leftmost in the product."""

    p_quiver: Quiver
    q_quiver: Quiver
    target_quiver: Quiver
    pairs: dict[str, tuple[str, str]]

    def __post_init__(self):
        self.pairs = {r: (pa, qa) for r, (pa, qa) in self.pairs.items()}
        for a in self.target_quiver.arcs:
            if a.name not in self.pairs:
                raise ValueError(f"missing pair for target arc {a.name!r}")
            pa_name, qa_name = self.pairs[a.name]
            for q, name in ((self.p_quiver, pa_name), (self.q_quiver, qa_name)):
                if not q.has_arc(name):
                    raise ValueError(f"pair for {a.name!r} names unknown arc {name!r}")
            pa = self.p_quiver.arc(pa_name)
            qa = self.q_quiver.arc(qa_name)
            if qa.dst != pa.src:
                raise ValueError(
                    f"pair for {a.name!r} does not compose: {qa_name!r} ends at "
                    f"{qa.dst!r}, {pa_name!r} starts at {pa.src!r}"
                )
            if (qa.src, pa.dst) != (a.src, a.dst):
                raise ValueError(
                    f"pair for {a.name!r} has endpoints {qa.src}->{pa.dst}, "
                    f"expected {a.src}->{a.dst}"
                )
        extra = set(self.pairs) - set(self.target_quiver.arc_names())
        if extra:
            raise ValueError(f"pairs for unknown target arcs: {sorted(extra)}")


def union_quiver(qp: Quiver, qq: Quiver) -> Quiver:
    """Disjoint union on arcs (tagged), shared vertices by name."""
    vertices = list(qp.vertices) + [v for v in qq.vertices if v not in qp.vertices]
    arcs = [(P_TAG + a.name, a.src, a.dst) for a in qp.arcs] + [
        (Q_TAG + a.name, a.src, a.dst) for a in qq.arcs
    ]
    return check_quiver(Quiver(tuple(vertices), tuple(arcs)))


def pair_rep(x: Rep, y: Rep) -> Rep:
    """A point of the union quiver holding x on the tagged left arcs and y on
    the tagged right arcs. Shared vertices must agree in dimension."""
    uq = union_quiver(x.quiver, y.quiver)
    dims = dict(x.dims)
    for v in y.quiver.vertices:
        if v in dims and dims[v] != y.dims[v]:
            raise ValueError(
                f"identified vertex {v!r} has dimension {dims[v]} on the left "
                f"but {y.dims[v]} on the right"
            )
        dims.setdefault(v, y.dims[v])
    mats = {P_TAG + a: m for a, m in x.mats.items()}
    mats.update({Q_TAG + a: m for a, m in y.mats.items()})
    return Rep(uq, dims, mats)


def product_maps(spec: ProductSpec, f: FreeMapDef, g: FreeMapDef) -> FreeMapDef:
    """(f x g): entry for target arc r is f's paired entry composed after g's,
    defined over the disjoint union of the two source quivers so the factors
    can be evaluated at genuinely different points (see pair_rep)."""
    if f.target_quiver != spec.p_quiver:
        raise ValueError("left factor does not target the product spec's left quiver")
    if g.target_quiver != spec.q_quiver:
        raise ValueError("right factor does not target the product spec's right quiver")

    def retag(e: Expr, tag: str) -> Expr:
        return map_leaves(e, lambda n: Atom(tag + n.arc) if isinstance(n, Atom) else n)

    source = union_quiver(f.source_quiver, g.source_quiver)
    entries = {}
    for r, (pa, qa) in spec.pairs.items():
        entries[r] = normalize(
            Mul((retag(f.entries[pa], P_TAG), retag(g.entries[qa], Q_TAG)))
        )
    return FreeMapDef(source, spec.target_quiver, entries)
