"""Named block-matrix formulas packaged as symbolic free maps.

Everything here is a plain quiver / map constructor or a numeric identity
checker built on them: the Schur complement, the principal pivot transform
(as an involution), the block 2x2 inverse, the Sherman-Morrison-Woodbury
update, truncated exponentials with the Campbell-Baker-Hausdorff series,
a rational composition pipeline, and the standard 2-dimensional
representation of S3 for relation checking.  Closed-form derivative
oracles for the Schur/pivot maps live here too so the automatic
derivative has something independent to be compared against.
"""

from __future__ import annotations

import math

import numpy as np

from .calculus import DirectionField
from .errors import RegularityError, TypecheckError
from .exprs import (
    Atom,
    Expr,
    FreeMapDef,
    add,
    eval_map,
    ident,
    inv,
    mul,
    scale,
    sub,
    typecheck,
)
from .numerics import (
    as_complex_matrix,
    is_invertible,
    op_norm,
    rel_diff,
    worst,
)
from .quivers import Arc, Quiver, RelationPresentation, classical_embed, identity_path, path_of
from .reps import Rep


# ---------------------------------------------------------------------------
# Quivers

def sch_quiver() -> Quiver:
    """Two vertices u, v with loops x1, x2 and crossing arcs x12: v->u, x21: u->v.

    Representations are block 2x2 matrices [[A, B], [C, D]] with possibly
    rectangular off-diagonal blocks: A = X(x1), B = X(x12), C = X(x21),
    D = X(x2).
    """
    return Quiver(
        ("u", "v"),
        (Arc("x1", "u", "u"), Arc("x2", "v", "v"), Arc("x12", "v", "u"), Arc("x21", "u", "v")),
    )


def one_loop_target() -> Quiver:
    """Both vertices of the block quiver, but a single loop x at u.

    Scalar-valued maps out of the block quiver land here: the second vertex
    must be carried along (free maps do not change objects) but holds no arcs.
    """
    return Quiver(("u", "v"), (Arc("x", "u", "u"),))


def smw_quiver() -> Quiver:
    """Rank-k update shapes: a: u->u, c: v->v, U: v->u, V: u->v."""
    return Quiver(
        ("u", "v"),
        (Arc("a", "u", "u"), Arc("U", "v", "u"), Arc("c", "v", "v"), Arc("V", "u", "v")),
    )


# ---------------------------------------------------------------------------
# Schur complement and principal pivot transform

def schur_map() -> FreeMapDef:
    """x |-> x1 - x12 x2^-1 x21 (block 2x2 to its Schur complement)."""
    entry = sub(Atom("x1"), mul(Atom("x12"), inv(Atom("x2")), Atom("x21")))
    return FreeMapDef(sch_quiver(), one_loop_target(), {"x": entry})


def ppt_map(variant: str = "pivot_D") -> FreeMapDef:
    """Principal pivot transform of the block 2x2 quiver, an involution.

    pivot_D: [[A, B], [C, D]] |-> [[A - B D^-1 C, -B D^-1], [D^-1 C, D^-1]]
    pivot_A: [[A, B], [C, D]] |-> [[A^-1, -A^-1 B], [C A^-1, D - C A^-1 B]]

    The exchanged block is inverted, the complementary block becomes the
    Schur complement, and exactly one off-diagonal picks up a sign; with both
    off-diagonals negated the square of the map would shift the complementary
    block by twice the correction term instead of restoring it.
    """
    x1, x2, x12, x21 = Atom("x1"), Atom("x2"), Atom("x12"), Atom("x21")
    if variant == "pivot_D":
        entries = {
            "x1": sub(x1, mul(x12, inv(x2), x21)),
            "x12": scale(-1, mul(x12, inv(x2))),
            "x21": mul(inv(x2), x21),
            "x2": inv(x2),
        }
    elif variant == "pivot_A":
        entries = {
            "x1": inv(x1),
            "x12": scale(-1, mul(inv(x1), x12)),
            "x21": mul(x21, inv(x1)),
            "x2": sub(x2, mul(x21, inv(x1), x12)),
        }
    else:
        raise ValueError(f"unknown pivot variant: {variant!r}")
    return FreeMapDef(sch_quiver(), sch_quiver(), entries)


def schur_derivative(x: Rep, h: DirectionField) -> np.ndarray:
    """Closed-form directional derivative of the Schur complement map:
    H_A - H_B D^-1 C + B D^-1 H_D D^-1 C - B D^-1 H_C."""
    a, b, c, d = (x.mats[k] for k in ("x1", "x12", "x21", "x2"))
    ha, hb, hc, hd = (h.h_mats[k] for k in ("x1", "x12", "x21", "x2"))
    di = np.linalg.inv(d)
    return ha - hb @ di @ c + b @ di @ hd @ di @ c - b @ di @ hc


def ppt_derivative(x: Rep, h: DirectionField, variant: str = "pivot_D") -> dict[str, np.ndarray]:
    """Closed-form directional derivative of ppt_map, one block per arc."""
    a, b, c, d = (x.mats[k] for k in ("x1", "x12", "x21", "x2"))
    ha, hb, hc, hd = (h.h_mats[k] for k in ("x1", "x12", "x21", "x2"))
    if variant == "pivot_D":
        di = np.linalg.inv(d)
        return {
            "x1": schur_derivative(x, h),
            "x12": -hb @ di + b @ di @ hd @ di,
            "x21": di @ hc - di @ hd @ di @ c,
            "x2": -di @ hd @ di,
        }
    if variant == "pivot_A":
        ai = np.linalg.inv(a)
        return {
            "x1": -ai @ ha @ ai,
            "x12": -ai @ hb + ai @ ha @ ai @ b,
            "x21": hc @ ai - c @ ai @ ha @ ai,
            "x2": hd - hc @ ai @ b + c @ ai @ ha @ ai @ b - c @ ai @ hb,
        }
    raise ValueError(f"unknown pivot variant: {variant!r}")


# ---------------------------------------------------------------------------
# Block 2x2 inverse

def block_inverse_map() -> FreeMapDef:
    """The four blocks of [[A, B], [C, D]]^-1 via the Schur complement of A:

    [[A^-1 + A^-1 B S^-1 C A^-1, -A^-1 B S^-1], [-S^-1 C A^-1, S^-1]]
    with S = D - C A^-1 B.  Defined where A and S are invertible.
    """
    x1, x2, x12, x21 = Atom("x1"), Atom("x2"), Atom("x12"), Atom("x21")
    s = sub(x2, mul(x21, inv(x1), x12))
    entries = {
        "x1": add(inv(x1), mul(inv(x1), x12, inv(s), x21, inv(x1))),
        "x12": scale(-1, mul(inv(x1), x12, inv(s))),
        "x21": scale(-1, mul(inv(s), x21, inv(x1))),
        "x2": inv(s),
    }
    return FreeMapDef(sch_quiver(), sch_quiver(), entries)


def assemble_blocks(x: Rep) -> np.ndarray:
    """Stack a block-quiver representation into one (nu+nv) square matrix."""
    return np.block([[x.mats["x1"], x.mats["x12"]], [x.mats["x21"], x.mats["x2"]]])


def block_inverse_check(x: Rep) -> float:
    """Max relative block residual between the formula and direct inversion."""
    nu = x.dims["u"]
    big = assemble_blocks(x)
    if not is_invertible(big):
        raise RegularityError("assembled block matrix is not invertible")
    direct = np.linalg.inv(big)
    image = eval_map(block_inverse_map(), x)
    slots = {
        "x1": direct[:nu, :nu],
        "x12": direct[:nu, nu:],
        "x21": direct[nu:, :nu],
        "x2": direct[nu:, nu:],
    }
    return worst(rel_diff(image.mats[arc], ref) for arc, ref in slots.items())


# ---------------------------------------------------------------------------
# Sherman-Morrison-Woodbury

def smw_lhs_map() -> FreeMapDef:
    """x |-> (a + U c V)^-1 over the rank-k update quiver."""
    entry = inv(add(Atom("a"), mul(Atom("U"), Atom("c"), Atom("V"))))
    return FreeMapDef(smw_quiver(), one_loop_target(), {"x": entry})


def smw_rhs_map() -> FreeMapDef:
    """x |-> a^-1 - a^-1 U (c^-1 + V a^-1 U)^-1 V a^-1."""
    a, u, c, v = Atom("a"), Atom("U"), Atom("c"), Atom("V")
    core = inv(add(inv(c), mul(v, inv(a), u)))
    entry = sub(inv(a), mul(inv(a), u, core, v, inv(a)))
    return FreeMapDef(smw_quiver(), one_loop_target(), {"x": entry})


def smw_check(x: Rep) -> float:
    """Relative residual of the rank-k update identity at x.

    Compares direct numeric inversion of a + U c V against both the expanded
    formula and the symbolic left-hand side (two independent code paths).
    """
    a, u, c, v = (x.mats[k] for k in ("a", "U", "c", "V"))
    updated = a + u @ c @ v
    if not is_invertible(updated):
        raise RegularityError("a + U c V is not invertible")
    direct = np.linalg.inv(updated)
    rhs = eval_map(smw_rhs_map(), x).mats["x"]
    lhs = eval_map(smw_lhs_map(), x).mats["x"]
    return worst((rel_diff(direct, rhs), rel_diff(direct, lhs)))


# ---------------------------------------------------------------------------
# Truncated exponential and the Campbell-Baker-Hausdorff map

def exp_truncated(q: Quiver, e: Expr, order: int = 12) -> Expr:
    """Partial sum of exp: id + e + e^2/2! + ... + e^order/order!.

    Only loop-typed expressions can be exponentiated; the identity term has
    no anchor otherwise.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    src, dst = typecheck(e, q)
    if src != dst:
        raise TypecheckError(f"exponential needs a loop-typed expression, got {src}->{dst}", node=e)
    terms: list[Expr] = [ident(src)]
    for i in range(1, order + 1):
        terms.append(scale(1.0 / math.factorial(i), mul(*([e] * i))))
    return add(*terms)


def matrix_exp_truncated(m: np.ndarray, order: int = 12) -> np.ndarray:
    """Order-`order` Taylor partial sum of exp(m).

    Guards ||m|| <= 1: past that the tail is no longer negligible at the
    default order and the result would silently lose accuracy.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix exponential needs a square matrix")
    if op_norm(m) > 1.0 + 1e-12:
        raise ValueError("norm guard: truncated exponential requires ||m|| <= 1")
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for i in range(1, order + 1):
        term = term @ m / i
        out = out + term
    return out


def cbh_truncated(order: int = 3) -> FreeMapDef:
    """Bracket series for z with exp(z) = exp(x) exp(y), through order 3:
    z = x + y + [x,y]/2 + [x,[x,y]]/12 - [y,[x,y]]/12."""
    if order not in (1, 2, 3):
        raise ValueError("bracket series is implemented through order 3")
    x, y = Atom("x"), Atom("y")

    def brk(p: Expr, r: Expr) -> Expr:
        return sub(mul(p, r), mul(r, p))

    terms: list[Expr] = [x, y]
    if order >= 2:
        terms.append(scale(0.5, brk(x, y)))
    if order >= 3:
        terms.append(scale(1.0 / 12.0, brk(x, brk(x, y))))
        terms.append(scale(-1.0 / 12.0, brk(y, brk(x, y))))
    return FreeMapDef(classical_embed(2), classical_embed(1), {"x": add(*terms)})


def cbh_defect(xm: np.ndarray, ym: np.ndarray, order: int = 3) -> float:
    """||exp(z) - exp(x) exp(y)|| with z from the truncated bracket series.

    Raw (not relative) norm: the quantity under study is how the defect
    scales with the input norms.
    """
    xm, ym = as_complex_matrix(xm), as_complex_matrix(ym)
    point = Rep(classical_embed(2), {"u": xm.shape[0]}, {"x": xm, "y": ym})
    z = eval_map(cbh_truncated(order), point).mats["x"]
    gap = matrix_exp_truncated(z) - matrix_exp_truncated(xm) @ matrix_exp_truncated(ym)
    return op_norm(gap)


# ---------------------------------------------------------------------------
# Rational composition pipeline

def rational_triple_map() -> FreeMapDef:
    """f(x, y) = (x^-1 y^2, 3(yx - xy), y (y - x)^-1) on two loop generators."""
    x, y = Atom("x"), Atom("y")
    entries = {
        "x": mul(inv(x), y, y),
        "y": scale(3, sub(mul(y, x), mul(x, y))),
        "z": mul(y, inv(sub(y, x))),
    }
    return FreeMapDef(classical_embed(2), classical_embed(3), entries)


def rational_triple_derivative(x: Rep, h: DirectionField) -> dict[str, np.ndarray]:
    """Closed-form directional derivative of rational_triple_map:

    ( -X^-1 H X^-1 Y^2 + X^-1 K Y + X^-1 Y K,
      3(K X + Y H - H Y - X K),
      K (Y-X)^-1 - Y (Y-X)^-1 (K - H) (Y-X)^-1 )
    """
    xm, ym = x.mats["x"], x.mats["y"]
    hm, km = h.h_mats["x"], h.h_mats["y"]
    xi = np.linalg.inv(xm)
    wi = np.linalg.inv(ym - xm)
    return {
        "x": -xi @ hm @ xi @ ym @ ym + xi @ km @ ym + xi @ ym @ km,
        "y": 3 * (km @ xm + ym @ hm - hm @ ym - xm @ km),
        "z": km @ wi - ym @ wi @ (km - hm) @ wi,
    }


def sandwich_rational_map() -> FreeMapDef:
    """f(x, y) = (x^-1 y^2, 3(yx - xy), x (y - x)^-1 y): the third component
    sandwiches the inverse between the generators."""
    x, y = Atom("x"), Atom("y")
    entries = {
        "x": mul(inv(x), y, y),
        "y": scale(3, sub(mul(y, x), mul(x, y))),
        "z": mul(x, inv(sub(y, x)), y),
    }
    return FreeMapDef(classical_embed(2), classical_embed(3), entries)


# ---------------------------------------------------------------------------
# Intertwining demo map

def intertwine_demo_target() -> Quiver:
    return Quiver(("u", "v"), (Arc("y1", "u", "u"), Arc("y21", "u", "v")))


def intertwine_demo_map() -> FreeMapDef:
    """Two-entry polynomial map over the block quiver:

    y1  |-> x12 x2 x21 - x1 x12 x21 x1 + 2 x1^2      (evaluates to B D C - A B C A + 2 A^2)
    y21 |-> x21 x1^2 + 2 x2 x21 x1 + x2^2 x21        (evaluates to C A^2 + 2 D C A + D^2 C)

    Every intertwiner of a pair of input points intertwines the image pair;
    the conformance tests drive that property numerically.
    """
    x1, x2, x12, x21 = Atom("x1"), Atom("x2"), Atom("x12"), Atom("x21")
    f1 = add(
        mul(x12, x2, x21),
        scale(-1, mul(x1, x12, x21, x1)),
        scale(2, mul(x1, x1)),
    )
    f21 = add(
        mul(x21, x1, x1),
        scale(2, mul(x2, x21, x1)),
        mul(x2, x2, x21),
    )
    return FreeMapDef(sch_quiver(), intertwine_demo_target(), {"y1": f1, "y21": f21})


# ---------------------------------------------------------------------------
# S3 presentation and its standard representation

def s3_quiver() -> Quiver:
    """Three loop generators x, y, z standing for the transpositions
    (12), (13), (23)."""
    return classical_embed(3)


def s3_presentation() -> RelationPresentation:
    """Transposition relations: x^2 = y^2 = z^2 = id and xy = yz = zx
    (all three products realize the same 3-cycle)."""
    q = s3_quiver()
    e = identity_path("u")
    # path arc lists are in application order; [y, x] evaluates to X @ Y
    rels = (
        (path_of(q, ["x", "x"]), e),
        (path_of(q, ["y", "y"]), e),
        (path_of(q, ["z", "z"]), e),
        (path_of(q, ["y", "x"]), path_of(q, ["z", "y"])),
        (path_of(q, ["z", "y"]), path_of(q, ["x", "z"])),
    )
    return RelationPresentation(q, rels)


def s3_standard_rep() -> Rep:
    """The integer 2-dimensional representation of the transpositions."""
    mats = {
        "x": np.array([[-1, 1], [0, 1]], dtype=np.complex128),
        "y": np.array([[0, -1], [-1, 0]], dtype=np.complex128),
        "z": np.array([[1, 0], [1, -1]], dtype=np.complex128),
    }
    return Rep(s3_quiver(), {"u": 2}, mats)
