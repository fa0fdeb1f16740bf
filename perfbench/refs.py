"""Reference values computed with numpy alone.

Nothing here calls an evaluator, derivative or certificate of the package
under test: each reference is either a closed form written out with numpy
matrix products and inverses, or the forward-mode (dual number) evaluator
below, which walks the public expression tree with its own product and
inverse rules instead of the block trick.
"""

from __future__ import annotations

import math

import numpy as np

from freequiver.exprs import Add, Atom, Id, Inv, Mul, Scale


def rel_err(got, want) -> float:
    """Frobenius-norm relative error ||got - want|| / ||want||."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return math.inf
    scale = float(np.linalg.norm(want))
    gap = float(np.linalg.norm(got - want))
    return gap / scale if scale else gap


def worst_rel_err(got: dict, want: dict) -> float:
    """Largest rel_err over the arcs of want; a missing arc is infinite."""
    if set(got) != set(want):
        return math.inf
    return max((rel_err(got[k], want[k]) for k in want), default=0.0)


def stacked_norm(mats: dict) -> float:
    return math.sqrt(sum(float(np.linalg.norm(m)) ** 2 for m in mats.values()))


# ---------------------------------------------------------------------------
# Block quiver: x1 = A (u->u), x12 = B (v->u), x21 = C (u->v), x2 = D (v->v)

def assemble(m: dict) -> np.ndarray:
    return np.block([[m["x1"], m["x12"]], [m["x21"], m["x2"]]])


def split(big: np.ndarray, nu: int) -> dict:
    return {
        "x1": big[:nu, :nu],
        "x12": big[:nu, nu:],
        "x21": big[nu:, :nu],
        "x2": big[nu:, nu:],
    }


def block_inverse(m: dict) -> dict:
    """Blocks of the inverse of the assembled matrix [[A, B], [C, D]]."""
    return split(np.linalg.inv(assemble(m)), m["x1"].shape[0])


def block_inverse_derivative(m: dict, h: dict) -> dict:
    """D(M^-1)[H] = -M^-1 H M^-1 on the assembled matrices."""
    mi = np.linalg.inv(assemble(m))
    return split(-mi @ assemble(h) @ mi, m["x1"].shape[0])


def schur(m: dict) -> dict:
    """A - B D^-1 C."""
    return {"x": m["x1"] - m["x12"] @ np.linalg.solve(m["x2"], m["x21"])}


# ---------------------------------------------------------------------------
# Rank-k update quiver: a (u->u), U (v->u), c (v->v), V (u->v)

def smw_inverse(m: dict) -> dict:
    """(a + U c V)^-1 by direct inversion."""
    return {"x": np.linalg.inv(m["a"] + m["U"] @ m["c"] @ m["V"])}


def smw_derivative(m: dict, h: dict) -> dict:
    """-W (Ha + HU c V + U Hc V + U c HV) W with W = (a + U c V)^-1."""
    a, u, c, v = m["a"], m["U"], m["c"], m["V"]
    w = np.linalg.inv(a + u @ c @ v)
    dm = h["a"] + h["U"] @ c @ v + u @ h["c"] @ v + u @ c @ h["V"]
    return {"x": -w @ dm @ w}


# ---------------------------------------------------------------------------
# Two loops x, y -> three loops

def rational_triple(m: dict) -> dict:
    """(x^-1 y^2, 3(yx - xy), y (y - x)^-1)."""
    x, y = m["x"], m["y"]
    return {
        "x": np.linalg.solve(x, y @ y),
        "y": 3 * (y @ x - x @ y),
        "z": y @ np.linalg.inv(y - x),
    }


# ---------------------------------------------------------------------------
# Forward-mode evaluation of a free map's entries

def forward_eval(entries: dict, dims: dict, mats: dict, dmats: dict | None = None,
                 inverse_ratios: list | None = None):
    """Evaluate every entry and, when dmats is given, its derivative along
    dmats, by the product rule and d(M^-1) = -M^-1 dM M^-1.

    Returns (values, derivatives); derivatives is None without dmats. Only
    two-sided inverses are supported. With inverse_ratios, sigma_min /
    sigma_max of every inverted operand is appended to it.
    """
    with_d = dmats is not None

    def walk(e):
        match e:
            case Atom(arc):
                return mats[arc], (dmats[arc] if with_d else None)
            case Id(vertex):
                n = dims[vertex]
                return np.eye(n, dtype=np.complex128), (np.zeros((n, n), np.complex128) if with_d else None)
            case Add(terms):
                parts = [walk(t) for t in terms]
                val = sum(p[0] for p in parts[1:]) + parts[0][0]
                der = (sum(p[1] for p in parts[1:]) + parts[0][1]) if with_d else None
                return val, der
            case Scale(k, of):
                val, der = walk(of)
                return k * val, (k * der if with_d else None)
            case Mul(factors):
                val, der = walk(factors[0])
                for f in factors[1:]:
                    fv, fd = walk(f)
                    if with_d:
                        der = der @ fv + val @ fd
                    val = val @ fv
                return val, der
            case Inv(of, mode):
                if mode != "two_sided":
                    raise ValueError(f"reference evaluator has no {mode!r} inverse")
                val, der = walk(of)
                if inverse_ratios is not None:
                    sv = np.linalg.svd(val, compute_uv=False)
                    inverse_ratios.append(float(sv[-1] / sv[0]))
                vi = np.linalg.inv(val)
                return vi, (-vi @ der @ vi if with_d else None)
        raise TypeError(f"reference evaluator cannot walk {type(e).__name__}")

    values, derivs = {}, {}
    for arc, e in entries.items():
        values[arc], derivs[arc] = walk(e)
    return values, (derivs if with_d else None)


def block_point(mats: dict, hmats: dict) -> dict:
    """[[X, H], [0, X]] per arc: the point a block-trick derivative evaluates."""
    return {a: np.block([[m, hmats[a]], [np.zeros_like(m), m]]) for a, m in mats.items()}


def smallest_inverse_ratio(entries: dict, dims: dict, mats: dict) -> float:
    """Smallest sigma_min / sigma_max over the operands of all inverse nodes."""
    ratios: list[float] = []
    forward_eval(entries, dims, mats, inverse_ratios=ratios)
    return min(ratios, default=math.inf)
