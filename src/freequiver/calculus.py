"""Derivatives of free maps via the block trick.

Evaluating a free map on the block point [[X, H], [0, X]] produces
[[f(X), Df(X)[H]], [0, f(X)]]: the upper-right blocks are the directional
derivative. Everything here is built on that identity — directional
derivatives, the derivative-as-matrix assembly (columns = derivatives along
matrix-unit directions, which suffices because a derivative vanishing on the
generating arcs vanishes everywhere), the injectivity certificate (trivial
numerical kernel, or an explicit collision pair constructed from a kernel
direction), chain/Leibniz rule checks, and the nilpotent-point trick for
reading off univariate polynomial coefficients.

Block points come from reps.block_points. Given stacked directions at one
base point, it returns them as one stacked reps.Points, evaluated at once:
the derivative matrix takes its matrix-unit columns in chunks of _CHUNK, each
chunk one stacked evaluation of all entries in which every distinct inverse
node is factored once, and a single directional derivative is the stack of one.

Every block point must also reproduce f(X) on its diagonal blocks and vanish
on its lower-left block. Since ‖A‖₂ ≤ ‖A‖_F ≤ √rank(A)·‖A‖₂, Frobenius
norms bound those residuals from above, with ‖f(X)‖₂ bounded from below by
‖f(X)‖_F / √min(rows, cols) (taken once per call); a point whose bounds sit
well inside BLOCK_TOL passes without a singular value decomposition, and only
the points that could fail take the exact 2-norm residuals. The verdicts and
error messages are those of the exact residuals alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BlockMismatchError, RegularityError
from .exprs import (
    P_TAG,
    Q_TAG,
    FreeMapDef,
    ProductSpec,
    compose_maps,
    eval_entries,
    eval_map,
    pair_rep,
    product_maps,
)
from .numerics import (
    frob_norm,
    frob_norms,
    joint_frob_norm,
    kernel,
    op_norms,
    rel_diff,
    rel_residual,
    worst,
)
from .reps import (NatTrans, Rep, arc_matrices, block_points, direct_sum, random_rep,
                   rep_distance, rep_residual, vertex_matrices)

BLOCK_TOL = 1e-8
IFT_TOL = 1e-8
# Matrix-unit columns per stacked evaluation in derivative_matrix. The
# intermediates grow with the chunk: for the 400 columns of a 12/8 Jacobian,
# numpy allocations peak at ~30 MB in one chunk and ~5.5 MB in chunks of 32,
# and no size tried between 8 and 400 was consistently faster than 32.
_CHUNK = 32
# A block point passes its block checks on Frobenius bounds alone when every
# bound is at most this share of BLOCK_TOL (see _screen_bounds); the rest of
# the share absorbs rounding in the Frobenius and the 2-norms.
_SCREEN = 0.5
# observed_order's error floor; errors all below it mean an exact derivative
_ORDER_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Direction fields (the H in Df(X)[H])

@dataclass(eq=False)
class DirectionField:
    """A tangent direction at a representation: one matrix per arc, shaped
    exactly like the base point's matrix there. H == 0 means every component
    is zero (a single nonzero entry already makes a direction nonzero)."""

    base: Rep
    h_mats: dict[str, np.ndarray]

    def __post_init__(self):
        self.h_mats = arc_matrices(self.base, self.h_mats, "direction ")


def zero_direction(x: Rep) -> DirectionField:
    return DirectionField(x, {a: np.zeros_like(m) for a, m in x.mats.items()})


def random_direction(x: Rep, seed: int) -> DirectionField:
    """A direction at x with random_rep's entries for the same seed."""
    return DirectionField(x, random_rep(x.quiver, x.dims, seed).mats)


def matrix_unit_direction(x: Rep, arc: str, i: int, j: int) -> DirectionField:
    h = zero_direction(x)
    h.h_mats[arc][i, j] = 1.0
    return h


def direction_add(h: DirectionField, k: DirectionField) -> DirectionField:
    return DirectionField(
        h.base, {a: h.h_mats[a] + k.h_mats[a] for a in h.h_mats}
    )


def direction_scale(c, h: DirectionField) -> DirectionField:
    return DirectionField(h.base, {a: c * m for a, m in h.h_mats.items()})


def direction_norm(h: DirectionField) -> float:
    """Stacked Frobenius norm over all components."""
    return joint_frob_norm(h.h_mats.values())


def direction_residual(h: DirectionField, k: DirectionField) -> float:
    """Max relative componentwise difference between two direction fields;
    0.0 when they have no components."""
    return worst(rel_diff(h.h_mats[a], k.h_mats[a]) for a in h.h_mats)


def direction_slots(x: Rep) -> list[tuple[str, int, int, int]]:
    """(arc, rows, cols, flat offset) per arc in quiver order; flat layout is
    row-major within each slot."""
    slots = []
    offset = 0
    for a in x.quiver.arcs:
        rows, cols = x.mats[a.name].shape
        slots.append((a.name, rows, cols, offset))
        offset += rows * cols
    return slots


def flatten_direction(h: DirectionField) -> np.ndarray:
    return np.concatenate(
        [h.h_mats[a.name].reshape(-1) for a in h.base.quiver.arcs]
        or [np.zeros(0, dtype=np.complex128)]
    )


def unflatten_direction(x: Rep, vec: np.ndarray) -> DirectionField:
    mats = {}
    for arc, rows, cols, offset in direction_slots(x):
        mats[arc] = np.asarray(vec[offset:offset + rows * cols]).reshape(rows, cols)
    return DirectionField(x, mats)


# ---------------------------------------------------------------------------
# Block points

def _check_based_at(x: Rep, h: DirectionField) -> None:
    if h.base is not x and (h.base.quiver != x.quiver or h.base.dims != x.dims):
        raise ValueError("direction is based at a different point")


def block_extend(x: Rep, h: DirectionField) -> Rep:
    """The derivative's block point: arc a -> [[X(a), H(a)], [0, X(a)]]."""
    _check_based_at(x, h)
    return Rep(x.quiver, *block_points(x, x, h.h_mats))


def _image_norms(fx: Rep) -> dict[str, float]:
    """A lower bound on ‖f(X)‖₂ per target arc, for the block-check screen:
    ‖f(X)‖_F / √min(rows, cols), shaved by more than the rounding of the
    Frobenius norm can add; 0.0 where an axis is empty, NaN where f(X) is not
    finite, so that every block point there takes the exact checks."""
    eps = np.finfo(float).eps
    return {
        a: frob_norm(m) / math.sqrt(max(min(m.shape), 1)) * (1 - 2 * (m.size + 2) * eps)
        if np.isfinite(m).all()
        else math.nan
        for a, m in fx.mats.items()
    }


def _screen_bounds(
    base: np.ndarray, s: float, tl: np.ndarray, br: np.ndarray, bl: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper bounds, per matrix of the stacks, on the three block residuals
    rel_diff(tl, base), rel_diff(br, base) and rel_residual(‖bl‖₂, big) of
    the block points big = [[tl, *], [bl, br]], from Frobenius norms and
    s ≤ ‖base‖₂ alone (the bounds only grow as s shrinks).

    With d = ‖tl − base‖_F ≥ ‖tl − base‖₂, the reverse triangle inequality
    gives ‖tl‖₂ ≥ s − d, and ‖big‖₂ is at least ‖tl‖₂ and ‖br‖₂. The lower
    bounds take s/2 − d in place of s − d: when d is close to s, s − d is
    a rounding residue that can exceed the true difference, while s/2 − d
    stays below it however the two norms round."""
    d1 = frob_norms(tl - base)
    d2 = frob_norms(br - base)
    lo1 = np.maximum(s / 2 - d1, 0.0)
    lo2 = np.maximum(s / 2 - d2, 0.0)
    return (
        d1 / (1.0 + s * lo1),
        d2 / (1.0 + s * lo2),
        frob_norms(bl) / (1.0 + np.maximum(lo1, lo2)),
    )


def _block_derivatives(
    f: FreeMapDef,
    x: Rep,
    fx: Rep,
    fx_norms: dict[str, float],
    u: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Df(X)[H_b] per target arc, stacked (B, rows, cols), for the directions
    u (arc -> (B, rows, cols)), read off one stacked evaluation at the block
    points [[X, H_b], [0, X]]; fx_norms is _image_norms(fx).

    Each point is held to the single-point checks: every inverse node's
    threshold on its doubled operand, and diagonal blocks that reproduce f(X)
    with a vanishing lower-left block (BlockMismatchError otherwise). A point
    whose _screen_bounds are all within _SCREEN·BLOCK_TOL passes the latter
    without a singular value decomposition; every other point (non-finite
    ones included) takes the exact 2-norm residuals. Errors name the first
    direction that fails, as taking them one at a time would.
    """
    batch = len(next(iter(u.values()))) if u else 1
    try:
        big = eval_entries(f, block_points(x, x, u))
    except RegularityError:
        if batch > 1:
            for b in range(batch):
                _block_derivatives(
                    f, x, fx, fx_norms, {a: m[b:b + 1] for a, m in u.items()}
                )
        raise
    out = {}
    worsts = []
    for a in f.target_quiver.arcs:
        m, n = fx.dims[a.dst], fx.dims[a.src]
        z = big[a.name]
        if z.ndim == 2:  # an entry that reads no arc: one matrix for the stack
            z = np.repeat(z[None], batch, axis=0)
        tl, bl, br = z[:, :m, :n], z[:, m:, :n], z[:, m:, n:]
        base = fx.mats[a.name]
        bounds = _screen_bounds(base, fx_norms[a.name], tl, br, bl)
        doubt = ~np.all([b <= _SCREEN * BLOCK_TOL for b in bounds], axis=0)
        w = np.zeros(batch)  # a screened point's residuals are within BLOCK_TOL
        if doubt.any():
            zd = z[doubt]
            # the single-point residuals, maxed in order as Python's max does
            # (not numerics.worst: a NaN is 0/(1 + norm of an inf block), a pass)
            wd = rel_diff(zd[:, :m, :n], base)
            for r in (
                rel_diff(zd[:, m:, n:], base),
                rel_residual(op_norms(zd[:, m:, :n]), zd),
            ):
                wd = np.where(r > wd, r, wd)
            w[doubt] = wd
        worsts.append(w)
        out[a.name] = z[:, :m, n:]
    bad = np.array(worsts).reshape(len(worsts), batch) > BLOCK_TOL
    if bad.any():
        b = int(np.argmax(bad.any(axis=0)))
        k = int(np.argmax(bad[:, b]))
        raise BlockMismatchError(
            f"block structure broke at arc {f.target_quiver.arcs[k].name!r}: "
            f"residual {worsts[k][b]:.3e} exceeds {BLOCK_TOL:.1e}"
        )
    return out


# ---------------------------------------------------------------------------
# Derivatives

def directional_derivative(
    f: FreeMapDef,
    x: Rep,
    h: DirectionField,
) -> DirectionField:
    """Df(X)[H] read off the block point; the diagonal blocks are asserted to
    reproduce f(X) and the lower-left to vanish (anything else means the map
    is not free or the point is effectively irregular)."""
    fx = eval_map(f, x)
    _check_based_at(x, h)
    tr = _block_derivatives(
        f, x, fx, _image_norms(fx), {a: m[None] for a, m in h.h_mats.items()}
    )
    return DirectionField(fx, {a: m[0] for a, m in tr.items()})


def shift_rep(x: Rep, h: DirectionField, eps: float) -> Rep:
    return Rep(
        x.quiver,
        dict(x.dims),
        {a: x.mats[a] + eps * h.h_mats[a] for a in x.mats},
    )


def finite_difference(
    f: FreeMapDef, x: Rep, h: DirectionField, eps: float
) -> DirectionField:
    """(f(X + eps H) - f(X)) / eps, the first-order oracle for Df(X)[H]."""
    fx = eval_map(f, x)
    fs = eval_map(f, shift_rep(x, h, eps))
    return DirectionField(
        fx, {a: (fs.mats[a] - fx.mats[a]) / eps for a in fx.mats}
    )


def fd_errors(
    f: FreeMapDef, x: Rep, h: DirectionField, eps_list: list[float]
) -> list[float]:
    dd = directional_derivative(f, x, h)
    return [
        direction_residual(dd, finite_difference(f, x, h, eps)) for eps in eps_list
    ]


def observed_order(eps_list: list[float], errors: list[float]) -> float:
    """Least-squares slope of log error vs log eps, with errors clipped from
    below at 1e-12. Errors entirely below it (derivative exact, e.g. linear
    maps) report as inf; a NaN error gives NaN."""
    if worst(errors) < _ORDER_FLOOR:
        return math.inf
    clipped = [max(e, _ORDER_FLOOR) for e in errors]
    slope = np.polyfit(np.log(np.asarray(eps_list)), np.log(np.asarray(clipped)), 1)[0]
    return float(slope)


@dataclass(eq=False)
class DerivativeMatrix:
    """The linear map H -> Df(X)[H] over stacked row-major direction
    coordinates: the flat layout of direction_slots(base) on the source side
    and of direction_slots(image_base) on the target side."""

    matrix: np.ndarray
    base: Rep
    image_base: Rep

    def apply(self, h: DirectionField) -> DirectionField:
        vec = self.matrix @ flatten_direction(h)
        return unflatten_direction(self.image_base, vec)


def derivative_matrix(
    f: FreeMapDef, x: Rep
) -> DerivativeMatrix:
    """Assemble Df(X): column j is the directional derivative along the j-th
    matrix-unit direction. f(X) is evaluated once; the columns go in chunks
    of _CHUNK, each one stacked evaluation at the chunk's block points in
    which every distinct inverse node is factored once, with the upper-right
    blocks read straight into the columns. Each column passes the same
    checks as directional_derivative, and the matrix is the one that column
    by column evaluation gives."""
    fx = eval_map(f, x)
    fx_norms = _image_norms(fx)
    slots, image_slots = direction_slots(x), direction_slots(fx)
    n_rows, n_cols = (sum(r * c for _, r, c, _ in s) for s in (image_slots, slots))
    matrix = np.zeros((n_rows, n_cols), dtype=np.complex128)
    for start in range(0, n_cols, _CHUNK):
        stop = min(start + _CHUNK, n_cols)
        batch = stop - start
        units = np.zeros((batch, n_cols), dtype=np.complex128)
        units[np.arange(batch), np.arange(start, stop)] = 1.0
        u = {
            arc: units[:, offset:offset + rows * cols].reshape(batch, rows, cols)
            for arc, rows, cols, offset in slots
        }
        tr = _block_derivatives(f, x, fx, fx_norms, u)
        if n_rows:
            matrix[:, start:stop] = np.concatenate(
                [tr[a].reshape(batch, rows * cols) for a, rows, cols, _ in image_slots],
                axis=1,
            ).T
    return DerivativeMatrix(matrix, x, fx)


@dataclass(eq=False)
class IFTCertificate:
    """Per-point injectivity evidence: either the derivative matrix has a
    trivial numerical kernel (full_rank), or an explicit collision pair built
    from a unit kernel direction — two distinct points with equal images."""

    status: str  # "full_rank" | "collision"
    sigma_min: float
    sigma_max: float
    singular_values: np.ndarray
    kernel_dim: int
    tol: float
    direction: DirectionField | None = None
    rep1: Rep | None = None
    rep2: Rep | None = None
    collision_residual: float | None = None
    separation: float | None = None


def ift_certificate(f: FreeMapDef, x: Rep, tol: float = IFT_TOL) -> IFTCertificate:
    """Decide kernel triviality of Df(X) at relative cutoff tol.

    A nontrivial kernel yields the constructed counterexample to injectivity:
    rep1 = [[X, H], [0, X]] for a unit kernel direction H and rep2 = X ⊕ X
    have (numerically) equal images but unit separation.
    """
    dm = derivative_matrix(f, x)
    s, null = kernel(dm.matrix, tol)
    smax = float(s[0]) if s.size else 0.0
    smin = float(s[-1]) if 0 < dm.matrix.shape[1] <= s.size else 0.0
    if not len(null):
        return IFTCertificate("full_rank", smin, smax, s, 0, tol)
    h = unflatten_direction(x, null[-1])
    rep1 = block_extend(x, h)
    rep2 = direct_sum(x, x)
    img_gap = rep_distance(eval_map(f, rep1), eval_map(f, rep2))
    sep = rep_distance(rep1, rep2)
    return IFTCertificate(
        "collision",
        smin,
        smax,
        s,
        len(null),
        tol,
        direction=h,
        rep1=rep1,
        rep2=rep2,
        collision_residual=float(img_gap),
        separation=float(sep),
    )


# ---------------------------------------------------------------------------
# Rule checks

def chain_rule_check(
    f: FreeMapDef, g: FreeMapDef, x: Rep, h: DirectionField,
) -> float:
    """Max relative gap between D(f∘g)(X)[H] and Df(g(X))[Dg(X)[H]]."""
    lhs = directional_derivative(compose_maps(f, g), x, h)
    gx = eval_map(g, x)
    inner = directional_derivative(g, x, h)
    rhs = directional_derivative(f, gx, inner)
    return direction_residual(lhs, rhs)


def pair_direction(h: DirectionField, k: DirectionField) -> DirectionField:
    """Direction at pair_rep(h.base, k.base): left components tagged p.,
    right components tagged q."""
    base = pair_rep(h.base, k.base)
    mats = {P_TAG + a: m for a, m in h.h_mats.items()}
    mats.update({Q_TAG + a: m for a, m in k.h_mats.items()})
    return DirectionField(base, mats)


def leibniz_check(
    spec: ProductSpec,
    f: FreeMapDef,
    g: FreeMapDef,
    x: Rep,
    y: Rep,
    h: DirectionField,
    k: DirectionField,
) -> float:
    """Max relative gap between D(f×g)(X×Y)[H×K] and
    Df(X)[H]×g(Y) + f(X)×Dg(Y)[K], componentwise over the target arcs."""
    prod = product_maps(spec, f, g)
    z = pair_rep(x, y)
    hk = pair_direction(h, k)
    lhs = directional_derivative(prod, z, hk)
    fx, gy = eval_map(f, x), eval_map(g, y)
    df = directional_derivative(f, x, h)
    dg = directional_derivative(g, y, k)
    return worst(
        rel_diff(lhs.h_mats[r], df.h_mats[pa] @ gy.mats[qa] + fx.mats[pa] @ dg.h_mats[qa])
        for r, (pa, qa) in spec.pairs.items()
    )


def gamma_commutation_check(
    f: FreeMapDef,
    x: Rep,
    y: Rep,
    gamma: NatTrans,
) -> float:
    """Evaluate f on the block point [[X, XΓ−ΓY], [0, Y]] and compare against
    [[f(X), f(X)Γ−Γf(Y)], [0, f(Y)]], with Γ at a target vertex taken at its
    source vertex under f.vertex_map. Γ only needs compatible shapes; the
    identity holds whether or not it intertwines (it is a conjugation by the
    unitriangular [[1, Γ], [0, 1]])."""
    if gamma.to_rep is not x or gamma.from_rep is not y:
        # allow structurally identical reps; require matching shapes
        vertex_matrices(x, y, gamma.gammas, "gamma")

    def block_point(p: Rep, q: Rep, g) -> Rep:  # [[P, PΓ−ΓQ], [0, Q]], Γ = g per vertex
        return Rep(p.quiver, *block_points(p, q, {
            a.name: p.mats[a.name] @ g[a.src] - g[a.dst] @ q.mats[a.name] for a in p.quiver.arcs
        }))

    big = eval_map(f, block_point(x, y, gamma.gammas))
    image_gammas = {v: gamma.gammas[s] for v, s in f.vertex_map.items()}
    return rep_residual(big, block_point(eval_map(f, x), eval_map(f, y), image_gammas))


# ---------------------------------------------------------------------------
# Univariate coefficients via nilpotent points

def nilpotent_matrix(coeffs, n: int) -> np.ndarray:
    """p(N_n) for the n×n single-Jordan-block nilpotent N (ones on the first
    superdiagonal). Integer coefficient lists stay in exact int64 arithmetic.
    """
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    coeffs = list(coeffs)
    exact = all(
        isinstance(c, numbers.Integral) or (isinstance(c, float) and c.is_integer())
        for c in coeffs
    )
    dtype = np.int64 if exact else np.complex128
    nmat = np.eye(n, k=1, dtype=dtype)
    eye = np.eye(n, dtype=dtype)
    if not coeffs:
        return np.zeros((n, n), dtype=dtype)
    acc = (int(coeffs[-1]) if exact else complex(coeffs[-1])) * eye
    for c in reversed(coeffs[:-1]):
        acc = acc @ nmat + (int(c) if exact else complex(c)) * eye
    return acc


def nilpotent_coefficients(coeffs, n: int) -> np.ndarray:
    """First n coefficients of the univariate polynomial, read off the top
    row of its value at the nilpotent point N_n (row k holds coefficient k)."""
    return nilpotent_matrix(coeffs, n)[0, :].copy()
