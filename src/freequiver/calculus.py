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

directional_derivative evaluates the block point itself (reps.block_points,
a stack of one, through eval_map): it is the definition the other paths are
tested against. Every inverse node is held to its threshold on the doubled
operand, and the block point must reproduce f(X) on its diagonal blocks and
vanish on its lower-left block. Each of those residuals is a 2-norm over 1 +
a nonnegative term, so the Frobenius norm of its numerator bounds it from
above: a point whose three numerators sit within half of BLOCK_TOL passes
without a singular value decomposition, and only the points that could fail
take the exact 2-norm residuals.

derivative_matrix never builds a block point. Upper-triangular block
matrices form an algebra, so exprs.eval_tangents computes the corners from
n×n values and stacked n×n tangents, one pass per source arc, with each
inverse node decided once, at X, and refused where cancellation in its
operand leaves more than numerics.CANCELLATION_TOL relative error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BlockMismatchError
from .exprs import (
    P_TAG,
    Q_TAG,
    FreeMapDef,
    ProductSpec,
    compose_maps,
    eval_map,
    eval_tangents,
    pair_rep,
    product_maps,
)
from .numerics import (
    frob_norms,
    kernel,
    op_norm,
    op_norms,
    rel_diff,
    rel_residual,
    values_first_kernel,
    worst,
)
from .reps import (NatTrans, Rep, arc_matrices, block_points, direct_sum, random_rep,
                   rep_distance, rep_residual, stack_reps, vertex_matrices)

BLOCK_TOL = 1e-8
IFT_TOL = 1e-8
# A block point passes its block checks on Frobenius norms alone when the
# norm of every residual's numerator is at most this share of BLOCK_TOL; the
# rest of the share absorbs rounding in the Frobenius and the 2-norms.
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


def random_direction(x: Rep, seed: int) -> DirectionField:
    """A direction at x with random_rep's entries for the same seed."""
    return DirectionField(x, random_rep(x.quiver, x.dims, seed).mats)


def direction_residual(h: DirectionField, k: DirectionField) -> float:
    """Max relative componentwise difference between two direction fields;
    0.0 when they have no components."""
    return worst(rel_diff(h.h_mats[a], k.h_mats[a]) for a in h.h_mats)


def scaled_residual(h: DirectionField, k: DirectionField) -> float:
    """The worst arc's ‖h − k‖₂ over the largest ‖h‖₂ or ‖k‖₂ of any arc, 0.0
    when both vanish: measured against the fields' own size, so that a tiny
    field cannot match every other as it does under direction_residual."""
    gap = worst(op_norm(h.h_mats[a] - k.h_mats[a]) for a in h.h_mats)
    size = worst(op_norm(m) for d in (h, k) for m in d.h_mats.values())
    return gap / size if size else 0.0


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
    return block_points(x, x, h.h_mats)


# ---------------------------------------------------------------------------
# Derivatives

def directional_derivative(
    f: FreeMapDef,
    x: Rep,
    h: DirectionField,
) -> DirectionField:
    """Df(X)[H] read off the block point [[X, H], [0, X]], evaluated as it
    stands: every inverse node is held to its threshold on the doubled
    operand, and the diagonal blocks must reproduce f(X) with a vanishing
    lower-left block (BlockMismatchError otherwise; anything else means the
    map is not free or the point is effectively irregular). When
    ‖tl − f(X)‖_F, ‖br − f(X)‖_F and ‖bl‖_F are all within _SCREEN·BLOCK_TOL
    the point passes without a singular value decomposition; any other
    finite point takes the exact 2-norm residuals, and a non-finite one
    raises LinAlgError."""
    fx = eval_map(f, x)
    _check_based_at(x, h)
    one = stack_reps([x])
    big = eval_map(f, block_points(one, one, {a: m[None] for a, m in h.h_mats.items()})).mats
    out, worsts = {}, []
    for a in f.target_quiver.arcs:
        m, n = fx.dims[a.dst], fx.dims[a.src]
        z, base = big[a.name], fx.mats[a.name]
        tl, bl, br = z[:, :m, :n], z[:, m:, :n], z[:, m:, n:]
        w = 0.0  # a screened point's residuals are within BLOCK_TOL
        if not all([frob_norms(r)[0] <= _SCREEN * BLOCK_TOL for r in (tl - base, br - base, bl)]):
            if not (np.isfinite(z).all() and np.isfinite(base).all()):
                raise np.linalg.LinAlgError("f(X) or its block point is not finite")
            # maxed in order as Python's max does (not numerics.worst: a NaN
            # is 0/(1 + norm of an inf block), a pass)
            w = rel_diff(tl, base)
            for r in (rel_diff(br, base), rel_residual(op_norms(bl), z)):
                w = np.where(r > w, r, w)
            w = w[0]
        worsts.append((a.name, w))
        out[a.name] = z[0, :m, n:]
    for arc, w in worsts:
        if w > BLOCK_TOL:
            raise BlockMismatchError(
                f"block structure broke at arc {arc!r}: residual {w:.3e} exceeds {BLOCK_TOL:.1e}")
    return DirectionField(fx, out)


def shift_rep(x: Rep, h: DirectionField, eps: float) -> Rep:
    return Rep(x.quiver, dict(x.dims), {a: x.mats[a] + eps * h.h_mats[a] for a in x.mats})


def finite_difference(
    f: FreeMapDef, x: Rep, h: DirectionField, eps: float
) -> DirectionField:
    """(f(X + eps H) - f(X)) / eps, the first-order oracle for Df(X)[H]."""
    fx = eval_map(f, x)
    fs = eval_map(f, shift_rep(x, h, eps))
    return DirectionField(
        fx, {a: (fs.mats[a] - fx.mats[a]) / eps for a in fx.mats}
    )


def central_difference(f: FreeMapDef, x: Rep, h: DirectionField, eps: float) -> DirectionField:
    """(f(X + eps H) - f(X - eps H)) / 2 eps, the second-order oracle for Df(X)[H]:
    its truncation error is O(eps²), the forward difference's O(eps)."""
    fp, fm = (eval_map(f, shift_rep(x, h, e)).mats for e in (eps, -eps))
    return DirectionField(eval_map(f, x), {a: (fp[a] - fm[a]) / (2 * eps) for a in fp})


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
    """Assemble Df(X): column j is the derivative along the j-th matrix-unit
    direction. f(X) is evaluated once; each source arc's columns are one
    exprs.eval_tangents pass, the corners of the block points [[X, E_j],
    [0, X]] computed in upper-triangular form from n×n products, with every
    inverse node decided once, at X, through a memo the passes share.
    RegularityError where an inverse's operand lost its digits to
    cancellation; LinAlgError when f(X) or the matrix is not finite.

    A pass per arc skips every product with the arcs it does not move. Over
    certify_jacobian's six maps at 6/4 and 12/8 (2-core Xeon VM, one BLAS
    thread) it took 1.25 ms a point, against 1.69 for passes of 32 columns
    (8: 3.6, 16: 2.6, 64: 1.8, all at once: 3.4). A stack is one arc's block
    of J's columns."""
    fx = eval_map(f, x)
    slots, image_slots = direction_slots(x), direction_slots(fx)
    n_rows, n_cols = (sum(r * c for _, r, c, _ in s) for s in (image_slots, slots))
    matrix = np.zeros((n_rows, n_cols), dtype=np.complex128)
    memo: dict = {}
    for arc, rows, cols, start in slots:
        batch = rows * cols
        units = np.eye(batch, dtype=np.complex128).reshape(batch, rows, cols)
        tr = eval_tangents(f, x, {arc: units}, memo)
        for a, r, c, offset in image_slots:
            if tr[a] is not None:
                matrix[offset:offset + r * c, start:start + batch] = tr[a].reshape(batch, r * c).T
    if not all(np.isfinite(m).all() for m in (matrix, *fx.mats.values())):
        raise np.linalg.LinAlgError("f(X) or Df(X) is not finite")
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

    "collision" is a numerical-rank verdict at relative cutoff tol, not an
    exact kernel: the pair's images differ by Df(X)[H] in the upper-right
    block, so they agree only to first order, and collision_residual is about
    sigma_min (at most about tol * sigma_max, which need not be small). A
    Df(X) that is not wide is decided from its singular values alone, and H
    of a collision comes from a least-squares projection onto its kernel;
    only a wide Df(X) takes its singular vectors.

    Df(X) comes from derivative_matrix, whose RegularityError stands. rep1 is
    evaluated at full size: where a doubled operand falls below the
    regularity threshold, a collision raises RegularityError as well.
    """
    dm = derivative_matrix(f, x)
    s, null = values_first_kernel(dm.matrix, tol) or kernel(dm.matrix, tol)
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
        return block_points(p, q, {
            a.name: p.mats[a.name] @ g[a.src] - g[a.dst] @ q.mats[a.name] for a in p.quiver.arcs
        })

    big = eval_map(f, block_point(x, y, gamma.gammas))
    image_gammas = {v: gamma.gammas[s] for v, s in f.vertex_map.items()}
    return rep_residual(big, block_point(eval_map(f, x), eval_map(f, y), image_gammas))


# ---------------------------------------------------------------------------
# Univariate coefficients via nilpotent points

def nilpotent_matrix(coeffs, n: int) -> np.ndarray:
    """p(N_n) for the n×n single-Jordan-block nilpotent N (ones on the first
    superdiagonal). Coefficient lists of integral values that all fit in
    int64 stay in exact int64 arithmetic; any other list is complex.
    """
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    coeffs = list(coeffs)
    exact = all(
        (isinstance(c, numbers.Integral) or (isinstance(c, float) and c.is_integer()))
        and -2**63 <= c < 2**63
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
