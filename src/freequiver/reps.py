"""Matrix representations of a quiver's free category.

A Rep is a functor into finite-dimensional complex spaces: each vertex gets a
dimension (0 allowed) and each arc a a matrix of shape dims[dst(a)] x
dims[src(a)]. Natural transformations are per-vertex matrices making all the
arc squares commute; the intertwiner space is computed by vectorizing all
per-vertex unknowns into one homogeneous linear system and taking its SVD
nullspace. A Rep with a size is a stack of that many points of one dimension
profile, each arc's matrices stacked (size, rows, cols); stack_reps builds
one, random_reps draws one, a point per seed, in one numerics.ginibre call
(random_rep and random_auto are one-seed draws). Every block point [[X, U],
[0, Y]] (the direct sum is U = 0, the block trick's derivative point is
[[X, H], [0, X]]) comes from block_points, as one point or a stack of them.
Functions that also take a stack treat all its points in one numpy call per
arc or vertex; LAPACK and BLAS run it matrix by matrix, so each point keeps
the bits it has alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .errors import RegularityError
from .numerics import (
    DEFAULT_TOL,
    as_complex_matrix,
    ginibre,
    inverse_rule,
    is_invertible,
    joint_frob_norm,
    nullspace,
    op_norms,
    rel_diff,
    rel_residual,
    worst,
)
from .quivers import Path, Quiver, RelationPresentation, check_path


@dataclass(eq=False)
class Rep:
    """quiver + dims (vertex -> size) + mats (arc -> dims[dst] x dims[src]);
    with a size, a stack of size points, each arc's matrices stacked (size,
    dims[dst], dims[src]). The size holds even where the quiver has no arcs."""

    quiver: Quiver
    dims: dict[str, int]
    mats: dict[str, np.ndarray]
    size: int | None = None

    def __post_init__(self):
        self.dims = {v: int(n) for v, n in self.dims.items()}
        for v in self.quiver.vertices:
            if v not in self.dims:
                raise ValueError(f"dims missing vertex {v!r}")
            if self.dims[v] < 0:
                raise ValueError(f"negative dimension at vertex {v!r}")
        self.mats = arc_matrices(self, self.mats)


def arc_matrices(x: Rep, mats: Mapping, kind: str = "") -> dict[str, np.ndarray]:
    """mats as complex matrices in x's arc order, checked to hold one matrix of
    shape x.dims[dst] x x.dims[src] (a stack of x.size of them for a stack x)
    per arc of x.quiver and nothing else; kind (e.g. "direction ") prefixes
    "matrix" in the errors."""
    lead = () if x.size is None else (x.size,)
    out = {}
    for a in x.quiver.arcs:
        if a.name not in mats:
            raise ValueError(f"missing {kind}matrix for arc {a.name!r}")
        m = np.asarray(mats[a.name], dtype=np.complex128)
        want = lead + (x.dims[a.dst], x.dims[a.src])
        if m.shape != want:
            raise ValueError(
                f"arc {a.name!r}: {kind}matrix shape {m.shape} != required {want}"
            )
        out[a.name] = m
    extra = set(mats) - set(out)
    if extra:
        raise ValueError(f"{kind}matrices for unknown arcs: {sorted(extra)}")
    return out


def vertex_matrices(x: Rep, y: Rep, mats: Mapping, kind: str) -> dict[str, np.ndarray]:
    """mats as complex matrices in x's vertex order, checked to hold one matrix
    of shape x.dims[v] x y.dims[v] per vertex of x.quiver; kind (e.g. "gamma")
    names the matrices in the errors."""
    out = {}
    for v in x.quiver.vertices:
        if v not in mats:
            raise ValueError(f"missing {kind} at vertex {v!r}")
        m = as_complex_matrix(mats[v])
        want = (x.dims[v], y.dims[v])
        if m.shape != want:
            raise ValueError(f"{kind} at {v!r}: shape {m.shape} != {want}")
        out[v] = m
    return out


def rep_distance(x: Rep, y: Rep) -> float:
    """Stacked Frobenius distance over all arc matrices."""
    if x.quiver != y.quiver or x.dims != y.dims:
        raise ValueError("reps live on different quivers or dimension profiles")
    return joint_frob_norm(x.mats[a] - y.mats[a] for a in x.quiver.arc_names())


def rep_residual(x: Rep, y: Rep) -> float:
    """Max relative arc-matrix difference between two same-shape reps; 0.0
    over a quiver without arcs. For stacks, a list of one per point."""
    if x.quiver != y.quiver or x.dims != y.dims:
        raise ValueError("reps live on different quivers or dimension profiles")
    diffs = [rel_diff(x.mats[a], y.mats[a]) for a in x.quiver.arc_names()]
    if x.size is None:
        return worst(diffs)
    return [worst(d[b] for d in diffs) for b in range(x.size)]


def eval_path(x: Rep, p: Path) -> np.ndarray:
    """Ordered product of arc matrices along p; the identity path evaluates to
    the identity matrix at its anchor."""
    check_path(x.quiver, p)
    out = np.eye(x.dims[p.src], dtype=np.complex128)
    for name in p.arcs:
        out = x.mats[name] @ out
    return out


def stack_reps(reps: Sequence[Rep]) -> Rep:
    """Reps of the first one's quiver and dimension profile as one stack."""
    first = reps[0]
    return Rep(first.quiver, dict(first.dims),
               {a: np.stack([r.mats[a] for r in reps]) for a in first.mats}, len(reps))


def block_points(x: Rep, y: Rep, u: Mapping | None = None) -> Rep:
    """Arc a -> [[X(a), U(a)], [0, Y(a)]] over the shared quiver, dims summed
    per vertex: U(a) is x.dims[dst] by y.dims[src], and zero without u (the
    direct sum). Each of x, y and U may be one point or a stack (size, rows,
    cols), the stacks of one size; the result is a stack when any of them
    is. A free map's upper-right blocks at [[X, H], [0, X]] are its
    derivative Df(X)[H]."""
    if x.quiver != y.quiver:
        raise ValueError("block points need reps over the same quiver")
    extra = sorted(set(u) - set(x.mats)) if u else []
    if extra:
        raise ValueError(f"upper-right blocks for unknown arcs: {extra}")
    sizes = [s for s in (x.size, y.size) if s is not None] + [
        len(m) for m in (u or {}).values() if np.ndim(m) == 3]
    size = sizes[0] if sizes else None
    lead = () if size is None else (size,)
    dims = {v: x.dims[v] + y.dims[v] for v in x.quiver.vertices}
    mats = {}
    for a in x.quiver.arcs:
        xm, ym = x.mats[a.name], y.mats[a.name]
        rows, cols = xm.shape[-2:]
        m = np.zeros(lead + (dims[a.dst], dims[a.src]), dtype=np.complex128)
        if u is not None:
            if a.name not in u:
                raise ValueError(f"missing upper-right block for arc {a.name!r}")
            um, want = np.asarray(u[a.name]), (rows, ym.shape[-1])
            if um.shape[-2:] != want:
                raise ValueError(f"block at {a.name!r}: upper-right shape {um.shape} != {want}")
            m[..., :rows, cols:] = um
        m[..., :rows, :cols] = xm
        m[..., rows:, cols:] = ym
        mats[a.name] = m
    return Rep(x.quiver, dims, mats, size)


def direct_sum(x: Rep, y: Rep) -> Rep:
    """Blockwise direct sum: dims add per vertex, arc matrices become
    [[X(a), 0], [0, Y(a)]]; of two stacks, point by point."""
    return block_points(x, y)


@dataclass(eq=False)
class NatTrans:
    """Per-vertex matrices gamma_v : from_rep(v) -> to_rep(v), intended to
    satisfy to_rep(a) gamma_src == gamma_dst from_rep(a) on every arc.

    Construction checks shapes only; check_nat_trans measures the residual.
    """

    from_rep: Rep
    to_rep: Rep
    gammas: dict[str, np.ndarray]

    def __post_init__(self):
        if self.from_rep.quiver != self.to_rep.quiver:
            raise ValueError("natural transformation needs a shared quiver")
        self.gammas = vertex_matrices(self.to_rep, self.from_rep, self.gammas, "gamma")


@dataclass(eq=False)
class NatAuto:
    """A natural transformation from a rep to itself whose per-vertex matrices
    are all invertible. Invertibility is checked at construction."""

    rep: Rep
    s_mats: dict[str, np.ndarray]

    def __post_init__(self):
        self.s_mats = vertex_matrices(self.rep, self.rep, self.s_mats, "automorphism")
        for v, s in self.s_mats.items():
            if not is_invertible(s):
                raise RegularityError(
                    f"automorphism matrix at vertex {v!r} is numerically singular"
                )

    def inverse(self) -> "NatAuto":
        return NatAuto(self.rep, {v: np.linalg.inv(s) for v, s in self.s_mats.items()})


def conjugate(x: Rep, s: NatAuto | Mapping[str, np.ndarray]) -> Rep:
    """Arc a -> S_dst^{-1} X(a) S_src, for a NatAuto s of x; or with s
    mapping each vertex to x's automorphism there (for a stack x, the stack
    (size, n, n) of them, one per point), already known to be invertible."""
    if isinstance(s, NatAuto):
        if s.rep.quiver != x.quiver or s.rep.dims != x.dims:
            raise ValueError("automorphism shaped for a different rep")
        s = s.s_mats
    mats = {}
    for a in x.quiver.arcs:
        xm = x.mats[a.name]
        mats[a.name] = np.linalg.solve(s[a.dst], xm @ s[a.src]) if x.dims[a.dst] else np.zeros(
            xm.shape[:-2] + (0, x.dims[a.src]), dtype=np.complex128)
    return Rep(x.quiver, dict(x.dims), mats, x.size)


@dataclass
class ResidualReport:
    """Outcome of a residual check: max relative residual vs a tolerance,
    with the per-item breakdown."""

    kind: str
    max_residual: float
    tol: float
    passed: bool
    details: dict = field(default_factory=dict)


def check_nat_trans(g: NatTrans, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Max over generating arcs of nat_trans_residuals."""
    per_arc = nat_trans_residuals(g.to_rep, g.from_rep, g.gammas)
    res = worst(per_arc.values())
    return ResidualReport("nat_trans", res, tol, res <= tol, per_arc)


def nat_trans_residuals(x: Rep, y: Rep, gammas: Mapping[str, np.ndarray]) -> dict:
    """Per generating arc a,
    ||X(a) G_src - G_dst Y(a)|| / (1 + ||X(a)|| * max_v ||G_v||)
    for the transformation y -> x with per-vertex matrices gammas; or, for
    stacks x and y with gammas stacked alike (size, rows, cols), one
    transformation per point, an array of one residual per point.
    Generating arcs suffice because the path category is free on them."""
    gamma_scale = np.max([op_norms(m) for m in gammas.values()], axis=0, initial=0.0)
    return {a.name: rel_residual(
        op_norms(x.mats[a.name] @ gammas[a.src] - gammas[a.dst] @ y.mats[a.name]),
        x.mats[a.name], gamma_scale) for a in x.quiver.arcs}


def intertwiner_space(x: Rep, y: Rep) -> list[NatTrans]:
    """Orthonormal basis (stacked-vector inner product) of all natural
    transformations y -> x. For stacks x and y of one size, one basis
    per point, each a list of per-vertex matrix dicts.

    The equations X(a) G_src - G_dst Y(a) = 0 over all arcs are assembled into
    one homogeneous system via row-major vectorization:
        vec(A M) = (A kron I) vec(M),   vec(M B) = (I kron B^T) vec(M),
    whose nonzero entries are written on the blocks' diagonals, and solved
    with an SVD nullspace at the numerics module's rank cutoff, one stacked
    SVD for a stack, scaled by the largest entry modulus of x and y per point.
    """
    if x.quiver != y.quiver:
        raise ValueError("intertwiner space needs reps over the same quiver")
    q = x.quiver
    sizes = {v: x.dims[v] * y.dims[v] for v in q.vertices}
    offsets = dict(zip(q.vertices, accumulate(sizes.values(), initial=0)))
    rows = sum(x.dims[a.dst] * y.dims[a.src] for a in q.arcs)
    lead = () if x.size is None else (x.size,)
    system = np.zeros(lead + (rows, sum(sizes.values())), dtype=np.complex128)
    r0 = 0
    for a in q.arcs:
        xd, ys = x.dims[a.dst], y.dims[a.src]
        # row (i, k), column (j, l) of the blocks (A kron I) and -(I kron B^T):
        # A[i, j] where k == l, and -B[l, k] where i == j (first block first)
        for v, shape, diagonal, value in (
                (a.src, (xd, ys, x.dims[a.src], ys), "...ikjk->...ijk", x.mats[a.name][..., None]),
                (a.dst, (xd, ys, xd, y.dims[a.dst]), "...ikil->...ikl",
                 -np.swapaxes(y.mats[a.name], -1, -2)[..., None, :, :])):
            if xd * ys * sizes[v]:
                block = system[..., r0:r0 + xd * ys, offsets[v]:offsets[v] + sizes[v]]
                np.einsum(diagonal, block.reshape(lead + shape))[...] += value
        r0 += xd * ys

    def gammas(vec):
        return {v: vec[offsets[v]:offsets[v] + sizes[v]].reshape(x.dims[v], y.dims[v])
                for v in q.vertices}

    # not the system's own: at a scalar point its entries cancel to noise
    scale = np.max([np.zeros(lead)] + [np.abs(m).max(axis=(-2, -1), initial=0.0)
                                       for r in (x, y) for m in r.mats.values()], axis=0)
    if lead:
        return [[gammas(vec) for vec in basis] for basis in nullspace(system, scale)]
    return [NatTrans(y, x, gammas(vec)) for vec in nullspace(system, scale)]


def random_reps(q: Quiver, dims: Mapping[str, int], seeds: Sequence[int]) -> Rep:
    """The stack of random_rep(q, dims, seed) over seeds, from one draw."""
    mats = ginibre(seeds, [(dims[a.dst], dims[a.src]) for a in q.arcs])
    return Rep(q, dict(dims), dict(zip(q.arc_names(), mats)), len(seeds))


def random_rep(q: Quiver, dims: Mapping[str, int], seed: int) -> Rep:
    """Deterministic complex-Ginibre rep: entries are standard complex normals
    (real and imaginary parts each N(0,1)) drawn from numpy's PCG64 stream for
    the given seed, in quiver arc order."""
    mats = ginibre([seed], [(dims[a.dst], dims[a.src]) for a in q.arcs])
    return Rep(q, dict(dims), {a.name: m[0] for a, m in zip(q.arcs, mats)})


def random_autos(q: Quiver, dims: Mapping[str, int], seeds: Sequence[int]) -> dict[str, np.ndarray]:
    """Per vertex, the stack (len(seeds), n, n) of random_auto's matrices for
    seeds, with one inverse_rule call per vertex per draw: a seed whose draw
    fails at any vertex draws all its matrices again from its own stream."""
    shapes = [(dims[v],) * 2 for v in q.vertices]
    autos = {v: np.empty((len(seeds), *s), dtype=np.complex128) for v, s in zip(q.vertices, shapes)}
    redo, draws = list(range(len(seeds))), 0
    while redo:
        draws += 1
        drawn = ginibre([seeds[b] for b in redo], shapes * draws)[len(shapes) * (draws - 1):]
        ok = np.ones(len(redo), dtype=bool)
        for v, m in zip(q.vertices, drawn):
            autos[v][redo] = m
            ok &= inverse_rule(m)[0]
        redo = [b for b, good in zip(redo, ok) if not good]
    return autos


def random_auto(x: Rep, seed: int) -> NatAuto:
    """Seeded random natural automorphism of x: Ginibre per vertex from
    numpy's PCG64 stream for the seed, drawn again while one is singular."""
    return NatAuto(x, {v: s[0] for v, s in random_autos(x.quiver, x.dims, [seed]).items()})


def check_relations(x: Rep, pres: RelationPresentation, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Max over relations of ||eval(lhs) - eval(rhs)|| / (1 + ||lhs|| * ||rhs||)."""
    if x.quiver != pres.quiver:
        raise ValueError("rep and presentation disagree on the quiver")
    per_rel = {
        i: rel_diff(eval_path(x, lhs), eval_path(x, rhs))
        for i, (lhs, rhs) in enumerate(pres.relations)
    }
    res = worst(per_rel.values())
    return ResidualReport("relations", res, tol, res <= tol, per_rel)
