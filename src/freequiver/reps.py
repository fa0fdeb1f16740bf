"""Matrix representations of a quiver's free category.

A Rep is a functor into finite-dimensional complex spaces: each vertex gets a
dimension (0 allowed) and each arc a a matrix of shape dims[dst(a)] x
dims[src(a)]. Natural transformations are per-vertex matrices making all the
arc squares commute; the intertwiner space is computed by vectorizing all
per-vertex unknowns into one homogeneous linear system and taking its SVD
nullspace. Every block point [[X, U], [0, Y]] (the direct sum is U = 0, the
block trick's derivative point is [[X, H], [0, X]]) comes from block_points,
as one point or a stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .errors import RegularityError
from .numerics import (
    DEFAULT_TOL,
    as_complex_matrix,
    is_invertible,
    joint_frob_norm,
    nullspace,
    op_norm,
    rel_diff,
    rel_residual,
    worst,
)
from .quivers import Path, Quiver, RelationPresentation, check_path


@dataclass(eq=False)
class Rep:
    """quiver + dims (vertex -> size) + mats (arc -> dims[dst] x dims[src])."""

    quiver: Quiver
    dims: dict[str, int]
    mats: dict[str, np.ndarray]

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
    shape x.dims[dst] x x.dims[src] per arc of x.quiver and nothing else;
    kind (e.g. "direction ") prefixes "matrix" in the errors."""
    out = {}
    for a in x.quiver.arcs:
        if a.name not in mats:
            raise ValueError(f"missing {kind}matrix for arc {a.name!r}")
        m = as_complex_matrix(mats[a.name])
        want = (x.dims[a.dst], x.dims[a.src])
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
    over a quiver without arcs."""
    if x.quiver != y.quiver or x.dims != y.dims:
        raise ValueError("reps live on different quivers or dimension profiles")
    return worst(rel_diff(x.mats[a], y.mats[a]) for a in x.quiver.arc_names())


def eval_path(x: Rep, p: Path) -> np.ndarray:
    """Ordered product of arc matrices along p; the identity path evaluates to
    the identity matrix at its anchor."""
    check_path(x.quiver, p)
    out = np.eye(x.dims[p.src], dtype=np.complex128)
    for name in p.arcs:
        out = x.mats[name] @ out
    return out


class Points(NamedTuple):
    """A Rep's dims and arc matrices, each one matrix or a stack (..., rows,
    cols) of one dimension profile: what eval_expr takes in place of a Rep."""

    dims: dict[str, int]
    mats: dict[str, np.ndarray]


def block_points(x: Rep, y: Rep, u: Mapping | None = None) -> Points:
    """Arc a -> [[X(a), U(a)], [0, Y(a)]] over the shared quiver, dims summed
    per vertex: U(a) is x.dims[dst] by y.dims[src], one matrix or a stack
    (..., rows, cols) that stacks the blocks alike, and zero without u (the
    direct sum). A free map's upper-right blocks at [[X, H], [0, X]] are its
    derivative Df(X)[H]."""
    if x.quiver != y.quiver:
        raise ValueError("block points need reps over the same quiver")
    extra = sorted(set(u) - set(x.mats)) if u else []
    if extra:
        raise ValueError(f"upper-right blocks for unknown arcs: {extra}")
    dims = {v: x.dims[v] + y.dims[v] for v in x.quiver.vertices}
    mats = {}
    for a in x.quiver.arcs:
        xm, ym = x.mats[a.name], y.mats[a.name]
        rows, cols = xm.shape
        if u is None:
            m = np.zeros((dims[a.dst], dims[a.src]), dtype=np.complex128)
        else:
            if a.name not in u:
                raise ValueError(f"missing upper-right block for arc {a.name!r}")
            um, want = np.asarray(u[a.name]), (rows, ym.shape[1])
            if um.shape[-2:] != want:
                raise ValueError(f"block at {a.name!r}: upper-right shape {um.shape} != {want}")
            m = np.zeros(um.shape[:-2] + (dims[a.dst], dims[a.src]), dtype=np.complex128)
            m[..., :rows, cols:] = um
        m[..., :rows, :cols] = xm
        m[..., rows:, cols:] = ym
        mats[a.name] = m
    return Points(dims, mats)


def direct_sum(x: Rep, y: Rep) -> Rep:
    """Blockwise direct sum: dims add per vertex, arc matrices become
    [[X(a), 0], [0, Y(a)]]."""
    return Rep(x.quiver, *block_points(x, y))


def adjoint_rep(x: Rep) -> Rep:
    """Arc a -> X(a)* over the arc-reversed quiver (same quiver when every
    arc is a loop, the only case where pairing with the original typechecks)."""
    rev = Quiver(x.quiver.vertices, tuple((a.name, a.dst, a.src) for a in x.quiver.arcs))
    mats = {a: np.conj(m).T for a, m in x.mats.items()}
    dims = dict(x.dims)
    return Rep(rev, dims, mats)


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


def identity_auto(x: Rep) -> NatAuto:
    return NatAuto(x, {v: np.eye(x.dims[v], dtype=np.complex128) for v in x.quiver.vertices})


def conjugate(x: Rep, s: NatAuto) -> Rep:
    """Arc a -> S_dst^{-1} X(a) S_src."""
    if s.rep.quiver != x.quiver or s.rep.dims != x.dims:
        raise ValueError("automorphism shaped for a different rep")
    mats = {}
    for a in x.quiver.arcs:
        mats[a.name] = np.linalg.solve(
            s.s_mats[a.dst], x.mats[a.name] @ s.s_mats[a.src]
        ) if x.dims[a.dst] else np.zeros((0, x.dims[a.src]))
    return Rep(x.quiver, dict(x.dims), mats)


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
    """Max over generating arcs of
    ||X(a) G_src - G_dst Y(a)|| / (1 + ||X(a)|| * max_v ||G_v||).
    Generating arcs suffice because the path category is free on them."""
    x, y = g.to_rep, g.from_rep
    gamma_scale = worst(op_norm(m) for m in g.gammas.values())
    per_arc = {}
    for a in x.quiver.arcs:
        raw = op_norm(x.mats[a.name] @ g.gammas[a.src] - g.gammas[a.dst] @ y.mats[a.name])
        per_arc[a.name] = rel_residual(raw, x.mats[a.name], gamma_scale)
    res = worst(per_arc.values())
    return ResidualReport("nat_trans", res, tol, res <= tol, per_arc)


def intertwiner_space(x: Rep, y: Rep) -> list[NatTrans]:
    """Orthonormal basis (stacked-vector inner product) of all natural
    transformations y -> x.

    The equations X(a) G_src - G_dst Y(a) = 0 over all arcs are assembled into
    one homogeneous system via row-major vectorization:
        vec(A M) = (A kron I) vec(M),   vec(M B) = (I kron B^T) vec(M),
    and solved with an SVD nullspace at the numerics module's rank cutoff.
    """
    if x.quiver != y.quiver:
        raise ValueError("intertwiner space needs reps over the same quiver")
    q = x.quiver
    sizes = {v: x.dims[v] * y.dims[v] for v in q.vertices}
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += sizes[v]
    rows = sum(x.dims[a.dst] * y.dims[a.src] for a in q.arcs)
    system = np.zeros((rows, total), dtype=np.complex128)
    r0 = 0
    for a in q.arcs:
        n_rows = x.dims[a.dst] * y.dims[a.src]
        if n_rows:
            if sizes[a.src]:
                system[r0 : r0 + n_rows, offsets[a.src] : offsets[a.src] + sizes[a.src]] += np.kron(
                    x.mats[a.name], np.eye(y.dims[a.src])
                )
            if sizes[a.dst]:
                system[r0 : r0 + n_rows, offsets[a.dst] : offsets[a.dst] + sizes[a.dst]] -= np.kron(
                    np.eye(x.dims[a.dst]), y.mats[a.name].T
                )
        r0 += n_rows
    basis_vectors = nullspace(system)
    out = []
    for vec in basis_vectors:
        gammas = {
            v: vec[offsets[v] : offsets[v] + sizes[v]].reshape(x.dims[v], y.dims[v])
            for v in q.vertices
        }
        out.append(NatTrans(y, x, gammas))
    return out


def random_rep(q: Quiver, dims: Mapping[str, int], seed: int) -> Rep:
    """Deterministic complex-Ginibre rep: entries are standard complex normals
    (real and imaginary parts each N(0,1)) drawn from numpy's PCG64 stream for
    the given seed, in quiver arc order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mats = {}
    for a in q.arcs:
        shape = (dims[a.dst], dims[a.src])
        mats[a.name] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Rep(q, dict(dims), mats)


def random_auto(x: Rep, seed: int) -> NatAuto:
    """Seeded random natural automorphism of x: Ginibre per vertex, redrawn
    (deterministically) in the rare singular case."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mats = {}
    for v in x.quiver.vertices:
        n = x.dims[v]
        while True:
            s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if is_invertible(s):
                break
        mats[v] = s
    return NatAuto(x, mats)


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
