"""An exact oracle for Jacobians and certificate verdicts.

The block trick is exact in rational arithmetic. A map whose scalars are real
floats (dyadic rationals, so Fraction(k.real) is exact) is evaluated on
rational matrices at [[X, E_ij], [0, X]] for every matrix unit E_ij of a small
integer point X, with Gauss-Jordan elimination for its inverse nodes. The
upper-right blocks are then the columns of Df(X) without rounding, and the
rank of that J over the rationals is exact. The float code must agree:
derivative_matrix with J to 1e-12, and ift_certificate's kernel_dim with
cols - rank, at points where the cutoff IFT_TOL sits well clear of the
singular values of J.
"""

from fractions import Fraction

import numpy as np
import pytest

from freequiver.calculus import IFT_TOL, derivative_matrix, direction_slots, ift_certificate
from freequiver.catalog import (
    block_inverse_map,
    intertwine_demo_map,
    ppt_map,
    sch_quiver,
    schur_map,
    smw_lhs_map,
    smw_rhs_map,
)
from freequiver.exprs import Add, Atom, Id, Inv, Mul, Scale, random_polynomial_map
from freequiver.reps import Rep

# how far every point's exact J keeps its singular values from the cutoff,
# as a factor on both sides, so that the float verdict is not a coin toss
MARGIN = 100.0
# seeds tried per map and profile for a point where the map is regular
DRAWS = 10


class Singular(Exception):
    """An inverse node's operand is exactly singular."""


# Matrices are object arrays of Python ints and Fractions: integer entries
# stay ints, whose arithmetic is several times faster than Fraction's.

def _zeros(rows, cols):
    return np.zeros((rows, cols), dtype=int).astype(object)


def _identity(n):
    return np.eye(n, dtype=int).astype(object)


def _fractions(m):
    return np.vectorize(Fraction, otypes=[object])(m) if m.size else m


def _inverse(m):
    """m⁻¹ by Gauss-Jordan elimination over the rationals."""
    n = m.shape[0]
    if m.shape[1] != n:
        raise Singular
    a = _fractions(np.concatenate([m, _identity(n)], axis=1))
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r, col] != 0), None)
        if pivot is None:
            raise Singular
        a[[col, pivot]] = a[[pivot, col]]
        a[col] = a[col] / a[col, col]
        for r in range(n):
            if r != col and a[r, col] != 0:
                a[r] = a[r] - a[r, col] * a[col]
    return a[:, n:]


def _rank(m):
    """Rank over the rationals, by row reduction."""
    a = _fractions(m)
    rank = 0
    for col in range(a.shape[1]):
        pivot = next((r for r in range(rank, a.shape[0]) if a[r, col] != 0), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        for r in range(rank + 1, a.shape[0]):
            if a[r, col] != 0:
                a[r] = a[r] - (a[r, col] / a[rank, col]) * a[rank]
        rank += 1
    return rank


def _eval(e, mats, dims, memo):
    """e at exact matrices; memo holds each inverse node's value."""
    if isinstance(e, Atom):
        return mats[e.arc]
    if isinstance(e, Id):
        return _identity(dims[e.vertex])
    if isinstance(e, Add):
        vals = [_eval(t, mats, dims, memo) for t in e.terms]
        return sum(vals[1:], vals[0])
    if isinstance(e, Scale):
        assert e.k.imag == 0
        k = Fraction(e.k.real)
        return (k.numerator if k.denominator == 1 else k) * _eval(e.of, mats, dims, memo)
    if isinstance(e, Mul):
        vals = [_eval(f, mats, dims, memo) for f in e.factors]
        out = vals[0]
        for v in vals[1:]:
            out = (out @ v) if out.shape[1] else _zeros(out.shape[0], v.shape[1])
        return out
    if isinstance(e, Inv):
        if e not in memo:
            memo[e] = _inverse(_eval(e.of, mats, dims, memo))
        return memo[e]
    raise TypeError(e)


def exact_image(f, mats, dims):
    memo = {}
    return {r: _eval(e, mats, dims, memo) for r, e in f.entries.items()}


def exact_jacobian(f, x, mats):
    """J column by column: the upper-right blocks of f at [[X, E], [0, X]]
    over the matrix units E, in derivative_matrix's layout."""
    dims2 = {v: 2 * n for v, n in x.dims.items()}
    fx = exact_image(f, mats, x.dims)
    columns = []
    for arc, rows, cols, _ in direction_slots(x):
        for i in range(rows):
            for j in range(cols):
                block = {}
                for a, m in mats.items():
                    h = _zeros(*m.shape)
                    if a == arc:
                        h[i, j] = 1
                    block[a] = np.block([[m, h], [_zeros(*m.shape), m]])
                image = exact_image(f, block, dims2)
                column = []
                for r in f.target_quiver.arcs:
                    p, q = fx[r.name].shape
                    img = image[r.name]
                    assert (img[:p, :q] == fx[r.name]).all() and (img[p:, q:] == fx[r.name]).all()
                    assert (img[p:, :q] == 0).all()
                    column.extend(img[:p, q:].reshape(-1))
                columns.append(column)
    n_rows = sum(m.size for m in fx.values())
    return np.array(columns, dtype=object).T.reshape(n_rows, len(columns))


def regular_point(f, dims, seed):
    """A point with entries in [-3, 3] at which every inverse node of f is
    exactly invertible (the first of DRAWS seeded draws), with its exact
    matrices; None when every draw is singular."""
    q = f.source_quiver
    for draw in range(DRAWS):
        rng = np.random.default_rng([seed, draw])
        ints = {a.name: rng.integers(-3, 4, (dims[a.dst], dims[a.src])) for a in q.arcs}
        mats = {a: m.astype(object) for a, m in ints.items()}
        try:
            exact_image(f, mats, dims)
        except Singular:
            continue
        return Rep(q, dims, {a: m.astype(np.complex128) for a, m in ints.items()}), mats
    return None


MAPS = {
    "schur": schur_map,
    "ppt_D": lambda: ppt_map("pivot_D"),
    "ppt_A": lambda: ppt_map("pivot_A"),
    "block_inverse": block_inverse_map,
    "smw_lhs": smw_lhs_map,
    "smw_rhs": smw_rhs_map,
    "intertwine_demo": intertwine_demo_map,
    **{f"poly{seed}": (lambda seed=seed: random_polynomial_map(
        sch_quiver(), sch_quiver(), seed, max_degree=3)) for seed in range(8)},
}


@pytest.mark.parametrize("name", MAPS)
def test_jacobian_and_kernel_match_the_exact_oracle(name):
    f = MAPS[name]()
    for seed, profile in enumerate(((2, 3), (3, 2))):
        dims = dict(zip(f.source_quiver.vertices, profile))
        found = regular_point(f, dims, seed)
        assert found is not None, f"no regular integer point at {dims}"
        x, mats = found
        exact = exact_jacobian(f, x, mats)
        jac = exact.astype(np.complex128)
        got = derivative_matrix(f, x).matrix
        assert got.shape == jac.shape
        assert np.abs(got - jac).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(jac).max(initial=0.0))
        rank = _rank(exact)
        s = np.linalg.svd(jac, compute_uv=False)
        assert rank == 0 or s[rank - 1] > MARGIN * IFT_TOL * s[0]
        assert rank == s.size or s[rank] < IFT_TOL * s[0] / MARGIN
        assert ift_certificate(f, x).kernel_dim == jac.shape[1] - rank
