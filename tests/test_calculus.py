"""Block-trick derivatives: direction fields, derivative matrices, IFT
certificates, chain/Leibniz/commutation rules, nilpotent coefficients."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freequiver import calculus, catalog
from freequiver.calculus import (
    DirectionField,
    block_extend,
    chain_rule_check,
    derivative_matrix,
    direction_add,
    direction_norm,
    direction_residual,
    direction_scale,
    direction_slots,
    directional_derivative,
    fd_errors,
    finite_difference,
    flatten_direction,
    gamma_commutation_check,
    ift_certificate,
    leibniz_check,
    matrix_unit_direction,
    nilpotent_coefficients,
    nilpotent_matrix,
    observed_order,
    pair_direction,
    random_direction,
    unflatten_direction,
    zero_direction,
)
from freequiver.errors import BlockMismatchError, RegularityError
from freequiver.exprs import (
    Atom,
    FreeMapDef,
    ProductSpec,
    add,
    eval_map,
    identity_map,
    is_regular,
    inv,
    mul,
    random_polynomial_map,
    scale,
    sub,
)
from freequiver.numerics import (
    frob_norm,
    frob_norms,
    op_norm,
    op_norms,
    rel_diff,
    rel_residual,
)
from freequiver.quivers import Arc, Quiver, classical_embed, enumerate_paths
from freequiver.reps import (
    NatTrans,
    Rep,
    block_points,
    direct_sum,
    eval_path,
    intertwiner_space,
    random_rep,
    rep_distance,
)


def sch_quiver():
    return Quiver(
        ("u", "v"),
        (Arc("x1", "u", "u"), Arc("x2", "v", "v"), Arc("x12", "v", "u"), Arc("x21", "u", "v")),
    )


def random_sch(seed, nu=3, nv=2):
    return random_rep(sch_quiver(), {"u": nu, "v": nv}, seed)


def worked_target():
    return Quiver(("u", "v"), (Arc("y1", "u", "u"), Arc("y21", "u", "v")))


def worked_map():
    f1 = add(
        mul(Atom("x12"), Atom("x2"), Atom("x21")),
        scale(-1, mul(Atom("x1"), Atom("x12"), Atom("x21"), Atom("x1"))),
        scale(2, mul(Atom("x1"), Atom("x1"))),
    )
    f21 = add(
        mul(Atom("x21"), Atom("x1"), Atom("x1")),
        scale(2, mul(Atom("x2"), Atom("x21"), Atom("x1"))),
        mul(Atom("x2"), Atom("x2"), Atom("x21")),
    )
    return FreeMapDef(sch_quiver(), worked_target(), {"y1": f1, "y21": f21})


def schur_map():
    target = Quiver(("u", "v"), (Arc("x", "u", "u"),))
    entry = sub(Atom("x1"), mul(Atom("x12"), inv(Atom("x2")), Atom("x21")))
    return FreeMapDef(sch_quiver(), target, {"x": entry})


def loop_quiver():
    return classical_embed(1)


def two_loop():
    return classical_embed(2)


def two_loop_targets():
    return Quiver(("u", "v"), (Arc("x1", "u", "u"), Arc("x2", "v", "v")))


def sch_product_spec():
    return ProductSpec(
        p_quiver=sch_quiver(),
        q_quiver=two_loop_targets(),
        target_quiver=sch_quiver(),
        pairs={
            "x1": ("x1", "x1"),
            "x2": ("x2", "x2"),
            "x21": ("x21", "x1"),
            "x12": ("x12", "x2"),
        },
    )


class TestDirectionFields:
    def test_shape_validation(self):
        x = random_sch(1)
        with pytest.raises(ValueError, match="shape"):
            DirectionField(x, {
                "x1": np.zeros((3, 3)), "x2": np.zeros((2, 2)),
                "x12": np.zeros((3, 2)), "x21": np.zeros((3, 2)),
            })
        with pytest.raises(ValueError, match="missing direction"):
            DirectionField(x, {"x1": np.zeros((3, 3))})
        with pytest.raises(ValueError, match="unknown arcs"):
            DirectionField(x, {**zero_direction(x).h_mats, "x9": np.zeros((3, 3))})

    def test_flatten_roundtrip(self):
        x = random_sch(2)
        h = random_direction(x, 3)
        vec = flatten_direction(h)
        assert vec.shape == (9 + 4 + 6 + 6,)
        back = unflatten_direction(x, vec)
        assert direction_residual(h, back) == 0.0
        assert abs(direction_norm(h) - np.linalg.norm(vec)) < 1e-12

    def test_random_direction_draws_random_rep(self):
        x = random_sch(5)
        h, r = random_direction(x, 11), random_rep(x.quiver, x.dims, 11)
        for a in x.mats:
            assert np.array_equal(h.h_mats[a], r.mats[a])

    def test_residual_with_inf_on_a_later_arc_is_nan(self):
        x = random_sch(6)
        h = random_direction(x, 7)
        k = DirectionField(x, {**h.h_mats, "x21": np.full((2, 3), np.inf)})
        assert np.isnan(direction_residual(h, k))

    def test_arithmetic(self):
        x = random_sch(4)
        h, k = random_direction(x, 5), random_direction(x, 6)
        combo = direction_add(direction_scale(2, h), k)
        for a in x.mats:
            assert np.allclose(combo.h_mats[a], 2 * h.h_mats[a] + k.h_mats[a])


class TestBlockExtend:
    def test_zero_direction_is_direct_sum(self):
        x = random_sch(7)
        assert rep_distance(block_extend(x, zero_direction(x)), direct_sum(x, x)) == 0.0

    def test_path_diagonals(self):
        q = sch_quiver()
        x = random_sch(8)
        h = random_direction(x, 9)
        big = block_extend(x, h)
        for src in q.vertices:
            for dst in q.vertices:
                for p in enumerate_paths(q, src, dst, 3):
                    whole = eval_path(big, p)
                    base = eval_path(x, p)
                    m, n = x.dims[dst], x.dims[src]
                    assert np.allclose(whole[:m, :n], base, atol=1e-10)
                    assert np.allclose(whole[m:, n:], base, atol=1e-10)
                    assert np.allclose(whole[m:, :n], 0, atol=1e-12)

    def test_scalar_zero_gives_jordan_block(self):
        q = loop_quiver()
        x = Rep(q, {"u": 1}, {"x": np.zeros((1, 1))})
        h = DirectionField(x, {"x": np.ones((1, 1))})
        big = block_extend(x, h)
        assert np.array_equal(big.mats["x"], np.array([[0, 1], [0, 0]], dtype=complex))

    def test_mixed_block_shape_check(self):
        x, y = random_sch(10), random_sch(11, nu=2, nv=2)
        with pytest.raises(ValueError, match="upper-right shape"):
            block_points(x, y, {a: np.zeros((1, 1)) for a in x.mats})


class TestDirectionalDerivative:
    def test_identity_map_returns_direction(self):
        x = random_sch(12)
        h = random_direction(x, 13)
        dd = directional_derivative(identity_map(sch_quiver()), x, h)
        assert direction_residual(dd, DirectionField(x, h.h_mats)) <= 1e-14

    def test_linear_map_applies_to_direction(self):
        q = two_loop()
        f = FreeMapDef(q, loop_quiver(), {
            "x": add(Atom("x"), scale(2, Atom("y"))),
        }, {"u": "u"})
        x = random_rep(q, {"u": 4}, 14)
        h = random_direction(x, 15)
        dd = directional_derivative(f, x, h)
        want = h.h_mats["x"] + 2 * h.h_mats["y"]
        assert np.allclose(dd.h_mats["x"], want, atol=1e-12)

    def test_square_map(self):
        q = loop_quiver()
        f = FreeMapDef(q, q, {"x": mul(Atom("x"), Atom("x"))})
        x = random_rep(q, {"u": 4}, 16)
        h = random_direction(x, 17)
        dd = directional_derivative(f, x, h)
        xm, hm = x.mats["x"], h.h_mats["x"]
        assert np.allclose(dd.h_mats["x"], xm @ hm + hm @ xm, atol=1e-10)

    def test_inverse_map(self):
        q = loop_quiver()
        f = FreeMapDef(q, q, {"x": inv(Atom("x"))})
        x = random_rep(q, {"u": 4}, 18)
        h = random_direction(x, 19)
        dd = directional_derivative(f, x, h)
        xi = np.linalg.inv(x.mats["x"])
        want = -xi @ h.h_mats["x"] @ xi
        assert np.allclose(dd.h_mats["x"], want, atol=1e-8)

    def test_schur_closed_form(self):
        f = schur_map()
        x = random_sch(20, nu=4, nv=3)
        h = random_direction(x, 21)
        dd = directional_derivative(f, x, h).h_mats["x"]
        b, c, d = x.mats["x12"], x.mats["x21"], x.mats["x2"]
        ha, hb = h.h_mats["x1"], h.h_mats["x12"]
        hc, hd = h.h_mats["x21"], h.h_mats["x2"]
        di = np.linalg.inv(d)
        want = ha - hb @ di @ c + b @ di @ hd @ di @ c - b @ di @ hc
        denom = 1.0 + np.linalg.norm(want, 2)
        assert np.linalg.norm(dd - want, 2) / denom <= 1e-9

    def test_linearity_in_direction(self):
        for f, x in (
            (worked_map(), random_sch(22)),
            (schur_map(), random_sch(23, nu=3, nv=3)),
        ):
            h, k = random_direction(x, 24), random_direction(x, 25)
            lhs = directional_derivative(f, x, direction_add(direction_scale(2, h), k))
            rhs = direction_add(
                direction_scale(2, directional_derivative(f, x, h)),
                directional_derivative(f, x, k),
            )
            assert direction_residual(lhs, rhs) <= 1e-10


class TestFiniteDifference:
    def test_linear_map_exact(self):
        q = two_loop()
        f = FreeMapDef(q, loop_quiver(), {
            "x": sub(Atom("x"), Atom("y")),
        }, {"u": "u"})
        x = random_rep(q, {"u": 3}, 26)
        h = random_direction(x, 27)
        dd = directional_derivative(f, x, h)
        fd = finite_difference(f, x, h, 1e-3)
        assert direction_residual(dd, fd) <= 1e-10

    def test_convergence_order_polynomial(self):
        f = worked_map()
        x = random_sch(28)
        h = random_direction(x, 29)
        eps = [1e-4, 1e-5, 1e-6]
        errs = fd_errors(f, x, h, eps)
        assert observed_order(eps, errs) >= 0.9

    def test_convergence_order_rational(self):
        f = schur_map()
        x = random_sch(30, nu=3, nv=3)
        h = random_direction(x, 31)
        eps = [1e-4, 1e-5, 1e-6]
        errs = fd_errors(f, x, h, eps)
        assert observed_order(eps, errs) >= 0.9
        assert errs[-1] <= 1e-5  # eps = 1e-6 already agrees tightly

    def test_order_inf_for_exact_agreement(self):
        assert observed_order([1e-4, 1e-5], [1e-15, 1e-16]) == math.inf

    def test_nan_error_is_not_exact_agreement(self):
        assert math.isnan(observed_order([1e-4, 1e-5, 1e-6], [1e-15, 1e-16, math.nan]))


class TestDerivativeMatrix:
    def test_identity_map(self):
        x = random_sch(32, nu=2, nv=2)
        dm = derivative_matrix(identity_map(sch_quiver()), x)
        n = dm.matrix.shape[0]
        assert dm.matrix.shape == (n, n)
        assert np.allclose(dm.matrix, np.eye(n), atol=1e-12)

    def test_square_map_matches_sylvester_operator(self):
        q = loop_quiver()
        f = FreeMapDef(q, q, {"x": mul(Atom("x"), Atom("x"))})
        x = random_rep(q, {"u": 3}, 33)
        dm = derivative_matrix(f, x)
        xm = x.mats["x"]
        eye = np.eye(3)
        # row-major vec: vec(XH + HX) = (X ⊗ I + I ⊗ X^T) vec(H)
        want = np.kron(xm, eye) + np.kron(eye, xm.T)
        assert np.allclose(dm.matrix, want, atol=1e-10)

    def test_apply_agrees_with_directional_derivative(self):
        f = worked_map()
        x = random_sch(34)
        dm = derivative_matrix(f, x)
        h = random_direction(x, 35)
        via_matrix = dm.apply(h)
        direct = directional_derivative(f, x, h)
        assert direction_residual(via_matrix, direct) <= 1e-9

    def test_arc_kernel_kills_all_short_paths(self):
        # a direction annihilated on the generating arcs stays block-diagonal
        # along every composite path
        f = worked_map()
        x = random_sch(36)
        dm = derivative_matrix(f, x)
        _, s, vh = np.linalg.svd(dm.matrix, full_matrices=True)
        assert dm.matrix.shape[1] > dm.matrix.shape[0]  # kernel guaranteed
        kvec = np.conj(vh[-1])
        assert np.linalg.norm(dm.matrix @ kvec) <= 1e-9
        h = unflatten_direction(x, kvec)
        big = eval_map(f, block_extend(x, h))
        t = f.target_quiver
        for src in t.vertices:
            for dst in t.vertices:
                for p in enumerate_paths(t, src, dst, 3):
                    whole = eval_path(big, p)
                    m = big.dims[dst] // 2
                    n = big.dims[src] // 2
                    assert np.linalg.norm(whole[:m, n:], 2) <= 1e-7


CATALOG_MAPS = {
    "schur": catalog.schur_map,
    "ppt_D": lambda: catalog.ppt_map("pivot_D"),
    "ppt_A": lambda: catalog.ppt_map("pivot_A"),
    "block_inverse": catalog.block_inverse_map,
    "smw_lhs": catalog.smw_lhs_map,
    "smw_rhs": catalog.smw_rhs_map,
    "rational_triple": catalog.rational_triple_map,
    "sandwich_rational": catalog.sandwich_rational_map,
    "cbh": catalog.cbh_truncated,
    "intertwine_demo": catalog.intertwine_demo_map,
    "random_poly": lambda: random_polynomial_map(sch_quiver(), sch_quiver(), 77, max_degree=3),
}

# (first vertex, second vertex): one side empty, both empty, 25 columns (under
# one chunk) and 100 columns (not a multiple of the chunk) on the block quivers
DIM_PROFILES = [(3, 0), (0, 2), (0, 0), (3, 2), (6, 4)]


def column_by_column(f, x):
    """Reference Jacobian: one directional derivative per matrix unit."""
    cols = [
        flatten_direction(directional_derivative(f, x, matrix_unit_direction(x, arc, i, j)))
        for arc, rows, ncols, _ in direction_slots(x)
        for i in range(rows)
        for j in range(ncols)
    ]
    n_rows = len(flatten_direction(zero_direction(eval_map(f, x))))
    return np.stack(cols, axis=1) if cols else np.zeros((n_rows, 0), dtype=np.complex128)


class TestStackedJacobian:
    @pytest.mark.parametrize("name", sorted(CATALOG_MAPS))
    @pytest.mark.parametrize("nu, nv", DIM_PROFILES)
    def test_matches_column_by_column(self, name, nu, nv):
        f = CATALOG_MAPS[name]()
        vs = f.source_quiver.vertices
        dims = {vs[0]: nu} if len(vs) == 1 else {vs[0]: nu, vs[1]: nv}
        x = random_rep(f.source_quiver, dims, 50 + nu + nv)
        dm = derivative_matrix(f, x)
        assert np.array_equal(dm.matrix, column_by_column(f, x))

    def test_singular_point_names_the_inverse(self):
        f = catalog.schur_map()
        x = random_sch(51)
        x.mats["x2"][:] = 0
        for fn in (derivative_matrix, ift_certificate):
            with pytest.raises(RegularityError) as err:
                fn(f, x)
            assert err.value.node == "x2^-1"

    def test_irregular_block_point_named_as_column_by_column(self):
        # y^-1 precedes x^-1 in traversal, but the first column moves x:
        # the block points [[aI, E], [0, aI]] have sigma ratio ~a^2, so every
        # column fails at the inverse of the arc it moves
        q = classical_embed(2)
        f = FreeMapDef(q, q, {"x": inv(Atom("y")), "y": inv(Atom("x"))})
        x = Rep(q, {"u": 2}, {"x": 1e-6 * np.eye(2), "y": 1e-6 * np.eye(2)})
        eval_map(f, x)
        with pytest.raises(RegularityError) as stacked:
            derivative_matrix(f, x)
        with pytest.raises(RegularityError) as first:
            directional_derivative(f, x, matrix_unit_direction(x, "x", 0, 0))
        assert str(stacked.value) == str(first.value)
        assert stacked.value.node == "x^-1"

    def test_stacked_residuals_match_single_matrices(self):
        rng = np.random.default_rng(53)
        base = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        stack = base + 1e-3 * rng.standard_normal((4, 3, 2))
        diffs = rel_diff(stack, base)
        residuals = rel_residual(op_norms(stack[:, :1]), stack)
        for b in range(4):
            assert diffs[b] == rel_diff(stack[b], base)
            assert residuals[b] == rel_residual(op_norm(stack[b, :1]), stack[b])
        assert list(op_norms(np.zeros((2, 3, 0)))) == [0.0, 0.0]

    def test_block_check_is_live_per_column(self, monkeypatch):
        f = catalog.ppt_map("pivot_D")
        x = random_sch(52)
        monkeypatch.setattr(calculus, "BLOCK_TOL", -1.0)
        with pytest.raises(BlockMismatchError) as stacked:
            derivative_matrix(f, x)
        with pytest.raises(BlockMismatchError) as first:
            directional_derivative(f, x, matrix_unit_direction(x, "x1", 0, 0))
        assert str(stacked.value) == str(first.value)

    def test_unscreened_columns_decided_as_column_by_column(self, monkeypatch):
        # BLOCK_TOL is set around the exact per-column residuals, taken here
        # from single block points, where the screen (at half the tolerance)
        # passes no column. A matrix-unit block point differs from X ⊕ X only
        # in blocks that multiply exact zeros, so the columns often share one
        # residual: just below the median, at least half of them fail.
        f = catalog.block_inverse_map()
        x = random_sch(54)
        fx = eval_map(f, x)
        residuals = []
        for arc, rows, cols, _ in direction_slots(x):
            for i in range(rows):
                for j in range(cols):
                    h = matrix_unit_direction(x, arc, i, j)
                    big = eval_map(f, block_extend(x, h))
                    worst = 0.0
                    for a in f.target_quiver.arcs:
                        m, n = fx.dims[a.dst], fx.dims[a.src]
                        z, base = big.mats[a.name], fx.mats[a.name]
                        worst = max(
                            worst,
                            rel_diff(z[:m, :n], base),
                            rel_diff(z[m:, n:], base),
                            rel_residual(op_norm(z[m:, :n]), z),
                        )
                    residuals.append((h, worst))
        values = [r for _, r in residuals]
        assert min(values) > 0
        want = derivative_matrix(f, x).matrix
        monkeypatch.setattr(calculus, "BLOCK_TOL", max(values))
        assert np.array_equal(derivative_matrix(f, x).matrix, want)
        tol = float(np.nextafter(np.median(values), 0.0))
        monkeypatch.setattr(calculus, "BLOCK_TOL", tol)
        first = next(h for h, r in residuals if r > tol)
        with pytest.raises(BlockMismatchError) as stacked:
            derivative_matrix(f, x)
        with pytest.raises(BlockMismatchError) as single:
            directional_derivative(f, x, first)
        assert str(stacked.value) == str(single.value)

    def test_overflowing_point_raises_linalg_error(self):
        # x^3 at 1e120 overflows to inf: no column can pass the screen, and
        # the exact 2-norms refuse the non-finite blocks
        q = loop_quiver()
        f = FreeMapDef(q, q, {"x": mul(Atom("x"), Atom("x"), Atom("x"))})
        x = Rep(q, {"u": 3}, {"x": 1e120 * np.ones((3, 3))})
        with np.errstate(all="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                derivative_matrix(f, x)
            with pytest.raises(np.linalg.LinAlgError):
                directional_derivative(f, x, random_direction(x, 1))

    def test_non_finite_image_keeps_the_error_order(self):
        # f(X) holds NaNs, and the doubled y-operand is irregular along
        # directions that move y: the first column (moving x) reaches the
        # exact checks, which refuse the NaNs, while a direction moving y
        # fails the inverse node first
        q = two_loop()
        f = FreeMapDef(q, q, {
            "x": mul(Atom("x"), Atom("x"), Atom("x")), "y": inv(Atom("y")),
        })
        x = Rep(q, {"u": 2}, {"x": 1e200 * np.ones((2, 2)), "y": 1e-6 * np.eye(2)})
        with np.errstate(all="ignore"):
            assert np.isnan(eval_map(f, x).mats["x"]).all()
            with pytest.raises(np.linalg.LinAlgError):
                derivative_matrix(f, x)
            with pytest.raises(RegularityError) as err:
                directional_derivative(f, x, random_direction(x, 1))
        assert err.value.node == "y^-1"


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBlockCheckScreen:
    def test_frob_norms_scale_free(self):
        rng = np.random.default_rng(55)
        stack = _cplx(rng, 3, 4, 2)
        norms = frob_norms(stack)
        for b in range(3):
            assert norms[b] == pytest.approx(frob_norm(stack[b]), rel=1e-15)
        for size in (1e-170, 1e170):
            assert frob_norms(size * stack) == pytest.approx(size * norms, rel=1e-15)
        assert list(frob_norms(np.zeros((2, 0, 3)))) == [0.0, 0.0]
        assert frob_norm(np.zeros((3, 0))) == 0.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(0, 4),
        cols=st.integers(0, 4),
        batch=st.integers(1, 3),
        scale_exp=st.one_of(st.sampled_from([-150, 0, 150]), st.integers(-150, 150)),
        rank_one=st.booleans(),
        blocks=st.sampled_from(["equal", "near", "far", "zero"]),
        gap_exp=st.integers(-18, -1),
    )
    def test_bounds_dominate_exact_residuals(
        self, seed, rows, cols, batch, scale_exp, rank_one, blocks, gap_exp
    ):
        rng = np.random.default_rng(seed)
        size = 10.0 ** scale_exp
        if rank_one:
            base = _cplx(rng, rows, 1) @ _cplx(rng, 1, cols) * size
        else:
            base = _cplx(rng, rows, cols) * size
        # zero: diagonal blocks of 0, where ‖tl − base‖_F ≈ ‖base‖₂
        gap = {"equal": 0.0, "near": 10.0 ** gap_exp, "far": 1.0, "zero": 0.0}[blocks]
        tl, br = (gap * size * _cplx(rng, batch, rows, cols) for _ in range(2))
        if blocks != "zero":
            tl, br = tl + base, br + base
        bl = size * 10.0 ** gap_exp * _cplx(rng, batch, rows, cols)
        tr = size * _cplx(rng, batch, rows, cols)
        big = np.concatenate(
            [np.concatenate([tl, tr], axis=2), np.concatenate([bl, br], axis=2)],
            axis=1,
        )
        bounds = calculus._screen_bounds(base, op_norm(base), tl, br, bl)
        exact = (
            rel_diff(tl, base),
            rel_diff(br, base),
            rel_residual(op_norms(bl), big),
        )
        for bound, value in zip(bounds, exact):
            # equal up to rounding where the blocks are rank one and tiny
            assert np.all(value <= bound * (1 + 1e-12))
        # the lower bound on ‖base‖₂ that derivative_matrix screens with
        s = calculus._image_norms(SimpleNamespace(mats={"a": base}))["a"]
        assert s <= op_norm(base)
        bounds = calculus._screen_bounds(base, s, tl, br, bl)
        for bound, value in zip(bounds, exact):
            assert np.all(value <= bound * (1 + 1e-12))


def _schur_closed_form(x, h):
    return {"x": catalog.schur_derivative(x, h)}


CLOSED_FORMS = {
    "schur": (catalog.schur_map, _schur_closed_form),
    "ppt_D": (
        lambda: catalog.ppt_map("pivot_D"),
        lambda x, h: catalog.ppt_derivative(x, h, "pivot_D"),
    ),
    "ppt_A": (
        lambda: catalog.ppt_map("pivot_A"),
        lambda x, h: catalog.ppt_derivative(x, h, "pivot_A"),
    ),
    "rational_triple": (catalog.rational_triple_map, catalog.rational_triple_derivative),
}


class TestClosedFormDerivatives:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(sorted(CLOSED_FORMS)),
        nu=st.integers(0, 4),
        nv=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_trick_matches_closed_form(self, name, nu, nv, seed):
        make, closed_form = CLOSED_FORMS[name]
        f = make()
        vs = f.source_quiver.vertices
        dims = {vs[0]: nu} if len(vs) == 1 else {vs[0]: nu, vs[1]: nv}
        x = random_rep(f.source_quiver, dims, seed)
        h = random_direction(x, seed + 1)
        # the closed forms invert the same blocks; keep them well conditioned
        ok, diags = is_regular(f, x)
        assume(ok and all(d.sigma_min > 1e-2 * d.sigma_max for d in diags))
        assume(is_regular(f, block_extend(x, h))[0])
        want = closed_form(x, h)
        derivative = directional_derivative(f, x, h).h_mats
        applied = derivative_matrix(f, x).apply(h).h_mats
        assert set(derivative) == set(want)
        for a, w in want.items():
            assert rel_residual(op_norm(derivative[a] - w), w) < 1e-8
            assert rel_residual(op_norm(applied[a] - w), w) < 1e-8


# seeds of random polynomial maps and 12/8 points whose 400x400 Jacobians
# LAPACK's gesdd fails to decompose with OpenBLAS at one thread, drawn with
# blake2b by the certify_jacobian benchmark workload: run seed 111 (round 2),
# and run seed 203 (round 5), where the conjugate transpose fails as well
NONCONVERGING_SEEDS = [
    (1928504363864835324, 8316372050708112907),
    (7968723214157157760, 5870224078913916722),
]


def nonconverging_point(map_seed, point_seed):
    q = catalog.sch_quiver()
    f = random_polynomial_map(q, q, map_seed, max_degree=3)
    return f, random_rep(q, {"u": 12, "v": 8}, point_seed)


class TestIFTCertificate:
    def test_identity_full_rank(self):
        x = random_sch(37, nu=2, nv=2)
        cert = ift_certificate(identity_map(sch_quiver()), x)
        assert cert.status == "full_rank"
        assert abs(cert.sigma_min - 1) < 1e-12 and abs(cert.sigma_max - 1) < 1e-12
        assert cert.kernel_dim == 0

    def test_cubic_loop_map_full_rank(self):
        q = loop_quiver()
        f = FreeMapDef(q, q, {"x": add(mul(Atom("x"), Atom("x"), Atom("x")), Atom("x"))})
        x = random_rep(q, {"u": 3}, 38)
        cert = ift_certificate(f, x)
        assert cert.status == "full_rank"
        assert cert.sigma_min > 1e-6 * cert.sigma_max

    def test_schur_with_zero_c_collides(self):
        x = random_sch(39, nu=3, nv=3)
        mats = dict(x.mats)
        mats["x21"] = np.zeros_like(mats["x21"])
        x0 = Rep(x.quiver, x.dims, mats)
        f = schur_map()
        cert = ift_certificate(f, x0)
        assert cert.status == "collision"
        assert cert.collision_residual <= 1e-8
        assert cert.separation >= 0.5
        assert rep_distance(eval_map(f, cert.rep1), eval_map(f, cert.rep2)) <= 1e-8
        # the kernel contains directions supported on the B slot alone
        dm = derivative_matrix(f, x0)
        probe = zero_direction(x0)
        probe.h_mats["x12"][0, 0] = 1.0
        assert np.linalg.norm(flatten_direction(dm.apply(probe))) <= 1e-10

    def test_collision_pair_is_separated(self):
        # any returned collision must be a genuine pair: images equal, points apart
        f = worked_map()
        x = random_sch(40)
        cert = ift_certificate(f, x)
        assert cert.status == "collision"  # wide derivative matrix, kernel forced
        assert cert.separation >= 0.5
        assert cert.collision_residual <= 1e-8


    def _assert_certificate_of(self, cert, f, x):
        dm = derivative_matrix(f, x)
        s = np.linalg.svd(dm.matrix, compute_uv=False)
        assert np.allclose(cert.singular_values, s, rtol=0, atol=1e-12 * s[0])
        assert cert.status == "collision" and cert.kernel_dim >= 1
        kernel = dm.matrix @ flatten_direction(cert.direction)
        assert np.linalg.norm(kernel) <= cert.tol * cert.sigma_max
        assert abs(cert.separation - 1) <= 1e-8

    def test_svd_fallback_through_qr(self, monkeypatch):
        f, x = nonconverging_point(*NONCONVERGING_SEEDS[0])
        svd, failed = np.linalg.svd, []

        def first_full_svd_fails(a, *args, **kwargs):
            if kwargs.get("full_matrices") and not failed:
                failed.append(a.shape)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", first_full_svd_fails)
        cert = ift_certificate(f, x)
        monkeypatch.undo()
        assert failed == [(400, 400)]
        self._assert_certificate_of(cert, f, x)

    @pytest.mark.parametrize("seeds", NONCONVERGING_SEEDS)
    def test_nonconverging_jacobian_at_one_blas_thread(self, seeds):
        # the thread count is fixed when numpy loads, so this runs in a child
        code = (
            "import sys\n"
            "from freequiver import catalog, ift_certificate, random_polynomial_map, random_rep\n"
            "q = catalog.sch_quiver()\n"
            f"f = random_polynomial_map(q, q, {seeds[0]}, max_degree=3)\n"
            f"x = random_rep(q, {{'u': 12, 'v': 8}}, {seeds[1]})\n"
            "sys.stdout.write(ift_certificate(f, x).singular_values.tobytes().hex())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(calculus.__file__).parents[1]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        got = np.frombuffer(bytes.fromhex(done.stdout))
        f, x = nonconverging_point(*seeds)
        s = np.linalg.svd(derivative_matrix(f, x).matrix, compute_uv=False)
        assert np.allclose(got, s, rtol=0, atol=1e-12 * s[0])

class TestChainRule:
    def test_identity_inner(self):
        f = worked_map()
        x = random_sch(41)
        h = random_direction(x, 42)
        assert chain_rule_check(f, identity_map(sch_quiver()), x, h) <= 1e-12

    def test_random_quadratics(self):
        q = two_loop()
        g = random_polynomial_map(q, q, seed=43, max_degree=2)
        f = random_polynomial_map(q, q, seed=44, max_degree=2)
        x = random_rep(q, {"u": 4}, 45)
        h = random_direction(x, 46)
        assert chain_rule_check(f, g, x, h) <= 1e-9

    def test_rational_outer(self):
        g = FreeMapDef(sch_quiver(), sch_quiver(), {
            "x1": add(Atom("x1"), mul(Atom("x1"), Atom("x1"))),
            "x2": Atom("x2"),
            "x12": Atom("x12"),
            "x21": mul(Atom("x21"), Atom("x1")),
        })
        f = schur_map()
        x = random_sch(47, nu=3, nv=3)
        h = random_direction(x, 48)
        assert chain_rule_check(f, g, x, h) <= 1e-7


class TestLeibniz:
    def test_zero_directions(self):
        spec = sch_product_spec()
        f = random_polynomial_map(sch_quiver(), sch_quiver(), seed=49, max_degree=2)
        g = random_polynomial_map(sch_quiver(), two_loop_targets(), seed=50, max_degree=2)
        x = random_sch(51, nu=3, nv=3)
        y = random_sch(52, nu=3, nv=3)
        res = leibniz_check(spec, f, g, x, y, zero_direction(x), zero_direction(y))
        assert res <= 1e-12

    def test_random_degree_two(self):
        spec = sch_product_spec()
        for seed in range(3):
            f = random_polynomial_map(sch_quiver(), sch_quiver(), seed=60 + seed, max_degree=2)
            g = random_polynomial_map(sch_quiver(), two_loop_targets(), seed=70 + seed, max_degree=2)
            x = random_sch(80 + seed, nu=3, nv=3)
            y = random_sch(90 + seed, nu=3, nv=3)
            h = random_direction(x, 100 + seed)
            k = random_direction(y, 110 + seed)
            assert leibniz_check(spec, f, g, x, y, h, k) <= 1e-8

    def test_pair_direction_layout(self):
        x = random_sch(55, nu=2, nv=2)
        y = random_rep(two_loop_targets(), {"u": 2, "v": 2}, 56)
        h, k = random_direction(x, 57), random_direction(y, 58)
        hk = pair_direction(h, k)
        assert set(hk.h_mats) == {"p.x1", "p.x2", "p.x12", "p.x21", "q.x1", "q.x2"}
        assert np.array_equal(hk.h_mats["q.x2"], k.h_mats["x2"])


class TestGammaCommutation:
    def test_zero_gamma_reduces_to_direct_sum(self):
        f = worked_map()
        x = random_sch(59, nu=3, nv=2)
        y = random_sch(60, nu=2, nv=3)
        gamma = NatTrans(y, x, {
            "u": np.zeros((3, 2)), "v": np.zeros((2, 3)),
        })
        assert gamma_commutation_check(f, x, y, gamma) <= 1e-12

    def test_random_gamma_polynomial(self):
        f = worked_map()
        x = random_sch(61, nu=3, nv=2)
        y = random_sch(62, nu=2, nv=3)
        rng = np.random.Generator(np.random.PCG64(63))
        gamma = NatTrans(y, x, {
            "u": rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
            "v": rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
        })
        assert gamma_commutation_check(f, x, y, gamma) <= 1e-8

    def test_random_gamma_rational(self):
        f = schur_map()
        x = random_sch(64, nu=3, nv=2)
        y = random_sch(65, nu=2, nv=2)
        rng = np.random.Generator(np.random.PCG64(66))
        gamma = NatTrans(y, x, {
            "u": rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
            "v": rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        })
        assert gamma_commutation_check(f, x, y, gamma) <= 1e-8

    def test_true_intertwiner_zeroes_upper_blocks(self):
        q = sch_quiver()
        w = random_rep(q, {"u": 2, "v": 2}, 67)
        x = direct_sum(w, random_rep(q, {"u": 1, "v": 1}, 68))
        y = direct_sum(w, random_rep(q, {"u": 2, "v": 1}, 69))
        basis = intertwiner_space(x, y)
        assert basis
        f = worked_map()
        gamma = basis[0]
        assert gamma_commutation_check(f, x, y, gamma) <= 1e-8
        fx, fy = eval_map(f, x), eval_map(f, y)
        for a in f.target_quiver.arcs:
            gap = fx.mats[a.name] @ gamma.gammas[a.src] - gamma.gammas[a.dst] @ fy.mats[a.name]
            assert np.linalg.norm(gap, 2) <= 1e-8

    def test_swapped_vertex_map_reads_gamma_at_source_vertex(self):
        # target u, v sit over source v, u: Γ at a target vertex is read at vm of it
        vm = {"u": "v", "v": "u"}
        f = FreeMapDef(sch_quiver(), worked_target(), {
            "y1": add(mul(Atom("x21"), Atom("x12")), inv(Atom("x2"))),
            "y21": add(Atom("x12"), mul(Atom("x1"), Atom("x12"), Atom("x2"))),
        }, vertex_map=vm)
        x, y = random_sch(70, nu=3, nv=2), random_sch(71, nu=2, nv=3)
        rng = np.random.Generator(np.random.PCG64(72))
        g = {v: rng.standard_normal(s) + 1j * rng.standard_normal(s)
             for v, s in {"u": (3, 2), "v": (2, 3)}.items()}
        gamma = NatTrans(y, x, g)
        big = eval_map(f, Rep(x.quiver, *block_points(x, y, {
            a.name: x.mats[a.name] @ g[a.src] - g[a.dst] @ y.mats[a.name]
            for a in x.quiver.arcs
        })))
        fx, fy = eval_map(f, x), eval_map(f, y)
        want = 0.0
        for a in f.target_quiver.arcs:
            fxa, fya = fx.mats[a.name], fy.mats[a.name]
            expected = np.block([
                [fxa, fxa @ g[vm[a.src]] - g[vm[a.dst]] @ fya],
                [np.zeros((fya.shape[0], fxa.shape[1])), fya],
            ])
            want = max(want, rel_diff(big.mats[a.name], expected))
        got = gamma_commutation_check(f, x, y, gamma)
        assert abs(got - want) <= 1e-12
        assert got <= 1e-8

    def test_gamma_shaped_for_other_reps_is_rejected(self):
        f = worked_map()
        x, y = random_sch(75, nu=3, nv=2), random_sch(76, nu=2, nv=3)
        gamma = NatTrans(x, y, {"u": np.ones((2, 3)), "v": np.ones((3, 2))})
        with pytest.raises(ValueError, match=r"gamma at 'u': shape \(2, 3\) != \(3, 2\)"):
            gamma_commutation_check(f, x, y, gamma)

    def test_arcless_target_is_zero(self):
        f = FreeMapDef(sch_quiver(), Quiver(("u", "v"), ()), {})
        x, y = random_sch(73, nu=3, nv=2), random_sch(74, nu=2, nv=3)
        gamma = NatTrans(y, x, {"u": np.ones((3, 2)), "v": np.ones((2, 3))})
        assert gamma_commutation_check(f, x, y, gamma) == 0.0


class TestNilpotentCoefficients:
    def test_reference_polynomial(self):
        # p = 1 + 4x + 3x^3
        mat = nilpotent_matrix([1, 4, 0, 3], 3)
        assert mat.dtype == np.int64
        assert np.array_equal(mat, np.array([[1, 4, 0], [0, 1, 4], [0, 0, 1]]))
        assert np.array_equal(nilpotent_coefficients([1, 4, 0, 3], 3), [1, 4, 0])
        assert np.array_equal(nilpotent_coefficients([1, 4, 0, 3], 4), [1, 4, 0, 3])

    def test_zero_polynomial(self):
        assert np.array_equal(nilpotent_coefficients([0], 3), [0, 0, 0])
        assert np.array_equal(nilpotent_coefficients([], 2), [0, 0])

    def test_non_integer_coefficients(self):
        row = nilpotent_coefficients([0.5, 1.5], 2)
        assert row.dtype == np.complex128
        assert np.allclose(row, [0.5, 1.5])

    def test_matches_polyval_on_generic_size(self):
        coeffs = [2, -1, 5, 7, 0, 3]
        row = nilpotent_coefficients(coeffs, 6)
        assert np.array_equal(row, coeffs)
