"""Expression ASTs and free maps: typing, normalization, evaluation, algebra,
monomial decomposition, products."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freequiver import exprs, numerics
from freequiver.calculus import derivative_matrix, directional_derivative, random_direction
from freequiver.catalog import (
    block_inverse_map,
    ppt_map,
    rational_triple_map,
    sandwich_rational_map,
    smw_lhs_map,
    smw_rhs_map,
)
from freequiver.catalog import schur_map as catalog_schur_map
from freequiver.errors import RegularityError, TypecheckError
from freequiver.exprs import (
    Add,
    Atom,
    FreeMapDef,
    Id,
    Inv,
    Mul,
    ProductSpec,
    Scale,
    add,
    add_maps,
    compose_maps,
    degree,
    eval_expr,
    eval_map,
    from_path_expr,
    identity_map,
    ident,
    inv,
    is_regular,
    mul,
    normalize,
    pair_rep,
    product_maps,
    random_polynomial_map,
    render_expr,
    scale,
    sub,
    to_monomials,
    typecheck,
    union_quiver,
)
from freequiver.quivers import Arc, Quiver, classical_embed, path_of
from freequiver.reps import (
    NatTrans,
    Rep,
    check_nat_trans,
    conjugate,
    direct_sum,
    intertwiner_space,
    random_auto,
    random_rep,
    rep_residual,
    stack_reps,
)


def scale_map(k, f: FreeMapDef) -> FreeMapDef:
    return FreeMapDef(
        f.source_quiver,
        f.target_quiver,
        {r: normalize(Scale(k, e)) for r, e in f.entries.items()},
        dict(f.vertex_map),
    )


def adjoint_rep(x: Rep) -> Rep:
    """Arc a -> X(a)* over the arc-reversed quiver (same quiver when every
    arc is a loop, the only case where pairing with the original typechecks)."""
    rev = Quiver(x.quiver.vertices, tuple((a.name, a.dst, a.src) for a in x.quiver.arcs))
    return Rep(rev, dict(x.dims), {a: np.conj(m).T for a, m in x.mats.items()})


def sch_quiver():
    return Quiver(
        ("u", "v"),
        (Arc("x1", "u", "u"), Arc("x2", "v", "v"), Arc("x12", "v", "u"), Arc("x21", "u", "v")),
    )


def random_sch(seed, nu=3, nv=2):
    return random_rep(sch_quiver(), {"u": nu, "v": nv}, seed)


def schur_expr():
    # x1 - x12 x2^-1 x21
    return sub(Atom("x1"), mul(Atom("x12"), inv(Atom("x2")), Atom("x21")))


def two_loop():
    return classical_embed(2)


def loop_rand(seed, n=3):
    return random_rep(two_loop(), {"u": n}, seed)


def worked_target():
    return Quiver(("u", "v"), (Arc("y1", "u", "u"), Arc("y21", "u", "v")))


def worked_map():
    """Two-entry polynomial map evaluating to (BDC - ABCA + 2A^2, CA^2 + 2DCA + D^2C)."""
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
    return FreeMapDef(sch_quiver(), target, {"x": schur_expr()})


def loop_quiver():
    return classical_embed(1)


def two_loop_targets():
    """The two-loop subquiver of Sch (just the vertex loops) used as the right
    factor of the self-product pairing."""
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


class TestRender:
    def test_product_reads_right_to_left(self):
        assert render_expr(mul(Atom("y"), Atom("x"))) == "y x"

    def test_schur_expression(self):
        assert render_expr(schur_expr()) == "x1 - x12 x2^-1 x21"

    def test_identity_and_scalars(self):
        assert render_expr(ident("u")) == "id_u"
        assert render_expr(scale(2, Atom("x"))) == "2 x"
        assert render_expr(scale(-1, Atom("x"))) == "-x"
        assert render_expr(scale(0.5, Atom("x"))) == "0.5 x"
        assert render_expr(scale(1j, Atom("x"))) == "(0+1j) x"

    def test_parenthesization(self):
        e = mul(add(Atom("x"), Atom("y")), Atom("x"))
        assert render_expr(e) == "(x + y) x"
        assert render_expr(inv(add(Atom("x"), Atom("y")))) == "(x + y)^-1"


class TestTypecheck:
    def test_schur_endpoints(self):
        assert typecheck(schur_expr(), sch_quiver()) == ("u", "u")

    def test_non_parallel_sum(self):
        with pytest.raises(TypecheckError, match="non-parallel"):
            typecheck(add(Atom("x1"), Atom("x21")), sch_quiver())

    def test_non_composable_product(self):
        # x12 ends at u but x12 consumes v: the square of an off-diagonal
        # arc never typechecks
        with pytest.raises(TypecheckError, match="non-composable"):
            typecheck(mul(Atom("x12"), Atom("x12")), sch_quiver())

    def test_inv_swaps_endpoints(self):
        assert typecheck(Atom("x12"), sch_quiver()) == ("v", "u")
        assert typecheck(inv(Atom("x12")), sch_quiver()) == ("u", "v")

    def test_unknown_names(self):
        with pytest.raises(TypecheckError, match="unknown arc"):
            typecheck(Atom("nope"), sch_quiver())
        with pytest.raises(TypecheckError, match="unknown vertex"):
            typecheck(ident("w"), sch_quiver())

    def test_identity_endpoints(self):
        assert typecheck(ident("v"), sch_quiver()) == ("v", "v")


def loop_exprs():
    leafs = st.sampled_from([Atom("x"), Atom("y"), Id("u")])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(Add),
            st.tuples(children, children).map(Mul),
            st.tuples(
                st.sampled_from([2, -1, 0, 0.5, 1j]), children
            ).map(lambda t: Scale(t[0], t[1])),
        )

    return st.recursive(leafs, extend, max_leaves=8)


class TestNormalize:
    def test_scale_hoisting_and_flattening(self):
        e = mul(scale(2, Atom("x")), scale(3, Atom("y")))
        assert normalize(e) == Scale(6, mul(Atom("x"), Atom("y")))
        nested = mul(mul(Atom("x"), Atom("y")), Atom("x"))
        assert normalize(nested) == mul(Atom("x"), Atom("y"), Atom("x"))

    def test_identities_dropped_in_products(self):
        assert normalize(mul(Atom("x"), ident("u"))) == Atom("x")
        assert normalize(mul(ident("u"), ident("u"))) == ident("u")

    def test_like_terms_merge(self):
        assert normalize(add(Atom("x"), Atom("x"))) == Scale(2, Atom("x"))
        assert normalize(sub(Atom("x"), Atom("x"))) == Scale(0, Atom("x"))
        assert normalize(add(Atom("x"), Atom("y"), scale(-1, Atom("x")))) == Atom("y")

    def test_sum_children_sorted_by_rendering(self):
        assert normalize(add(Atom("y"), Atom("x"))) == Add((Atom("x"), Atom("y")))

    @given(e=loop_exprs())
    @settings(max_examples=80, derandomize=True)
    def test_normalize_idempotent_and_type_preserving(self, e):
        q = two_loop()
        n = normalize(e)
        assert normalize(n) == n
        assert typecheck(n, q) == typecheck(e, q)

    @given(e=loop_exprs())
    @settings(max_examples=80, derandomize=True)
    def test_normalize_preserves_evaluation(self, e):
        x = loop_rand(7, n=3)
        before = eval_expr(e, x)
        after = eval_expr(normalize(e), x)
        assert np.allclose(before, after, rtol=1e-12, atol=1e-12)


class TestEval:
    def test_schur_against_direct_computation(self):
        x = random_sch(11, nu=4, nv=3)
        a, d = x.mats["x1"], x.mats["x2"]
        b, c = x.mats["x12"], x.mats["x21"]
        want = a - b @ np.linalg.inv(d) @ c
        got = eval_expr(schur_expr(), x)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_worked_map_values(self):
        x = random_sch(5, nu=3, nv=2)
        a, d = x.mats["x1"], x.mats["x2"]
        b, c = x.mats["x12"], x.mats["x21"]
        out = eval_map(worked_map(), x)
        assert np.allclose(out.mats["y1"], b @ d @ c - a @ b @ c @ a + 2 * a @ a)
        assert np.allclose(out.mats["y21"], c @ a @ a + 2 * d @ c @ a + d @ d @ c)
        assert out.dims == {"u": 3, "v": 2}

    def test_identity_map_is_identity(self):
        x = random_sch(3)
        assert rep_residual(eval_map(identity_map(sch_quiver()), x), x) == 0.0

    def test_constant_entries(self):
        q = two_loop()
        e = scale(2.5, ident("u"))
        x = loop_rand(1, n=4)
        assert np.allclose(eval_expr(e, x), 2.5 * np.eye(4))

    def test_two_sided_inverse_rejects_rectangular(self):
        x = random_sch(9, nu=3, nv=2)
        with pytest.raises(RegularityError, match="rectangular"):
            eval_expr(inv(Atom("x12")), x)

    def test_singular_operand_names_the_node(self):
        x = random_sch(9)
        mats = dict(x.mats)
        mats["x2"] = np.zeros_like(mats["x2"])
        x0 = Rep(x.quiver, x.dims, mats)
        with pytest.raises(RegularityError) as err:
            eval_expr(schur_expr(), x0)
        assert "x2^-1" in str(err.value)


class TestRegularity:
    def test_schur_regular_iff_d_invertible(self):
        f = schur_map()
        x = random_sch(21)
        ok, diags = is_regular(f, x)
        assert ok and len(diags) == 1

        mats = dict(x.mats)
        mats["x2"] = np.zeros_like(mats["x2"])
        x0 = Rep(x.quiver, x.dims, mats)
        ok0, diags0 = is_regular(f, x0)
        assert not ok0
        assert diags0[0].node == "x2^-1" and not diags0[0].ok

    def test_diagnostics_survive_a_failure(self):
        q = two_loop()
        f = FreeMapDef(q, loop_quiver(), {
            "x": add(inv(Atom("x")), inv(Atom("y"))),
        }, {"u": "u"})
        y = loop_rand(4, n=3)
        mats = {"x": np.zeros((3, 3)), "y": y.mats["y"]}
        x = Rep(q, {"u": 3}, mats)
        ok, diags = is_regular(f, x)
        assert not ok
        assert [d.ok for d in diags] == [False, True]

    # whether the inverse exists at each operand shape (random operands have
    # full rank; the singular one is rank 1)
    @pytest.mark.parametrize("shape, regular", [
        ((0, 0), True),
        ((5, 0), False),
        ((0, 5), False),
        ((5, 2), False),
        ((2, 5), False),
        ("singular", False),
    ])
    def test_inverse_node_rule_over_shapes(self, shape, regular):
        q = Quiver(("u", "v"), (Arc("t", "u", "v"),))  # t: u -> v
        if shape == "singular":
            m = np.ones((3, 3), dtype=np.complex128)
        else:
            rng = np.random.Generator(np.random.PCG64(7))
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows, cols = m.shape
        x = Rep(q, {"u": cols, "v": rows}, {"t": m})
        node = inv(Atom("t"))
        f = FreeMapDef(q, Quiver(("u", "v"), (Arc("s", "v", "u"),)), {"s": node})
        ok, diags = is_regular(f, x)
        s = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
        assert ok == diags[0].ok == regular
        assert ok == (rows == cols and (s.size == 0 or s[-1] > 1e-10 * s[0]))
        if ok:
            assert eval_expr(node, x).shape == (cols, rows)
        else:
            with pytest.raises(RegularityError):
                eval_expr(node, x)

    def test_overflowing_operand_fails_its_node(self):
        # a + U c V overflows at a point scaled by 1e150: the node fails with
        # NaN sigmas instead of handing the non-finite operand to LAPACK
        f = smw_lhs_map()
        base = random_rep(f.source_quiver, {"u": 3, "v": 2}, 0)
        x = Rep(base.quiver, base.dims, {a: 1e150 * m for a, m in base.mats.items()})
        with np.errstate(all="ignore"):
            ok, diags = is_regular(f, x)
            with pytest.raises(RegularityError) as err:
                eval_map(f, x)
        assert not ok and len(diags) == 1
        assert diags[0].node == "(a + U c V)^-1" and not diags[0].ok
        assert math.isnan(diags[0].sigma_min) and math.isnan(diags[0].sigma_max)
        assert err.value.node == "(a + U c V)^-1"
        assert str(err.value).startswith("operand not finite at (a + U c V)^-1")

    def test_operand_with_an_inf_fails_without_an_svd(self, monkeypatch):
        # LAPACK's SVD with vectors can hang on an inf, and the failing
        # node's pseudo-inverse stand-in would take one
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK's SVD was called")

        for name in ("svd", "pinv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        q = loop_quiver()
        m = np.ones((3, 3), dtype=np.complex128)
        m[0, 0] = np.inf
        f = FreeMapDef(q, q, {"x": add(inv(Atom("x")), Atom("x"))})
        with np.errstate(all="ignore"):
            ok, diags = is_regular(f, Rep(q, {"u": 3}, {"x": m}))
        assert not ok and math.isnan(diags[0].sigma_min)

    def test_regularity_closed_under_direct_sum(self):
        f = schur_map()
        for seed in range(5):
            x = random_sch(100 + seed, nu=3, nv=2)
            y = random_sch(200 + seed, nu=2, nv=4)
            assert is_regular(f, x)[0]
            assert is_regular(f, y)[0]
            assert is_regular(f, direct_sum(x, y))[0]


# maps whose inverse nodes is_regular and eval_map must decide alike
AGREEMENT_MAPS = {
    "schur": catalog_schur_map,
    "ppt_D": lambda: ppt_map("pivot_D"),
    "ppt_A": lambda: ppt_map("pivot_A"),
    "block_inverse": block_inverse_map,
    "block_inverse_twice": lambda: compose_maps(block_inverse_map(), block_inverse_map()),
    "smw_lhs": smw_lhs_map,
    "smw_rhs": smw_rhs_map,
    "rational_triple": rational_triple_map,
    "sandwich_rational": sandwich_rational_map,
}
AGREEMENT_PROFILES = {1: [(0,), (1,), (2,), (4,)],
                      2: [(0, 0), (0, 2), (2, 0), (1, 1), (2, 2), (3, 2), (2, 3), (4, 1)]}


def agreement_points(q, dims):
    """Random points, points with one arc zeroed, and points with one square
    arc's condition number set to 5e9, 2e10 or 1e13 (on both sides of the
    1e10 threshold)."""
    base = random_rep(q, dims, 0)
    for seed in range(4):
        yield random_rep(q, dims, seed)
    for a in q.arcs:
        yield with_zero_arc(base, a.name)
    rng = np.random.Generator(np.random.PCG64(11))
    for a in q.arcs:
        n = dims[a.src]
        if a.src != a.dst or n < 2:
            continue
        for kappa in (5e9, 2e10, 1e13):
            u, v = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
                    for _ in range(2))
            mats = dict(base.mats)
            mats[a.name] = (u * np.geomspace(1.0, 1.0 / kappa, n)) @ v
            yield Rep(q, dims, mats)


class TestRegularityAgreement:
    @pytest.mark.parametrize("name", list(AGREEMENT_MAPS))
    def test_is_regular_iff_eval_map_raises_nothing(self, name):
        f = AGREEMENT_MAPS[name]()
        q = f.source_quiver
        outcomes = set()
        for profile in AGREEMENT_PROFILES[len(q.vertices)]:
            for x in agreement_points(q, dict(zip(q.vertices, profile))):
                ok, diags = is_regular(f, x)
                try:
                    eval_map(f, x)
                except RegularityError as e:
                    assert not ok
                    first = next(d for d in diags if not d.ok)
                    assert (first.node, first.entry) == (e.node, e.entry)
                else:
                    assert ok
                outcomes.add(ok)
        assert outcomes == {True, False}


def inverse_occurrences(e):
    """Inverse nodes of e in evaluation order: operands before the node."""
    if isinstance(e, Inv):
        return inverse_occurrences(e.of) + [e]
    if isinstance(e, (Add, Mul)):
        kids = e.terms if isinstance(e, Add) else e.factors
        return [n for k in kids for n in inverse_occurrences(k)]
    if isinstance(e, Scale):
        return inverse_occurrences(e.of)
    return []


def with_zero_arc(x, arc):
    mats = dict(x.mats)
    mats[arc] = np.zeros_like(mats[arc])
    return Rep(x.quiver, x.dims, mats)


class TestInverseNodeSharing:
    def test_diagnostics_cover_every_occurrence(self):
        f = block_inverse_map()
        ok, diags = is_regular(f, random_sch(41))
        want = [
            (r, render_expr(n)) for r, e in f.entries.items() for n in inverse_occurrences(e)
        ]
        assert ok and len(want) == 13
        assert [(d.entry, d.node) for d in diags] == want
        by_node = {}
        for d in diags:
            by_node.setdefault(d.node, set()).add((d.sigma_min, d.sigma_max, d.ok))
        assert len(by_node) == 2 and all(len(v) == 1 for v in by_node.values())

    def test_each_distinct_inverse_node_factored_once(self, monkeypatch):
        calls = {"svd": 0, "inv": 0}
        svd, inverse = numerics.singular_values, np.linalg.inv

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        x = random_sch(42)
        before = eval_map(block_inverse_map(), x).mats
        monkeypatch.setattr(numerics, "singular_values", counted("svd", svd))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", inverse))
        after = eval_map(block_inverse_map(), x).mats
        # x1^-1 and (x2 - x21 x1^-1 x12)^-1, over all four entries; both are
        # clearly regular, so the residual certificate decides them unfactored
        assert calls == {"svd": 0, "inv": 2}
        assert all(np.array_equal(before[r], after[r]) for r in before)

    def test_is_regular_decides_each_distinct_node_once(self, monkeypatch):
        calls = {"svd": 0}
        svd = numerics.singular_values

        def counted(*args, **kwargs):
            calls["svd"] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(numerics, "singular_values", counted)
        ok, diags = is_regular(block_inverse_map(), random_sch(42))
        # 13 occurrences of x1^-1 and (x2 - x21 x1^-1 x12)^-1
        assert ok and len(diags) == 13 and calls == {"svd": 2}

    def test_repeated_outer_nodes_over_a_failing_inner_node(self, monkeypatch):
        q = Quiver(("u", "v"), (Arc("t", "u", "v"), Arc("r", "v", "u"), Arc("s", "v", "v")))
        target = Quiver(("u", "v"), (
            Arc("a", "v", "u"), Arc("b", "u", "v"), Arc("c", "v", "u"), Arc("d", "v", "v"),
        ))
        inner = inv(Atom("s"))  # singular at the point below
        outer_t = inv(add(Atom("t"), mul(inner, Atom("t"))))
        outer_r = inv(add(Atom("r"), mul(Atom("r"), inner)))
        f = FreeMapDef(q, target, {
            "a": outer_t, "b": outer_r, "c": mul(outer_t, inner),
            "d": add(inner, mul(Atom("t"), outer_t)),
        })
        x = random_rep(q, {"u": 3, "v": 3}, 48)
        mats = dict(x.mats)
        mats["s"] = np.zeros((3, 3), dtype=np.complex128)
        x = Rep(q, x.dims, mats)
        calls = []
        svd = numerics.singular_values
        monkeypatch.setattr(numerics, "singular_values", lambda m: calls.append(m) or svd(m))
        ok, diags = is_regular(f, x)
        want = [
            (r, render_expr(n), n != inner)
            for r, e in f.entries.items() for n in inverse_occurrences(e)
        ]
        assert not ok and len(want) == 10 and len(calls) == 3
        assert [(d.entry, d.node, d.ok) for d in diags] == want
        by_node = {}
        for d in diags:
            by_node.setdefault(d.node, set()).add((d.sigma_min, d.sigma_max, d.ok))
        assert len(by_node) == 3 and all(len(v) == 1 for v in by_node.values())
        # the pseudo-inverse of the zero operand is zero, so the outer operands
        # are t and r themselves
        for node, arc in ((outer_t, "t"), (outer_r, "r")):
            s = np.linalg.svd(x.mats[arc], compute_uv=False)
            (got,) = by_node[render_expr(node)]
            assert np.allclose(got[:2], (s[-1], s[0]), rtol=1e-12, atol=0)

    def test_stacked_points_match_single_points(self):
        f = block_inverse_map()
        points = [random_sch(43 + i) for i in range(3)]
        stack = stack_reps(points)
        for r, e in f.entries.items():
            got = eval_expr(e, stack)
            assert got.shape[0] == 3
            for b, p in enumerate(points):
                assert np.array_equal(got[b], eval_expr(e, p))
        # the image of a stack is a stack, an entry that reads no arc repeated
        t = Quiver(("w",), (Arc("a", "w", "w"), Arc("b", "w", "w")))
        for g in (f, FreeMapDef(sch_quiver(), t, {"a": Id("u"), "b": inv(Atom("x1"))}, {"w": "u"})):
            image = eval_map(g, stack)
            assert image.size == 3
            for b, p in enumerate(points):
                for a, m in eval_map(g, p).mats.items():
                    assert np.array_equal(image.mats[a][b], m)
        stack.mats["x1"][1] = 0
        with pytest.raises(RegularityError, match=r"x1\^-1"):
            eval_expr(f.entries["x1"], stack)

    def test_entries_never_share_storage(self):
        t = Quiver(("w",), (Arc("a", "w", "w"), Arc("b", "w", "w"), Arc("c", "w", "w")))
        f = FreeMapDef(sch_quiver(), t, {
            "a": inv(Atom("x1")), "b": inv(Atom("x1")), "c": Atom("x1"),
        }, {"w": "u"})
        x = random_sch(47)
        image = eval_map(f, x).mats
        assert np.array_equal(image["a"], image["b"])
        assert image["a"] is not image["b"]
        image["a"][0, 0] += 1.0
        assert not np.array_equal(image["a"], image["b"])

    @pytest.mark.parametrize("make, arc, message", [
        (catalog_schur_map, "x2", "operand numerically singular at x2^-1 (entry 'x')"),
        (block_inverse_map, "x1", "operand numerically singular at x1^-1 (entry 'x1')"),
        (lambda: ppt_map("pivot_D"), "x2", "operand numerically singular at x2^-1 (entry 'x1')"),
    ])
    def test_singular_point_message(self, make, arc, message):
        x = with_zero_arc(random_rep(sch_quiver(), {"u": 3, "v": 2}, 4), arc)
        with pytest.raises(RegularityError) as err:
            eval_map(make(), x)
        assert str(err.value) == message
        assert err.value.node == message.split(" at ")[1].split(" ")[0]


def _prescribed(rng, n, batch, sigma):
    """Stacks U diag(sigma) V with Haar-random unitary U, V."""
    def haar():
        z = rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
        return np.linalg.qr(z)[0]
    return (haar() * sigma) @ haar()


class TestCertifiedInverse:
    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 24),
        batch=st.integers(1, 3),
        kappa_exp=st.one_of(st.sampled_from([0.0, 9.0, 9.4, 10.0, 17.0]), st.floats(0, 17)),
        scale_exp=st.one_of(st.sampled_from([-150, 0, 150]), st.integers(-150, 150)),
        spectrum=st.sampled_from(["geometric", "one_small", "one_large"]),
    )
    def test_pass_implies_the_singular_value_rule(
        self, seed, n, batch, kappa_exp, scale_exp, spectrum
    ):
        rng = np.random.default_rng(seed)
        kappa = 10.0 ** kappa_exp
        sigma = {
            "geometric": np.geomspace(1.0, 1.0 / kappa, n),
            "one_small": np.r_[np.ones(n - 1), 1.0 / kappa],
            "one_large": np.r_[kappa, np.ones(n - 1)] / kappa,
        }[spectrum]
        m = _prescribed(rng, n, batch, sigma) * 10.0**scale_exp
        got = numerics.certified_inverse(m)
        if got is not None:
            s = np.linalg.svd(m, compute_uv=False)
            assert np.all(s[..., -1] > numerics.INVERTIBILITY_RTOL * s[..., 0])
            assert np.array_equal(got, np.linalg.inv(m))
        elif kappa <= 10.0 and abs(scale_exp) <= 90:
            pytest.fail("a well-conditioned stack was left in doubt")

    @pytest.mark.parametrize("case", [
        "nan", "inf", "zero", "zero_row", "rank_one", "overflow", "one_bad_in_stack",
    ])
    def test_doubtful_inputs_return_none_quietly(self, case):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        if case == "nan":
            m[0, 1, 2] = np.nan
        elif case == "inf":
            m[1, 0, 0] = np.inf
        elif case == "zero":
            m[:] = 0
        elif case == "zero_row":
            m[:, 2] = 0
        elif case == "rank_one":
            m = m[:, :, :1] @ m[:, :1, :]
        elif case == "overflow":  # finite entries whose Frobenius norm overflows
            m *= 1e308 / np.abs(m).max()
        else:
            m[1] = _prescribed(rng, 4, 1, np.array([1.0, 1.0, 1.0, 1e-12]))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numerics.certified_inverse(m) is None

    def test_inaccurate_inverse_is_not_trusted(self, monkeypatch):
        # an approximate inverse 0.7·m⁻¹ leaves the residual 0.3·I: certified
        # at n = 1 (0.3 ≤ 1/2), in doubt at n = 4 (‖0.3·I‖_F = 0.6)
        m = _prescribed(np.random.default_rng(8), 4, 2, np.array([2.0, 1.5, 1.0, 0.5]))
        inverse = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: 0.7 * inverse(a))
        assert numerics.certified_inverse(m) is None
        assert numerics.certified_inverse(m[:, :1, :1]) is not None

    def test_unscreened_evaluation_is_bitwise_equal(self, monkeypatch):
        sch = sch_quiver()
        maps = [
            catalog_schur_map(), ppt_map("pivot_D"), ppt_map("pivot_A"),
            block_inverse_map(), rational_triple_map(),
            random_polynomial_map(sch, sch, 9, max_degree=3),
        ]
        cases = []
        for f in maps:
            q = f.source_quiver
            for nu, nv in ((3, 2), (0, 2), (6, 4)):
                x = random_rep(q, {"u": nu, "v": nv} if "v" in q.vertices else {"u": nu}, nu + nv)
                cases += [(f, x), (f, with_zero_arc(x, "x2" if "x2" in x.mats else "x"))]

        def outputs():
            out = []
            for f, x in cases:
                try:
                    h = random_direction(x, 5)
                    out.append((
                        eval_map(f, x).mats,
                        directional_derivative(f, x, h).h_mats,
                        derivative_matrix(f, x).matrix,
                    ))
                except RegularityError as err:
                    out.append(str(err))
            return out

        screened = outputs()
        monkeypatch.setattr(exprs, "certified_inverse", lambda m: None)
        unscreened = outputs()
        assert sum(isinstance(o, str) for o in screened) >= 5
        for a, b in zip(screened, unscreened):
            if isinstance(a, str):
                assert a == b
            else:
                assert all(
                    np.array_equal(u[k], v[k]) for u, v in zip(a[:2], b[:2]) for k in u
                )
                assert np.array_equal(a[2], b[2])


class TestFreeMapDef:
    def test_missing_entry(self):
        with pytest.raises(TypecheckError, match="missing entry"):
            FreeMapDef(sch_quiver(), worked_target(), {"y1": Atom("x1")})

    def test_endpoint_mismatch(self):
        with pytest.raises(TypecheckError, match="endpoints"):
            FreeMapDef(sch_quiver(), worked_target(), {
                "y1": Atom("x1"), "y21": Atom("x12"),
            })

    def test_extra_entry(self):
        with pytest.raises(TypecheckError, match="unknown target arcs"):
            FreeMapDef(sch_quiver(), loop_quiver(), {
                "x": Atom("x1"), "ghost": Atom("x1"),
            }, {"u": "u"})

    def test_vertex_map_validation(self):
        t = Quiver(("w",), (Arc("z", "w", "w"),))
        with pytest.raises(TypecheckError, match="vertex_map"):
            FreeMapDef(sch_quiver(), t, {"z": Atom("x1")})
        with pytest.raises(TypecheckError, match="exactly the target vertices"):
            FreeMapDef(sch_quiver(), t, {"z": Atom("x1")}, {"w": "u", "bogus": "u"})
        with pytest.raises(TypecheckError, match="outside the source"):
            FreeMapDef(sch_quiver(), t, {"z": Atom("x1")}, {"w": "nope"})

    def test_renamed_vertex_evaluation(self):
        t = Quiver(("w",), (Arc("z", "w", "w"),))
        f = FreeMapDef(sch_quiver(), t, {"z": Atom("x1")}, {"w": "u"})
        x = random_sch(31, nu=4, nv=2)
        out = eval_map(f, x)
        assert out.dims == {"w": 4}
        assert np.array_equal(out.mats["z"], x.mats["x1"])


    def test_depth_bound(self):
        # inv and scale alternately around x1: depth counts every node, the
        # atom included
        e = Atom("x1")
        for i in range(exprs._MAX_DEPTH - 1):
            e = inv(e) if i % 2 else scale(2, e)
        f = FreeMapDef(sch_quiver(), loop_quiver(), {"x": e}, {"u": "u"})
        x = random_sch(32)
        assert is_regular(f, x)[0]
        assert eval_map(f, x).mats["x"].shape == (3, 3)
        with pytest.raises(TypecheckError, match="nested deeper than 200 levels"):
            FreeMapDef(sch_quiver(), loop_quiver(), {"x": inv(e)}, {"u": "u"})

    def test_depth_bound_on_shared_subtrees(self):
        # 2**1000 root-to-leaf paths through 1000 distinct nodes: the check
        # walks distinct nodes, and no recursion reaches the depth
        e = Atom("x1")
        for _ in range(1000):
            e = Add((e, e))
        with pytest.raises(TypecheckError, match="nested deeper"):
            FreeMapDef(sch_quiver(), loop_quiver(), {"x": e}, {"u": "u"})


class TestMapAlgebra:
    def test_add_and_scale_evaluate_pointwise(self):
        f = worked_map()
        g = random_polynomial_map(sch_quiver(), worked_target(), seed=8, max_degree=2)
        x = random_sch(12)
        fx, gx = eval_map(f, x), eval_map(g, x)
        hx = eval_map(add_maps(f, g), x)
        for r in ("y1", "y21"):
            assert np.allclose(hx.mats[r], fx.mats[r] + gx.mats[r], atol=1e-12)
        kx = eval_map(scale_map(2j, f), x)
        for r in ("y1", "y21"):
            assert np.allclose(kx.mats[r], 2j * fx.mats[r], atol=1e-12)

    def test_zero_and_additive_inverse(self):
        f = worked_map()
        x = random_sch(13)
        zx = eval_map(scale_map(0, f), x)
        assert all(np.all(m == 0) for m in zx.mats.values())
        nx = eval_map(add_maps(f, scale_map(-1, f)), x)
        assert all(np.allclose(m, 0, atol=1e-12) for m in nx.mats.values())

    def test_linear_combination_coefficients(self):
        # f_p = pqp + p, g_p = px + yp + p over four loops; the combination
        # a*f + b*g must expand to a*pqp + b*px + b*yp + (a+b)*p
        q = Quiver(("u",), tuple(Arc(n, "u", "u") for n in ("p", "q", "x", "y")))
        t = Quiver(("u",), (Arc("p", "u", "u"),))
        f = FreeMapDef(q, t, {"p": add(mul(Atom("p"), Atom("q"), Atom("p")), Atom("p"))})
        g = FreeMapDef(q, t, {
            "p": add(mul(Atom("p"), Atom("x")), mul(Atom("y"), Atom("p")), Atom("p")),
        })
        a, b = 2, 3
        h = add_maps(scale_map(a, f), scale_map(b, g))
        got = {
            render_expr(m.entries["p"]): c for c, m in to_monomials(h)
        }
        assert got == {"p q p": a, "p x": b, "y p": b, "p": a + b}

    def test_compose_matches_pointwise_composition(self):
        g = FreeMapDef(sch_quiver(), sch_quiver(), {
            "x1": add(Atom("x1"), mul(Atom("x1"), Atom("x1"))),
            "x2": Atom("x2"),
            "x12": add(Atom("x12"), mul(Atom("x12"), Atom("x2"))),
            "x21": Atom("x21"),
        })
        f = worked_map()
        fg = compose_maps(f, g)
        x = random_sch(17)
        direct = eval_map(fg, x)
        staged = eval_map(f, eval_map(g, x))
        assert rep_residual(direct, staged) <= 1e-12

    def test_compose_substitutes_through_inverses(self):
        g = FreeMapDef(sch_quiver(), sch_quiver(), {
            "x1": add(Atom("x1"), scale(0.5, ident("u"))),
            "x2": add(Atom("x2"), scale(0.5, ident("v"))),
            "x12": Atom("x12"),
            "x21": Atom("x21"),
        })
        f = schur_map()
        fg = compose_maps(f, g)
        x = random_sch(19)
        staged = eval_map(f, eval_map(g, x))
        assert rep_residual(eval_map(fg, x), staged) <= 1e-12

    def test_identity_laws_structural(self):
        f = worked_map()
        assert compose_maps(f, identity_map(sch_quiver())) == f.normalized()
        assert compose_maps(identity_map(worked_target()), f) == f.normalized()

    def test_compose_with_constant_map(self):
        src = Quiver(("w",), ())
        g = FreeMapDef(src, two_loop(), {
            "x": scale(2, ident("w")), "y": scale(-1, ident("w")),
        }, {"u": "w"})
        t = loop_quiver()
        f = FreeMapDef(two_loop(), t, {
            "x": mul(Atom("x"), Atom("y")),
        }, {"u": "u"})
        fg = compose_maps(f, g)
        x = Rep(src, {"w": 3}, {})
        got = eval_map(fg, x).mats["x"]
        assert np.allclose(got, -2 * np.eye(3), atol=1e-12)

    def test_compose_distributes_over_add_on_the_left(self):
        h = FreeMapDef(sch_quiver(), sch_quiver(), {
            "x1": mul(Atom("x1"), Atom("x1")),
            "x2": Atom("x2"),
            "x12": Atom("x12"),
            "x21": mul(Atom("x21"), Atom("x1")),
        })
        f = worked_map()
        g = random_polynomial_map(sch_quiver(), worked_target(), seed=77, max_degree=2)
        lhs = compose_maps(add_maps(f, g), h)
        rhs = add_maps(compose_maps(f, h), compose_maps(g, h))
        x = random_sch(23)
        assert rep_residual(eval_map(lhs, x), eval_map(rhs, x)) <= 1e-12


class TestMonomials:
    def test_single_atom(self):
        f = FreeMapDef(sch_quiver(), loop_quiver(), {"x": Atom("x1")}, {"u": "u"})
        terms = to_monomials(f)
        assert len(terms) == 1 and terms[0][0] == 1

    def test_pqp_plus_p(self):
        q = Quiver(("u",), (Arc("p", "u", "u"), Arc("q", "u", "u")))
        t = Quiver(("u",), (Arc("p", "u", "u"),))
        f = FreeMapDef(q, t, {"p": add(mul(Atom("p"), Atom("q"), Atom("p")), Atom("p"))})
        terms = to_monomials(f)
        assert [c for c, _ in terms] == [1, 1]
        assert [render_expr(m.entries["p"]) for _, m in terms] == ["p", "p q p"]
        assert degree(f) == 3

    def test_square_of_sum_expands_to_four_terms(self):
        q = two_loop()
        s = add(Atom("x"), Atom("y"))
        f = FreeMapDef(q, loop_quiver(), {"x": mul(s, s)}, {"u": "u"})
        terms = to_monomials(f)
        assert [c for c, _ in terms] == [1, 1, 1, 1]
        rendered = {render_expr(m.entries["x"]) for _, m in terms}
        assert rendered == {"x x", "x y", "y x", "y y"}
        # brute-force check on a random 3x3 input
        x = loop_rand(41, n=3)
        xm, ym = x.mats["x"], x.mats["y"]
        want = (xm + ym) @ (xm + ym)
        total = sum(c * eval_map(m, x).mats["x"] for c, m in terms)
        assert np.allclose(total, want, atol=1e-12)

    def test_worked_map_decomposition_order_and_roundtrip(self):
        f = worked_map()
        terms = to_monomials(f)
        assert [c for c, _ in terms] == [2, 1, -1, 1, 2, 1]
        # first three terms live on y1, the rest on y21
        assert [render_expr(m.entries["y1"]) for _, m in terms[:3]] == [
            "x1 x1", "x12 x2 x21", "x1 x12 x21 x1",
        ]
        assert [render_expr(m.entries["y21"]) for _, m in terms[3:]] == [
            "x21 x1 x1", "x2 x21 x1", "x2 x2 x21",
        ]
        x = random_sch(29, nu=4, nv=3)
        fx = eval_map(f, x)
        for r in ("y1", "y21"):
            total = sum(c * eval_map(m, x).mats[r] for c, m in terms)
            denom = 1.0 + np.linalg.norm(fx.mats[r], 2)
            assert np.linalg.norm(total - fx.mats[r], 2) / denom <= 1e-10

    def test_monomials_have_one_live_entry(self):
        f = worked_map()
        x = random_sch(30)
        for _, m in to_monomials(f):
            vals = eval_map(m, x)
            live = [r for r, v in vals.mats.items() if np.any(v != 0)]
            assert len(live) == 1

    def test_inverse_nodes_rejected(self):
        with pytest.raises(ValueError, match="not a polynomial"):
            to_monomials(schur_map())

    def test_degree(self):
        assert degree(worked_map()) == 4
        assert degree(identity_map(sch_quiver())) == 1
        assert degree(scale_map(0, identity_map(sch_quiver()))) == 0
        assert degree(schur_map()) == math.inf


class TestFreenessProperties:
    def test_polynomial_respects_direct_sums(self):
        f = worked_map()
        for seed in range(5):
            x = random_sch(300 + seed, nu=3, nv=2)
            y = random_sch(400 + seed, nu=2, nv=4)
            lhs = eval_map(f, direct_sum(x, y))
            rhs = direct_sum(eval_map(f, x), eval_map(f, y))
            assert rep_residual(lhs, rhs) <= 1e-8

    def test_rational_respects_direct_sums(self):
        f = schur_map()
        x = random_sch(55, nu=3, nv=3)
        y = random_sch(56, nu=2, nv=2)
        lhs = eval_map(f, direct_sum(x, y))
        rhs = direct_sum(eval_map(f, x), eval_map(f, y))
        assert rep_residual(lhs, rhs) <= 1e-8

    def test_polynomial_respects_conjugation(self):
        f = worked_map()
        x = random_sch(60, nu=3, nv=2)
        s = random_auto(x, 61)
        lhs = eval_map(f, conjugate(x, s))
        fx = eval_map(f, x)
        # push the same vertex transformations through the target quiver
        want = {}
        for a in f.target_quiver.arcs:
            g_src = s.s_mats[f.vertex_map[a.src]]
            g_dst = s.s_mats[f.vertex_map[a.dst]]
            want[a.name] = np.linalg.solve(g_dst, fx.mats[a.name] @ g_src)
        rhs = Rep(f.target_quiver, lhs.dims, want)
        assert rep_residual(lhs, rhs) <= 1e-8

    def test_intertwining_preserved_for_polynomials(self):
        q = sch_quiver()
        w = random_rep(q, {"u": 2, "v": 2}, 70)
        x = direct_sum(w, random_rep(q, {"u": 1, "v": 2}, 71))
        y = direct_sum(w, random_rep(q, {"u": 3, "v": 1}, 72))
        f = worked_map()
        fx, fy = eval_map(f, x), eval_map(f, y)
        basis = intertwiner_space(x, y)
        assert basis
        for gamma in basis:
            pushed = NatTrans(fy, fx, {
                a: gamma.gammas[f.vertex_map[a]] for a in f.target_quiver.vertices
            })
            assert check_nat_trans(pushed, tol=1e-7).passed

    def test_intertwining_preserved_across_inverses(self):
        q = sch_quiver()
        w = random_rep(q, {"u": 2, "v": 2}, 80)
        x = direct_sum(w, random_rep(q, {"u": 2, "v": 1}, 81))
        y = direct_sum(w, random_rep(q, {"u": 1, "v": 3}, 82))
        f = schur_map()
        assert is_regular(f, x)[0] and is_regular(f, y)[0]
        fx, fy = eval_map(f, x), eval_map(f, y)
        for gamma in intertwiner_space(x, y):
            pushed = NatTrans(fy, fx, {"u": gamma.gammas["u"], "v": gamma.gammas["v"]})
            assert check_nat_trans(pushed, tol=1e-7).passed


class TestProducts:
    def test_spec_validation(self):
        sch_product_spec()  # the book-keeping must hold together
        with pytest.raises(ValueError, match="does not compose"):
            ProductSpec(sch_quiver(), two_loop_targets(), sch_quiver(), {
                "x1": ("x1", "x1"), "x2": ("x2", "x2"),
                "x21": ("x21", "x2"), "x12": ("x12", "x2"),
            })
        with pytest.raises(ValueError, match="missing pair"):
            ProductSpec(sch_quiver(), two_loop_targets(), sch_quiver(), {
                "x1": ("x1", "x1"),
            })
        with pytest.raises(ValueError, match="unknown arc 'nope'"):
            ProductSpec(sch_quiver(), two_loop_targets(), sch_quiver(), {
                "x1": ("x1", "x1"), "x2": ("x2", "x2"),
                "x21": ("x21", "nope"), "x12": ("x12", "x2"),
            })

    def test_union_and_pairing(self):
        uq = union_quiver(sch_quiver(), two_loop_targets())
        assert uq.vertices == ("u", "v")
        assert uq.arc_names() == ("p.x1", "p.x2", "p.x12", "p.x21", "q.x1", "q.x2")
        x = random_sch(90, nu=3, nv=2)
        y = random_rep(two_loop_targets(), {"u": 3, "v": 2}, 91)
        z = pair_rep(x, y)
        assert np.array_equal(z.mats["p.x12"], x.mats["x12"])
        assert np.array_equal(z.mats["q.x2"], y.mats["x2"])
        bad = random_rep(two_loop_targets(), {"u": 4, "v": 2}, 92)
        with pytest.raises(ValueError, match="dimension"):
            pair_rep(x, bad)

    def test_product_entries_evaluate_as_pairwise_composites(self):
        spec = sch_product_spec()
        prod = product_maps(spec, identity_map(sch_quiver()), identity_map(two_loop_targets()))
        x = random_sch(93, nu=3, nv=2)
        y = random_rep(two_loop_targets(), {"u": 3, "v": 2}, 94)
        out = eval_map(prod, pair_rep(x, y))
        assert np.allclose(out.mats["x1"], x.mats["x1"] @ y.mats["x1"], atol=1e-12)
        assert np.allclose(out.mats["x21"], x.mats["x21"] @ y.mats["x1"], atol=1e-12)
        assert np.allclose(out.mats["x12"], x.mats["x12"] @ y.mats["x2"], atol=1e-12)
        assert np.allclose(out.mats["x2"], x.mats["x2"] @ y.mats["x2"], atol=1e-12)

    def test_identity_entries_act_as_right_identity(self):
        spec = sch_product_spec()
        f = random_polynomial_map(sch_quiver(), sch_quiver(), seed=95, max_degree=2)
        g_id = FreeMapDef(two_loop_targets(), two_loop_targets(), {
            "x1": ident("u"), "x2": ident("v"),
        })
        prod = product_maps(spec, f, g_id)
        x = random_sch(96, nu=3, nv=2)
        y = random_rep(two_loop_targets(), {"u": 3, "v": 2}, 97)
        out = eval_map(prod, pair_rep(x, y))
        fx = eval_map(f, x)
        assert rep_residual(Rep(fx.quiver, fx.dims, fx.mats), out) <= 1e-10 or all(
            np.allclose(out.mats[r], fx.mats[r], atol=1e-10) for r in fx.mats
        )

    def test_hermitian_square_is_psd(self):
        lq = loop_quiver()
        spec = ProductSpec(lq, lq, lq, {"x": ("x", "x")})
        prod = product_maps(spec, identity_map(lq), identity_map(lq))
        x = random_rep(lq, {"u": 4}, 98)
        val = eval_map(prod, pair_rep(adjoint_rep(x), x)).mats["x"]
        assert np.allclose(val, np.conj(val).T, atol=1e-12)
        assert np.linalg.eigvalsh(val).min() >= -1e-12

    def test_product_distributes_over_addition(self):
        spec = sch_product_spec()
        f = random_polynomial_map(sch_quiver(), sch_quiver(), seed=101, max_degree=2)
        g = random_polynomial_map(sch_quiver(), sch_quiver(), seed=102, max_degree=2)
        h = random_polynomial_map(sch_quiver(), two_loop_targets(), seed=103, max_degree=2)
        lhs = product_maps(spec, add_maps(f, g), h)
        rhs = add_maps(product_maps(spec, f, h), product_maps(spec, g, h))
        x = random_sch(104, nu=3, nv=3)
        y = random_sch(105, nu=3, nv=3)
        z = pair_rep(x, y)
        assert rep_residual(eval_map(lhs, z), eval_map(rhs, z)) <= 1e-10

    def test_factor_quiver_mismatch(self):
        spec = sch_product_spec()
        with pytest.raises(ValueError, match="left factor"):
            product_maps(spec, identity_map(two_loop_targets()), identity_map(two_loop_targets()))


class TestRandomPolynomialMap:
    def test_deterministic_and_bounded_degree(self):
        f1 = random_polynomial_map(sch_quiver(), sch_quiver(), seed=7, max_degree=3)
        f2 = random_polynomial_map(sch_quiver(), sch_quiver(), seed=7, max_degree=3)
        assert f1 == f2
        assert degree(f1) <= 3
        f3 = random_polynomial_map(sch_quiver(), sch_quiver(), seed=8, max_degree=3)
        assert f1 != f3
