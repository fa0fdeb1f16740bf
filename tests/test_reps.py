"""Representations: evaluation, sums, conjugation, intertwiners, relations."""

import itertools

import numpy as np
import pytest

from freequiver.errors import RegularityError
from freequiver.numerics import nullspace, op_norm
from freequiver.quivers import (
    Arc,
    Quiver,
    RelationPresentation,
    classical_embed,
    enumerate_paths,
    identity_path,
    path_of,
)
from freequiver.reps import (
    NatAuto,
    NatTrans,
    Rep,
    block_points,
    check_nat_trans,
    check_relations,
    conjugate,
    direct_sum,
    eval_path,
    identity_auto,
    intertwiner_space,
    random_auto,
    random_rep,
    rep_residual,
)


def sch_quiver():
    return Quiver(
        ("u", "v"),
        (Arc("x1", "u", "u"), Arc("x2", "v", "v"), Arc("x12", "v", "u"), Arc("x21", "u", "v")),
    )


def sch_rep(a, b, c, d):
    a, b, c, d = (np.asarray(m, dtype=np.complex128) for m in (a, b, c, d))
    dims = {"u": a.shape[0], "v": d.shape[0]}
    return Rep(sch_quiver(), dims, {"x1": a, "x2": d, "x12": b, "x21": c})


def random_sch(seed, nu=3, nv=2):
    return random_rep(sch_quiver(), {"u": nu, "v": nv}, seed)


def shared_summand_pair(seed, w_dims, extra_x, extra_y, q=None):
    """Two reps sharing a common direct summand, so their intertwiner space is
    guaranteed nontrivial. Returns (x, y, dim lower bound)."""
    q = q or sch_quiver()
    w = random_rep(q, w_dims, seed)
    rx = random_rep(q, extra_x, seed + 1)
    ry = random_rep(q, extra_y, seed + 2)
    return direct_sum(w, rx), direct_sum(w, ry)


class TestRepConstruction:
    def test_shape_validation(self):
        q = sch_quiver()
        with pytest.raises(ValueError, match="shape"):
            Rep(q, {"u": 2, "v": 2}, {
                "x1": np.eye(2), "x2": np.eye(2), "x12": np.eye(2), "x21": np.ones((2, 3)),
            })
        with pytest.raises(ValueError, match="missing matrix"):
            Rep(q, {"u": 1, "v": 1}, {"x1": np.eye(1)})

    def test_zero_dims_allowed(self):
        q = sch_quiver()
        r = Rep(q, {"u": 0, "v": 2}, {
            "x1": np.zeros((0, 0)), "x2": np.eye(2),
            "x12": np.zeros((0, 2)), "x21": np.zeros((2, 0)),
        })
        assert r.mats["x12"].shape == (0, 2)


class TestEvalPath:
    def test_caab_product(self):
        # path [x12, x1, x1, x21] applies x12 first: value C A A B
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2))
        c = rng.standard_normal((2, 3))
        d = rng.standard_normal((2, 2))
        x = sch_rep(a, b, c, d)
        p = path_of(x.quiver, ["x12", "x1", "x1", "x21"])
        assert (p.src, p.dst) == ("v", "v")
        np.testing.assert_allclose(eval_path(x, p), c @ a @ a @ b, atol=1e-12)

    def test_identity_path(self):
        x = random_sch(1)
        np.testing.assert_array_equal(eval_path(x, identity_path("u")), np.eye(3))

    def test_single_arc(self):
        x = random_sch(2)
        np.testing.assert_array_equal(
            eval_path(x, path_of(x.quiver, ["x1"])), x.mats["x1"]
        )

    def test_monoid_action(self):
        # eval(compose(p, r)) == eval(r) @ eval(p) over all short composable pairs
        from freequiver.quivers import compose_paths

        x = random_sch(3)
        pool = []
        for s, d in itertools.product(x.quiver.vertices, repeat=2):
            pool.extend(enumerate_paths(x.quiver, s, d, 2))
        for p in pool:
            for r in pool:
                if p.dst != r.src:
                    continue
                lhs = eval_path(x, compose_paths(p, r))
                rhs = eval_path(x, r) @ eval_path(x, p)
                assert op_norm(lhs - rhs) <= 1e-10 * (1 + op_norm(lhs))


class TestDirectSum:
    def test_dims_add(self):
        x = random_rep(sch_quiver(), {"u": 7, "v": 4}, 1)
        y = random_rep(sch_quiver(), {"u": 2, "v": 13}, 2)
        s = direct_sum(x, y)
        assert s.dims == {"u": 9, "v": 17}

    def test_zero_dim_summand_is_neutral(self):
        x = random_sch(4)
        z = Rep(sch_quiver(), {"u": 0, "v": 0}, {
            "x1": np.zeros((0, 0)), "x2": np.zeros((0, 0)),
            "x12": np.zeros((0, 0)), "x21": np.zeros((0, 0)),
        })
        s = direct_sum(x, z)
        assert rep_residual(s, x) == 0.0

    def test_eval_path_commutes(self):
        x, y = random_sch(5), random_sch(6)
        s = direct_sum(x, y)
        for src, dst in itertools.product(("u", "v"), repeat=2):
            for p in enumerate_paths(x.quiver, src, dst, 4):
                block = eval_path(s, p)
                xe, ye = eval_path(x, p), eval_path(y, p)
                expect = np.zeros_like(block)
                expect[: xe.shape[0], : xe.shape[1]] = xe
                expect[xe.shape[0] :, xe.shape[1] :] = ye
                scale = 1 + op_norm(expect)
                assert op_norm(block - expect) <= 1e-10 * scale


def upper_blocks(x, y, seed, lead=()):
    """Random upper-right blocks U(a), x.dims[dst] by y.dims[src], stacked lead."""
    rng = np.random.Generator(np.random.PCG64(seed))
    shapes = {a.name: lead + (x.dims[a.dst], y.dims[a.src]) for a in x.quiver.arcs}
    return {a: rng.standard_normal(s) + 1j * rng.standard_normal(s) for a, s in shapes.items()}


class TestBlockPoints:
    @pytest.mark.parametrize("px, py", [((0, 2), (0, 2)), ((3, 0), (3, 0)), ((0, 0), (0, 0)),
                                        ((6, 4), (6, 4)), ((3, 2), (1, 4)), ((0, 2), (3, 0))])
    def test_stack_matches_points_and_block_layout(self, px, py):
        q = sch_quiver()
        x = random_rep(q, dict(zip(q.vertices, px)), 1)
        y = random_rep(q, dict(zip(q.vertices, py)), 2)
        u = upper_blocks(x, y, 3, lead=(4,))
        stacked, zero = block_points(x, y, u), block_points(x, y)
        assert stacked.dims == zero.dims == {v: x.dims[v] + y.dims[v] for v in q.vertices}
        total = direct_sum(x, y)
        for a in q.arc_names():
            xm, ym = x.mats[a], y.mats[a]
            lower = np.zeros((ym.shape[0], xm.shape[1]))
            want = np.block([[xm, np.zeros_like(u[a][0])], [lower, ym]])
            assert np.array_equal(zero.mats[a], want)
            assert np.array_equal(total.mats[a], want)
            for b in range(4):
                one = block_points(x, y, {k: m[b] for k, m in u.items()})
                assert np.array_equal(stacked.mats[a][b], one.mats[a])
                assert np.array_equal(one.mats[a], np.block([[xm, u[a][b]], [lower, ym]]))

    def test_quiver_without_arcs(self):
        q = Quiver(("u", "v"), ())
        x, y = random_rep(q, {"u": 2, "v": 0}, 1), random_rep(q, {"u": 1, "v": 3}, 2)
        assert block_points(x, y, {}) == ({"u": 3, "v": 3}, {})
        assert direct_sum(x, y).dims == {"u": 3, "v": 3}

    def test_missing_upper_right_block(self):
        x, y = random_sch(1), random_sch(2, nu=1, nv=4)
        u = upper_blocks(x, y, 3)
        del u["x1"]
        with pytest.raises(ValueError, match="missing upper-right block for arc 'x1'"):
            block_points(x, y, u)

    def test_unknown_upper_right_block(self):
        x = random_sch(1)
        u = {**upper_blocks(x, x, 3), "bogus": np.zeros((3, 2))}
        with pytest.raises(ValueError, match=r"upper-right blocks for unknown arcs: \['bogus'\]"):
            block_points(x, x, u)

    def test_different_quivers_rejected(self):
        x, y = random_sch(1), random_rep(classical_embed(1), {"u": 3}, 2)
        with pytest.raises(ValueError, match="same quiver"):
            direct_sum(x, y)
        with pytest.raises(ValueError, match="same quiver"):
            block_points(x, y, {})


class TestConjugate:
    def test_identity_auto(self):
        x = random_sch(7)
        assert rep_residual(conjugate(x, identity_auto(x)), x) <= 1e-15

    def test_arc_rule(self):
        x = random_sch(8)
        s = random_auto(x, 80)
        c = conjugate(x, s)
        expect = np.linalg.inv(s.s_mats["v"]) @ x.mats["x21"] @ s.s_mats["u"]
        assert op_norm(c.mats["x21"] - expect) <= 1e-9 * (1 + op_norm(expect))

    def test_round_trip(self):
        x = random_sch(9)
        s = random_auto(x, 90)
        back = conjugate(conjugate(x, s), s.inverse())
        assert rep_residual(back, x) <= 1e-8

    def test_singular_auto_rejected(self):
        x = random_sch(10)
        mats = {v: np.eye(x.dims[v], dtype=complex) for v in x.quiver.vertices}
        mats["u"][0, 0] = 0.0
        mats["u"][0, 1] = 0.0
        mats["u"][1, 0] = 0.0
        mats["u"][1, 1] = 0.0
        mats["u"][2, 2] = 0.0
        with pytest.raises(RegularityError):
            NatAuto(x, mats)


class TestVertexMatrixChecks:
    def test_nat_trans_missing_vertex(self):
        x, y = random_sch(15), random_sch(16, nu=2, nv=3)
        with pytest.raises(ValueError, match="missing gamma at vertex 'v'"):
            NatTrans(y, x, {"u": np.zeros((3, 2))})

    def test_nat_trans_shape(self):
        x, y = random_sch(15), random_sch(16, nu=2, nv=3)
        with pytest.raises(ValueError, match=r"gamma at 'u': shape \(2, 3\) != \(3, 2\)"):
            NatTrans(y, x, {"u": np.zeros((2, 3)), "v": np.zeros((2, 3))})

    def test_nat_auto_missing_vertex(self):
        x = random_sch(17)
        with pytest.raises(ValueError, match="at vertex 'v'"):
            NatAuto(x, {"u": np.eye(3)})

    def test_nat_auto_shape(self):
        x = random_sch(17)
        with pytest.raises(ValueError, match=r"automorphism at 'v': shape \(3, 3\) != \(2, 2\)"):
            NatAuto(x, {"u": np.eye(3), "v": np.eye(3)})


class TestCheckNatTrans:
    def test_zero_gamma(self):
        x, y = random_sch(11), random_sch(12)
        g = NatTrans(y, x, {v: np.zeros((x.dims[v], y.dims[v])) for v in ("u", "v")})
        r = check_nat_trans(g)
        assert r.max_residual == 0.0 and r.passed

    def test_identity_gamma(self):
        x = random_sch(13)
        g = NatTrans(x, x, {v: np.eye(x.dims[v]) for v in ("u", "v")})
        assert check_nat_trans(g).max_residual == 0.0

    def test_solver_output_passes(self):
        x, y = shared_summand_pair(14, {"u": 2, "v": 2}, {"u": 2, "v": 1}, {"u": 1, "v": 2})
        basis = intertwiner_space(x, y)
        assert basis
        for g in basis:
            assert check_nat_trans(g, tol=1e-9).passed


class TestIntertwinerSpace:
    def test_self_space_contains_identity(self):
        x = random_sch(15)
        basis = intertwiner_space(x, x)
        assert len(basis) >= 1
        # project the identity transformation onto the basis and reconstruct it
        stack = lambda g: np.concatenate([g.gammas[v].reshape(-1) for v in ("u", "v")])
        ident = np.concatenate([np.eye(x.dims[v]).reshape(-1) for v in ("u", "v")])
        recon = np.zeros_like(ident, dtype=complex)
        for g in basis:
            b = stack(g)
            recon = recon + (np.vdot(b, ident)) * b
        assert np.linalg.norm(recon - ident) <= 1e-9 * np.linalg.norm(ident)

    def test_generic_pair_has_trivial_space(self):
        q = classical_embed(2)
        x = random_rep(q, {"u": 3}, 16)
        y = random_rep(q, {"u": 3}, 17)
        assert intertwiner_space(x, y) == []

    def test_double_copy_has_two_injections(self):
        x = random_sch(18)
        xx = direct_sum(x, x)
        basis = intertwiner_space(xx, x)  # transformations x -> x ⊕ x
        assert len(basis) >= 2
        # both block injections are honest intertwiners and lie in the span
        for which in (0, 1):
            inj = {}
            for v in ("u", "v"):
                n = x.dims[v]
                m = np.zeros((2 * n, n), dtype=complex)
                m[which * n : (which + 1) * n, :] = np.eye(n)
                inj[v] = m
            g = NatTrans(x, xx, inj)
            assert check_nat_trans(g, tol=1e-10).passed
            stack = np.concatenate([inj[v].reshape(-1) for v in ("u", "v")])
            coords = np.array(
                [np.vdot(np.concatenate([b.gammas[v].reshape(-1) for v in ("u", "v")]), stack)
                 for b in basis]
            )
            recon = sum(
                c * np.concatenate([b.gammas[v].reshape(-1) for v in ("u", "v")])
                for c, b in zip(coords, basis)
            )
            assert np.linalg.norm(recon - stack) <= 1e-9 * np.linalg.norm(stack)

    def test_composition_of_intertwiners(self):
        # gamma: y->x and gamma': z->y compose vertexwise to z->x
        q = sch_quiver()
        w = random_rep(q, {"u": 2, "v": 2}, 19)
        x = direct_sum(w, random_rep(q, {"u": 1, "v": 1}, 20))
        y = direct_sum(w, random_rep(q, {"u": 2, "v": 1}, 21))
        z = direct_sum(w, random_rep(q, {"u": 1, "v": 2}, 22))
        for gxy in intertwiner_space(x, y):
            for gyz in intertwiner_space(y, z):
                comp = NatTrans(z, x, {
                    v: gxy.gammas[v] @ gyz.gammas[v] for v in q.vertices
                })
                assert check_nat_trans(comp, tol=1e-8).passed

    def test_block_upper_unitriangular_automorphism(self):
        # [[1, G], [0, 1]] is a natural automorphism of x ⊕ y for G: y -> x,
        # with inverse [[1, -G], [0, 1]]
        x, y = shared_summand_pair(23, {"u": 2, "v": 2}, {"u": 1, "v": 0}, {"u": 0, "v": 1})
        basis = intertwiner_space(x, y)
        assert basis
        g = basis[0]
        s = direct_sum(x, y)
        s_mats, s_inv = {}, {}
        for v in s.quiver.vertices:
            n, m = x.dims[v], y.dims[v]
            up = np.eye(n + m, dtype=complex)
            up[:n, n:] = g.gammas[v]
            dn = np.eye(n + m, dtype=complex)
            dn[:n, n:] = -g.gammas[v]
            s_mats[v], s_inv[v] = up, dn
        auto = NatAuto(s, s_mats)
        # product with the claimed inverse is the identity, exactly
        for v in s.quiver.vertices:
            np.testing.assert_allclose(
                s_mats[v] @ s_inv[v], np.eye(x.dims[v] + y.dims[v]), atol=1e-14
            )
        # conjugating by it fixes s (it is natural for s), residual-checked
        as_nt = NatTrans(s, s, auto.s_mats)
        assert check_nat_trans(as_nt, tol=1e-8).passed


class TestRepResidual:
    def test_inf_on_a_later_arc_is_nan(self):
        # rel_diff there is inf/inf; a fold that drops it would read 0.0
        q = classical_embed(2)
        x = Rep(q, {"u": 2}, {"x": np.eye(2), "y": np.full((2, 2), np.inf)})
        y = Rep(q, {"u": 2}, {"x": np.eye(2), "y": np.eye(2)})
        assert np.isnan(rep_residual(x, y))
        assert np.isnan(rep_residual(y, x))


class TestRandomRep:
    def test_determinism(self):
        a = random_sch(42)
        b = random_sch(42)
        assert rep_residual(a, b) == 0.0
        for arc in a.quiver.arc_names():
            np.testing.assert_array_equal(a.mats[arc], b.mats[arc])

    def test_different_seeds_differ(self):
        a, b = random_sch(1), random_sch(2)
        assert any(op_norm(a.mats[n] - b.mats[n]) > 1e-6 for n in a.quiver.arc_names())

    def test_all_zero_dims(self):
        q = sch_quiver()
        r = random_rep(q, {"u": 0, "v": 0}, 5)
        assert all(m.size == 0 for m in r.mats.values())


def s3_fixture():
    q = classical_embed(3)
    rel = lambda arcs_l, arcs_r: (
        path_of(q, arcs_l) if arcs_l else identity_path("u"),
        path_of(q, arcs_r) if arcs_r else identity_path("u"),
    )
    pres = RelationPresentation(q, [
        rel(["x", "x"], []),
        rel(["y", "y"], []),
        rel(["z", "z"], []),
        rel(["x", "z"], ["z", "y"]),  # zx == yz
        rel(["x", "z"], ["y", "x"]),  # zx == xy
    ])
    rep = Rep(q, {"u": 2}, {
        "x": np.array([[-1, 1], [0, 1]], dtype=complex),
        "y": np.array([[0, -1], [-1, 0]], dtype=complex),
        "z": np.array([[1, 0], [1, -1]], dtype=complex),
    })
    return pres, rep


class TestCheckRelations:
    def test_symmetric_group_standard_rep_passes(self):
        pres, rep = s3_fixture()
        report = check_relations(rep, pres, tol=1e-12)
        assert report.passed and report.max_residual == 0.0

    def test_trivial_rep_passes(self):
        pres, _ = s3_fixture()
        triv = Rep(pres.quiver, {"u": 2}, {n: np.eye(2) for n in ("x", "y", "z")})
        assert check_relations(triv, pres).passed

    def test_random_assignment_fails(self):
        pres, _ = s3_fixture()
        rnd = random_rep(pres.quiver, {"u": 2}, 99)
        assert not check_relations(rnd, pres, tol=1e-6).passed


class TestNullspaceHelper:
    def test_rows_annihilate(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        ns = nullspace(a)
        assert ns.shape[0] == 3
        for row in ns:
            assert np.linalg.norm(a @ row) <= 1e-10
        # orthonormal
        np.testing.assert_allclose(ns @ ns.conj().T, np.eye(3), atol=1e-12)
