"""Representations: evaluation, sums, conjugation, intertwiners, relations."""

import itertools

import numpy as np
import pytest

from freequiver import reps
from freequiver.catalog import smw_quiver
from freequiver.errors import RegularityError
from freequiver.numerics import is_invertible, nullspace, op_norm
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
    intertwiner_space,
    nat_trans_residuals,
    random_auto,
    random_autos,
    random_rep,
    random_reps,
    rep_residual,
    stack_reps,
)


def identity_auto(x: Rep) -> NatAuto:
    return NatAuto(x, {v: np.eye(x.dims[v], dtype=np.complex128) for v in x.quiver.vertices})


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
        z = block_points(x, y, {})
        assert (z.dims, z.mats, z.size) == ({"u": 3, "v": 3}, {}, None)
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


    @pytest.mark.parametrize("q, dims", [(sch_quiver(), {"u": 0, "v": 2}),
                                         (classical_embed(2), {"u": 2})])
    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_scalar_point_has_all_of_m2(self, q, dims, scale):
        # x = U⁻¹(z ⊕ z)U is z·I up to rounding, so End(x) is all of M₂(ℂ);
        # the system's own entries cancel to rounding noise, which a cutoff
        # relative to its largest singular value counts as rank
        points = []
        for seed in range(8):
            z = random_rep(q, {v: n // 2 for v, n in dims.items()}, 130 + seed)
            u = {v: np.linalg.qr(m)[0] for v, m in random_auto(direct_sum(z, z), 140 + seed).s_mats.items()}
            x = conjugate(direct_sum(z, z), NatAuto(direct_sum(z, z), u))
            points.append(Rep(q, dims, {a: scale * m for a, m in x.mats.items()}))
            assert len(intertwiner_space(points[-1], points[-1])) == 4
            assert len(nullspace(kron_system(points[-1], points[-1]))) < 4
        assert [len(b) for b in intertwiner_space(stack_reps(points), stack_reps(points))] == [4] * 8


class TestRepResidual:
    def test_inf_on_a_later_arc_is_nan(self):
        # rel_diff there is inf/inf; a fold that drops it would read 0.0
        q = classical_embed(2)
        x = Rep(q, {"u": 2}, {"x": np.eye(2), "y": np.full((2, 2), np.inf)})
        y = Rep(q, {"u": 2}, {"x": np.eye(2), "y": np.eye(2)})
        assert np.isnan(rep_residual(x, y))
        assert np.isnan(rep_residual(y, x))


def kron_system(x, y):
    """intertwiner_space's system for one pair of points, built with np.kron:
    the reference for its writes on the blocks' diagonals."""
    q = x.quiver
    sizes = {v: x.dims[v] * y.dims[v] for v in q.vertices}
    offsets = dict(zip(q.vertices, itertools.accumulate(sizes.values(), initial=0)))
    system = np.zeros((sum(x.dims[a.dst] * y.dims[a.src] for a in q.arcs), sum(sizes.values())),
                      dtype=np.complex128)
    r0 = 0
    for a in q.arcs:
        rows = slice(r0, r0 + x.dims[a.dst] * y.dims[a.src])
        if rows.stop > r0 and sizes[a.src]:
            cols = slice(offsets[a.src], offsets[a.src] + sizes[a.src])
            system[rows, cols] += np.kron(x.mats[a.name], np.eye(y.dims[a.src]))
        if rows.stop > r0 and sizes[a.dst]:
            cols = slice(offsets[a.dst], offsets[a.dst] + sizes[a.dst])
            system[rows, cols] -= np.kron(np.eye(x.dims[a.dst]), y.mats[a.name].T)
        r0 = rows.stop
    return system


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


STACK_POINTS = [(sch_quiver(), p) for p in [(0, 2), (3, 0), (0, 0), (1, 1), (2, 3), (6, 4)]] + [
    (classical_embed(2), (3,)), (Quiver(("u", "v"), ()), (2, 1))]


class TestRepStacks:
    """A stack's points each get the bits of the single-point forms."""

    @staticmethod
    def _points(q, profile, seed):
        return [random_rep(q, dict(zip(q.vertices, profile)), seed + b) for b in range(3)]

    def test_size_is_checked_and_kept(self):
        q = sch_quiver()
        xs = self._points(q, (3, 2), 110)
        x = stack_reps(xs)
        assert x.size == 3 and x.mats["x12"].shape == (3, 3, 2)
        mats = {**{a: m[:2] for a, m in x.mats.items()}, "x12": xs[0].mats["x12"]}
        with pytest.raises(ValueError, match=r"arc 'x12': matrix shape \(3, 2\) != required \(2, 3, 2\)"):
            Rep(q, x.dims, mats, 2)
        # without arcs, only the size says how many points there are
        bare = stack_reps(self._points(Quiver(("u",), ()), (2,), 120))
        assert bare.size == 3 and bare.mats == {}
        assert direct_sum(bare, bare).size == conjugate(bare, {"u": np.eye(2)}).size == 3

    @pytest.mark.parametrize("q, profile", STACK_POINTS)
    def test_intertwiner_space(self, q, profile):
        xs, ys = self._points(q, profile, 60), self._points(q, profile, 70)
        for left, right in ((xs, ys), (xs, xs)):
            stacked = intertwiner_space(stack_reps(left), stack_reps(right))
            for b, basis in enumerate(stacked):
                scale = max((np.abs(m).max(initial=0.0) for p in (left[b], right[b])
                             for m in p.mats.values()), default=0.0)
                want = nullspace(kron_system(left[b], right[b]), scale)
                single = intertwiner_space(left[b], right[b])
                assert len(basis) == len(single) == len(want)
                for g, h, w in zip(basis, single, want):
                    assert same_bits(np.concatenate([g[v].ravel() for v in q.vertices]), w)
                    assert same_bits(np.concatenate([h.gammas[v].ravel() for v in q.vertices]), w)

    @pytest.mark.parametrize("q, profile", STACK_POINTS)
    def test_direct_sum_conjugate_and_residuals(self, q, profile):
        xs, ys = self._points(q, profile, 80), self._points(q, profile, 90)
        autos = [random_auto(x, 100 + b) for b, x in enumerate(xs)]
        s = {v: np.stack([auto.s_mats[v] for auto in autos]) for v in q.vertices}
        x = stack_reps(xs)
        total, conj = direct_sum(x, stack_reps(ys)), conjugate(x, s)
        singles = [conjugate(p, auto) for p, auto in zip(xs, autos)]
        # S is a natural transformation from S^-1 X S to X
        per_arc = nat_trans_residuals(x, conj, s)
        for b, (p, c, auto) in enumerate(zip(xs, singles, autos)):
            details = check_nat_trans(NatTrans(c, p, auto.s_mats)).details
            for a in q.arc_names():
                assert same_bits(total.mats[a][b], direct_sum(p, ys[b]).mats[a])
                assert same_bits(conj.mats[a][b], c.mats[a])
                assert per_arc[a][b] == details[a]
        assert rep_residual(conj, x) == [rep_residual(c, p) for c, p in zip(singles, xs)]


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


def per_arc_rep(q, dims, seed):
    """random_rep's matrices as drawn before numerics.ginibre, arc by arc: its
    reference."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return {a.name: rng.standard_normal(s) + 1j * rng.standard_normal(s)
            for a in q.arcs for s in [(dims[a.dst], dims[a.src])]}


def per_vertex_auto(q, dims, seed, rejected=0):
    """random_auto's matrices as drawn before numerics.ginibre, vertex by
    vertex and drawn again while one is singular, with the first `rejected`
    draws refused as well: its reference."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for draw in itertools.count():
        mats = {v: rng.standard_normal((dims[v],) * 2) + 1j * rng.standard_normal((dims[v],) * 2)
                for v in q.vertices}
        if draw >= rejected and all(is_invertible(m) for m in mats.values()):
            return mats


DRAW_POINTS = [(sch_quiver(), {"u": 3, "v": 2}), (sch_quiver(), {"u": 0, "v": 2}),
               (smw_quiver(), {"u": 4, "v": 1}), (smw_quiver(), {"u": 2, "v": 0}),
               (classical_embed(2), {"u": 3}), (classical_embed(2), {"u": 0})]


class TestRandomDraws:
    """Points and automorphisms come from numerics.ginibre, a stack of them
    in one call, bit for bit as they were drawn one matrix at a time."""

    @pytest.mark.parametrize("size", [1, 2, 5])
    @pytest.mark.parametrize("q, dims", DRAW_POINTS)
    def test_stacks_are_the_per_arc_draws(self, q, dims, size):
        seeds = [1000 + 7 * b for b in range(size)]
        x, autos = random_reps(q, dims, seeds), random_autos(q, dims, seeds)
        assert x.size == size and x.dims == dims
        for b, seed in enumerate(seeds):
            want, one = per_arc_rep(q, dims, seed), random_rep(q, dims, seed)
            for a in q.arc_names():
                assert same_bits(x.mats[a][b], want[a]) and same_bits(one.mats[a], want[a])
            want, one = per_vertex_auto(q, dims, seed), random_auto(one, seed)
            for v in q.vertices:
                assert same_bits(autos[v][b], want[v]) and same_bits(one.s_mats[v], want[v])

    def test_a_failed_draw_redraws_from_its_own_stream(self, monkeypatch):
        q, dims, seeds = sch_quiver(), {"u": 2, "v": 3}, [21, 22, 23, 24, 25]
        first, rule = per_vertex_auto(q, dims, 23)["v"], reps.inverse_rule

        def failing(m):  # refuses trial 2's first draw at v
            ok, smin, smax, reason = rule(m)
            return ok & ~np.array([np.array_equal(one, first) for one in m]), smin, smax, reason

        monkeypatch.setattr(reps, "inverse_rule", failing)
        autos = random_autos(q, dims, seeds)
        for b, seed in enumerate(seeds):
            want = per_vertex_auto(q, dims, seed, rejected=int(seed == 23))
            assert all(same_bits(autos[v][b], want[v]) for v in q.vertices)
        assert not same_bits(autos["v"][2], first)


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
