"""Named formula catalog: Schur complement, principal pivot transform,
block 2x2 inverse, rank-k update identity, truncated exp/CBH, the rational
composition pipeline, and the S3 relation fixtures."""

import numpy as np
import pytest

from freequiver.calculus import directional_derivative, observed_order, random_direction
from freequiver.catalog import (
    assemble_blocks,
    block_inverse_check,
    block_inverse_map,
    cbh_defect,
    cbh_truncated,
    exp_truncated,
    intertwine_demo_map,
    matrix_exp_truncated,
    one_loop_target,
    ppt_derivative,
    ppt_map,
    rational_triple_derivative,
    rational_triple_map,
    s3_presentation,
    s3_quiver,
    s3_standard_rep,
    sandwich_rational_map,
    sch_quiver,
    schur_derivative,
    schur_map,
    smw_check,
    smw_lhs_map,
    smw_quiver,
    smw_rhs_map,
)
from freequiver.errors import RegularityError, TypecheckError
from freequiver.exprs import (
    Atom,
    FreeMapDef,
    compose_maps,
    eval_expr,
    eval_map,
    inv,
    mul,
    scale,
    sub,
)
from freequiver.numerics import op_norm, rel_residual
from freequiver.quivers import Arc, Quiver, classical_embed, validate_quiver
from freequiver.reps import Rep, check_nat_trans, check_relations, random_rep, rep_distance


def sandwich_rational_factors() -> tuple[FreeMapDef, ...]:
    """sandwich_rational_map as a chain of one-inversion-at-a-time stages.

    Returns (ell, j, i, g) with g o i o j o ell == sandwich_rational_map:
    each stage either adjoins a new generator or is a plain polynomial, so
    rational maps arise as finite compositions of polynomial and inversion
    maps.
    """
    x, y, z, w, v = (Atom(n) for n in ("x", "y", "z", "w", "v"))

    def loops(*names):
        return Quiver(("u",), tuple(Arc(n, "u", "u") for n in names))

    q2, q3, q4, q5 = classical_embed(2), loops(*"xyz"), loops(*"xyzw"), loops(*"xyzwv")
    ell = FreeMapDef(q2, q3, {"x": x, "y": y, "z": sub(y, x)})
    j = FreeMapDef(q3, q4, {"x": x, "y": y, "z": z, "w": inv(z)})
    i = FreeMapDef(q4, q5, {"x": x, "y": y, "z": z, "w": w, "v": inv(x)})
    g = FreeMapDef(
        q5,
        classical_embed(3),
        # third component multiplies through the inverted generator w, not z
        {"x": mul(v, y, y), "y": scale(3, sub(mul(y, x), mul(x, y))), "z": mul(x, w, y)},
    )
    return ell, j, i, g


def sch_point(seed, nu=3, nv=2):
    return random_rep(sch_quiver(), {"u": nu, "v": nv}, seed)


def sch_blocks(x):
    return (x.mats["x1"], x.mats["x12"], x.mats["x21"], x.mats["x2"])


def max_arc_residual(image, want):
    worst = 0.0
    for arc, ref in want.items():
        got = image.mats[arc]
        worst = max(worst, rel_residual(op_norm(got - ref), got, ref))
    return worst


def loop_point(seed, n=4, scale_to=None):
    x = random_rep(classical_embed(2), {"u": n}, seed)
    if scale_to is not None:
        mats = {k: scale_to * m / op_norm(m) for k, m in x.mats.items()}
        return Rep(x.quiver, dict(x.dims), mats)
    return x


class TestSchurMap:
    def test_matches_numpy_oracle(self):
        x = sch_point(3)
        a, b, c, d = sch_blocks(x)
        want = a - b @ np.linalg.inv(d) @ c
        got = eval_map(schur_map(), x).mats["x"]
        assert rel_residual(op_norm(got - want), got, want) < 1e-12

    def test_zero_offdiagonal_gives_top_block(self):
        x = sch_point(4)
        mats = dict(x.mats)
        mats["x12"] = np.zeros_like(mats["x12"])
        y = Rep(x.quiver, dict(x.dims), mats)
        got = eval_map(schur_map(), y).mats["x"]
        assert np.allclose(got, mats["x1"])

    def test_scalar_blocks(self):
        mats = {
            "x1": np.array([[5.0]]),
            "x12": np.array([[2.0]]),
            "x21": np.array([[3.0]]),
            "x2": np.array([[4.0]]),
        }
        x = Rep(sch_quiver(), {"u": 1, "v": 1}, mats)
        got = eval_map(schur_map(), x).mats["x"][0, 0]
        assert abs(got - (5.0 - 2.0 * 3.0 / 4.0)) < 1e-14

    def test_target_carries_bare_second_vertex(self):
        t = one_loop_target()
        assert validate_quiver(t) == []
        assert set(t.vertices) == {"u", "v"}
        assert [a.name for a in t.arcs] == ["x"]
        image = eval_map(schur_map(), sch_point(1))
        assert image.dims == {"u": 3, "v": 2}


def ppt_d_oracle(a, b, c, d):
    di = np.linalg.inv(d)
    return {"x1": a - b @ di @ c, "x12": -b @ di, "x21": di @ c, "x2": di}


def ppt_a_oracle(a, b, c, d):
    ai = np.linalg.inv(a)
    return {"x1": ai, "x12": -ai @ b, "x21": c @ ai, "x2": d - c @ ai @ b}


class TestPPT:
    def test_pivot_d_entries(self):
        x = sch_point(5)
        image = eval_map(ppt_map("pivot_D"), x)
        assert max_arc_residual(image, ppt_d_oracle(*sch_blocks(x))) < 1e-12

    def test_pivot_a_entries(self):
        x = sch_point(6)
        image = eval_map(ppt_map("pivot_A"), x)
        assert max_arc_residual(image, ppt_a_oracle(*sch_blocks(x))) < 1e-12

    @pytest.mark.parametrize("variant", ["pivot_D", "pivot_A"])
    def test_involution(self, variant):
        f = ppt_map(variant)
        for seed in range(4):
            x = sch_point(20 + seed, nu=4, nv=3)
            back = eval_map(f, eval_map(f, x))
            assert max_arc_residual(back, dict(x.mats)) < 1e-10

    def test_all_negative_signs_are_not_an_involution(self):
        # flipping the remaining off-diagonal breaks the square of the map:
        # the top-left comes back as A - 2 B D^-1 C
        x1, x2, x12, x21 = Atom("x1"), Atom("x2"), Atom("x12"), Atom("x21")
        broken = FreeMapDef(sch_quiver(), sch_quiver(), {
            "x1": sub(x1, mul(x12, inv(x2), x21)),
            "x12": scale(-1, mul(x12, inv(x2))),
            "x21": scale(-1, mul(inv(x2), x21)),
            "x2": inv(x2),
        })
        x = sch_point(7)
        back = eval_map(broken, eval_map(broken, x))
        assert max_arc_residual(back, dict(x.mats)) > 1e-3

    def test_block_diagonal_point_pivot_d(self):
        x = sch_point(8)
        mats = dict(x.mats)
        mats["x12"] = np.zeros_like(mats["x12"])
        mats["x21"] = np.zeros_like(mats["x21"])
        y = Rep(x.quiver, dict(x.dims), mats)
        image = eval_map(ppt_map("pivot_D"), y)
        assert np.allclose(image.mats["x1"], mats["x1"])
        assert np.allclose(image.mats["x12"], 0)
        assert np.allclose(image.mats["x21"], 0)
        assert np.allclose(image.mats["x2"], np.linalg.inv(mats["x2"]))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            ppt_map("pivot_B")

    @pytest.mark.parametrize("variant", ["pivot_D", "pivot_A"])
    def test_closed_form_derivative_matches_block_trick(self, variant):
        x = sch_point(9, nu=3, nv=3)
        h = random_direction(x, 90)
        auto = directional_derivative(ppt_map(variant), x, h)
        want = ppt_derivative(x, h, variant)
        assert max_arc_residual(Rep(x.quiver, dict(x.dims), auto.h_mats), want) < 1e-9

    def test_schur_derivative_closed_form(self):
        x = sch_point(10)
        h = random_direction(x, 100)
        auto = directional_derivative(schur_map(), x, h)
        want = schur_derivative(x, h)
        assert rel_residual(op_norm(auto.h_mats["x"] - want), want) < 1e-9


class TestBlockInverse:
    def test_residual_small_on_well_conditioned_points(self):
        for seed in range(3):
            x = sch_point(30 + seed, nu=5, nv=3)
            assert block_inverse_check(x) < 1e-9

    def test_blocks_match_direct_inverse(self):
        x = sch_point(31, nu=4, nv=2)
        nu = x.dims["u"]
        direct = np.linalg.inv(assemble_blocks(x))
        image = eval_map(block_inverse_map(), x)
        assert np.allclose(image.mats["x1"], direct[:nu, :nu], atol=1e-10)
        assert np.allclose(image.mats["x12"], direct[:nu, nu:], atol=1e-10)
        assert np.allclose(image.mats["x21"], direct[nu:, :nu], atol=1e-10)
        assert np.allclose(image.mats["x2"], direct[nu:, nu:], atol=1e-10)

    def test_block_diagonal_point(self):
        x = sch_point(32)
        mats = dict(x.mats)
        mats["x12"] = np.zeros_like(mats["x12"])
        mats["x21"] = np.zeros_like(mats["x21"])
        y = Rep(x.quiver, dict(x.dims), mats)
        image = eval_map(block_inverse_map(), y)
        assert np.allclose(image.mats["x1"], np.linalg.inv(mats["x1"]))
        assert np.allclose(image.mats["x2"], np.linalg.inv(mats["x2"]))
        assert np.allclose(image.mats["x12"], 0)

    def test_scalar_blocks_cross_check(self):
        # [[a, b], [c, d]]^-1 = [[d, -b], [-c, a]] / (ad - bc)
        a, b, c, d = 2.0, 1.0, 3.0, 5.0
        det = a * d - b * c
        x = Rep(sch_quiver(), {"u": 1, "v": 1}, {
            "x1": np.array([[a]]), "x12": np.array([[b]]),
            "x21": np.array([[c]]), "x2": np.array([[d]]),
        })
        image = eval_map(block_inverse_map(), x)
        assert abs(image.mats["x1"][0, 0] - d / det) < 1e-12
        assert abs(image.mats["x12"][0, 0] + b / det) < 1e-12
        assert abs(image.mats["x21"][0, 0] + c / det) < 1e-12
        assert abs(image.mats["x2"][0, 0] - a / det) < 1e-12

    def test_lower_right_cross_checks_against_pivot_a(self):
        # block-inverse lower right is (D - C A^-1 B)^-1, and the pivot_A
        # transform leaves exactly D - C A^-1 B in that slot
        for seed in range(5):
            x = sch_point(33 + seed, nu=4, nv=3)
            a, b, c, d = sch_blocks(x)
            comp = d - c @ np.linalg.inv(a) @ b
            binv = eval_map(block_inverse_map(), x)
            ppta = eval_map(ppt_map("pivot_A"), x)
            assert np.allclose(ppta.mats["x2"], comp, atol=1e-10)
            assert np.allclose(binv.mats["x2"], np.linalg.inv(comp), atol=1e-10)
            assert np.allclose(binv.mats["x2"] @ ppta.mats["x2"],
                               np.eye(x.dims["v"]), atol=1e-9)

    def test_singular_assembly_rejected(self):
        z = np.zeros((2, 2))
        x = Rep(sch_quiver(), {"u": 2, "v": 2},
                {"x1": z, "x12": z, "x21": z, "x2": z})
        with pytest.raises(RegularityError):
            block_inverse_check(x)


class TestSMW:
    def smw_point(self, seed, n, k):
        return random_rep(smw_quiver(), {"u": n, "v": k}, seed)

    @pytest.mark.parametrize("n,k", [(5, 1), (6, 3), (4, 4)])
    def test_update_identity(self, n, k):
        for seed in range(3):
            x = self.smw_point(40 + seed, n, k)
            assert smw_check(x) < 1e-9

    def test_zero_update_reduces_to_plain_inverse(self):
        x = self.smw_point(41, 4, 2)
        mats = dict(x.mats)
        mats["U"] = np.zeros_like(mats["U"])
        y = Rep(x.quiver, dict(x.dims), mats)
        lhs = eval_map(smw_lhs_map(), y).mats["x"]
        rhs = eval_map(smw_rhs_map(), y).mats["x"]
        ai = np.linalg.inv(mats["a"])
        assert np.allclose(lhs, ai)
        assert np.allclose(rhs, ai)

    def test_square_case_agrees_between_code_paths(self):
        x = self.smw_point(42, 3, 3)
        lhs = eval_map(smw_lhs_map(), x).mats["x"]
        rhs = eval_map(smw_rhs_map(), x).mats["x"]
        assert rel_residual(op_norm(lhs - rhs), lhs, rhs) < 1e-10

    def test_singular_small_factor_rejected(self):
        x = self.smw_point(43, 4, 2)
        mats = dict(x.mats)
        mats["c"] = np.zeros_like(mats["c"])
        y = Rep(x.quiver, dict(x.dims), mats)
        with pytest.raises(RegularityError):
            smw_check(y)


class TestExpTruncated:
    def test_zero_input_gives_identity(self):
        q = classical_embed(1)
        series = exp_truncated(q, Atom("x"), order=9)
        x = Rep(q, {"u": 3}, {"x": np.zeros((3, 3))})
        assert np.allclose(eval_expr(series, x), np.eye(3))

    def test_matches_scipy_expm(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(77)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= 0.8 / op_norm(m)
        got = matrix_exp_truncated(m, order=12)
        want = expm(m)
        assert op_norm(got - want) < 1e-9

    def test_expr_route_matches_matrix_route(self):
        q = classical_embed(1)
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 3))
        m *= 0.5 / op_norm(m)
        x = Rep(q, {"u": 3}, {"x": m})
        series = exp_truncated(q, Atom("x"), order=8)
        assert np.allclose(eval_expr(series, x), matrix_exp_truncated(m, order=8), atol=1e-12)

    def test_non_loop_expression_rejected(self):
        with pytest.raises(TypecheckError, match="loop"):
            exp_truncated(sch_quiver(), Atom("x21"))

    def test_norm_guard(self):
        with pytest.raises(ValueError, match="norm guard"):
            matrix_exp_truncated(2.0 * np.eye(2))

    def test_loop_power_expression_allowed(self):
        # cyclic compositions of non-loop arcs are still loop-typed
        q = sch_quiver()
        series = exp_truncated(q, mul(Atom("x12"), Atom("x21")), order=4)
        x = sch_point(44)
        prod = x.mats["x12"] @ x.mats["x21"]
        prod_rep = prod / (2 * op_norm(prod))
        scaled = Rep(q, dict(x.dims), {**x.mats, "x12": x.mats["x12"] / (2 * op_norm(prod)) })
        got = eval_expr(series, scaled)
        want = matrix_exp_truncated(prod_rep, order=4)
        assert np.allclose(got, want, atol=1e-12)


class TestCBH:
    def test_commuting_inputs_collapse_to_sum(self):
        rng = np.random.default_rng(8)
        xm = rng.normal(size=(3, 3))
        xm *= 0.3 / op_norm(xm)
        ym = xm @ xm  # commutes with xm, all brackets vanish
        point = Rep(classical_embed(2), {"u": 3}, {"x": xm, "y": ym})
        z = eval_map(cbh_truncated(3), point).mats["x"]
        assert op_norm(z - (xm + ym)) < 1e-12

    def test_defect_scales_at_fourth_order(self):
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x0 /= op_norm(x0)
        y0 /= op_norm(y0)
        scales = [0.1, 0.05, 0.025]
        defects = [cbh_defect(t * x0, t * y0) for t in scales]
        assert observed_order(scales, defects) >= 3.5

    def test_lower_orders_scale_worse(self):
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=(3, 3))
        y0 = rng.normal(size=(3, 3))
        x0 /= op_norm(x0)
        y0 /= op_norm(y0)
        scales = [0.1, 0.05, 0.025]
        order1 = observed_order(scales, [cbh_defect(t * x0, t * y0, order=1) for t in scales])
        order2 = observed_order(scales, [cbh_defect(t * x0, t * y0, order=2) for t in scales])
        assert 1.5 <= order1 < 2.7
        assert 2.5 <= order2 < 3.7

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match="order 3"):
            cbh_truncated(4)


class TestRationalPipeline:
    def test_triple_map_matches_numpy(self):
        x = loop_point(50)
        xm, ym = x.mats["x"], x.mats["y"]
        image = eval_map(rational_triple_map(), x)
        xi = np.linalg.inv(xm)
        wi = np.linalg.inv(ym - xm)
        want = {"x": xi @ ym @ ym, "y": 3 * (ym @ xm - xm @ ym), "z": ym @ wi}
        assert max_arc_residual(image, want) < 1e-12

    def test_triple_derivative_closed_form(self):
        for seed in range(2):
            x = loop_point(51 + seed)
            h = random_direction(x, 510 + seed)
            auto = directional_derivative(rational_triple_map(), x, h)
            want = rational_triple_derivative(x, h)
            assert max_arc_residual(Rep(auto.base.quiver, dict(auto.base.dims), auto.h_mats), want) < 1e-9

    def test_sandwich_map_matches_numpy(self):
        x = loop_point(52)
        xm, ym = x.mats["x"], x.mats["y"]
        image = eval_map(sandwich_rational_map(), x)
        want = xm @ np.linalg.inv(ym - xm) @ ym
        assert rel_residual(op_norm(image.mats["z"] - want), want) < 1e-12

    def test_factors_compose_to_sandwich_map(self):
        ell, j, i, g = sandwich_rational_factors()
        composite = compose_maps(g, compose_maps(i, compose_maps(j, ell)))
        assert composite.normalized() == sandwich_rational_map().normalized()

    def test_factor_chain_evaluates_pointwise(self):
        ell, j, i, g = sandwich_rational_factors()
        x = loop_point(53)
        staged = eval_map(g, eval_map(i, eval_map(j, eval_map(ell, x))))
        direct = eval_map(sandwich_rational_map(), x)
        assert rep_distance(staged, direct) < 1e-10

    def test_uninverted_generator_in_last_stage_breaks_the_chain(self):
        # regression guard: the last stage must multiply through the
        # inverted generator, not the difference itself
        ell, j, i, g = sandwich_rational_factors()
        x_, y_, w_, z_ = Atom("x"), Atom("y"), Atom("w"), Atom("z")
        bad_g = FreeMapDef(g.source_quiver, g.target_quiver, {
            "x": g.entries["x"],
            "y": g.entries["y"],
            "z": mul(x_, z_, y_),
        })
        x = loop_point(54)
        staged = eval_map(bad_g, eval_map(i, eval_map(j, eval_map(ell, x))))
        direct = eval_map(sandwich_rational_map(), x)
        assert rep_distance(staged, direct) > 1e-2


class TestIntertwineDemo:
    def test_entry_evaluation_oracle(self):
        x = sch_point(60)
        a, b, c, d = sch_blocks(x)
        image = eval_map(intertwine_demo_map(), x)
        want = {
            "y1": b @ d @ c - a @ b @ c @ a + 2 * a @ a,
            "y21": c @ a @ a + 2 * d @ c @ a + d @ d @ c,
        }
        assert max_arc_residual(image, want) < 1e-12

    def test_images_intertwine(self):
        from freequiver.reps import NatTrans, direct_sum, intertwiner_space

        f = intertwine_demo_map()
        core = random_rep(sch_quiver(), {"u": 2, "v": 4}, 61)
        x = direct_sum(core, random_rep(sch_quiver(), {"u": 5, "v": 0}, 62))
        y = direct_sum(core, random_rep(sch_quiver(), {"u": 0, "v": 9}, 63))
        assert (x.dims["u"], x.dims["v"]) == (7, 4)
        assert (y.dims["u"], y.dims["v"]) == (2, 13)
        basis = intertwiner_space(x, y)
        assert basis, "shared summand must produce a nonzero intertwiner"
        fx, fy = eval_map(f, x), eval_map(f, y)
        for gam in basis:
            pushed = NatTrans(from_rep=fy, to_rep=fx, gammas=gam.gammas)
            assert check_nat_trans(pushed).max_residual < 1e-7


class TestS3:
    def test_standard_rep_satisfies_relations_exactly(self):
        report = check_relations(s3_standard_rep(), s3_presentation(), tol=1e-12)
        assert report.passed
        assert report.max_residual == 0.0

    def test_sign_rep_passes(self):
        m = -np.eye(1)
        x = Rep(s3_quiver(), {"u": 1}, {"x": m, "y": m, "z": m})
        assert check_relations(x, s3_presentation(), tol=1e-12).passed

    def test_random_assignment_fails(self):
        x = random_rep(s3_quiver(), {"u": 2}, 70)
        report = check_relations(x, s3_presentation(), tol=1e-12)
        assert not report.passed
        assert report.max_residual > 1e-2

    def test_generators_square_to_identity(self):
        rep = s3_standard_rep()
        for name in ("x", "y", "z"):
            m = rep.mats[name]
            assert np.array_equal(m @ m, np.eye(2, dtype=np.complex128))

    def test_three_cycle_consistency(self):
        rep = s3_standard_rep()
        xm, ym, zm = rep.mats["x"], rep.mats["y"], rep.mats["z"]
        assert np.array_equal(xm @ ym, ym @ zm)
        assert np.array_equal(ym @ zm, zm @ xm)
        # the common product is a 3-cycle: cubes to the identity
        assert np.array_equal(np.linalg.matrix_power(xm @ ym, 3), np.eye(2, dtype=np.complex128))
