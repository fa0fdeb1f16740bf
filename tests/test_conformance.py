"""Conformance harness: seeded trial plans, freeness checks, skip
accounting, determinism, and the transpose negative control."""

import math

import numpy as np
import pytest

from freequiver import conformance
from freequiver.catalog import block_inverse_map, exp_truncated, ppt_map, sch_quiver, schur_map
from freequiver.conformance import (
    CHECK_NAMES,
    CheckStats,
    TrialPlan,
    run_conformance,
    trial_seed,
)
from freequiver.exprs import (
    Atom,
    FreeMapDef,
    Id,
    identity_map,
    inv,
    mul,
    random_polynomial_map,
    scale,
    sub,
)
from freequiver.quivers import classical_embed
from freequiver.reps import NatTrans, Rep, check_nat_trans, direct_sum


def transpose_hook(x):
    """Entrywise transpose: shape-valid on loop quivers, provably not free."""
    return Rep(x.quiver, dict(x.dims), {a: m.T.copy() for a, m in x.mats.items()})


class TestCheckStats:
    def test_nan_residual_fails_and_shows(self):
        s = CheckStats()
        s.record(0, 11, 1e-9, 1e-7)
        s.record(1, 12, float("nan"), 1e-7)
        assert s.failures == 1 and s.passes == 1
        assert math.isnan(s.max_residual)
        assert s.as_dict()["failing_seeds"] == [[1, 12]]


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(7, 3, "similarity") == trial_seed(7, 3, "similarity")

    def test_distinct_across_cells(self):
        seeds = {
            trial_seed(m, i, c)
            for m in (0, 1)
            for i in range(5)
            for c in CHECK_NAMES
        }
        assert len(seeds) == 2 * 5 * len(CHECK_NAMES)

    def test_fits_64_bits(self):
        assert 0 <= trial_seed(2**64 - 1, 10**6, "intertwine") < 2**64


class TestTrialPlan:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trial"):
            TrialPlan(1, 0, [{"u": 2}])

    def test_rejects_unknown_check(self):
        with pytest.raises(ValueError, match="unknown checks"):
            TrialPlan(1, 1, [{"u": 2}], checks=("direct_sum", "unitarity"))

    def test_rejects_empty_profiles(self):
        with pytest.raises(ValueError, match="profile"):
            TrialPlan(1, 1, [])

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError, match="64 bits"):
            TrialPlan(2**64, 1, [{"u": 2}])

    def test_checks_normalized_to_canonical_order(self):
        plan = TrialPlan(1, 1, [{"u": 2}], checks=("similarity", "direct_sum"))
        assert plan.checks == ("direct_sum", "similarity")


class TestRunConformance:
    def test_identity_map_passes_everything(self):
        plan = TrialPlan(11, 5, [{"u": 2, "v": 2}])
        report = run_conformance(identity_map(sch_quiver()), plan)
        assert report.passed
        for name in CHECK_NAMES:
            s = report.stats[name]
            assert s.failures == 0
            assert s.max_residual < 1e-10
        # the identity's derivative is the identity, so the lemma runs
        assert report.stats["lemma_part1"].executed == 5

    def test_schur_map_passes_freeness_checks(self):
        plan = TrialPlan(12, 50, [{"u": 3, "v": 2}],
                         checks=("direct_sum", "similarity", "intertwine"))
        report = run_conformance(schur_map(), plan)
        assert report.passed
        for name in plan.checks:
            s = report.stats[name]
            assert s.executed == 50
            assert s.max_residual < 1e-7

    def test_scalar_valued_map_skips_all_lemma_trials(self):
        # the Schur map's derivative always has a kernel, so no trial ever
        # produces injectivity evidence
        plan = TrialPlan(13, 6, [{"u": 2, "v": 2}], checks=("lemma_part1",))
        report = run_conformance(schur_map(), plan)
        s = report.stats["lemma_part1"]
        assert s.executed == 0
        assert s.skipped == 6
        assert report.passed

    def test_ppt_runs_the_lemma(self):
        plan = TrialPlan(14, 4, [{"u": 2, "v": 2}], checks=("lemma_part1",))
        report = run_conformance(ppt_map("pivot_D"), plan)
        s = report.stats["lemma_part1"]
        assert s.executed == 4
        assert s.failures == 0

    @pytest.mark.parametrize("variant", ["pivot_D", "pivot_A"])
    def test_ppt_direct_sum_and_similarity_residuals(self, variant):
        plan = TrialPlan(35, 20, [{"u": 2, "v": 3}, {"u": 4, "v": 2}],
                         checks=("direct_sum", "similarity"), tolerance=1e-8)
        report = run_conformance(ppt_map(variant), plan)
        assert report.passed
        for name in plan.checks:
            s = report.stats[name]
            assert s.executed > 0
            assert s.max_residual < 1e-8

    @pytest.mark.parametrize("order", [3, 12])
    def test_truncated_exp_map_is_free(self, order):
        # polynomial truncation, so direct sums and similarity hold to
        # rounding error at any order
        q = classical_embed(1)
        series = exp_truncated(q, scale(0.4, Atom("x")), order=order)
        f = FreeMapDef(q, q, {"x": series})
        plan = TrialPlan(36 + order, 10, [{"u": 2}, {"u": 4}],
                         checks=("direct_sum", "similarity"), tolerance=1e-9)
        report = run_conformance(f, plan)
        assert report.passed
        for name in plan.checks:
            s = report.stats[name]
            assert s.executed == 10
            assert s.failures == 0

    def test_skip_plus_executed_equals_trials(self):
        nowhere_regular = FreeMapDef(
            classical_embed(1), classical_embed(1),
            {"x": inv(sub(Atom("x"), Atom("x")))},
        )
        plan = TrialPlan(15, 7, [{"u": 3}])
        report = run_conformance(nowhere_regular, plan)
        for name in CHECK_NAMES:
            s = report.stats[name]
            assert s.skipped + s.executed == 7
            assert s.executed == 0
        assert report.passed  # nothing failed; everything was skipped

    def test_transpose_control_fails_similarity(self):
        plan = TrialPlan(16, 100, [{"u": 2}], checks=("similarity",))
        report = run_conformance(transpose_hook, plan, source_quiver=classical_embed(2))
        s = report.stats["similarity"]
        assert not report.passed
        assert s.failures >= 99
        assert len(s.failing_seeds) == s.failures

    def test_transpose_control_passes_direct_sum(self):
        plan = TrialPlan(17, 10, [{"u": 2}], checks=("direct_sum",))
        report = run_conformance(transpose_hook, plan, source_quiver=classical_embed(2))
        assert report.passed

    def test_callable_requires_source_quiver(self):
        plan = TrialPlan(18, 1, [{"u": 2}])
        with pytest.raises(ValueError, match="source_quiver"):
            run_conformance(transpose_hook, plan)

    def test_callable_skips_lemma(self):
        plan = TrialPlan(19, 3, [{"u": 2}], checks=("lemma_part1",))
        report = run_conformance(transpose_hook, plan, source_quiver=classical_embed(2))
        assert report.stats["lemma_part1"].skipped == 3

    def test_profile_must_cover_vertices(self):
        plan = TrialPlan(20, 1, [{"u": 2}])
        with pytest.raises(ValueError, match="misses vertices"):
            run_conformance(schur_map(), plan)

    def test_profiles_cycle_by_trial_index(self):
        profiles = [{"u": 1}, {"u": 4}]
        plan = TrialPlan(21, 4, profiles, checks=("direct_sum",))
        report = run_conformance(identity_map(classical_embed(2)), plan)
        assert report.stats["direct_sum"].executed == 4

    def test_deterministic_reports(self):
        plan = TrialPlan(22, 10, [{"u": 2, "v": 3}, {"u": 3, "v": 1}])
        f = ppt_map("pivot_A")
        r1 = run_conformance(f, plan)
        r2 = run_conformance(f, plan)
        assert r1.as_dict() == r2.as_dict()
        # residuals are folded bit-identically, not merely approximately
        for name in CHECK_NAMES:
            assert r1.stats[name].max_residual == r2.stats[name].max_residual

    def test_lemma_note_present_in_dict(self):
        plan = TrialPlan(24, 2, [{"u": 2, "v": 2}])
        report = run_conformance(ppt_map("pivot_D"), plan)
        entry = report.as_dict()["checks"]["lemma_part1"]
        assert entry["note"] == "conditional on sampled injectivity evidence"

    def test_random_polynomials_pass(self):
        from freequiver.exprs import random_polynomial_map

        for seed in (31, 32):
            f = random_polynomial_map(sch_quiver(), sch_quiver(), seed, max_degree=3)
            plan = TrialPlan(seed, 5, [{"u": 2, "v": 2}],
                             checks=("direct_sum", "similarity", "intertwine"))
            report = run_conformance(f, plan)
            assert report.passed, report.as_dict()

    def test_rational_map_passes_on_its_regularity_domain(self):
        from freequiver.catalog import sandwich_rational_map

        plan = TrialPlan(33, 20, [{"u": 3}, {"u": 4}],
                         checks=("direct_sum", "similarity", "intertwine"))
        report = run_conformance(sandwich_rational_map(), plan)
        assert report.passed, report.as_dict()
        # random points are almost surely regular, so skips stay rare
        for name in plan.checks:
            assert report.stats[name].executed > 0


# the dimension profiles of the intertwine check's tests: zero dimensions,
# one-by-one and the benchmark's largest size
INTERTWINE_PROFILES = [(0, 2), (3, 0), (0, 0), (1, 1), (2, 3), (6, 4)]


def entrywise_square(x):
    """Squares every matrix entry: not free, though it respects direct sums."""
    return Rep(x.quiver, dict(x.dims), {a: m * m for a, m in x.mats.items()})


def _is_scalar(g):
    n = len(g)
    return np.allclose(g, np.trace(g) / n * np.eye(n), atol=1e-9 * np.linalg.norm(g))


class TestIntertwineBasis:
    """The intertwine check pushes one Γ = [G1; G2] : x → x ⊕ x per trial,
    with x = U⁻¹(z ⊕ z ⊕ w)U and G1, G2 drawn from U⁻¹(M₂(ℂ) ⊗ I ⊕ ℂ·I)U."""

    def _pushed(self, monkeypatch, profile, seeds=(5, 6, 7)):
        """The intertwine check's residuals at profile under the identity map
        (which pushes Γ forward unchanged), with per point (x ⊕ x, x, Γ) as
        nat_trans_residuals saw them."""
        seen, nat_trans_residuals = [], conformance.nat_trans_residuals

        def record(to_rep, from_rep, gammas):
            seen.extend(tuple({a: m[b] for a, m in r.mats.items()} for r in (to_rep, from_rep))
                        + ({v: m[b] for v, m in gammas.items()},) for b in range(len(seeds)))
            return nat_trans_residuals(to_rep, from_rep, gammas)

        monkeypatch.setattr(conformance, "nat_trans_residuals", record)
        q = sch_quiver()
        residuals = conformance._run_stack(identity_map(q), q, "intertwine", profile, seeds)
        return residuals, seen

    @pytest.mark.parametrize("u, v", INTERTWINE_PROFILES)
    def test_pushed_gamma_lies_in_hom_into_the_double(self, monkeypatch, u, v):
        q, profile = sch_quiver(), {"u": u, "v": v}
        residuals, seen = self._pushed(monkeypatch, profile)
        if u == v == 0:
            assert residuals == [None] * 3 and seen == []
            return
        assert len(seen) == 3 and max(residuals) <= 1e-12
        for big, mats, gammas in seen:
            x = Rep(q, profile, mats)
            assert all(np.array_equal(big[a], m) for a, m in direct_sum(x, x).mats.items())
            assert check_nat_trans(NatTrans(x, direct_sum(x, x), gammas)).max_residual <= 1e-12
            g1 = {w: g[:profile[w]] for w, g in gammas.items()}
            g2 = {w: g[profile[w]:] for w, g in gammas.items()}
            assert all(np.linalg.norm(g[w]) > 0.1 for g in (g1, g2) for w in q.vertices
                       if profile[w])
            # G1 is not scalar wherever some vertex has room for M₂(ℂ)
            assert any(not _is_scalar(g1[w]) for w in q.vertices if profile[w] >= 2) == (
                max(u, v) >= 2)

    def test_entrywise_square_fails_every_trial(self):
        q = sch_quiver()
        plan = TrialPlan(50, 10, [{"u": 2, "v": 3}, {"u": 6, "v": 4}], checks=("intertwine",))
        s = run_conformance(entrywise_square, plan, source_quiver=q).stats["intertwine"]
        assert (s.executed, s.failures) == (10, 10) and s.max_residual > 1e-3
        assert run_conformance(identity_map(q), plan).passed

    @pytest.mark.parametrize("u, v", [(0, 3), (3, 0)])
    def test_zero_vertex_pushes_a_non_scalar_gamma(self, monkeypatch, u, v):
        residuals, seen = self._pushed(monkeypatch, {"u": u, "v": v})
        n, w = max(u, v), "u" if u else "v"
        assert max(residuals) <= 1e-12
        for _, _, gammas in seen:
            g1, g2 = gammas[w][:n], gammas[w][n:]
            assert not _is_scalar(g1) and not _is_scalar(g2)
            # G1 and G2 are independent: no multiple of one is the other
            assert np.linalg.matrix_rank(np.stack([g1.ravel(), g2.ravel()])) == 2
        plan = TrialPlan(51, 6, [{"u": u, "v": v}], checks=("intertwine",))
        s = run_conformance(entrywise_square, plan, source_quiver=sch_quiver()).stats["intertwine"]
        assert (s.executed, s.failures) == (6, 6)

    @pytest.mark.parametrize("u, v", INTERTWINE_PROFILES)
    def test_only_an_empty_point_skips(self, u, v):
        q = sch_quiver()
        plan = TrialPlan(43, 4, [{"u": u, "v": v}], checks=("intertwine",))
        for f in (identity_map(q), random_polynomial_map(q, q, 44, max_degree=2)):
            s = run_conformance(f, plan).stats["intertwine"]
            assert (s.executed, s.skipped) == ((0, 4) if u == v == 0 else (4, 0))
            assert s.failures == 0


def _stacks_of_one(monkeypatch):
    """Make the harness run every stack of trials as stacks of one."""
    run_stack = conformance._run_stack
    monkeypatch.setattr(conformance, "_run_stack", lambda f, q, check, profile, seeds: [
        r for seed in seeds for r in run_stack(f, q, check, profile, [seed])])


def rank_limited_map():
    """x1 -> (x12 x21)^-1 on the Schur quiver: singular wherever u > v."""
    q = sch_quiver()
    x2, x12, x21 = (Atom(a) for a in ("x2", "x12", "x21"))
    return FreeMapDef(q, q, {"x1": inv(mul(x12, x21)), "x2": x2, "x12": x12, "x21": x21})


def identity_entries_map():
    """Entries that read no arc evaluate to one matrix for every point."""
    q = sch_quiver()
    return FreeMapDef(q, q, {"x1": Id("u"), "x2": scale(2, Id("v")),
                             "x12": Atom("x12"), "x21": Atom("x21")})


STACKED_MAPS = {
    "identity_entries": identity_entries_map,
    "schur": schur_map,
    "ppt_D": lambda: ppt_map("pivot_D"),
    "block_inverse": block_inverse_map,
    "rank_limited": rank_limited_map,
    "random": lambda: random_polynomial_map(sch_quiver(), sch_quiver(), 45, max_degree=3),
}
# trial counts over one to three profiles, with INTERTWINE_PROFILES' zero
# dimensions; rank_limited skips every trial at u > v
STACKED_PLANS = [(1, [(2, 3)]), (2, [(0, 2), (3, 0)]), (5, [(0, 0), (1, 1), (6, 4)]),
                 (7, [(3, 2), (2, 3)]), (7, [(0, 2), (3, 0), (0, 0)])]


class TestStackedTrials:
    """The trials of one profile run as one stack, and report bit for bit
    what they report run one by one."""

    CHECKS = ("direct_sum", "similarity", "intertwine")

    @pytest.mark.parametrize("trials, profiles", STACKED_PLANS)
    @pytest.mark.parametrize("name", sorted(STACKED_MAPS))
    def test_report_equals_stacks_of_one(self, monkeypatch, name, trials, profiles):
        f = STACKED_MAPS[name]()
        plan = TrialPlan(46 + trials, trials, [{"u": u, "v": v} for u, v in profiles],
                         checks=self.CHECKS)
        stacked = run_conformance(f, plan).as_dict()
        _stacks_of_one(monkeypatch)
        assert run_conformance(f, plan).as_dict() == stacked

    @pytest.mark.parametrize("trials, profiles", [(1, [2]), (2, [0, 3]), (5, [0, 1, 3]),
                                                  (7, [2, 3])])
    def test_raw_callable_report_equals_stacks_of_one(self, monkeypatch, trials, profiles):
        plan = TrialPlan(47, trials, [{"u": u} for u in profiles], checks=self.CHECKS)
        q = classical_embed(2)
        stacked = run_conformance(transpose_hook, plan, source_quiver=q).as_dict()
        _stacks_of_one(monkeypatch)
        assert run_conformance(transpose_hook, plan, source_quiver=q).as_dict() == stacked

    def test_singular_trial_skips_alone(self, monkeypatch):
        q = classical_embed(1)
        f = FreeMapDef(q, q, {"x": inv(Atom("x"))})
        plan = TrialPlan(48, 6, [{"u": 2}, {"u": 3}], checks=self.CHECKS)
        # trial 3's point, at the second profile, is zero in every check:
        # drawn as x, or for intertwine as z and w in U⁻¹(z ⊕ z ⊕ w)U
        singular = {conformance._hash_seed(f"{trial_seed(48, 3, check)}:{role}")
                    for check in self.CHECKS for role in "xzw"}
        draw = conformance.random_rep

        def random_rep(q, dims, seed):
            x = draw(q, dims, seed)
            if seed in singular:
                return Rep(q, dict(x.dims), {a: 0 * m for a, m in x.mats.items()})
            return x

        monkeypatch.setattr(conformance, "random_rep", random_rep)
        report = run_conformance(f, plan)
        for name in self.CHECKS:
            s = report.stats[name]
            assert (s.executed, s.skipped, s.failures) == (5, 1, 0)
        _stacks_of_one(monkeypatch)
        assert run_conformance(f, plan).as_dict() == report.as_dict()

    def test_svd_calls_of_a_plan(self, monkeypatch):
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        plan = TrialPlan(49, 10, [{"u": 2, "v": 3}, {"u": 6, "v": 4}], checks=self.CHECKS)
        assert run_conformance(ppt_map("pivot_D"), plan).passed
        # per profile: direct_sum and similarity take one stacked rel_diff
        # per arc (4 arcs), and similarity's draws 10 one-matrix SVDs (each
        # automorphism is checked once per vertex); intertwine takes no
        # nullspace, only one stacked 2-norm per vertex (2) and two per arc.
        # Trial by trial, the plan takes 200.
        assert len(calls) == 2 * (4 + (10 + 4) + (2 + 2 * 4)) == 56
        assert sum(len(shape) == 2 for shape in calls) == 2 * 10
