"""Randomized conformance harness for freeness.

Seeded trials check that a map respects direct sums and conjugation by
natural automorphisms, that it pushes intertwiners x → x ⊕ x forward (a
basis of End(x) ⊕ End(x), solved for as End(x)), and — at points where
the derivative certificate reports full rank — that it also reflects them
(every intertwiner of the images comes from an intertwiner of the inputs).
Every trial is reproducible from (master_seed, trial_index, check_name) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Mapping, Sequence

import numpy as np

from .calculus import ift_certificate
from .errors import BlockMismatchError, RegularityError
from .exprs import FreeMapDef, MapLike, apply_map
from .numerics import worst
from .quivers import Quiver
from .reps import (
    NatAuto,
    NatTrans,
    Rep,
    check_nat_trans,
    conjugate,
    direct_sum,
    intertwiner_space,
    random_auto,
    random_rep,
    rep_residual,
)

CHECK_NAMES = ("direct_sum", "similarity", "intertwine", "lemma_part1")

LEMMA_NOTE = "conditional on sampled injectivity evidence"


def _hash_seed(label: str) -> int:
    return int.from_bytes(blake2b(label.encode(), digest_size=8).digest(), "big")


def trial_seed(master_seed: int, trial_index: int, check_name: str) -> int:
    """Stable 64-bit seed for one (trial, check) cell; sub-draws within the
    cell hash again with a role suffix."""
    return _hash_seed(f"{master_seed}:{trial_index}:{check_name}")


@dataclass(frozen=True)
class TrialPlan:
    """How to drive the harness: seed, trial count, dimension profiles
    (cycled by trial index), tolerance, and which checks to run."""

    master_seed: int
    trials: int
    dim_profiles: tuple[dict[str, int], ...]
    tolerance: float = 1e-7
    checks: tuple[str, ...] = CHECK_NAMES

    def __init__(self, master_seed: int, trials: int,
                 dim_profiles: Sequence[Mapping[str, int]],
                 tolerance: float = 1e-7,
                 checks: Sequence[str] = CHECK_NAMES):
        if not 0 <= int(master_seed) < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")
        if trials < 1:
            raise ValueError("need at least one trial")
        profiles = tuple(dict(p) for p in dim_profiles)
        if not profiles:
            raise ValueError("need at least one dimension profile")
        for p in profiles:
            for v, n in p.items():
                if n < 0:
                    raise ValueError(f"negative dimension for vertex {v!r}")
        unknown = set(checks) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        # canonical order keeps reports stable under permuted inputs
        ordered = tuple(c for c in CHECK_NAMES if c in set(checks))
        object.__setattr__(self, "master_seed", int(master_seed))
        object.__setattr__(self, "trials", int(trials))
        object.__setattr__(self, "dim_profiles", profiles)
        object.__setattr__(self, "tolerance", float(tolerance))
        object.__setattr__(self, "checks", ordered)


@dataclass
class CheckStats:
    """Fold of one check across all trials. skipped + executed == trials."""

    executed: int = 0
    skipped: int = 0
    passes: int = 0
    failures: int = 0
    max_residual: float = 0.0
    failing_seeds: tuple[tuple[int, int], ...] = ()

    def record(self, trial_index: int, seed: int, residual: float | None, tol: float) -> None:
        if residual is None:
            self.skipped += 1
            return
        self.executed += 1
        self.max_residual = worst((self.max_residual, residual))
        if residual <= tol:
            self.passes += 1
        else:
            self.failures += 1
            self.failing_seeds = self.failing_seeds + ((trial_index, seed),)

    def as_dict(self) -> dict:
        return {
            "executed": self.executed,
            "skipped": self.skipped,
            "passes": self.passes,
            "failures": self.failures,
            "max_residual": self.max_residual,
            "failing_seeds": [list(fs) for fs in self.failing_seeds],
        }


@dataclass(eq=False)
class ConformanceReport:
    """Deterministic fold of all trial outcomes, ordered by trial index: it
    holds no timing, so the as_dict() of reports from one plan are equal."""

    plan: TrialPlan
    stats: dict[str, CheckStats] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(s.failures == 0 for s in self.stats.values())

    def as_dict(self) -> dict:
        out = {
            "master_seed": self.plan.master_seed,
            "trials": self.plan.trials,
            "tolerance": self.plan.tolerance,
            "passed": self.passed,
            "checks": {},
        }
        for name in self.plan.checks:
            entry = self.stats[name].as_dict()
            if name == "lemma_part1":
                entry["note"] = LEMMA_NOTE
            out["checks"][name] = entry
        return out


def _source_quiver(f: MapLike, source_quiver: Quiver | None) -> Quiver:
    if isinstance(f, FreeMapDef):
        return f.source_quiver
    if source_quiver is None:
        raise ValueError("a raw callable needs an explicit source_quiver")
    return source_quiver


def _image_vertex(f: MapLike, v: str) -> str:
    # image vertices correspond to source vertices; callables keep names
    return f.vertex_map[v] if isinstance(f, FreeMapDef) else v


def _image_auto(f: MapLike, image: Rep, s: NatAuto) -> NatAuto:
    return NatAuto(image, {v: s.s_mats[_image_vertex(f, v)] for v in image.quiver.vertices})


def _push_intertwiner(f: MapLike, to_image: Rep, from_image: Rep,
                      gammas: Mapping[str, np.ndarray]) -> NatTrans:
    pushed = {v: gammas[_image_vertex(f, v)] for v in to_image.quiver.vertices}
    return NatTrans(from_image, to_image, pushed)


def _run_cell(f: MapLike, q: Quiver, check: str, profile: Mapping[str, int],
              seed: int) -> float | None:
    """One (trial, check) cell. Returns the residual, or None to skip."""
    x = random_rep(q, profile, _hash_seed(f"{seed}:x"))
    if check == "direct_sum":
        y = random_rep(q, profile, _hash_seed(f"{seed}:y"))
        left = apply_map(f, direct_sum(x, y))
        right = direct_sum(apply_map(f, x), apply_map(f, y))
        return rep_residual(left, right)

    if check == "similarity":
        s = random_auto(x, _hash_seed(f"{seed}:s"))
        left = apply_map(f, conjugate(x, s))
        fx = apply_map(f, x)
        right = conjugate(fx, _image_auto(f, fx, s))
        return rep_residual(left, right)

    if check == "intertwine":
        ends = intertwiner_space(x, x)
        if not ends:
            return None
        f_big, f_x = apply_map(f, direct_sum(x, x)), apply_map(f, x)
        # Hom(x, x ⊕ x) = End(x) ⊕ End(x): [G; 0], [0; G] span it orthonormally
        return worst(
            check_nat_trans(_push_intertwiner(f, f_big, f_x, {
                v: np.vstack((g, np.zeros_like(g))[::step]) for v, g in gamma.gammas.items()
            })).max_residual
            for gamma in ends for step in (1, -1)
        )

    if check == "lemma_part1":
        if not isinstance(f, FreeMapDef):
            return None  # the certificate needs a symbolic map
        image_verts = {f.vertex_map[v] for v in f.target_quiver.vertices}
        if image_verts != set(q.vertices) or len(f.target_quiver.vertices) != len(q.vertices):
            return None  # lifts need a one-to-one object correspondence
        inverse_vmap = {f.vertex_map[v]: v for v in f.target_quiver.vertices}
        s = random_auto(x, _hash_seed(f"{seed}:s"))
        y = conjugate(x, s)
        cert = ift_certificate(f, direct_sum(x, y))
        if cert.status != "full_rank":
            return None  # no injectivity evidence at this point
        fx, fy = apply_map(f, x), apply_map(f, y)
        basis = intertwiner_space(fx, fy)
        if not basis:
            return None
        return worst(
            check_nat_trans(
                NatTrans(y, x, {w: gamma.gammas[inverse_vmap[w]] for w in q.vertices})
            ).max_residual
            for gamma in basis
        )

    raise ValueError(f"unknown check: {check!r}")


def run_conformance(f: MapLike, plan: TrialPlan,
                    source_quiver: Quiver | None = None) -> ConformanceReport:
    """Run every planned check for every trial and fold the outcomes.

    Points where an inverse fails or a certificate's blocks break (no
    evidence), or where a check is not applicable, are counted as skipped,
    never silently dropped; failures record the seed that reproduces them.
    """
    q = _source_quiver(f, source_quiver)
    for p in plan.dim_profiles:
        missing = set(q.vertices) - set(p)
        if missing:
            raise ValueError(f"dimension profile misses vertices: {sorted(missing)}")
    report = ConformanceReport(plan, {name: CheckStats() for name in plan.checks})
    for idx in range(plan.trials):
        profile = plan.dim_profiles[idx % len(plan.dim_profiles)]
        for check in plan.checks:
            seed = trial_seed(plan.master_seed, idx, check)
            try:
                residual = _run_cell(f, q, check, profile, seed)
            except (RegularityError, BlockMismatchError):
                residual = None
            report.stats[check].record(idx, seed, residual, plan.tolerance)
    return report
