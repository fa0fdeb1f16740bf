"""Randomized conformance harness for freeness.

Seeded trials check that a map respects direct sums and conjugation by
natural automorphisms, that it pushes intertwiners x → x ⊕ x forward (at
points built to have intertwiners other than scalars), and — at points where
the derivative certificate reports full rank — that it also reflects them
(every intertwiner of the images comes from an intertwiner of the inputs).
Every trial is reproducible from (master_seed, trial_index, check_name) alone.

For each check, the trials of one dimension profile (trial index ≡ p modulo
the number of profiles) run as one stack, a Rep with a size: each role's
draws (x, y, S, ...) take one numerics.ginibre call, one stream per trial's
seed, eval_map evaluates the stack at once, and the outcomes are recorded in
trial order, bit for bit those of the trials run one by one. A stack that
raises RegularityError runs again as stacks of one. lemma_part1 runs trial
by trial.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from hashlib import blake2b
from typing import Mapping, Sequence

import numpy as np

from .calculus import ift_certificate
from .errors import RegularityError
from .exprs import FreeMapDef, MapLike, eval_map
from .numerics import ginibre, worst
from .quivers import Quiver
from .reps import (
    Rep,
    conjugate,
    direct_sum,
    intertwiner_space,
    nat_trans_residuals,
    random_autos,
    random_rep,
    random_reps,
    rep_residual,
    stack_reps,
)

CHECK_NAMES = ("direct_sum", "similarity", "intertwine", "lemma_part1")

LEMMA_NOTE = "conditional on sampled injectivity evidence"


def _hash_seed(label: str) -> int:
    return int.from_bytes(blake2b(label.encode(), digest_size=8).digest(), "big")


def _role_seeds(seeds: Sequence[int], role: str) -> list[int]:
    return [_hash_seed(f"{seed}:{role}") for seed in seeds]


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

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        profiles = tuple(dict(p) for p in self.dim_profiles)
        if not profiles:
            raise ValueError("need at least one dimension profile")
        negative = [v for p in profiles for v, n in p.items() if n < 0]
        if negative:
            raise ValueError(f"negative dimension for vertex {negative[0]!r}")
        unknown = set(self.checks) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        # canonical order keeps reports stable under permuted inputs
        ordered = tuple(c for c in CHECK_NAMES if c in set(self.checks))
        for name, value in (("master_seed", int(self.master_seed)), ("trials", int(self.trials)),
                            ("dim_profiles", profiles), ("tolerance", float(self.tolerance)),
                            ("checks", ordered)):
            object.__setattr__(self, name, value)


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
        return {**asdict(self), "failing_seeds": [list(fs) for fs in self.failing_seeds]}


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


def _image_vertex(f: MapLike, v: str) -> str:
    # image vertices correspond to source vertices; callables keep names
    return f.vertex_map[v] if isinstance(f, FreeMapDef) else v


def _images(f: MapLike, x: Rep) -> Rep:
    """f at every point of the stack x, stacked alike: one evaluation of a
    FreeMapDef, or one call of a raw callable per point."""
    if isinstance(f, FreeMapDef):
        return eval_map(f, x)
    return stack_reps([f(Rep(x.quiver, dict(x.dims), {a: m[b] for a, m in x.mats.items()}))
                       for b in range(x.size)])


def _run_stack(f: MapLike, q: Quiver, check: str, profile: Mapping[str, int],
               seeds: Sequence[int]) -> list[float | None]:
    """The trials of one check at one dimension profile, one per seed, as one
    stack: each draws its points from its own seed and the stack is evaluated
    at once. Returns each trial's residual, or None to skip it."""
    if check == "intertwine":
        return _intertwine(f, q, profile, seeds)
    if check == "lemma_part1":
        return [_lemma_part1(f, q, random_rep(q, profile, seed_x), seed)
                for seed_x, seed in zip(_role_seeds(seeds, "x"), seeds)]
    x = random_reps(q, profile, _role_seeds(seeds, "x"))
    if check == "direct_sum":
        y = random_reps(q, profile, _role_seeds(seeds, "y"))
        left = _images(f, direct_sum(x, y))
        return rep_residual(left, direct_sum(_images(f, x), _images(f, y)))

    if check == "similarity":
        s = random_autos(q, profile, _role_seeds(seeds, "s"))
        left = _images(f, conjugate(x, s))
        fx = _images(f, x)
        fs = {w: s[_image_vertex(f, w)] for w in fx.quiver.vertices}
        return rep_residual(left, conjugate(fx, fs))

    raise ValueError(f"unknown check: {check!r}")


def _intertwine(f: MapLike, q: Quiver, profile: Mapping[str, int],
                seeds: Sequence[int]) -> list[float | None]:
    """The intertwine trials. A point x = U⁻¹(z ⊕ z ⊕ w)U, with z at dims
    h = n // 2, w at dims n − 2h and U unitary (a Ginibre QR's Q, so κ(U) = 1),
    has End(x) ⊇ U⁻¹(M₂(ℂ) ⊗ I_h ⊕ ℂ·I)U, not only the scalars. Each trial
    pushes one Γ = [G1; G2] : x → x ⊕ x, with G1 and G2 independent random
    elements of it. Where the dims make that point scalar (at most one drawn
    entry per loop, none on other arcs) though some n_v ≥ 2, x = U⁻¹(z ⊕ w)U,
    z at ⌈n/2⌉, w at ⌊n/2⌋, and G1, G2 ∈ U⁻¹(ℂ·I ⊕ ℂ·I)U. Only a point
    without a dimension skips, unevaluated."""
    if not any(profile[v] for v in q.vertices):
        return [None] * len(seeds)
    size, h = len(seeds), {v: profile[v] // 2 for v in q.vertices}
    rest = {v: profile[v] - 2 * h[v] for v in q.vertices}
    scalar = max(profile[v] for v in q.vertices) >= 2 and all(
        h[a.src] * h[a.dst] + rest[a.src] * rest[a.dst] <= (a.src == a.dst) for a in q.arcs)
    m, k = (1, {v: profile[v] - h[v] for v in q.vertices}) if scalar else (2, h)  # z's copies, dims
    z, w = (random_reps(q, dims, _role_seeds(seeds, role)) for role, dims in (
        ("z", k), ("w", {v: profile[v] - m * k[v] for v in q.vertices})))
    # the ":u" stream: U's Ginibre matrices, then G1's and G2's m×m block and scalar
    *g_u, coeffs = ginibre(_role_seeds(seeds, "u"), [(profile[v],) * 2 for v in q.vertices]
                           + [(2, 5)])
    u = {v: np.linalg.qr(g)[0] for v, g in zip(q.vertices, g_u)}
    gammas = {}
    for v in q.vertices:
        n, j = profile[v], m * k[v]
        g = np.zeros((size, 2, n, n), dtype=np.complex128)
        g[..., :j, :j] = np.kron(coeffs[..., :m * m].reshape(size, 2, m, m), np.eye(k[v]))
        g[..., j:, j:] = coeffs[..., 4:, None] * np.eye(n - j)
        gammas[v] = np.linalg.solve(u[v][:, None], g @ u[v][:, None]).reshape(size, 2 * n, n)
    x = conjugate(direct_sum(direct_sum(z, z) if m == 2 else z, w), u)
    f_x = _images(f, x)
    per_arc = nat_trans_residuals(_images(f, direct_sum(x, x)), f_x,
                                  {v: gammas[_image_vertex(f, v)] for v in f_x.quiver.vertices})
    return [worst(r[b] for r in per_arc.values()) for b in range(size)]


def _lemma_part1(f: MapLike, q: Quiver, x: Rep, seed: int) -> float | None:
    """One lemma_part1 trial at the point x."""
    if not isinstance(f, FreeMapDef):
        return None  # the certificate needs a symbolic map
    image_verts = {f.vertex_map[v] for v in f.target_quiver.vertices}
    if image_verts != set(q.vertices) or len(f.target_quiver.vertices) != len(q.vertices):
        return None  # lifts need a one-to-one object correspondence
    inverse_vmap = {f.vertex_map[v]: v for v in f.target_quiver.vertices}
    s = {v: m[0] for v, m in random_autos(q, x.dims, _role_seeds([seed], "s")).items()}
    y = conjugate(x, s)
    cert = ift_certificate(f, direct_sum(x, y))
    if cert.status != "full_rank":
        return None  # no injectivity evidence at this point
    fx, fy = eval_map(f, x), eval_map(f, y)
    basis = intertwiner_space(fx, fy)
    if not basis:
        return None
    return worst(r for gamma in basis for r in nat_trans_residuals(
        x, y, {v: gamma.gammas[inverse_vmap[v]] for v in q.vertices}).values())


def _residuals(f: MapLike, q: Quiver, check: str, profile: Mapping[str, int],
               seeds: Sequence[int]) -> list[float | None]:
    """_run_stack, and on RegularityError again as stacks of one, so that
    exactly the trials that raise on their own are skipped."""
    try:
        return _run_stack(f, q, check, profile, seeds)
    except RegularityError:
        if len(seeds) == 1:
            return [None]
        return [r for seed in seeds for r in _residuals(f, q, check, profile, [seed])]


def run_conformance(f: MapLike, plan: TrialPlan,
                    source_quiver: Quiver | None = None) -> ConformanceReport:
    """Run every planned check for every trial, profile by profile in
    stacks, and fold the outcomes in trial order.

    Points where an inverse fails or a certificate gives no evidence, or
    where a check is not applicable, are counted as skipped,
    never silently dropped; failures record the seed that reproduces them.
    """
    q = f.source_quiver if isinstance(f, FreeMapDef) else source_quiver
    if q is None:
        raise ValueError("a raw callable needs an explicit source_quiver")
    for p in plan.dim_profiles:
        missing = set(q.vertices) - set(p)
        if missing:
            raise ValueError(f"dimension profile misses vertices: {sorted(missing)}")
    report = ConformanceReport(plan, {name: CheckStats() for name in plan.checks})
    n_profiles = len(plan.dim_profiles)
    for check in plan.checks:
        seeds = [trial_seed(plan.master_seed, idx, check) for idx in range(plan.trials)]
        residuals: list[float | None] = [None] * plan.trials
        for p, profile in enumerate(plan.dim_profiles[:plan.trials]):
            idxs = list(range(p, plan.trials, n_profiles))
            for stack in [[i] for i in idxs] if check == "lemma_part1" else [idxs]:
                got = _residuals(f, q, check, profile, [seeds[i] for i in stack])
                for i, r in zip(stack, got):
                    residuals[i] = r
        for idx, (seed, r) in enumerate(zip(seeds, residuals)):
            report.stats[check].record(idx, seed, r, plan.tolerance)
    return report
