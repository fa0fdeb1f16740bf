"""The benchmark's workloads.

Each workload builds its maps once in setup(), as a user would, and yields
its tasks one round at a time from tasks(round_index). A task's points,
directions and plan seeds are drawn from (run seed, round, position), so no
two tasks of a run share an input and no result can be reused across tasks.
Drawing happens when the task is built, outside its timed call; the timed
call runs the package and then checks the result against a reference from
refs.py, or against a verdict known in advance.

Why each workload exists, and which layers it stresses:

* certify_jacobian: ift_certificate on every catalog map. Almost all time is
  derivative_matrix -> directional_derivative -> eval_map on block points of
  twice the point's size; intertwiner spaces and nullspaces never run.
* conformance_sweep: the catalog maps and seeded random polynomial maps
  through the freeness harness, plus a non-free control the harness must
  reject. Time goes to SVDs, intertwiner spaces, conjugation and many small
  single-point evaluations; the calculus layer is idle.
* eval_large: single evaluations and directional derivatives at large
  dimensions. Few calls on big matrices, so BLAS products and inverses
  dominate rather than Python tree walking.
* cli_roundtrip: whole command-line runs in fresh interpreters. The only
  workload that pays start-up, import, parsing of definition files, report
  rendering and the certificate reached from inside the harness.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import freequiver as fq
from freequiver import catalog

import refs

# Relative tolerances of the checks. The package's own tests hold derivatives
# to 1e-9 at small sizes; these leave room for the conditioning of random
# points at the large sizes.
DERIV_TOL = 1e-8
EVAL_TOL = 1e-8
COLLISION_TOL = 1e-8
CONFORMANCE_TOL = 1e-7
# The package refuses to invert an operand with sigma_min <= 1e-10 sigma_max.
# A refusal of a derivative is correct when the doubled point really has such
# an operand; the slack covers rounding in the reference's own evaluation.
REFUSAL_RATIO = 2e-10


@dataclass
class Outcome:
    ok: bool
    err: float | None   # worst relative error against the reference
    verdict: str        # what the task decided; the same for every seed
    digest: str         # exact outputs, for comparing traced and untraced runs


@dataclass
class Task:
    kind: str
    inputs: str         # digest of the drawn inputs
    run: Callable[[], Outcome]


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, dict):
            for k in sorted(p):
                h.update(k.encode())
                h.update(np.ascontiguousarray(p[k]).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(str(p).encode())
    return h.hexdigest()


def draw_seed(*labels) -> int:
    """A 63-bit seed from the run seed and a task's position."""
    raw = hashlib.blake2b(":".join(map(str, labels)).encode(), digest_size=8).digest()
    return int.from_bytes(raw, "big") >> 1


def derivative_or_refusal(f, x, h):
    """(derivative, None), or (None, Outcome) when the package refuses the
    doubled point. The block point of a random direction can be far worse
    conditioned than the point itself (its inverse carries a product of two
    inverses), so at large sizes the package's regularity threshold
    occasionally refuses it; the refusal is checked against the reference
    evaluator's own singular values at [[X, H], [0, X]]."""
    try:
        return fq.directional_derivative(f, x, h), None
    except fq.RegularityError:
        doubled = {v: 2 * n for v, n in x.dims.items()}
        ratio = refs.smallest_inverse_ratio(f.entries, doubled, refs.block_point(x.mats, h.h_mats))
        return None, Outcome(ratio <= REFUSAL_RATIO, None, "refused", digest("refused", ratio))


class Workload:
    name = ""
    trace_rounds = 1
    # The tail percentile, fixed per workload so that it stays comparable
    # between commits that complete different numbers of tasks: the highest of
    # 50, 75, 90, 95, 99 that leaves at least ten samples above it in a run of
    # the seed commit and falls inside one group of similar task kinds, where
    # it does not jump from one kind to the next between runs.
    tail_pct = 75.0
    rss_of_children = False

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke
        self.tracer = None
        self.child_import_s: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def tasks(self, round_index: int) -> Iterator[Task]:
        raise NotImplementedError

    def seed_for(self, round_index: int, position: int, role: str) -> int:
        return draw_seed(self.name, self.seed, round_index, position, role)

    def warm_up(self) -> None:
        """Run the small warm-up round (index -1) so lazy imports and
        first-call costs are paid before timing; its results are discarded."""
        for task in self.tasks(-1):
            task.run()


# ---------------------------------------------------------------------------

class CertifyJacobian(Workload):
    name = "certify_jacobian"

    def setup(self):
        sch = catalog.sch_quiver()
        poly = fq.random_polynomial_map(sch, sch, draw_seed(self.name, self.seed, "map"),
                                        max_degree=3)
        # (label, map, verdict known in advance, closed-form derivative)
        self.maps = [
            ("schur", catalog.schur_map(), "collision",
             lambda x, h: {"x": catalog.schur_derivative(x, h)}),
            ("ppt_D", catalog.ppt_map("pivot_D"), "full_rank",
             lambda x, h: catalog.ppt_derivative(x, h, "pivot_D")),
            ("ppt_A", catalog.ppt_map("pivot_A"), "full_rank",
             lambda x, h: catalog.ppt_derivative(x, h, "pivot_A")),
            ("block_inverse", catalog.block_inverse_map(), "full_rank",
             lambda x, h: refs.block_inverse_derivative(x.mats, h.h_mats)),
            ("rational_triple", catalog.rational_triple_map(), None,
             catalog.rational_triple_derivative),
            ("random_poly", poly, None,
             lambda x, h: refs.forward_eval(poly.entries, x.dims, x.mats, h.h_mats)[1]),
        ]
        # (block dims, loop dims, points per map in a round). The small size
        # runs twice per round so that the median and the tail fall among
        # tasks of similar time instead of between a fast and a slow kind.
        self.sizes = ([((2, 2), 2, 2), ((3, 2), 3, 1)] if self.smoke
                      else [((6, 4), 4, 2), ((12, 8), 8, 1)])
        self.warm_up()

    def tasks(self, round_index):
        pos = 0
        for (nu, nv), n_loop, repeats in self.sizes:
            for label, f, expected, closed_form in self.maps * repeats:
                q = f.source_quiver
                dims = {"u": n_loop} if len(q.vertices) == 1 else {"u": nu, "v": nv}
                if round_index < 0:  # warm-up at the smallest size
                    dims = {v: 2 for v in dims}
                x = fq.random_rep(q, dims, self.seed_for(round_index, pos, "x"))
                h = fq.random_direction(x, self.seed_for(round_index, pos, "h"))
                kind = f"{label}@{'x'.join(str(dims[v]) for v in q.vertices)}"
                yield Task(kind, digest(x.mats, h.h_mats), self._runner(f, x, h, expected, closed_form))
                pos += 1

    @staticmethod
    def _runner(f, x, h, expected, closed_form):
        def run():
            cert = fq.ift_certificate(f, x)
            dd, refused = derivative_or_refusal(f, x, h)
            if refused is not None:
                return refused
            want = closed_form(x, h)
            err = refs.worst_rel_err(dd.h_mats, want)
            # the certificate's singular values bound the gain along any direction
            gain = refs.stacked_norm(want) / refs.stacked_norm(h.h_mats)
            ok = (err <= DERIV_TOL
                  and cert.sigma_min * (1 - 1e-6) <= gain <= cert.sigma_max * (1 + 1e-6))
            if cert.status == "collision":
                img1, _ = refs.forward_eval(f.entries, cert.rep1.dims, cert.rep1.mats)
                img2, _ = refs.forward_eval(f.entries, cert.rep2.dims, cert.rep2.mats)
                gap = max(float(np.linalg.norm(img1[a] - img2[a])) / (1 + float(np.linalg.norm(img2[a])))
                          for a in img2)
                ok = ok and gap <= COLLISION_TOL and abs(cert.separation - 1) <= COLLISION_TOL
            if expected is not None:
                ok = ok and cert.status == expected
            verdict = cert.status if expected is not None else "checked"
            return Outcome(ok, err, verdict, digest(cert.status, cert.singular_values, dd.h_mats))
        return run


# ---------------------------------------------------------------------------

def entrywise_square(x):
    """Squares every matrix entry: not a free map (it does not commute with
    conjugation), so the harness has to report it as failing."""
    return fq.Rep(x.quiver, dict(x.dims), {a: m * m for a, m in x.mats.items()})


class ConformanceSweep(Workload):
    name = "conformance_sweep"
    # p90 would sit among the slowest of the seeded random maps, whose cost
    # changes with the seed; p75 sits inside that group
    tail_pct = 75.0
    CHECKS = ("direct_sum", "similarity", "intertwine")

    def setup(self):
        sch = catalog.sch_quiver()
        two_loop = fq.classical_embed(2)
        if self.smoke:
            sch_p, smw_p, loop_p = [{"u": 2, "v": 2}], [{"u": 2, "v": 2}], [{"u": 2}]
            n_poly, self.trials = 2, 2
        else:
            # the dimension profiles, checks and map counts of the package's
            # conformance acceptance test, with fewer trials per plan
            sch_p = [{"u": 2, "v": 3}, {"u": 6, "v": 4}]
            smw_p = [{"u": 3, "v": 2}, {"u": 6, "v": 3}]
            loop_p = [{"u": 3}, {"u": 6}]
            n_poly, self.trials = 25, 10
        self.plans = [
            ("schur", catalog.schur_map(), sch_p),
            ("ppt_D", catalog.ppt_map("pivot_D"), sch_p),
            ("block_inverse", catalog.block_inverse_map(), sch_p),
            ("smw_lhs", catalog.smw_lhs_map(), smw_p),
            ("smw_rhs", catalog.smw_rhs_map(), smw_p),
        ]
        for i in range(n_poly):
            f = fq.random_polynomial_map(sch, sch, draw_seed(self.name, self.seed, "sch", i), max_degree=3)
            self.plans.append((f"poly_sch{i}", f, sch_p))
        for i in range(n_poly):
            f = fq.random_polynomial_map(two_loop, two_loop, draw_seed(self.name, self.seed, "loop", i),
                                         max_degree=3)
            self.plans.append((f"poly_loop{i}", f, loop_p))
        self.plans.append(("control_entrywise_square", entrywise_square, sch_p))
        self.sch = sch
        self.warm_up()

    def tasks(self, round_index):
        plans = self.plans[:1] + self.plans[-1:] if round_index < 0 else self.plans
        for pos, (label, f, profiles) in enumerate(plans):
            master = self.seed_for(round_index, pos, "plan")
            plan = fq.TrialPlan(master, 1 if round_index < 0 else self.trials, profiles,
                                tolerance=CONFORMANCE_TOL, checks=self.CHECKS)
            yield Task(label, digest(master), self._runner(f, plan, label.startswith("control")))

    def _runner(self, f, plan, control):
        def run():
            if control:
                report = fq.run_conformance(f, plan, source_quiver=self.sch)
                ok, err, verdict = not report.passed, None, "rejected"
            else:
                report = fq.run_conformance(f, plan)
                executed = all(s.executed > 0 for s in report.stats.values())
                ok = report.passed and executed
                err = max(s.max_residual for s in report.stats.values())
                verdict = "passed"
            return Outcome(ok, err, verdict, json.dumps(report.as_dict(), sort_keys=True))
        return run


# ---------------------------------------------------------------------------

class EvalLarge(Workload):
    name = "eval_large"
    trace_rounds = 2
    tail_pct = 95.0

    def setup(self):
        ppt_d, ppt_a = catalog.ppt_map("pivot_D"), catalog.ppt_map("pivot_A")
        binv = catalog.block_inverse_map()
        schur = catalog.schur_map()
        lhs, rhs = catalog.smw_lhs_map(), catalog.smw_rhs_map()
        rational = catalog.rational_triple_map()
        twice = lambda f: lambda x: fq.eval_map(f, fq.eval_map(f, x)).mats
        once = lambda f: lambda x: fq.eval_map(f, x).mats
        # (label, map, evaluation, its numpy reference, closed-form derivative)
        self.maps = [
            ("schur", schur, once(schur), refs.schur,
             lambda x, h: {"x": catalog.schur_derivative(x, h)}),
            ("ppt_D_twice", ppt_d, twice(ppt_d), lambda m: m,
             lambda x, h: catalog.ppt_derivative(x, h, "pivot_D")),
            ("ppt_A_twice", ppt_a, twice(ppt_a), lambda m: m,
             lambda x, h: catalog.ppt_derivative(x, h, "pivot_A")),
            ("block_inverse", binv, once(binv), refs.block_inverse,
             lambda x, h: refs.block_inverse_derivative(x.mats, h.h_mats)),
            ("smw_lhs", lhs, once(lhs), refs.smw_inverse,
             lambda x, h: refs.smw_derivative(x.mats, h.h_mats)),
            ("smw_rhs", rhs, once(rhs), refs.smw_inverse,
             lambda x, h: refs.smw_derivative(x.mats, h.h_mats)),
            ("rational_triple", rational, once(rational), refs.rational_triple,
             catalog.rational_triple_derivative),
        ]
        self.sizes = [(4, 3), (6, 4)] if self.smoke else [(48, 32), (96, 64)]
        self.warm_up()

    def tasks(self, round_index):
        sizes = [(3, 2)] if round_index < 0 else self.sizes
        pos = 0
        for nu, nv in sizes:
            for label, f, evaluate, reference, closed_form in self.maps:
                q = f.source_quiver
                dims = {"u": nu} if len(q.vertices) == 1 else {"u": nu, "v": nv}
                x = fq.random_rep(q, dims, self.seed_for(round_index, pos, "x"))
                size = "x".join(str(dims[v]) for v in q.vertices)
                yield Task(f"eval:{label}@{size}", digest(x.mats), self._eval(evaluate, reference, x))
                h = fq.random_direction(x, self.seed_for(round_index, pos, "h"))
                yield Task(f"deriv:{label.removesuffix('_twice')}@{size}", digest(x.mats, h.h_mats),
                           self._deriv(f, closed_form, x, h))
                pos += 1

    @staticmethod
    def _eval(evaluate, reference, x):
        def run():
            got = evaluate(x)
            err = refs.worst_rel_err(got, reference(x.mats))
            return Outcome(err <= EVAL_TOL, err, "matches", digest(got))
        return run

    @staticmethod
    def _deriv(f, closed_form, x, h):
        def run():
            dd, refused = derivative_or_refusal(f, x, h)
            if refused is not None:
                return refused
            err = refs.worst_rel_err(dd.h_mats, closed_form(x, h))
            return Outcome(err <= DERIV_TOL, err, "matches", digest(dd.h_mats))
        return run


# ---------------------------------------------------------------------------

def _machine_records(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.decode("utf-8").splitlines() if line.strip()]


def _rep_mats(record: dict) -> dict:
    return {a: np.array([[complex(re, im) for re, im in row] for row in m], dtype=np.complex128)
            for a, m in record["mats"].items()}


# Two trials keep check-free near the cost of the other invocations, so the
# run's quantiles do not straddle one slow kind; every check still runs.
CHECK_FREE_TRIALS = 2


class CliRoundtrip(Workload):
    name = "cli_roundtrip"
    rss_of_children = True

    def setup(self):
        self.files = {}
        for label, f in (("block_inverse", catalog.block_inverse_map()),
                         ("schur", catalog.schur_map()),
                         ("ppt", catalog.ppt_map("pivot_D"))):
            path = self.workdir / f"{self.name}-{label}.json"
            path.write_text(fq.dumps(f), encoding="utf-8")
            self.files[label] = str(path.relative_to(self.root))
        self.point_path = self.workdir / f"{self.name}-point.json"
        # one cold start first, so the file and bytecode caches are as warm as a user's
        self._cli(["certify", "--map", self.files["schur"], "--dims", "u=2,v=2", "--seed", "0"])

    def _cli(self, args: list[str]) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        argv = [*args, "--format", "machine"]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "freequiver.cli", *argv]
        else:
            spans_path = self.workdir / f"{self.name}-spans.json"
            env["PERFBENCH_SPANS"] = str(spans_path)
            cmd = [sys.executable, str(Path(__file__).with_name("clitrace.py")), *argv]
        done = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, timeout=170)
        if self.tracer is not None:
            recorded = json.loads(spans_path.read_text(encoding="utf-8"))
            self.tracer.extend(recorded["spans"], self.tracer.task)
            self.child_import_s.append(recorded["import_s"])
        return done

    def tasks(self, round_index):
        nu, nv = (3, 2) if self.smoke else (12, 8)
        x = fq.random_rep(catalog.sch_quiver(), {"u": nu, "v": nv}, self.seed_for(round_index, 0, "x"))
        self.point_path.write_text(fq.dumps(x), encoding="utf-8")
        point = str(self.point_path.relative_to(self.root))
        eval_args = ["eval", "--map", self.files["block_inverse"], "--rep", point]
        first = {}

        def run_eval():
            done = self._cli(eval_args)
            first["stdout"] = done.stdout
            records = _machine_records(done.stdout) if done.returncode == 0 else []
            err = refs.worst_rel_err(_rep_mats(records[0]), refs.block_inverse(x.mats)) if records else math.inf
            return Outcome(done.returncode == 0 and err <= EVAL_TOL, err, "exit0", digest(done.stdout))

        def run_repeat():
            done = self._cli(eval_args)
            same = done.returncode == 0 and done.stdout == first.get("stdout")
            return Outcome(same, None, "identical" if same else "differs", digest(done.stdout))

        def certify(label, want_code, want_status, seed):
            def run():
                done = self._cli(["certify", "--map", self.files[label], "--dims", "u=3,v=2",
                                  "--seed", str(seed)])
                statuses = [r.get("status") for r in _machine_records(done.stdout)
                            if r.get("kind") == "certificate"]
                ok = done.returncode == want_code and statuses == [want_status]
                return Outcome(ok, None, f"exit{done.returncode}:{statuses}", digest(done.stdout))
            return run

        def check_free(seed):
            def run():
                done = self._cli(["check-free", "--map", self.files["ppt"], "--dims", "u=2,v=2",
                                  "--seed", str(seed), "--trials", str(CHECK_FREE_TRIALS)])
                reports = [r for r in _machine_records(done.stdout) if r.get("kind") == "conformance"]
                ok = (done.returncode == 0 and len(reports) == 1 and reports[0]["passed"]
                      and len(reports[0]["checks"]) == 4)
                err = max((c["max_residual"] for c in reports[0]["checks"].values()), default=math.inf) \
                    if reports else math.inf
                return Outcome(ok, err, f"exit{done.returncode}", digest(done.stdout))
            return run

        seed_s = self.seed_for(round_index, 1, "seed") % 2 ** 31
        seed_p = self.seed_for(round_index, 2, "seed") % 2 ** 31
        seed_c = self.seed_for(round_index, 3, "seed") % 2 ** 31
        yield Task("eval:block_inverse", digest(x.mats), run_eval)
        yield Task("certify:schur", digest(seed_s), certify("schur", 1, "collision", seed_s))
        yield Task("certify:ppt", digest(seed_p), certify("ppt", 0, "full_rank", seed_p))
        yield Task("check-free:ppt", digest(seed_c), check_free(seed_c))
        yield Task("eval:block_inverse:repeat", digest(x.mats), run_repeat)


WORKLOADS = {w.name: w for w in (CertifyJacobian, ConformanceSweep, EvalLarge, CliRoundtrip)}

