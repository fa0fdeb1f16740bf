"""Command-line entry point.

Subcommands: eval, derive, certify, check-free, demo, coeffs. Reports come
in two formats: "human" (right-to-left rendered expressions, per-check
lines) and "machine" (versioned line-delimited JSON records, byte-stable
for a fixed seed).

Exit codes: 0 all checks passed, 1 a check failed, 2 file/parse/usage
error, 3 evaluation outside the regularity domain (including a block-trick
evaluation whose diagonal blocks fail to reproduce f(X), which means the
point is effectively irregular or the map is not free, and a numerical
failure such as an SVD that does not converge on an overflowing point or an
image that is not finite).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .calculus import (
    IFT_TOL,
    central_difference,
    directional_derivative,
    ift_certificate,
    nilpotent_coefficients,
    nilpotent_matrix,
    observed_order,
    random_direction,
    scaled_residual,
)
from .catalog import (
    assemble_blocks,
    block_inverse_check,
    cbh_defect,
    ppt_derivative,
    ppt_map,
    sch_quiver,
    schur_derivative,
    schur_map,
    smw_check,
    smw_quiver,
)
from .conformance import TrialPlan, run_conformance
from .errors import BlockMismatchError, ParseError, RegularityError, TypecheckError
from .exprs import FreeMapDef, eval_map, render_expr
from .numerics import frob_norm, op_norm, worst
from .quivers import Quiver
from .reps import Rep, random_rep, rep_residual
from .serialize import parse_definition_file, rep_to_obj

RECORD_VERSION = 1
DEMO_NAMES = ("schur", "ppt", "block-inverse", "smw", "cbh", "nilpotent")
FD_EPS = 1e-6
FD_PASS_TOL = 1e-4


def parse_dims(text: str) -> dict[str, int]:
    """"u=3,v=2" -> {"u": 3, "v": 2}."""
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise ParseError(f"bad dims entry {part!r}: expected name=size")
        name, _, val = part.partition("=")
        name = name.strip()
        try:
            size = int(val)
        except ValueError:
            raise ParseError(f"bad dims entry {part!r}: size must be an integer")
        if not name or size < 0:
            raise ParseError(f"bad dims entry {part!r}")
        out[name] = size
    return out


def parse_poly(text: str) -> list[float]:
    """"1,4,0.5" -> [1, 4, 0.5]: integers that fit in int64 stay exact, any
    other coefficient is read as a float and must be finite."""
    out: list[float] = []
    for part in text.split(","):
        part = part.strip()
        try:
            c = int(part) if -2**63 <= int(part) < 2**63 else float(part)
        except ValueError:
            try:
                c = float(part)
            except ValueError:
                raise ParseError(f"bad coefficient {part!r}")
        if not np.isfinite(c):
            raise ParseError(f"coefficient {part!r} is not finite")
        out.append(c)
    return out


def resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("FREEQUIVER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"FREEQUIVER_SEED must be an integer, got {env!r}")
    return 0


# ---------------------------------------------------------------------------
# Report assembly

class Report:
    """Collects records; renders either format. A record is a flat dict with
    a "kind" key; "check" records carry passed/residual/tol."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.records: list[dict] = []
        self.lines: list[str] = []

    def record(self, kind: str, human: str | None = None, **fields) -> None:
        self.records.append({"v": RECORD_VERSION, "kind": kind, **fields})
        if human is not None:
            self.lines.append(human)

    def check(self, name: str, residual: float, tol: float, passed: bool | None = None,
              **extra) -> bool:
        ok = (residual <= tol) if passed is None else passed
        self.record(
            "check",
            human=f"{'ok  ' if ok else 'FAIL'} {name}  residual={residual:.3e}  tol={tol:.1e}",
            name=name,
            residual=float(residual),
            tol=float(tol),
            passed=bool(ok),
            **extra,
        )
        return ok

    @property
    def passed(self) -> bool:
        return all(r.get("passed", True) for r in self.records)

    def render(self) -> str:
        if self.fmt == "machine":
            return "".join(
                json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                for r in self.records
            )
        return "".join(line + "\n" for line in self.lines)


def _fmt_matrix(m: np.ndarray) -> str:
    if np.allclose(m.imag, 0.0):
        m = m.real
    return np.array2string(m, precision=6, suppress_small=True)


# ---------------------------------------------------------------------------
# Input loading

def _load_map(job: argparse.Namespace) -> FreeMapDef:
    if job.map_path is None:
        raise ParseError("this command needs --map FILE")
    f = parse_definition_file(job.map_path)
    if not isinstance(f, FreeMapDef):
        raise ParseError(f"{job.map_path}: expected a map definition")
    return f


def _load_point(job: argparse.Namespace, f: FreeMapDef) -> Rep:
    """The evaluation point: an explicit rep file, or a seeded random rep on
    the map's source quiver at --dims."""
    if job.rep_path is not None:
        x = parse_definition_file(job.rep_path)
        if not isinstance(x, Rep):
            raise ParseError(f"{job.rep_path}: expected a rep definition")
        if x.quiver != f.source_quiver:
            raise ParseError(
                f"{job.rep_path}: rep is over a different quiver than the map source"
            )
        return x
    return _random_point(job, f.source_quiver)


def _random_point(job: argparse.Namespace, q: Quiver, default=None) -> Rep:
    """A seeded random rep on q at --dims, or at the default dims when
    --dims is absent; every vertex of q needs a dimension."""
    dims = job.dims or default
    if dims is None:
        raise ParseError("this command needs --rep FILE or --dims k=v[,k=v...]")
    missing = [v for v in q.vertices if v not in dims]
    if missing:
        raise ParseError(f"--dims misses vertices {missing}")
    return random_rep(q, {v: dims[v] for v in q.vertices}, resolve_seed(job.seed))


def _zero_arc(x: Rep, arc: str) -> Rep:
    if not x.quiver.has_arc(arc):
        raise ParseError(f"--zero-arc {arc!r}: no such arc")
    mats = {a: m.copy() for a, m in x.mats.items()}
    mats[arc] = np.zeros_like(mats[arc])
    return Rep(x.quiver, dict(x.dims), mats)


# ---------------------------------------------------------------------------
# Commands

def _finite_image(f: FreeMapDef, x: Rep) -> Rep:
    """f(x), or FloatingPointError naming the first target arc whose image is
    not finite: eval, derive and certify all stop there with that line."""
    image = eval_map(f, x)
    for a in f.target_quiver.arc_names():
        if not np.isfinite(image.mats[a]).all():
            raise FloatingPointError(f"image not finite at arc {a!r}")
    return image


def cmd_eval(job: argparse.Namespace, rep: Report) -> int:
    f = _load_map(job)
    x = _load_point(job, f)
    image = _finite_image(f, x)
    obj = rep_to_obj(image)
    rep.records.append({"v": RECORD_VERSION, **obj})
    for a in f.target_quiver.arcs:
        rep.lines.append(f"{a.name} = {render_expr(f.entries[a.name])}")
        rep.lines.append(_fmt_matrix(image.mats[a.name]))
    return 0


def cmd_derive(job: argparse.Namespace, rep: Report) -> int:
    f = _load_map(job)
    x = _load_point(job, f)
    _finite_image(f, x)
    seed = resolve_seed(job.seed)
    h = random_direction(x, seed + 1)
    dd = directional_derivative(f, x, h)
    s = max((np.abs(m).max(initial=0.0) for m in x.mats.values()), default=0.0)
    eps = FD_EPS * (float(s) or 1.0)  # relative, so that X + eps H != X at any scale
    fd = central_difference(f, x, h, eps)
    residual = scaled_residual(dd, fd)
    tol = job.tol if job.tol is not None else FD_PASS_TOL
    for a in f.target_quiver.arcs:
        rep.record(
            "derivative_block",
            human=f"D[{a.name}] norm={frob_norm(dd.h_mats[a.name]):.6e}",
            arc=a.name,
            frobenius_norm=frob_norm(dd.h_mats[a.name]),
        )
        rep.lines.append(_fmt_matrix(dd.h_mats[a.name]))
    ok = rep.check("finite_difference", residual, tol, eps=eps)
    return 0 if ok else 1


def cmd_certify(job: argparse.Namespace, rep: Report) -> int:
    f = _load_map(job)
    x = _load_point(job, f)
    if job.zero_arc is not None:
        x = _zero_arc(x, job.zero_arc)
    _finite_image(f, x)
    tol = job.tol if job.tol is not None else IFT_TOL
    cert = ift_certificate(f, x, tol=tol)
    fields = {
        "status": cert.status,
        "sigma_min": float(cert.sigma_min),
        "sigma_max": float(cert.sigma_max),
        "kernel_dim": int(cert.kernel_dim),
        "tol": float(cert.tol),
    }
    if cert.status == "collision":
        fields["collision_residual"] = float(cert.collision_residual)
        fields["separation"] = float(cert.separation)
        rep.record(
            "certificate",
            human=(
                f"collision: derivative kernel dim {cert.kernel_dim}; two points "
                f"separated by {cert.separation:.3f} have images within "
                f"{cert.collision_residual:.3e}"
            ),
            **fields,
        )
        return 1
    rep.record(
        "certificate",
        human=(
            f"full_rank: sigma_min={cert.sigma_min:.6e} sigma_max={cert.sigma_max:.6e}"
        ),
        **fields,
    )
    return 0


def cmd_check_free(job: argparse.Namespace, rep: Report) -> int:
    f = _load_map(job)
    if job.dims is None:
        raise ParseError("check-free needs --dims k=v[,k=v...]")
    tol = job.tol if job.tol is not None else 1e-7
    plan = TrialPlan(resolve_seed(job.seed), job.trials, [job.dims], tolerance=tol)
    report = run_conformance(f, plan)
    rep.record(
        "conformance",
        human=None,
        **report.as_dict(),
    )
    for name in plan.checks:
        s = report.stats[name]
        status = "ok  " if s.failures == 0 else "FAIL"
        rep.lines.append(
            f"{status} {name}  executed={s.executed} skipped={s.skipped} "
            f"max_residual={s.max_residual:.3e}"
        )
    rep.lines.append("passed" if report.passed else "failed")
    return 0 if report.passed else 1


def _frob_rel_error(got, ref) -> float:
    """Worst Frobenius error over paired matrices, relative to the largest
    Frobenius norm in ref (at least 1e-30)."""
    num = worst(frob_norm(g - r) for g, r in zip(got, ref))
    return num / max(worst(frob_norm(r) for r in ref), 1e-30)


def _demo_schur(job: argparse.Namespace, rep: Report) -> None:
    seed = resolve_seed(job.seed)
    f = schur_map()
    x = _random_point(job, sch_quiver(), {"u": 3, "v": 2})
    h = random_direction(x, seed + 1)
    dd = directional_derivative(f, x, h)
    closed = schur_derivative(x, h)
    rep.check("derivative_closed_form", _frob_rel_error([dd.h_mats["x"]], [closed]), 1e-9)
    cert = ift_certificate(f, _zero_arc(x, "x21"))
    ok = (
        cert.status == "collision"
        and cert.collision_residual <= 1e-8
        and cert.separation >= 0.5
    )
    rep.check(
        "zero_block_collision",
        float(cert.collision_residual if cert.status == "collision" else np.inf),
        1e-8,
        passed=ok,
        separation=float(cert.separation or 0.0),
        status=cert.status,
    )


def _demo_ppt(job: argparse.Namespace, rep: Report) -> None:
    seed = resolve_seed(job.seed)
    x = _random_point(job, sch_quiver(), {"u": 3, "v": 2})
    h = random_direction(x, seed + 1)
    tol = job.tol if job.tol is not None else 1e-8
    for variant in ("pivot_D", "pivot_A"):
        f = ppt_map(variant)
        twice = eval_map(f, eval_map(f, x))
        rep.check(f"involution_{variant}", rep_residual(twice, x), tol)
        dd = directional_derivative(f, x, h)
        closed = ppt_derivative(x, h, variant)
        err = _frob_rel_error([dd.h_mats[a] for a in closed], list(closed.values()))
        rep.check(f"derivative_closed_form_{variant}", err, 1e-9)


def _demo_block_inverse(job: argparse.Namespace, rep: Report) -> None:
    x = _random_point(job, sch_quiver(), {"u": 3, "v": 2})
    tol = job.tol if job.tol is not None else 1e-9
    rep.check("block_inverse", block_inverse_check(x), tol)
    # consistency: the assembled inverse's leading block is the inverse of
    # the Schur complement produced by the scalar-valued map
    full_inv = np.linalg.inv(assemble_blocks(x))
    n = x.dims["u"]
    sch = eval_map(schur_map(), x).mats["x"]
    err = _frob_rel_error([np.linalg.inv(sch)], [full_inv[:n, :n]])
    rep.check("schur_complement_consistency", err, 1e-8)


def _demo_smw(job: argparse.Namespace, rep: Report) -> None:
    x = _random_point(job, smw_quiver(), {"u": 5, "v": 2})
    tol = job.tol if job.tol is not None else 1e-9
    rep.check("low_rank_update_inverse", smw_check(x), tol)


def _demo_cbh(job: argparse.Namespace, rep: Report) -> None:
    seed = resolve_seed(job.seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    x0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x0 /= op_norm(x0)
    y0 /= op_norm(y0)
    norms = [0.1, 0.05, 0.025]
    defects = [cbh_defect(t * x0, t * y0) for t in norms]
    for t, d in zip(norms, defects):
        rep.record(
            "cbh_defect",
            human=f"norm={t:g}  defect={d:.6e}",
            norm=t,
            defect=float(d),
        )
    slope = observed_order(norms, defects)
    ok = bool(slope >= 3.5)
    rep.record(
        "check",
        human=f"{'ok  ' if ok else 'FAIL'} defect_order  slope={slope:.3f}  min=3.5",
        name="defect_order",
        slope=float(slope),
        min_slope=3.5,
        passed=ok,
    )
    commuting = cbh_defect(0.1 * x0, 0.01 * (x0 @ x0))
    rep.check("commuting_inputs_exact", float(commuting), 1e-12)


def _demo_nilpotent(job: argparse.Namespace, rep: Report) -> None:
    # fixed integer scenario: p = 1 + 4x + 3x^3 read off a 3x3 nilpotent
    # point, exact in int64, so the machine output is golden-file safe
    poly = [1, 4, 0, 3]
    n = 3
    mat = nilpotent_matrix(poly, n)
    row = nilpotent_coefficients(poly, n)
    rep.record(
        "nilpotent_matrix",
        human="\n".join(" ".join(str(int(e)) for e in r) for r in mat),
        poly=poly,
        n=n,
        rows=[[int(e) for e in r] for r in mat],
    )
    rep.record(
        "coeffs",
        human=" ".join(str(int(c)) for c in row),
        row=[int(c) for c in row],
    )
    ok = [int(c) for c in row] == poly[:n]
    rep.check("top_row_reads_coefficients", 0.0 if ok else 1.0, 0.0, passed=ok)


DEMOS = {
    "schur": _demo_schur,
    "ppt": _demo_ppt,
    "block-inverse": _demo_block_inverse,
    "smw": _demo_smw,
    "cbh": _demo_cbh,
    "nilpotent": _demo_nilpotent,
}


def cmd_demo(job: argparse.Namespace, rep: Report) -> int:
    if job.demo not in DEMOS:
        raise ParseError(f"unknown demo {job.demo!r}; pick one of {DEMO_NAMES}")
    DEMOS[job.demo](job, rep)
    return 0 if rep.passed else 1


def _coeff_value(c):
    if isinstance(c, (int, np.integer)):
        return int(c)
    c = complex(c)
    return c.real if c.imag == 0 else [c.real, c.imag]


def cmd_coeffs(job: argparse.Namespace, rep: Report) -> int:
    if not job.poly or job.n is None:
        raise ParseError("coeffs needs --poly c0,c1,... and --n SIZE")
    row = nilpotent_coefficients(job.poly, job.n)
    values = [_coeff_value(c) for c in row]
    rep.record(
        "coeffs",
        human=" ".join(str(v) for v in values),
        poly=[_coeff_value(c) for c in job.poly],
        n=job.n,
        row=values,
    )
    return 0


COMMANDS = {
    "eval": cmd_eval,
    "derive": cmd_derive,
    "certify": cmd_certify,
    "check-free": cmd_check_free,
    "demo": cmd_demo,
    "coeffs": cmd_coeffs,
}


def run(job: argparse.Namespace) -> tuple[int, str]:
    """Execute one parsed invocation (dims and poly already converted by
    parse_dims/parse_poly); returns (exit code, report text). Parse and
    regularity errors propagate as exceptions for main() to map to codes."""
    rep = Report(job.format)
    code = COMMANDS[job.command](job, rep)
    return code, rep.render()


# ---------------------------------------------------------------------------
# Argument plumbing

def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "seed" in names:
        p.add_argument("--seed", type=int, default=None,
                       help="PRNG seed (default: $FREEQUIVER_SEED, then 0)")
    if "dims" in names:
        p.add_argument("--dims", type=str, default=None, metavar="k=v[,k=v...]",
                       help="vertex dimensions for sampled points")
    if "tol" in names:
        p.add_argument("--tol", type=float, default=None, help="pass threshold")
    if "trials" in names:
        p.add_argument("--trials", type=int, default=50, help="conformance trials")
    if "format" in names:
        p.add_argument("--format", choices=("human", "machine"), default="human")
    if "out" in names:
        p.add_argument("--out", type=str, default=None, help="write report here")
    if "zero-arc" in names:
        p.add_argument("--zero-arc", type=str, default=None,
                       help="zero this arc's matrix before running")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freequiver",
        description="Evaluate, differentiate, certify, and stress-test "
        "symbolic maps between quiver representation categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a map on a point")
    p.add_argument("--map", dest="map_path", required=True)
    p.add_argument("--rep", dest="rep_path", default=None)
    _add_common(p, "seed", "dims", "format", "out")

    p = sub.add_parser("derive", help="directional derivative + finite-difference check")
    p.add_argument("--map", dest="map_path", required=True)
    p.add_argument("--rep", dest="rep_path", default=None)
    _add_common(p, "seed", "dims", "tol", "format", "out")

    p = sub.add_parser("certify", help="injectivity certificate at a point")
    p.add_argument("--map", dest="map_path", required=True)
    p.add_argument("--rep", dest="rep_path", default=None)
    _add_common(p, "seed", "dims", "tol", "format", "out", "zero-arc")

    p = sub.add_parser("check-free", help="randomized freeness conformance")
    p.add_argument("--map", dest="map_path", required=True)
    _add_common(p, "seed", "dims", "tol", "trials", "format", "out")

    p = sub.add_parser("demo", help="run a named built-in scenario")
    p.add_argument("demo", choices=DEMO_NAMES)
    _add_common(p, "seed", "dims", "tol", "format", "out")

    p = sub.add_parser("coeffs", help="univariate coefficients via a nilpotent point")
    p.add_argument("--poly", type=str, required=True, metavar="c0,c1,...")
    p.add_argument("--n", type=int, required=True, help="matrix size / coefficient count")
    _add_common(p, "format", "out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:  # an overflowing point ends in one error line, without numpy's warnings
        with np.errstate(all="ignore"):
            if "dims" in args:
                args.dims = parse_dims(args.dims) if args.dims else None
            if "poly" in args:
                args.poly = parse_poly(args.poly) if args.poly else []
            code, text = run(args)
    # numerical failures; LinAlgError is a ValueError, but not a usage error
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ParseError, TypecheckError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RegularityError as e:
        print(f"regularity error: {e}", file=sys.stderr)
        return 3
    except BlockMismatchError as e:
        print(f"block mismatch: {e}", file=sys.stderr)
        return 3
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
