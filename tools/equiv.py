"""Equivalence check: the outputs of this checkout against those of a base revision.

    python tools/equiv.py --base REV [--quick] [--default-threads]

Exports REV with `git archive` into a temporary directory, then runs one
fixed corpus against that tree and against this checkout (the working tree,
uncommitted edits included), each in its own child process that imports the
package from the tree's src/. BLAS runs at one thread unless
--default-threads leaves the thread variables as the caller set them. Every
record that differs is printed, with the path of each differing field when
the record is JSON structure, and the relative gap of two differing float.hex
values; the exit status is 0 when none does, 1 when some do and 2 when a
child fails.

The corpus:

* benchmark tasks: (kind, inputs, ok, verdict, output) of every task of every
  workload in perfbench/workloads.py (this checkout's copy, with its root
  set to the tree under test) over rounds 0-1 for seeds 1-2. The output is
  the task's digest, except for conformance_sweep, whose JSON report is
  kept, and cli_roundtrip's check-free, whose machine records are kept (the
  workloads' digest of a CLI stdout is replaced by the stdout itself), so
  that a difference there names its field;
* `demo NAME --format machine` for every demo at seeds 1 and 7;
* regularity: is_regular's records (sigmas as float.hex), eval_map's image
  bytes or its error, over the catalog maps with inverse nodes, a map
  composed with itself, a map that repeats outer inverse nodes over an inner
  one that fails where x2 is singular, and two random rational maps
  inv(2I + p). Profiles include zero dimensions; points are random, are
  scaled to 1e+-150, have one arc zeroed, or have one square arc's condition
  number set to 5e9, 2e10 or 1e13;
* calculus: the bytes of derivative_matrix and of directional_derivative
  along a random direction, and every ift_certificate field (sigmas as
  float.hex, the bytes of the singular values, the collision direction, rep1
  and rep2), or the error raised, over the regularity maps, two catalog
  polynomial maps, two random polynomial maps, a map whose vertex_map swaps
  the vertices and a map onto a quiver without arcs, at the regularity
  corpus's profiles and points, and x -> x^2 at diag(1, -1, 2), whose square
  J has a kernel;
* intertwiners: the bytes of intertwiner_space bases for a point and itself,
  a conjugate, a random point and its direct sum with another, on five
  quivers (one without arcs);
* block points: the dims and bytes of direct_sum, mixed_block_rep (the Rep
  of reps.block_points(x, y, u), which is a Rep itself or, in older trees, a
  Points tuple of dims and mats) and block_extend for
  points x != y on the intertwiner quivers, y at x's profile and at the next
  one, and gamma_commutation_check (float.hex) for a random gamma over the
  calculus maps at the same pairs;
* serialization: the dims and bytes of loads(dumps(x)), or its error, for a
  random point at every corpus profile with a zero dimension on the same
  quivers;
* derive: `derive --seed 9 --format machine` (exit code, records, stderr) for
  schur, ppt_D, block_inverse and a random polynomial map at a 3/2 point
  scaled by 1, 1e-3 and 1e120;
* conformance: run_conformance(...).as_dict() with all four checks over the
  calculus maps and a map whose inverse fails wherever u > v, at small
  profiles with three trials each, so that every profile runs as one stack
  of three (rank_limited skips a whole profile through the fallback to
  stacks of one); this part takes about half a second, so
  --quick takes about as long as with one trial per stack;
* block tolerance: with calculus.BLOCK_TOL patched to -1 and to 1e-15, the
  calculus outputs at one random point per profile and the conformance
  records; directional_derivative, the one path with block checks, then
  carries BlockMismatchError messages.

--quick keeps one seed and one round of the benchmark tasks and one demo
seed; the regularity corpus is always whole. Bits depend on the machine and
on the BLAS thread count, so both trees run on the same machine here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROFILES = {1: [(0,), (1,), (3,), (6,)],
            2: [(3, 2), (2, 3), (0, 2), (3, 0), (0, 0), (1, 1), (6, 4)]}
KAPPAS = (5e9, 2e10, 1e13)
BLOCK_TOLS = (-1.0, 1e-15)
RANDOM_POINTS = 3


def short(value) -> str:
    """value as text, or a digest of it when the text is long."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 48:
        return text
    return "blake2b:" + hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def array_digest(*arrays) -> str:
    import numpy as np

    h = hashlib.blake2b(digest_size=12)
    for a in arrays:
        h.update(repr(np.shape(a)).encode() + np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def mats_digest(mats) -> str:
    return array_digest(*(m for _, m in sorted(mats.items()))) + ":" + ",".join(sorted(mats))


def hexed(v):
    return None if v is None else float(v).hex()


# ---------------------------------------------------------------------------
# The corpus, run inside a child process against one tree

def bench_records(tree: Path, seeds, rounds):
    sys.path.insert(0, str(CHECKOUT / "perfbench"))
    import workloads

    hash_parts = workloads.digest

    def digest(*parts):  # a CLI task's stdout stays text
        if len(parts) == 1 and isinstance(parts[0], bytes):
            return parts[0].decode("utf-8")
        return hash_parts(*parts)

    workloads.digest = digest
    workdir = tree / ".equiv_work"
    workdir.mkdir(exist_ok=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            for seed in seeds:
                workload = cls(tree, workdir, seed, False)
                workload.setup()
                for r in rounds:
                    for pos, task in enumerate(workload.tasks(r)):
                        out = task.run()
                        if name == "conformance_sweep":
                            output = json.loads(out.digest)
                        elif task.kind.startswith("check-free"):
                            output = workloads._machine_records(out.digest.encode("utf-8"))
                        else:
                            output = short(out.digest)
                        key = f"bench/{name}/seed{seed}/round{r}/{pos}"
                        yield key, [task.kind, task.inputs, bool(out.ok), out.verdict, output]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def demo_records(seeds):
    from freequiver.cli import DEMO_NAMES, main

    for name in DEMO_NAMES:
        for seed in seeds:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["demo", name, "--seed", str(seed), "--format", "machine"])
            yield f"demo/{name}/seed{seed}", [code, short(out.getvalue()), err.getvalue()]


def regularity_maps():
    import freequiver as fq
    from freequiver import catalog
    from freequiver.exprs import Add, Atom, Id, Inv, Mul, Scale

    sch, two_loop = catalog.sch_quiver(), fq.classical_embed(2)
    x1, x2, x12, x21 = (Atom(a) for a in ("x1", "x2", "x12", "x21"))
    x2_inv = Inv(x2)
    # outer nodes at u and at v over x2^-1, each repeated across the entries
    outer_u = Inv(Add((x1, Mul((x12, x2_inv, x21)))))
    outer_v = Inv(Add((x2, Mul((x21, x12, x2_inv)))))
    repeated = fq.FreeMapDef(sch, sch, {
        "x1": Mul((outer_u, x1, outer_u)),
        "x2": Add((x2_inv, Mul((x21, outer_u, x12)))),
        "x12": Mul((outer_u, x12, outer_v)),
        "x21": Mul((x2_inv, outer_v, x21, outer_u)),
    })
    maps = [
        ("schur", catalog.schur_map()),
        ("ppt_D", catalog.ppt_map("pivot_D")),
        ("ppt_A", catalog.ppt_map("pivot_A")),
        ("block_inverse", catalog.block_inverse_map()),
        ("block_inverse_twice", fq.compose_maps(catalog.block_inverse_map(),
                                                catalog.block_inverse_map())),
        ("smw_lhs", catalog.smw_lhs_map()),
        ("smw_rhs", catalog.smw_rhs_map()),
        ("rational_triple", catalog.rational_triple_map()),
        ("repeated_outer", repeated),
    ]
    for seed in (3, 4):
        p = fq.random_polynomial_map(two_loop, two_loop, seed, max_degree=2)
        entries = {a: Inv(Add((Scale(2, Id("u")), e))) for a, e in p.entries.items()}
        maps.append((f"rational_{seed}", fq.FreeMapDef(two_loop, two_loop, entries)))
    return maps


def regularity_points(q, dims):
    import numpy as np
    import freequiver as fq

    base = fq.random_rep(q, dims, 0)
    for seed in range(RANDOM_POINTS):
        yield f"random{seed}", fq.random_rep(q, dims, seed)
    for a in q.arcs:
        mats = dict(base.mats)
        mats[a.name] = np.zeros_like(mats[a.name])
        yield f"zero_{a.name}", fq.Rep(q, dims, mats)
    for scale in (1e150, 1e-150):
        yield f"scaled{scale:g}", fq.Rep(q, dims, {a: m * scale for a, m in base.mats.items()})
    rng = np.random.Generator(np.random.PCG64(11))
    for a in q.arcs:
        n = dims[a.src]
        if a.src != a.dst or n < 2:
            continue
        for kappa in KAPPAS:
            u, v = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
                    for _ in range(2))
            mats = dict(base.mats)
            mats[a.name] = (u * np.geomspace(1.0, 1.0 / kappa, n)) @ v
            yield f"kappa{kappa:g}_{a.name}", fq.Rep(q, dims, mats)


def outcome(fn, *args):
    """fn(*args), or the error it raised: an error is an output too."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001
        return [type(e).__name__, str(e), getattr(e, "node", None), getattr(e, "entry", None)]


def regularity_records():
    import freequiver as fq

    def diagnostics(f, x):
        ok, diags = fq.is_regular(f, x)
        return [bool(ok)] + [[d.entry, d.node, float(d.sigma_min).hex(),
                              float(d.sigma_max).hex(), bool(d.ok)] for d in diags]

    def image(f, x):
        return mats_digest(fq.eval_map(f, x).mats)

    for label, f in regularity_maps():
        q = f.source_quiver
        for profile in PROFILES[len(q.vertices)]:
            dims = dict(zip(q.vertices, profile))
            for point, x in regularity_points(q, dims):
                key = f"{label}/{'x'.join(map(str, profile))}/{point}"
                yield f"is_regular/{key}", outcome(diagnostics, f, x)
                yield f"eval_map/{key}", outcome(image, f, x)


def calculus_maps():
    import freequiver as fq
    from freequiver import catalog
    from freequiver.exprs import Add, Atom, Inv, Mul
    from freequiver.quivers import Quiver

    sch = catalog.sch_quiver()
    x1, x2, x12, x21 = (Atom(a) for a in ("x1", "x2", "x12", "x21"))
    # the target's u is the source's v and the other way round
    swapped = fq.FreeMapDef(sch, sch, {
        "x1": Add((x2, Mul((x21, x1, x12)))),
        "x2": Add((x1, Mul((x12, Inv(x2), x21)))),
        "x12": x21,
        "x21": Mul((x12, x2)),
    }, {"u": "v", "v": "u"})
    two_loop = fq.classical_embed(2)
    return regularity_maps() + [
        ("intertwine_demo", catalog.intertwine_demo_map()),
        ("cbh3", catalog.cbh_truncated(3)),
        ("swapped", swapped),
        ("arcless_target", fq.FreeMapDef(sch, Quiver(("u", "v"), ()), {})),
    ] + [(f"poly_{seed}", fq.random_polynomial_map(two_loop, two_loop, seed, max_degree=3))
         for seed in (5, 6)]


def calculus_outputs(f, x):
    """(name, output) of derivative_matrix, directional_derivative and
    ift_certificate at x."""
    import freequiver as fq

    def jacobian():
        return array_digest(fq.derivative_matrix(f, x).matrix)

    def derivative():
        return mats_digest(fq.directional_derivative(f, x, fq.random_direction(x, 5)).h_mats)

    def certificate():
        c = fq.ift_certificate(f, x)
        return [c.status, hexed(c.sigma_min), hexed(c.sigma_max),
                array_digest(c.singular_values), c.kernel_dim, hexed(c.tol),
                None if c.direction is None else mats_digest(c.direction.h_mats),
                None if c.rep1 is None else mats_digest(c.rep1.mats),
                None if c.rep2 is None else mats_digest(c.rep2.mats),
                hexed(c.collision_residual), hexed(c.separation)]

    return [("derivative_matrix", outcome(jacobian)),
            ("directional_derivative", outcome(derivative)),
            ("ift_certificate", outcome(certificate))]


def calculus_records():
    import numpy as np

    import freequiver as fq
    from freequiver.exprs import Atom, Mul

    for label, f in calculus_maps():
        q = f.source_quiver
        for profile in PROFILES[len(q.vertices)]:
            dims = dict(zip(q.vertices, profile))
            for point, x in regularity_points(q, dims):
                key = f"{label}/{'x'.join(map(str, profile))}/{point}"
                for name, value in calculus_outputs(f, x):
                    yield f"{name}/{key}", value
    # x -> x^2 at diag(1, -1, 2): a square 9x9 J with a kernel of dimension 2,
    # so a collision is certified from a J that is not wide (its direction
    # comes from numerics.values_first_kernel, not from J's singular vectors)
    loop = fq.classical_embed(1)
    square = fq.FreeMapDef(loop, loop, {"x": Mul((Atom("x"), Atom("x")))})
    x = fq.Rep(loop, {"u": 3}, {"x": np.diag([1.0, -1.0, 2.0]).astype(np.complex128)})
    for name, value in calculus_outputs(square, x):
        yield f"{name}/square/3/diag", value


def block_tol_records():
    """The calculus outputs at one random point and run_conformance, with the
    block-trick tolerance calculus.BLOCK_TOL patched: every block check of
    directional_derivative then fails (-1) or holds its exact residuals to
    1e-15, so its records carry BlockMismatchError messages and the
    residuals they print."""
    import freequiver as fq
    from freequiver import calculus

    saved = calculus.BLOCK_TOL
    for tol in BLOCK_TOLS:
        for label, f in calculus_maps():
            q = f.source_quiver
            calculus.BLOCK_TOL = tol
            try:
                records = [(f"{name}/{label}/{'x'.join(map(str, profile))}", value)
                           for profile in PROFILES[len(q.vertices)]
                           for name, value in calculus_outputs(
                               f, fq.random_rep(q, dict(zip(q.vertices, profile)), 0))]
                records += conformance_records([(label, f)])
            finally:
                calculus.BLOCK_TOL = saved
            for key, value in records:
                yield f"block_tol{tol:g}/{key}", value


def record_quivers():
    import freequiver as fq
    from freequiver import catalog
    from freequiver.quivers import Quiver

    return [("one_loop", fq.classical_embed(1)), ("two_loop", fq.classical_embed(2)),
            ("sch", catalog.sch_quiver()), ("smw", catalog.smw_quiver()),
            ("arcless", Quiver(("u", "v"), ()))]


def intertwiner_records():
    import freequiver as fq

    def basis(x, y):
        return [mats_digest(g.gammas) for g in fq.intertwiner_space(x, y)]

    for label, q in record_quivers():
        for profile in PROFILES[len(q.vertices)]:
            dims = dict(zip(q.vertices, profile))
            x, y = fq.random_rep(q, dims, 1), fq.random_rep(q, dims, 2)
            pairs = [("self", x, x), ("conjugate", fq.conjugate(x, fq.random_auto(x, 3)), x),
                     ("random", x, y), ("sum", fq.direct_sum(x, y), x)]
            for name, a, b in pairs:
                key = f"intertwiner_space/{label}/{'x'.join(map(str, profile))}/{name}"
                yield key, outcome(basis, a, b)


def point_pairs(q):
    """(key, x, y): x at each corpus profile, y != x at that profile and at
    the next one."""
    import freequiver as fq

    profiles = PROFILES[len(q.vertices)]
    for i, p in enumerate(profiles):
        for other in (p, profiles[(i + 1) % len(profiles)]):
            x = fq.random_rep(q, dict(zip(q.vertices, p)), 1)
            y = fq.random_rep(q, dict(zip(q.vertices, other)), 2)
            yield f"{'x'.join(map(str, p))}+{'x'.join(map(str, other))}", x, y


def block_records():
    import numpy as np
    import freequiver as fq
    from freequiver import calculus, reps

    def mixed_block_rep(x, y, u):  # calculus.mixed_block_rep where it is still there
        if hasattr(calculus, "mixed_block_rep"):
            return calculus.mixed_block_rep(x, y, u)
        z = reps.block_points(x, y, u)
        return z if isinstance(z, fq.Rep) else fq.Rep(x.quiver, *z)

    def gaussians(shapes, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        return {k: rng.standard_normal(s) + 1j * rng.standard_normal(s) for k, s in shapes.items()}

    def point(z):
        return [z.dims, mats_digest(z.mats)]

    for label, q in record_quivers():
        for key, x, y in point_pairs(q):
            u = gaussians({a.name: (x.dims[a.dst], y.dims[a.src]) for a in q.arcs}, 3)
            yield f"direct_sum/{label}/{key}", outcome(lambda: point(fq.direct_sum(x, y)))
            yield f"mixed_block_rep/{label}/{key}", outcome(lambda: point(mixed_block_rep(x, y, u)))
            yield f"block_extend/{label}/{key}", outcome(
                lambda: point(fq.block_extend(x, fq.random_direction(x, 4))))
    for label, f in calculus_maps():
        for key, x, y in point_pairs(f.source_quiver):
            gamma = fq.NatTrans(y, x, gaussians({v: (x.dims[v], y.dims[v]) for v in x.dims}, 5))
            yield f"gamma_commutation_check/{label}/{key}", outcome(
                lambda: hexed(fq.gamma_commutation_check(f, x, y, gamma)))


def round_trip_records():
    import freequiver as fq

    def round_trip(x):
        y = fq.loads(fq.dumps(x))
        return [y.dims, mats_digest(y.mats)]

    for label, q in record_quivers():
        for profile in PROFILES[len(q.vertices)]:
            if 0 in profile:
                x = fq.random_rep(q, dict(zip(q.vertices, profile)), 1)
                yield f"round_trip/{label}/{'x'.join(map(str, profile))}", outcome(round_trip, x)


def derive_records():
    import freequiver as fq
    from freequiver import catalog
    from freequiver.cli import main

    sch = catalog.sch_quiver()
    x = fq.random_rep(sch, {"u": 3, "v": 2}, 9)
    maps = [("schur", catalog.schur_map()), ("ppt_D", catalog.ppt_map("pivot_D")),
            ("block_inverse", catalog.block_inverse_map()),
            ("poly", fq.random_polynomial_map(sch, sch, 8, max_degree=3))]
    with tempfile.TemporaryDirectory(prefix="equiv-derive-") as tmp:
        map_path, rep_path = Path(tmp) / "f.json", Path(tmp) / "x.json"
        for label, f in maps:
            map_path.write_text(fq.dumps(f), encoding="utf-8")
            for scale in (1.0, 1e-3, 1e120):
                rep_path.write_text(fq.dumps(fq.Rep(sch, x.dims, {
                    a: m * scale for a, m in x.mats.items()})), encoding="utf-8")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["derive", "--map", str(map_path), "--rep", str(rep_path),
                                 "--seed", "9", "--format", "machine"])
                yield f"derive/{label}/3x2/scale{scale:g}", [
                    code, [json.loads(line) for line in out.getvalue().splitlines()],
                    err.getvalue()]


def rank_limited_map():
    """x1 -> (x12 x21)^-1 on the Schur quiver: singular wherever u > v."""
    import freequiver as fq
    from freequiver import catalog
    from freequiver.exprs import Atom, Inv, Mul

    x2, x12, x21 = (Atom(a) for a in ("x2", "x12", "x21"))
    return fq.FreeMapDef(catalog.sch_quiver(), catalog.sch_quiver(),
                         {"x1": Inv(Mul((x12, x21))), "x2": x2, "x12": x12, "x21": x21})


def conformance_records(maps):
    import freequiver as fq

    profiles = {1: [(1,), (2,)], 2: [(1, 1), (2, 1), (0, 2)]}
    out = []
    for label, f in maps:
        q = f.source_quiver
        points = [dict(zip(q.vertices, p)) for p in profiles[len(q.vertices)]]
        plan = fq.TrialPlan(7, 3 * len(points), points)
        out.append((f"run_conformance/{label}",
                    outcome(lambda: fq.run_conformance(f, plan).as_dict())))
    return out


def run_corpus(tree: Path, quick: bool) -> None:
    sys.path.insert(0, str(tree / "src"))
    import freequiver

    if not Path(freequiver.__file__).resolve().is_relative_to(tree.resolve()):
        raise ImportError(f"freequiver came from {freequiver.__file__}, not from {tree}")
    seeds, rounds, demo_seeds = ((1,), (0,), (1,)) if quick else ((1, 2), (0, 1), (1, 7))
    for records in (regularity_records(), calculus_records(), intertwiner_records(),
                    block_records(), round_trip_records(), derive_records(),
                    conformance_records(calculus_maps() + [("rank_limited", rank_limited_map())]),
                    block_tol_records(),
                    demo_records(demo_seeds),
                    bench_records(tree, seeds, rounds)):
        for key, value in records:
            print(json.dumps([key, value]), flush=True)


# ---------------------------------------------------------------------------
# The comparison

def export(rev: str, into: Path) -> None:
    done = subprocess.run(["git", "archive", "--format=tar", rev], cwd=CHECKOUT,
                          capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        # the "data" filter refuses links and paths that leave the directory
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def start_child(tree: Path, out: Path, quick: bool, default_threads: bool) -> subprocess.Popen:
    """The corpus against tree in a child process, its records written to out
    and its errors to out with the suffix .err."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    if not default_threads:
        env.update({var: "1" for var in THREAD_VARS})
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(tree)]
    with open(out, "w") as stdout, open(out.with_suffix(".err"), "w") as stderr:
        return subprocess.Popen(argv + (["--quick"] if quick else []), env=env, cwd=tree,
                                stdout=stdout, stderr=stderr)


def collect(child: subprocess.Popen, out: Path) -> dict:
    if child.wait() != 0:
        err = out.with_suffix(".err").read_text()
        raise RuntimeError(f"the corpus failed on {out.stem} (exit {child.returncode}):\n{err}")
    return dict(map(json.loads, out.read_text().splitlines()))


def field_diffs(base, head, path=""):
    """(path, base value, head value) for every field where two JSON values
    differ; values compare as JSON text, so equal NaNs are equal."""
    if isinstance(base, dict) and isinstance(head, dict):
        for k in list(base) + [k for k in head if k not in base]:
            yield from field_diffs(base.get(k, "<absent>"), head.get(k, "<absent>"), f"{path}/{k}")
    elif isinstance(base, list) and isinstance(head, list) and len(base) == len(head):
        for i, (b, h) in enumerate(zip(base, head)):
            yield from field_diffs(b, h, f"{path}/{i}")
    elif json.dumps(base) != json.dumps(head):
        yield path, base, head


def hex_gap(base, head) -> str:
    """A line with the relative gap |base - head| / max(|base|, |head|) when
    both values are float.hex strings, else nothing."""
    if not all(isinstance(v, str) and v.lstrip("-").startswith("0x") for v in (base, head)):
        return ""
    try:
        b, h = float.fromhex(base), float.fromhex(head)
    except ValueError:
        return ""
    scale = max(abs(b), abs(h))
    return f"\n    rel gap: {abs(b - h) / scale if scale else 0.0:.3g}"


def compare(base: dict, head: dict) -> list[str]:
    lines = []
    for key in list(base) + [k for k in head if k not in base]:
        diffs = list(field_diffs(base.get(key, "<absent>"), head.get(key, "<absent>")))
        if diffs:
            lines.append(key + "".join(f"\n  {path or '.'}\n    base: {json.dumps(b)}\n"
                                       f"    head: {json.dumps(h)}" + hex_gap(b, h)
                                       for path, b, h in diffs))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare this checkout against")
    parser.add_argument("--quick", action="store_true",
                        help="one seed and one round of the benchmark tasks")
    parser.add_argument("--default-threads", action="store_true",
                        help="leave the BLAS thread variables as they are")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_corpus(Path(args.child), args.quick)
        return 0
    if not args.base:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="equiv-") as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        export(args.base, base_tree)
        outs = {name: Path(tmp) / f"{name}.jsonl" for name in ("base", "head")}
        children = {name: start_child(tree, outs[name], args.quick, args.default_threads)
                    for name, tree in (("base", base_tree), ("head", CHECKOUT))}
        try:
            results = {name: collect(child, outs[name]) for name, child in children.items()}
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 2
        finally:
            for child in children.values():
                if child.poll() is None:
                    child.kill()
                    child.wait()
    diffs = compare(results["base"], results["head"])
    for line in diffs:
        print(line)
    print(f"equiv: {len(results['head'])} records against {args.base}, "
          f"{len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
