"""freequiver benchmark: one workload per run, one client, closed loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy. BLAS is pinned to one thread
before numpy loads. The loop sends the next task only after the previous one
has returned and been checked against its reference; a task's time runs from
the call to the verified result.

--trace 0 sets up, then runs whole rounds of the workload's tasks until the
next round would end after --seconds, and reports the end-to-end metrics:
tasks_per_s (the median over rounds of a round's tasks over the sum of their
times), task_ms_p50, task_ms_tail (at the workload's fixed percentile),
ok_ratio (tasks that returned the right verdict and met their reference),
ref_digits (-log10 of the 90th percentile of the relative errors against the
references), peak_rss_mb (of this process, or of the command-line children
for cli_roundtrip) and setup_s. Times are calibrated, see CAL_NOMINAL_S;
quantiles are Harrell-Davis estimates.

--trace 1 sets up, then runs each task of the workload's first trace_rounds
rounds twice, untraced and with every layer's public functions traced, and
reports per-layer calls, self times (span minus its child spans, summed over
the traced tasks) and counts, the tracing overhead, and whether both runs of
every task gave the same outputs. Spans are written to
.perfbench_work/spans-<workload>-<seed>.json.

setup_s is the median of five set-ups, each of which imports the package in
a fresh interpreter, builds the maps, writes the input files and runs a
small warm-up round.

Every line but the last is a JSON record for people: the environment, then
the run's details, raw timings among them. The last line is the result:
correct, attempted, failed and metrics. --smoke shrinks every size so the
whole run takes seconds; the smoke test uses it. Exit status is 0 when a
result was printed, 2 when the checkout has no package to benchmark.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
# Bytecode of this process and of every interpreter it starts is written
# here, not next to the sources, so a run writes nothing under src/. It is
# written even where the environment turns bytecode off: an installed package
# has its bytecode, and a command-line run that recompiled every module would
# time the compiler.
PYCACHE = WORKDIR / "pycache"
SETUP_REPS = 5
ERR_FLOOR = 1e-17

# The machine this runs on is shared: the same code's speed drifts by half
# within tens of seconds, and CPU time drifts with it (seen with a fixed
# certificate loop on a 2-core Xeon VM). Timed runs therefore scale their
# times by a calibration kernel that uses nothing from the package and runs
# after every task that ends CAL_EVERY_S or more after the last sample. The
# slow spells last about a second and come and go, so each task's time is
# multiplied by CAL_NOMINAL_S / (kernel time interpolated across the task),
# which reports it at the speed the machine had when the kernel took
# CAL_NOMINAL_S. The details record keeps the raw figures.
CAL_NOMINAL_S = 0.0025
CAL_EVERY_S = 0.05
_CAL_RNG = np.random.default_rng(2506)
_CAL_A = _CAL_RNG.standard_normal((12, 12)) + 1j * _CAL_RNG.standard_normal((12, 12))


def calibration_s() -> float:
    """Seconds for a fixed mix of small complex products, inverses and
    2-norms, the kind of work the package does at small sizes; the fastest
    of three runs, so one interruption does not count. The sequence cycles
    through A^2, A^-2, A^-1 and A up to scale, so it stays well
    conditioned."""
    best = math.inf
    for _ in range(3):
        m = _CAL_A
        start = time.perf_counter()
        for i in range(60):
            m = np.linalg.inv(m) if i % 2 else m @ _CAL_A
            m = m / np.linalg.norm(m, 2)
        best = min(best, time.perf_counter() - start)
    return best


def load_package():
    """Import freequiver from this checkout's src/ or raise ImportError."""
    if not (SRC / "freequiver" / "__init__.py").is_file():
        raise ImportError(f"no package at {SRC.relative_to(ROOT)}/freequiver")
    sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    sys.dont_write_bytecode = False
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.path.insert(0, str(SRC))
    import freequiver
    if not Path(freequiver.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"freequiver was imported from {freequiver.__file__}, not from src/")
    return freequiver


def fresh_import_s() -> float:
    """Seconds to import the package in a new interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import freequiver; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


# ---------------------------------------------------------------------------
# Environment record

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    sources = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.blake2b(digest_size=16)
    src_lines = 0
    for path in sources:
        data = path.read_bytes()
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_digest": src_hash.hexdigest(),
        "src_py_lines": src_lines,
        "clients": 1,
        "loop": "closed",
    }


# ---------------------------------------------------------------------------
# Running tasks

def run_task(task):
    """(start, seconds, outcome); a task that raises has failed."""
    from workloads import Outcome
    start = time.perf_counter()
    try:
        outcome = task.run()
    except Exception as exc:  # a raising task is a failed task, not a crashed run
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(False, None, f"raised {type(exc).__name__}", "")
    elapsed = time.perf_counter() - start
    if not outcome.ok:
        print(f"task failed: {task.kind}: {outcome.verdict} err={outcome.err}", file=sys.stderr)
    return start, elapsed, outcome


def run_round(workload, round_index, results, after_task):
    """Run one round's tasks; append (kind, seconds, outcome, inputs)."""
    for task in workload.tasks(round_index):
        start, elapsed, outcome = run_task(task)
        results.append((task.kind, elapsed, outcome, task.inputs))
        after_task(start, start + elapsed)


def quantile(samples, p):
    """Harrell-Davis estimate of the p-th quantile, 0 < p < 1.

    A weighted mean of all order statistics with Beta((n+1)p, (n+1)(1-p))
    weights. A round holds one or two tasks of each kind, so the samples form
    blocks of a few values each; the plain sample median can fall between two
    blocks and read the extreme values of each, while this estimate averages
    the order statistics around the quantile."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = np.linspace(0.0, 1.0, 40001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def error_digits(results):
    """(digits at the 90th percentile of relative error, worst error).

    The worst error of a run is set by its single worst-conditioned random
    draw and moves by whole digits from seed to seed; the 90th percentile
    still shows a loss of accuracy on a tenth of the tasks."""
    errs = [o.err for _, _, o, _ in results if o.err is not None]
    if not errs:
        return -math.log10(ERR_FLOOR), None
    p90 = float(np.percentile(errs, 90))
    digits = -math.log10(max(p90, ERR_FLOOR)) if math.isfinite(p90) else 0.0
    return digits, max(errs)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def round0_digests(results, round_len):
    head = results[:round_len]
    verdicts = hashlib.blake2b("|".join(f"{k}={o.verdict}" for k, _, o, _ in head).encode(),
                               digest_size=12).hexdigest()
    inputs = hashlib.blake2b("|".join(i for _, _, _, i in head).encode(), digest_size=12).hexdigest()
    return verdicts, inputs


def local_scales(task_spans, cal_points):
    """CAL_NOMINAL_S over the calibration time averaged across each task,
    read from the straight line between successive calibration samples."""
    cal_t = np.array([t for t, _ in cal_points])
    cal_v = np.array([v for _, v in cal_points])
    return [CAL_NOMINAL_S / float(np.mean(np.interp(np.linspace(start, end, 16), cal_t, cal_v)))
            for start, end in task_spans]


def timed(workload, seconds):
    """Whole rounds, until the next one would end after `seconds`."""
    results = []
    task_spans = []
    cal_points = [(time.perf_counter(), calibration_s())]

    def after_task(start, end):
        task_spans.append((start, end))
        if end - cal_points[-1][0] >= CAL_EVERY_S:
            cal_points.append((time.perf_counter(), calibration_s()))

    start = time.perf_counter()
    round_ends = []
    while True:
        run_round(workload, len(round_ends), results, after_task=after_task)
        round_ends.append(len(results))
        spent = time.perf_counter() - start
        if spent + spent / len(round_ends) > seconds:
            break
    rounds = len(round_ends)
    round_len = round_ends[0]
    cal_points.append((time.perf_counter(), calibration_s()))
    scaled = [t * k for (_, t, _, _), k in zip(results, local_scales(task_spans, cal_points))]
    # the median round's throughput: a slow spell the calibration misses
    # lands in one round instead of in the whole run's mean
    per_round = [scaled[a:b] for a, b in zip([0] + round_ends[:-1], round_ends)]
    tasks_per_s = statistics.median(len(r) / sum(r) for r in per_round)
    raw = [t for _, t, _, _ in results]
    failed = sum(1 for _, _, o, _ in results if not o.ok)
    tail = quantile(scaled, workload.tail_pct / 100)
    digits, worst = error_digits(results)
    verdicts, inputs = round0_digests(results, round_len)
    details = {
        "rounds": rounds,
        "samples": len(raw),
        "loop_s": spent,
        "task_ms_tail_percentile": workload.tail_pct,
        "task_ms_tail_samples_above": sum(1 for t in scaled if t > tail),
        "calibration_samples": len(cal_points),
        "calibration_ms_p50": 1e3 * statistics.median(v for _, v in cal_points),
        "raw_tasks_per_s": len(raw) / sum(raw),
        "raw_task_ms_p50": 1e3 * quantile(raw, 0.5),
        "raw_task_ms_tail": 1e3 * quantile(raw, workload.tail_pct / 100),
        "worst_rel_err": worst,
        "refusals": sum(1 for _, _, o, _ in results if o.verdict == "refused"),
        "per_kind_raw_ms_p50": {k: 1e3 * statistics.median(t for kk, t, _, _ in results if kk == k)
                                for k in dict.fromkeys(k for k, _, _, _ in results)},
        "verdicts_digest": verdicts,
        "inputs_digest": inputs,
    }
    metrics = {
        "tasks_per_s": (tasks_per_s, "1/s"),
        "task_ms_p50": (1e3 * quantile(scaled, 0.5), "ms"),
        "task_ms_tail": (1e3 * tail, "ms"),
        "ok_ratio": ((len(raw) - failed) / len(raw), "ratio"),
        "ref_digits": (digits, "digits"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    return len(raw), failed, metrics, details


def traced(workload):
    """Every task of the first trace_rounds rounds runs twice, untraced and
    traced, in alternating order, so that drift in the machine's speed falls
    on both sides alike."""
    from tracing import Tracer, layer_metrics
    tracer = Tracer()
    plain, seen = [], []
    for r in range(workload.trace_rounds):
        for task in workload.tasks(r):
            index = len(seen)
            for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                if not with_trace:
                    plain.append(run_task(task)[1:])
                    continue
                tracer.task = index
                workload.tracer = tracer
                tracer.install()
                try:
                    seen.append(run_task(task)[1:])
                finally:
                    tracer.uninstall()
                    workload.tracer = None
    same = [(o.verdict, o.digest) for _, o in plain] == [(o.verdict, o.digest) for _, o in seen]
    failed = sum(1 for _, o in seen if not o.ok) + (0 if same else len(seen))
    untraced_s = sum(t for t, _ in plain)
    traced_s = sum(t for t, _ in seen)
    metrics = layer_metrics(tracer.spans)
    imports = workload.child_import_s
    metrics["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    metrics["trace.tasks"] = (len(seen), "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    spans_path = WORKDIR / f"spans-{workload.name}-{workload.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    details = {
        "traced_rounds": workload.trace_rounds,
        "same_outputs_traced_and_untraced": same,
        "overhead_share": (traced_s - untraced_s) / untraced_s if untraced_s else None,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return len(seen), failed, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    first_import = time.perf_counter()
    try:
        load_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    first_import = time.perf_counter() - first_import
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    print(json.dumps({"environment": environment()}))

    setups = []
    for _ in range(SETUP_REPS):
        scale = CAL_NOMINAL_S / statistics.median(calibration_s() for _ in range(3))
        import_s = fresh_import_s()
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](ROOT, WORKDIR, args.seed, args.smoke)
        workload.setup()
        setups.append((import_s + time.perf_counter() - start, scale))

    if args.trace:
        attempted, failed, metrics, details = traced(workload)
    else:
        attempted, failed, metrics, details = timed(workload, args.seconds)
        metrics["setup_s"] = (statistics.median(raw * scale for raw, scale in setups), "s")
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "first_import_s": first_import, "setup_raw_s": [raw for raw, _ in setups], **details}
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
