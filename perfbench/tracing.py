"""Spans around calls into the package's layers, recorded from outside it.

Tracer.install() replaces each traced public function with a timing wrapper
in every module namespace that holds it: `from .numerics import op_norm`
binds op_norm separately in reps, calculus, exprs and others, and a call
through any of those bindings must be seen. The numpy.linalg entry points
the package calls are wrapped the same way, in numpy.linalg and in the
module that implements it, so the SVD inside norm(a, 2) or pinv shows up as
a child span. The recursive expression walker (exprs.eval_expr) is not
wrapped: it would add a span per tree node.

Spans are kept in memory as tuples and written out by the caller at the
end. Single-threaded use only: the parent of a span is the innermost span
still open when it starts.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _point_elems(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"elems": sum(int(m.size) for m in x.mats.values())}


def _columns(args, kwargs, result):
    matrix = getattr(result, "matrix", None)
    return {"columns": int(matrix.shape[1]) if matrix is not None else 0}


def _basis_dim(args, kwargs, result):
    return {"basis_dim": len(result)}


def _cells(args, kwargs, result):
    stats = result.stats.values()
    executed = sum(s.executed for s in stats)
    skipped = sum(s.skipped for s in stats)
    return {"cells": executed + skipped, "skipped": skipped, "executed": executed}


def _text_bytes(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


def svd_flops(shape, full_matrices: bool = True, compute_uv: bool = True) -> int:
    """Flops of a complex SVD, computed from its shape and requested factors.

    Golub & Van Loan (Matrix Computations, 4th ed., section 8.6.3) count, for
    an m x n real matrix with m >= n and Golub-Reinsch: 4mn^2 - 4n^3/3 for
    the singular values alone, 4m^2n + 8mn^2 + 9n^3 with full U and V, and
    14mn^2 + 8n^3 with the thin U and V. A complex flop is four real ones.
    Stacked matrices multiply by the stack size.
    """
    m, n = int(shape[-2]), int(shape[-1])
    if m < n:
        m, n = n, m
    stack = 1
    for k in shape[:-2]:
        stack *= int(k)
    if not compute_uv:
        real = 4 * m * n * n - (4 * n ** 3) // 3
    elif full_matrices:
        real = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        real = 14 * m * n * n + 8 * n ** 3
    return 4 * stack * real


def _svd(args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
    uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
    parts = result if uv else (result,)
    return {
        "flops_computed": svd_flops(a.shape, bool(full), bool(uv)),
        "entries": sum(int(np.asarray(p).size) for p in parts),
    }


# (layer name, module that defines it, function name, attribute recorder)
PACKAGE_FUNCTIONS = (
    ("calculus.derivative_matrix", "freequiver.calculus", "derivative_matrix", _columns),
    ("calculus.directional_derivative", "freequiver.calculus", "directional_derivative", None),
    ("calculus.ift_certificate", "freequiver.calculus", "ift_certificate", None),
    ("exprs.eval_map", "freequiver.exprs", "eval_map", _point_elems),
    ("exprs.is_regular", "freequiver.exprs", "is_regular", None),
    ("numerics.op_norm", "freequiver.numerics", "op_norm", None),
    ("numerics.singular_values", "freequiver.numerics", "singular_values", None),
    ("numerics.nullspace", "freequiver.numerics", "nullspace", None),
    ("reps.intertwiner_space", "freequiver.reps", "intertwiner_space", _basis_dim),
    ("reps.conjugate", "freequiver.reps", "conjugate", None),
    ("reps.direct_sum", "freequiver.reps", "direct_sum", None),
    ("reps.check_nat_trans", "freequiver.reps", "check_nat_trans", None),
    ("reps.rep_residual", "freequiver.reps", "rep_residual", None),
    ("conformance.run_conformance", "freequiver.conformance", "run_conformance", _cells),
    ("serialize.loads", "freequiver.serialize", "loads", _text_bytes),
    ("serialize.dumps", "freequiver.serialize", "dumps", None),
    ("cli.main", "freequiver.cli", "main", None),
)

LINALG_FUNCTIONS = (
    ("linalg.svd", "svd", _svd),
    ("linalg.inv", "inv", None),
    ("linalg.solve", "solve", None),
    ("linalg.pinv", "pinv", None),
    ("linalg.norm", "norm", None),
)

# Every per-layer metric, in the order BENCHMARK.json lists them.
CALL_AND_SELF = [name for name, *_ in PACKAGE_FUNCTIONS] + [name for name, *_ in LINALG_FUNCTIONS]
EXTRA_COUNTS = {
    "calculus.derivative_matrix.columns": "count",
    "exprs.eval_map.elems": "count",
    "linalg.svd.flops_computed": "flop",
    "numerics.nullspace.entries_computed": "count",
    "reps.intertwiner_space.basis_dim": "count",
    "conformance.cells": "count",
    "conformance.skipped": "count",
    "conformance.executed_ratio": "ratio",
    "serialize.loads.bytes": "B",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.task = None
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name, fn, record=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            attrs = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if record is not None:
                    attrs = record(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, parent, self.task, name, start, end, attrs)

        return traced

    def _patch_everywhere(self, name, original, record, modules):
        wrapper = self.wrap(name, original, record)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "freequiver" or n.startswith("freequiver."))]
        for name, module, fn_name, record in PACKAGE_FUNCTIONS:
            if module in sys.modules:  # the command-line module loads only in its own process
                original = getattr(sys.modules[module], fn_name)
                self._patch_everywhere(name, original, record, package)
        linalg = [np.linalg] + [sys.modules[n] for n in ("numpy.linalg._linalg", "numpy.linalg.linalg")
                                if n in sys.modules]
        for name, fn_name, record in LINALG_FUNCTIONS:
            self._patch_everywhere(name, getattr(np.linalg, fn_name), record, linalg)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def extend(self, spans, task) -> None:
        """Append spans recorded by another process under this tracer's ids."""
        offset = len(self.spans)
        for sid, parent, _, name, start, end, attrs in spans:
            self.spans.append((sid + offset, None if parent is None else parent + offset,
                               task, name, start, end, attrs))


def layer_metrics(spans) -> dict:
    """Per-layer calls, self time (span minus its direct children) and
    attribute sums, keyed by the per-layer metric names."""
    names = {s[0]: s[3] for s in spans}
    child_ns = defaultdict(int)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    sums = defaultdict(int)
    for sid, parent, _, name, start, end, attrs in spans:
        calls[name] += 1
        self_ns[name] += end - start - child_ns[sid]
        for key, value in (attrs or {}).items():
            sums[f"{name}.{key}"] += value
            if name == "linalg.svd" and key == "entries" and names.get(parent) == "numerics.nullspace":
                sums["numerics.nullspace.entries_computed"] += value
    out = {}
    for name in CALL_AND_SELF:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    cells = sums["conformance.run_conformance.cells"]
    extra = {
        "calculus.derivative_matrix.columns": sums["calculus.derivative_matrix.columns"],
        "exprs.eval_map.elems": sums["exprs.eval_map.elems"],
        "linalg.svd.flops_computed": sums["linalg.svd.flops_computed"],
        "numerics.nullspace.entries_computed": sums["numerics.nullspace.entries_computed"],
        "reps.intertwiner_space.basis_dim": sums["reps.intertwiner_space.basis_dim"],
        "conformance.cells": cells,
        "conformance.skipped": sums["conformance.run_conformance.skipped"],
        "conformance.executed_ratio": (sums["conformance.run_conformance.executed"] / cells) if cells else 0.0,
        "serialize.loads.bytes": sums["serialize.loads.bytes"],
    }
    for key, value in extra.items():
        out[key] = (value, EXTRA_COUNTS[key])
    return out
