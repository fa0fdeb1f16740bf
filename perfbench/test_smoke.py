"""Smoke test of the benchmark: every workload at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Timing never gates it. For each workload it checks that every metric named
in BENCHMARK.json is printed with its unit, that no task fails, that a
second seed draws other inputs but reaches the same verdicts, and that the
traced run finds no calls where the workload's design says there are none.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers each workload must leave idle.
IDLE = {
    "certify_jacobian": ["reps.intertwiner_space.calls", "numerics.nullspace.calls",
                         "conformance.run_conformance.calls", "serialize.loads.calls", "cli.main.calls"],
    "conformance_sweep": ["calculus.derivative_matrix.calls", "calculus.directional_derivative.calls",
                          "calculus.ift_certificate.calls", "serialize.loads.calls", "cli.main.calls"],
    "eval_large": ["calculus.derivative_matrix.calls", "reps.intertwiner_space.calls",
                   "serialize.loads.calls", "cli.main.calls"],
    "cli_roundtrip": [],
}


def run(workload, seed, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def result(workload, seed, trace):
    done = run(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    return lines[-2]["details"], lines[-1]


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    first_details, first = result(workload, 1, 0)
    second_details, second = result(workload, 2, 0)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert res["metrics"]["ok_ratio"]["value"] == 1.0
    assert first_details["inputs_digest"] != second_details["inputs_digest"]
    assert first_details["verdicts_digest"] == second_details["verdicts_digest"]

    details, traced = result(workload, 1, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert details["same_outputs_traced_and_untraced"]
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in IDLE[workload]:
        assert traced["metrics"][name]["value"] == 0, name
    _, again = result(workload, 1, 1)
    for name, m in traced["metrics"].items():
        if m["unit"] == "count":
            assert again["metrics"][name]["value"] == m["value"], name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
