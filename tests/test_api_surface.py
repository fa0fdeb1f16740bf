"""The benchmark's traced run wraps package functions by module and name.

perfbench/tracing.py lists them in PACKAGE_FUNCTIONS; a rename or deletion
of any of them would break `perfbench/run.py --trace 1`, so each one must
still resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _package_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, fn_name) for _, module_name, fn_name, _ in module.PACKAGE_FUNCTIONS]


@pytest.mark.parametrize("module_name, fn_name", _package_functions())
def test_traced_function_exists(module_name, fn_name):
    assert callable(getattr(importlib.import_module(module_name), fn_name, None))
