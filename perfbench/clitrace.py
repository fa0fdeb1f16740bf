"""Run the freequiver command line with the layers traced.

Usage: python perfbench/clitrace.py <freequiver arguments>

Behaves like `python -m freequiver.cli` (same output, same exit code) and
writes {"import_s": ..., "spans": [...]} to the file named by the
PERFBENCH_SPANS environment variable. import_s is the time to import the
package in this fresh interpreter, measured before anything else loads it.
"""

import os
import sys
import time

start = time.perf_counter()
import freequiver.cli  # noqa: E402

import_s = time.perf_counter() - start

import json  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = freequiver.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
