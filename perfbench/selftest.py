"""Self-test of the benchmark on its own small inputs (a 32x32 spectrum and one
pointwise kernel seed).  Usage, from the root of a checkout:

    python3 perfbench/selftest.py

It asserts that every end-to-end and per-layer metric is emitted with its
unit, that a reference value perturbed beyond 1e-10 relative is counted as a
failure, and that the traced kernel entry count equals N^2 + 4 min(N, 1024).
Exits 0 when all of it holds.
"""

import copy
import shutil
import sys
import tempfile
from pathlib import Path

from run import (END_TO_END_UNITS, PER_LAYER_UNITS, REL_TOL, ROOT, measure, pointwise_runs,
                 reference_mismatches, spawn, spectrum_run)

POINTS = 32


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metrics(result: dict, units: dict) -> None:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    check(emitted == units, f"metrics/units {emitted} differ from {units}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{name} has no numeric value")


def main() -> int:
    runs = [spectrum_run(POINTS, 0)] + pointwise_runs([0])
    scratch = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_selftest_"))
    try:
        # the reference is this checkout's own output, recorded by one run
        first = spawn(runs, scratch / "reference")
        check(first["ok"] and first["report_passed"], f"reference run failed: {first.get('error')}")
        reference = first["outputs"]

        untraced = measure(runs, 0, False, reference, scratch)
        check(untraced["correct"] and untraced["failed"] == 0,
              f"untraced run failed: {untraced['children']}")
        check_metrics(untraced, END_TO_END_UNITS)

        traced = measure(runs, 0, True, reference, scratch)
        check(traced["correct"] and traced["failed"] == 0, f"traced run failed: {traced['children']}")
        check_metrics(traced, PER_LAYER_UNITS)
        n = POINTS * POINTS
        entries = traced["metrics"]["kernels.entries"]["value"]
        check(entries == n * n + 4 * min(n, 1024), f"kernel entries {entries} != N^2 + 4 min(N, 1024)")

        within = copy.deepcopy(reference)
        within["spectrum"]["exponent"] *= 1 + 0.5 * REL_TOL
        check(not reference_mismatches(first["outputs"], within), "0.5e-10 relative counted as failure")

        perturbed = copy.deepcopy(reference)
        perturbed["spectrum"]["exponent"] *= 1 + 2 * REL_TOL
        bad = measure(runs, 0, False, perturbed, scratch)
        check(not bad["correct"] and bad["failed"] == bad["attempted"] >= 1,
              f"perturbed reference not counted as failure: {bad['children']}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("benchmark self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
