#!/usr/bin/env python3
"""Print what moved between two ``report.json`` files, or between two
benchmark results.

    python3 scripts/report_diff.py old/report.json new/report.json
    python3 scripts/report_diff.py BENCH_old.json BENCH_new.json

For two reports it prints one line per change:

- every numeric value under ``results``, and every assertion's ``measured``,
  that moved by more than 1e-10 relative (a non-numeric value that changed,
  or a key only one report has, is printed too);
- every ``timings`` entry that moved past the ``wall_s`` bound of
  ``BENCHMARK.json``;
- ``runtime.peak_rss_mb``, when it moved past the ``peak_rss_mb`` bound;
- any change to ``runtime.scipy_modules``, to the F table's quadrature
  record (``runtime.f_table``), or to a Toeplitz generator's record
  (``runtime.generator``, ``runtime.generator_L1``, ...: the lateral
  offsets evaluated, their total and the parity signs);
- any change in a spectrum solve's ``solver``, ``count`` or ``blocks``
  (``runtime.svd``, ``runtime.svd_f``, ``runtime.svd_L1``, ...), so a Gram
  head that fell back to the dense SVD shows as more than a timing.

For two results written by ``perfbench/run.py --out`` it prints one line per
change:

- every end-to-end metric of ``BENCHMARK.json`` that both results carry and
  that moved past its bound (a traced result carries the per-layer metrics
  instead);
- any change in the runs ``failed`` or ``attempted``;

and, for each result with traced runs, the least ``trace.span_coverage`` of
those runs, which is not a change.

The bounds are relative and read from ``BENCHMARK.json`` at the root of the
checkout.  The exit code is 1 when a change was printed, 0 otherwise.
"""

import json
import sys
from numbers import Real
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
VALUE_REL_TOL = 1e-10


def benchmark_bounds() -> dict:
    """{metric name: relative bound} of the benchmark's end-to-end metrics."""
    with open(BENCHMARK) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def _leaves(value, path: str):
    """(path, leaf) for every non-container value under ``value``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _moved(old, new, rel: float) -> bool:
    return abs(new - old) > rel * abs(old)


def _change(path: str, old, new) -> str:
    if _is_number(old) and _is_number(new) and old != 0:
        return f"{path}: {old!r} -> {new!r} (relative {(new - old) / abs(old):+.3e})"
    return f"{path}: {old!r} -> {new!r}"


def _diff_values(old, new, path: str, rel: float):
    """The leaves under ``path`` that moved by more than ``rel``, or whose
    non-numeric value or presence changed."""
    a, b = dict(_leaves(old, path)), dict(_leaves(new, path))
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            yield f"{key}: only in the {'first' if key in a else 'second'} report"
        elif _is_number(a[key]) and _is_number(b[key]):
            if _moved(a[key], b[key], rel):
                yield _change(key, a[key], b[key])
        elif a[key] != b[key]:
            yield _change(key, a[key], b[key])


def diff_reports(old: dict, new: dict, bounds: dict) -> list:
    """The lines of change from report ``old`` to report ``new``."""
    lines = list(_diff_values(old.get("results", {}), new.get("results", {}), "results",
                              VALUE_REL_TOL))
    measured_old = {a["name"]: a.get("measured") for a in old.get("assertions", [])}
    measured_new = {a["name"]: a.get("measured") for a in new.get("assertions", [])}
    lines += _diff_values(measured_old, measured_new, "measured", VALUE_REL_TOL)
    lines += _diff_values(old.get("timings", {}), new.get("timings", {}), "timings",
                          bounds["wall_s"])
    runtime_old, runtime_new = old.get("runtime", {}), new.get("runtime", {})
    lines += _diff_values(runtime_old.get("peak_rss_mb"), runtime_new.get("peak_rss_mb"),
                          "runtime.peak_rss_mb", bounds["peak_rss_mb"])
    keys = sorted(runtime_old.keys() | runtime_new.keys())
    for key in ["scipy_modules", "f_table", *(k for k in keys if k.startswith("generator"))]:
        if runtime_old.get(key) != runtime_new.get(key):
            lines.append(_change(f"runtime.{key}", runtime_old.get(key), runtime_new.get(key)))
    for key in (k for k in keys if k.startswith("svd")):
        solve_old, solve_new = runtime_old.get(key) or {}, runtime_new.get(key) or {}
        for field in ("solver", "count", "blocks"):
            if solve_old.get(field) != solve_new.get(field):
                lines.append(_change(f"runtime.{key}.{field}", solve_old.get(field),
                                     solve_new.get(field)))
    return lines


def _is_bench_result(data: dict) -> bool:
    return "metrics" in data and "children" in data


def diff_bench_results(old: dict, new: dict, bounds: dict) -> list:
    """The lines of change from benchmark result ``old`` to result ``new``."""
    lines = []
    for name, bound in bounds.items():
        if name in old["metrics"] and name in new["metrics"]:
            a, b = old["metrics"][name]["value"], new["metrics"][name]["value"]
            if _moved(a, b, bound):
                lines.append(_change(f"metrics.{name}", a, b))
    for key in ("failed", "attempted"):
        if old[key] != new[key]:
            lines.append(_change(key, old[key], new[key]))
    return lines


def least_coverage(result: dict):
    """The least ``trace.span_coverage`` over a result's traced runs, or None."""
    values = [child["layers"]["trace.span_coverage"] for child in result["children"]
              if child.get("layers")]
    return min(values) if values else None


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py OLD NEW (two report.json files or two benchmark results)",
              file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    if _is_bench_result(old) != _is_bench_result(new):
        print("report_diff.py: one report.json and one benchmark result", file=sys.stderr)
        return 2
    if _is_bench_result(old):
        lines = diff_bench_results(old, new, benchmark_bounds())
        notes = [f"least trace.span_coverage of {path}: {least_coverage(result):.4f}"
                 for path, result in zip(argv, (old, new)) if least_coverage(result) is not None]
    else:
        lines, notes = diff_reports(old, new, benchmark_bounds()), []
    for line in lines + notes:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
