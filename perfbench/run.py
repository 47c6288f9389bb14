"""The besselriesz benchmark: one workload, measured end to end or by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectrum-64 --seed 1 --seconds 24 --trace 0
                             [--out result.json]

Every measured run is a fresh interpreter (``child.py``) that imports the
package from ``src/`` and calls ``cli.parse_config`` and ``cli.run``, so each
run pays what a command-line run pays: the numpy/scipy import, BLAS start-up
and the cold ``lru_cache`` of Jacobi rules and ``f_zero``.  Runs follow one
another (a closed loop with one client) until ``--seconds`` is used up; at
least one run is made.  The numeric outputs of every run are checked against
``references.json`` to 1e-10 relative.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced runs, which alternate with
untraced runs of the same inputs.  The lines before it give each metric in
words and the runtime stamp; ``--out`` also writes the whole result, every
run included, to a JSON file.  README.md lists the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REL_TOL = 1e-10
DEADLINE_S = 170.0
SETUP_PROBES = 5
MIN_COVERAGE = 0.9

KERNEL_SEED_POOL = 24
KERNEL_SEEDS_PER_RUN = 16

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "auxfn.table_builds": "count",
    "auxfn.table_build_s": "s",
    "quadrature.integral_calls": "count",
    "quadrature.integral_s": "s",
    "special.psi_calls": "count",
    "special.psi_s": "s",
    "kernels.entries": "count",
    "kernels.eval_s": "s",
    "kernels.entries_per_s": "1/s",
    "kernels.pointwise_calls": "count",
    "kernels.pointwise_s": "s",
    "discretize.assemblies": "count",
    "discretize.assemble_self_s": "s",
    "discretize.matrix_bytes_computed": "bytes",
    "spectra.svd_calls": "count",
    "spectra.svd_dim": "count",
    "spectra.svd_s": "s",
    "spectra.svd_flops_computed": "flop",
    "spectra.fit_s": "s",
    "sobolev.seminorm_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "frac",
}
# counts that must repeat exactly from traced run to traced run
EXACT_COUNTS = (
    "auxfn.table_builds",
    "quadrature.integral_calls",
    "special.psi_calls",
    "kernels.entries",
    "kernels.pointwise_calls",
    "discretize.assemblies",
    "spectra.svd_calls",
)


def box(points: int) -> dict:
    """The default box at ``points`` x ``points`` (``parse_config`` merges it)."""
    return {"points_per_dim": [points, points]}


def spectrum_run(points: int, seed: int) -> dict:
    return {"label": "spectrum", "outputs": "spectrum", "seed": seed,
            "config": {"pipeline": "spectrum", "box": box(points)}}


def pointwise_runs(kernel_seeds) -> list:
    runs = [{"label": f"kernel.s{s}", "outputs": "kernel", "seed": s,
             "config": {"pipeline": "kernel"}} for s in kernel_seeds]
    runs.append({"label": "auxfn", "outputs": "auxfn", "seed": 0, "config": {"pipeline": "auxfn"}})
    return runs


def kernel_seeds(seed: int) -> list:
    """The fixed subset of the recorded kernel-seed pool that a workload seed picks."""
    return sorted(random.Random(seed).sample(range(KERNEL_SEED_POOL), KERNEL_SEEDS_PER_RUN))


# The spectrum and ratio problems are fixed (their references are recorded
# once); the workload seed varies only the pointwise sample.
WORKLOADS = {
    "spectrum-64": lambda seed: [spectrum_run(64, seed)],
    "ratio-48": lambda seed: [{"label": "ratio", "outputs": "ratio", "seed": seed,
                               "config": {"pipeline": "ratio", "box": box(48)}}],
    "pointwise": lambda seed: pointwise_runs(kernel_seeds(seed)),
}


class BenchError(RuntimeError):
    """The benchmark cannot measure here (no package, broken environment)."""


def load_references(workload: str, runs) -> dict:
    """The recorded outputs of each run label of this workload (None if absent)."""
    with open(HERE / "references.json") as fh:
        recorded = json.load(fh)["workloads"][workload]
    return {run["label"]: recorded.get(run["label"]) for run in runs}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """The BLAS pool bounded by the cores this process may use, and a fixed
    malloc mmap threshold.  glibc otherwise raises the threshold as blocks are
    freed, and the 64x64 peak RSS flips between 364 and 405 MB from run to run
    with the heap layout; with it, blocks of 1 MiB and more are always mapped
    and unmapped, so the peak follows the arrays the code holds."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 20)
    return env


def spawn(runs, out_dir, *, trace=False, setup_only=False, timeout=DEADLINE_S) -> dict:
    """Run one child to completion; returns its result, or its failure."""
    task = {"root": str(ROOT), "out": str(out_dir), "runs": runs,
            "trace": trace, "setup_only": setup_only}
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(task)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"ok": False, "error": proc.stderr.strip()[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["ok"] = True
    result["setup_s"] = result.pop("setup_end") - spawned
    return result


def reference_mismatches(outputs: dict, reference: dict) -> list:
    """Every output value more than 1e-10 relative from its recorded reference.

    Columns that are themselves discrepancies between two routes (``rel_*``,
    ``dec_resid*``) sit at rounding level; they are held to 1e-10 on the
    scale 1 of a relative error, since the values they compare may each move
    by 1e-10 relative.
    """
    bad = []
    for label in sorted(set(outputs) | set(reference)):
        got, want = outputs.get(label), reference.get(label)
        if got is None or want is None or set(got) != set(want):
            bad.append(f"{label}: output keys differ from the reference")
            continue
        for key, ref in want.items():
            val = got[key]
            column = key.rsplit(".", 1)[-1]
            floor = 1.0 if column.startswith(("rel_", "dec_resid")) else 0.0
            if val != val and ref != ref:  # both NaN
                continue
            if not abs(val - ref) <= REL_TOL * max(abs(ref), floor):
                bad.append(f"{label}.{key}: {val!r} != reference {ref!r}")
    return bad


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def layer_metrics(child: dict) -> dict:
    """Per-layer metrics of one traced run from its aggregated spans."""
    spans, counts = child["spans"], child["counts"]

    def calls(name):
        return spans[name][0]

    def busy(name):
        return spans[name][1]

    def self_time(name):
        return spans[name][1] - spans[name][2]

    entries = counts.get("kernels.entries", 0)
    svd_calls = calls("spectra.svd")
    return {
        "auxfn.table_builds": calls("auxfn.table_build"),
        "auxfn.table_build_s": busy("auxfn.table_build"),
        "quadrature.integral_calls": calls("quadrature.integral"),
        "quadrature.integral_s": busy("quadrature.integral"),
        "special.psi_calls": calls("special.psi"),
        "special.psi_s": busy("special.psi"),
        "kernels.entries": entries,
        "kernels.eval_s": busy("kernels.eval"),
        "kernels.entries_per_s": entries / busy("kernels.eval") if entries else 0.0,
        "kernels.pointwise_calls": calls("kernels.pointwise"),
        "kernels.pointwise_s": busy("kernels.pointwise"),
        "discretize.assemblies": calls("discretize.assemble"),
        "discretize.assemble_self_s": self_time("discretize.assemble"),
        "discretize.matrix_bytes_computed": counts.get("discretize.matrix_bytes_computed", 0),
        "spectra.svd_calls": svd_calls,
        "spectra.svd_dim": counts.get("spectra.svd_rows", 0) // svd_calls if svd_calls else 0,
        "spectra.svd_s": busy("spectra.svd"),
        "spectra.svd_flops_computed": counts.get("spectra.svd_flops_computed", 0),
        "spectra.fit_s": busy("spectra.fit"),
        "sobolev.seminorm_s": busy("sobolev.seminorm"),
        "cli.self_s": self_time("cli.run"),
        "trace.span_coverage": spans["cli.run"][2] / spans["cli.run"][1],
    }


def measure(runs, seconds: float, trace: bool, reference: dict, scratch: Path) -> dict:
    """Spawn children for ``seconds`` and reduce them to one result."""
    start = time.monotonic()
    deadline = start + DEADLINE_S

    def remaining():
        return max(1.0, deadline - time.monotonic())

    probes = []
    for _ in range(1 if trace else SETUP_PROBES):
        probe = spawn(runs, scratch, setup_only=True, timeout=remaining())
        if not probe["ok"]:
            raise BenchError(f"set-up failed: {probe['error']}")
        probes.append(probe)

    # untraced runs only, or untraced and traced runs alternating
    modes = (False, True) if trace else (False,)
    children, longest = [], 0.0
    while True:
        for with_trace in modes:
            t0 = time.monotonic()
            out = Path(tempfile.mkdtemp(dir=scratch))
            try:
                child = spawn(runs, out, trace=with_trace, timeout=remaining())
            finally:
                shutil.rmtree(out, ignore_errors=True)
            child["traced"] = with_trace
            children.append(child)
            longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if not children[-1]["ok"] or elapsed + len(modes) * longest > min(seconds, DEADLINE_S):
            break

    done = [c for c in children if c["ok"]]
    if not done:
        raise BenchError(f"no run completed: {children[0]['error']}")
    plain = [c for c in done if not c["traced"]]
    traced = [c for c in done if c["traced"]]
    for c in children:
        c["problems"] = [] if c["ok"] else [c["error"]]
    for c in done:
        if not c["report_passed"]:
            c["problems"].append("report.json: an assertion failed")
        c["problems"] += reference_mismatches(c["outputs"], reference)

    if trace:
        if not plain or not traced:
            raise BenchError("need one completed untraced and one completed traced run")
        for c in traced:
            c["layers"] = layer_metrics(c)
            if c["outputs"] != plain[0]["outputs"]:
                c["problems"].append("traced outputs differ from the untraced run")
            if c["layers"]["trace.span_coverage"] < MIN_COVERAGE:
                c["problems"].append(f"named spans cover under {MIN_COVERAGE:.0%} of the wall time")
            if any(c["layers"][k] != traced[0]["layers"][k] for k in EXACT_COUNTS):
                c["problems"].append("layer counts differ between traced runs")
        overhead = (statistics.median(c["wall_s"] for c in traced)
                    - statistics.median(c["wall_s"] for c in plain))
        metrics = {name: statistics.median(c["layers"][name] for c in traced)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = overhead
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(c["wall_s"] for c in done),
            "setup_s": statistics.median(c["setup_s"] for c in probes + done),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in done),
        }
        units = END_TO_END_UNITS

    failed = sum(1 for c in children if c["problems"])
    return {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "runtime": done[0]["runtime"],
        "setup_samples": [c["setup_s"] for c in probes + done],
        "children": [
            {k: c.get(k) for k in ("traced", "wall_s", "setup_s", "peak_rss_mb", "problems", "layers")}
            for c in children
        ],
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and always a hash of
    the package source, so a result names the code it measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "besselriesz").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def report_lines(workload: str, result: dict) -> list:
    lines = [f"workload {workload}: {result['attempted']} run(s), {result['failed']} failed, "
             f"failed_frac {result['failed'] / result['attempted']:.4g}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    for i, child in enumerate(result["children"]):
        for problem in child["problems"]:
            lines.append(f"  run {i} failed: {problem}")
    lines.append("runtime " + json.dumps(result["runtime"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "besselriesz" / "cli.py").is_file():
        print(f"no besselriesz source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_run_"))
    try:
        runs = WORKLOADS[args.workload](args.seed)
        result = measure(runs, args.seconds, bool(args.trace),
                         load_references(args.workload, runs), scratch)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["runtime"].update(source_identity())
    result.update(workload=args.workload, seed=args.seed, trace=args.trace)
    for line in report_lines(args.workload, result):
        print(line)
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
