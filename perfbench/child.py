"""One benchmark run in a fresh interpreter, as a command-line user pays for it.

Usage (started by ``run.py``, not by hand):

    python3 perfbench/child.py '<task json>'

The task names the checkout root, an output directory and a list of pipeline
runs.  The process imports ``besselriesz.cli`` from the checkout's ``src/``
and parses every config; that moment on CLOCK_MONOTONIC, which every process
on the host shares, ends set-up, and the parent subtracts the moment it
spawned this process.  Unless the task is set-up only, the process then calls
``cli.run`` for each run, reads back the artifacts it wrote, and prints one
JSON line: set-up end, wall time, peak RSS, the numeric outputs, the runtime
stamp and, with ``trace``, the per-layer span statistics.

Tracing wraps the package's public functions at the module attributes through
which ``cli``, ``auxfn`` and ``kernels`` call them; the package source is not
edited and untraced runs execute no wrapper at all.
"""

import csv
import json
import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Aggregated spans: per name the call count, inclusive seconds and the
    seconds covered by direct child spans; plus named work counters."""

    def __init__(self):
        self.spans = {}
        self.counts = {}
        self._stack = []

    def wrap(self, fn, name, count=None):
        stack, spans, counts = self._stack, self.spans, self.counts
        spans.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                covered = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += covered
                if count is not None:
                    for key, amount in count(args, kwargs):
                        counts[key] = counts.get(key, 0) + amount

        return traced


def _entries(args, kwargs):
    """commutator_kernel(base, f, x, y): one entry per broadcast point pair."""
    import numpy as np

    x, y = np.asarray(args[2]), np.asarray(args[3])
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    yield "kernels.entries", int(np.prod(shape, dtype=np.int64))


def _assembly(args, kwargs):
    """assemble(kernel, grid, ...): a dense float64 N x N matrix."""
    n = len(args[1].nodes)
    yield "discretize.matrix_bytes_computed", 8 * n * n


def _svd(args, kwargs):
    """singular_values(A): values only, 8/3 N^3 flops for a square matrix."""
    n = args[0].entries.shape[0]
    yield "spectra.svd_rows", n
    yield "spectra.svd_flops_computed", 8 * n**3 // 3


# (module, attribute, span name, work counter)
TRACED = (
    ("cli", "run", "cli.run", None),
    ("cli", "TabulatedF", "auxfn.table_build", None),
    ("cli", "assemble", "discretize.assemble", _assembly),
    ("cli", "commutator_kernel", "kernels.eval", _entries),
    ("cli", "singular_values", "spectra.svd", _svd),
    ("cli", "weyl_fit", "spectra.fit", None),
    ("cli", "directional_seminorm", "sobolev.seminorm", None),
    ("cli", "invsqrt_kernel_closed", "kernels.pointwise", None),
    ("cli", "invsqrt_kernel_subordination", "kernels.pointwise", None),
    ("cli", "spectral_kernel_inverse_radial", "kernels.pointwise", None),
    ("auxfn", "gegenbauer_integral", "quadrature.integral", None),
    ("kernels", "gegenbauer_integral", "quadrature.integral", None),
    ("kernels", "psi_lambda", "special.psi", None),
)


def install_tracer(modules: dict) -> Tracer:
    tracer = Tracer()
    for mod, attr, name, count in TRACED:
        target = modules[mod]
        setattr(target, attr, tracer.wrap(getattr(target, attr), name, count))
    return tracer


def _read_csv(path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {f"r{i}.{col}": float(v) for i, row in enumerate(rows) for col, v in row.items()}


def collect_outputs(kind: str, out, report: dict) -> dict:
    """The numbers a user reads off the artifacts of one pipeline run."""
    if kind == "spectrum":
        level = report["results"]["level0"]
        fit = level["fit"]
        values = {
            "exponent": fit["exponent"],
            "coefficient": fit["coefficient"],
            "pinned_coefficient": fit["pinned_coefficient"],
            "weak_quasinorm": level["weak_quasinorm"],
            "top_singular_value": level["top_singular_value"],
            "diagonal_bias": level["diagonal_bias"],
        }
    elif kind == "ratio":
        level = report["results"]["level0"]
        values = {
            f"{fit}.{key}": level[fit][key]
            for fit in ("fit_f", "fit_g")
            for key in ("exponent", "coefficient", "pinned_coefficient", "residual")
        }
        for key in ("seminorm_f", "seminorm_g", "coefficient_ratio", "seminorm_ratio"):
            values[key] = level[key]
    elif kind in ("kernel", "auxfn"):
        return _read_csv(os.path.join(out, f"{kind}.csv"))
    else:
        raise ValueError(f"unknown output kind {kind!r}")
    return {key: float(v) for key, v in values.items()}


def runtime_stamp() -> dict:
    """Library versions and the BLAS pools this process actually loaded."""
    import ctypes

    import numpy
    import scipy

    blas = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                blas[os.path.basename(path)] = {
                    "config": get_config().decode().strip(),
                    "threads": get_threads(),
                }
                break
    try:
        import threadpoolctl  # noqa: F401

        has_threadpoolctl = True
    except ImportError:
        has_threadpoolctl = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MALLOC_MMAP_THRESHOLD_": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "nproc": len(os.sched_getaffinity(0)),
        "threadpoolctl_importable": has_threadpoolctl,
    }


def main(task: dict) -> dict:
    src = os.path.join(task["root"], "src")
    sys.path.insert(0, src)
    from besselriesz import auxfn, cli, kernels

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"besselriesz imported from {cli.__file__}, not from {src}")

    configs = [cli.parse_config(run["config"]) for run in task["runs"]]
    result = {"setup_end": _now()}
    if task["setup_only"]:
        return result

    tracer = install_tracer({"cli": cli, "auxfn": auxfn, "kernels": kernels}) if task["trace"] else None
    wall = 0.0
    outputs = {}
    passed = True
    for run, cfg in zip(task["runs"], configs):
        out = os.path.join(task["out"], run["label"])
        t0 = _now()
        report = cli.run(cfg, out_dir=out, seed=run["seed"])
        wall += _now() - t0
        passed = passed and report.passed
        with open(os.path.join(out, "report.json")) as fh:
            written = json.load(fh)
        outputs[run["label"]] = collect_outputs(run["outputs"], out, written)

    import resource

    result.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        report_passed=passed,
        outputs=outputs,
        runtime=runtime_stamp(),
    )
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
