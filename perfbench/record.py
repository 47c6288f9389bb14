"""Record the reference outputs that every benchmark run is checked against.

Usage, from the root of a checkout whose outputs are the reference:

    python3 perfbench/record.py

Runs each workload's pipelines once, in fresh processes as ``run.py`` does,
and rewrites ``perfbench/references.json``.  The pointwise references cover
the whole kernel-seed pool, so any workload seed finds its subset there.
Re-record only on purpose: a later change is judged against these numbers.
"""

import json
import shutil
import sys
import tempfile

from run import (HERE, KERNEL_SEED_POOL, ROOT, WORKLOADS, pointwise_runs, source_identity,
                 spawn)


def main() -> int:
    problems = {
        "spectrum-64": WORKLOADS["spectrum-64"](0),
        "ratio-48": WORKLOADS["ratio-48"](0),
        "pointwise": pointwise_runs(range(KERNEL_SEED_POOL)),
    }
    recorded, runtime = {}, None
    for workload, runs in problems.items():
        out = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_record_")
        try:
            child = spawn(runs, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if not child["ok"] or not child["report_passed"]:
            print(f"{workload}: {child.get('error', 'report assertion failed')}", file=sys.stderr)
            return 1
        recorded[workload] = child["outputs"]
        runtime = child["runtime"]
        print(f"{workload}: {sum(len(v) for v in child['outputs'].values())} values")
    runtime.update(source_identity())
    payload = {"recorded_with": runtime, "workloads": recorded}
    (HERE / "references.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
