#!/usr/bin/env python3
"""Grid-doubling study: how the spectrum diagnostics move under refinement.

Runs the spectrum pipeline at the configured resolution and `levels` doublings
and prints quasinorm / fit trajectories.  Usage:

    python scripts/refinement_study.py [levels] [out_dir]
"""

import sys
from pathlib import Path

from besselriesz.cli import parse_config, run


def main() -> int:
    levels = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    out = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("out/refinement")
    cfg = parse_config(
        {
            "pipeline": "spectrum",
            "box": {"bounds": [[0.0, 1.0], [0.5, 1.5]], "points_per_dim": [32, 32]},
        }
    )
    report = run(cfg, out_dir=out, refine=levels)
    for i in range(levels + 1):
        level = report.results[f"level{i}"]
        line = (f"{level['points_per_dim']}: quasinorm {level['weak_quasinorm']:.6f}")
        if "fit" in level:
            line += (f", exponent {level['fit']['exponent']:.4f}, "
                     f"pinned {level['fit']['pinned_coefficient']:.6f}")
        print(line)
    if "quasinorm_drift" in report.results:
        print("relative quasinorm drift per doubling:",
              ["%.4f" % d for d in report.results["quasinorm_drift"]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
