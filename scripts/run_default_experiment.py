#!/usr/bin/env python3
"""Run the default spectrum experiment and print the headline numbers.

Equivalent to `besselriesz spectrum --out out/default`; kept as a script so
the experiment is runnable straight from a checkout.
"""

import sys
from pathlib import Path

from besselriesz.cli import parse_config, run


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/default")
    report = run(parse_config({"pipeline": "spectrum"}), out_dir=out)
    fit = report.results["level0"]["fit"]
    print(f"grid {report.results['level0']['points_per_dim']}: "
          f"exponent {fit['exponent']:.4f} (power law expects -0.5), "
          f"pinned coefficient {fit['pinned_coefficient']:.6f}, "
          f"weak quasinorm {report.results['level0']['weak_quasinorm']:.6f}")
    solve = report.runtime["svd"]
    print("seconds: " + ", ".join(f"{stage} {t:.2f}" for stage, t in report.timings.items())
          + f"; solver {solve['solver']} over {solve['blocks']} block(s)")
    print(f"artifacts in {out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
