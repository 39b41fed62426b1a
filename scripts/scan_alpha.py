#!/usr/bin/env python3
"""Multi-start minima of the constrained sphere functional across alpha.

Above 2/3 the minima are certified zero; the cells below are the open region
and are recorded as evidence only.  Writes results/alpha_scan.csv.
"""
import pathlib
import sys

from onofri import acceptance, functional, report, sphere

ALPHAS = [0.55, 0.60, acceptance.ALPHA_CERTIFIED, 0.70, 0.75, 0.80, 0.90, 1.00]
TRIALS = 10
SEED = 20260808

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    grid = sphere.build_grid(16)
    rows = functional.alpha_scan(ALPHAS, TRIALS, SEED, grid=grid)
    for row in rows:
        row["region"] = "certified-zero" if acceptance.certified(row["alpha"]) else "open"
        print(f"alpha={row['alpha']:.4f}  min_j={row['min_j']:+.3e}  "
              f"iters={row['mean_iterations']:.0f}  [{row['region']}]")
    report.write_csv(str(OUT / "alpha_scan.csv"), rows)
    print(f"wrote {OUT / 'alpha_scan.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
