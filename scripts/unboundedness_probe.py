#!/usr/bin/env python3
"""Trace the two-bubble family value for alpha around the coercivity edge 1/2.

Below 1/2 the value runs to minus infinity linearly in the concentration log;
at 1/2 it saturates; above it grows.  Writes results/two_bubble_trace.csv
with the sphere functional (the 1-D functional of the family is twice it).
"""
import pathlib
import sys

import numpy as np

from onofri import conformal, report

ALPHAS = [0.45, 0.48, 0.50, 0.52]
LOGS = list(np.linspace(1.0, 80.0, 40))

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    rows = []
    for alpha in ALPHAS:
        for s in LOGS:
            rows.append({
                "alpha": alpha,
                "concentration_log": s,
                "j_sphere": conformal.two_bubble_j_value(alpha, s),
            })
        tail = rows[-1]
        print(f"alpha={alpha:.2f}: J({LOGS[-1]:.0f}) = {tail['j_sphere']:+.3f}")
    report.write_csv(str(OUT / "two_bubble_trace.csv"), rows)
    print(f"wrote {OUT / 'two_bubble_trace.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
