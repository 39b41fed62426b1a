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

TRACE = pathlib.Path(__file__).resolve().parent.parent / "results" / "two_bubble_trace.csv"


def trace_rows() -> list[dict]:
    """The sphere functional at every concentration log of LOGS, for each of ALPHAS in turn."""
    return [{"alpha": alpha, "concentration_log": s, "j_sphere": conformal.two_bubble_j_value(alpha, s)}
            for alpha in ALPHAS for s in LOGS]


def main() -> int:
    TRACE.parent.mkdir(exist_ok=True)
    rows = trace_rows()
    for tail in rows[len(LOGS) - 1::len(LOGS)]:
        print(f"alpha={tail['alpha']:.2f}: J({LOGS[-1]:.0f}) = {tail['j_sphere']:+.3f}")
    report.write_csv(str(TRACE), rows)
    print(f"wrote {TRACE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
