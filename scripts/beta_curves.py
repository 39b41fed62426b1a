#!/usr/bin/env python3
"""Mass curves beta(s) of the radial shooting family for several exponents.

The l = 0 column is flat at 4 (the scaling family); the l = 0.5 and l = 1
curves decrease monotonically (one profile per mass); the l = 2 curve falls
from 12 to a minimum of about 7.35 near s = 4.7 and rises back toward 8, so
every mass between that minimum and 8 has two profiles.  Writes one CSV per
exponent into results/.
"""
import pathlib
import sys

from onofri import report, shooting

CASES = [(0.0, -4.0, 4.0, 33), (0.5, -6.0, 10.0, 65),
         (1.0, -6.0, 10.0, 65), (2.0, -6.0, 10.0, 65)]

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for l, s_min, s_max, n in CASES:
        rows = shooting.beta_curve(l, s_min, s_max, n)
        path = OUT / f"beta_curve_l{l:g}.csv"
        report.write_csv(str(path), rows)
        betas = [r["beta"] for r in rows if r["verdict"] == "converged"]
        print(f"l={l:g}: beta range [{min(betas):.4f}, {max(betas):.4f}]  -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
