#!/usr/bin/env python3
"""Fastest-of-N times of the kernels of a constrained descent step, as JSON.

Times sphere.analyze, sphere.synthesize, functional.exp_moments,
functional.tilt and one functional.minimize_stack run at L = 16, 32, 64 and
128 (the first band limit above sphere.TABLE_LMAX, whose transforms use the
FFT), each on a stack of 1 and of 10 lanes, with BLAS capped at one thread.
A kernel's time is the fastest of up to REPEATS calls (at least 5, and no more
once its calls have taken BUDGET seconds): the fastest call is the one the
host's speed changes and other processes slowed least.  Every call of a kernel
does the same work on the same inputs, the random starts of
functional.random_starts; the tilt starts from the starts scaled by 3, so it
takes several Newton steps.

    PYTHONPATH=src python3 scripts/kernel_times.py

Prints one JSON object: the environment, and per kernel
"<module>.<kernel>.L<L>.lanes<n>" its fastest time in seconds.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import platform
import sys
import time

import numpy as np

from onofri import functional, sphere

BAND_LIMITS = (16, 32, 64, 128)
LANES = (1, 10)
REPEATS = 200           # most calls per kernel
BUDGET = 2.0            # seconds of calls per kernel
ALPHA = 0.75            # constrained minimiser u = 0: a handful of iterations from any start


def fastest(call) -> float:
    """The fastest of up to REPEATS calls, at least 5 and none once BUDGET s are spent."""
    best, spent, calls = float("inf"), 0.0, 0
    while calls < REPEATS and (calls < 5 or spent < BUDGET):
        start = time.perf_counter()
        call()
        took = time.perf_counter() - start
        best, spent, calls = min(best, took), spent + took, calls + 1
    return best


def kernels(grid: sphere.SphereGrid, lanes: int):
    """(name, call) of each kernel on a stack of `lanes` random starts of the grid."""
    u = functional.random_starts(grid, [(grid.lmax, k) for k in range(lanes)])
    spec = sphere.analyze(u)
    pts, weights, second = grid.node_points, grid.node_weights, grid.node_second
    values = u.values.reshape(lanes, -1)
    steep = 3.0 * values
    start = functional.exp_moments(steep, weights, pts)
    return [
        ("sphere.analyze", lambda: sphere.analyze(u)),
        ("sphere.synthesize", lambda: sphere.synthesize(spec, grid)),
        ("functional.exp_moments", lambda: functional.exp_moments(values, weights, pts)),
        ("functional.tilt", lambda: functional.tilt(steep, weights, pts, second, start)),
        ("functional.minimize", lambda: functional.minimize_stack([ALPHA] * lanes, u)),
    ]


def main() -> int:
    times = {}
    for L in BAND_LIMITS:
        grid = sphere.build_grid(L)
        for lanes in LANES:
            for name, call in kernels(grid, lanes):
                times[f"{name}.L{L}.lanes{lanes}"] = fastest(call)
    env = {"python": platform.python_version(), "numpy": np.__version__, "blas_threads": 1,
           "machine": platform.machine(), "nproc": os.cpu_count()}
    print(json.dumps({"env": env, "repeats": REPEATS, "budget_s": BUDGET, "kernels": times}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
