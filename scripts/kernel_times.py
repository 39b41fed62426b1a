#!/usr/bin/env python3
"""Fastest-of-N times of the kernels of a constrained descent step, as JSON.

Times sphere.analyze, sphere.synthesize, functional.exp_moments,
functional.tilt and one functional.minimize_stack run at L = 16, 32, 64 and
128 (the first band limit above sphere.TABLE_LMAX, whose transforms use the
FFT), each on a stack of 1 and of 10 lanes, with BLAS capped at one thread.
It also times the two disk-rule kernels the battery calls: planar.beta_l of
a unit-mass random start that planar.to_planar transferred, at L = 16 and 32,
and eigen.domain_mass of the perturbed audit field on Disk(3), and one
shooting.shoot at each (l, s) of SHOTS and one shooting.beta_prime of each
converged one.
A kernel's time is the fastest of up to REPEATS calls (at least 5, and no more
once its calls have taken BUDGET seconds): the fastest call is the one the
host's speed changes and other processes slowed least.  Every call of a kernel
does the same work on the same inputs, the random starts of
functional.random_starts; the tilt starts from the starts scaled by 3, so it
takes several Newton steps.

    PYTHONPATH=src python3 scripts/kernel_times.py

Prints one JSON object: the environment, and per kernel
"<module>.<kernel>.L<L>.lanes<n>" (the disk-rule kernels "planar.beta_l.L<L>"
"eigen.domain_mass.disk3", the shot kernels "shooting.<kernel>.l<l>.s<s>") its
fastest time in seconds, and under "shot_steps" each shot's accepted and
rejected steps, keyed by its shooting.shoot name.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import platform
import sys
import time

import numpy as np

from onofri import eigen, functional, planar, shooting, sphere

BAND_LIMITS = (16, 32, 64, 128)
LANES = (1, 10)
REPEATS = 200           # most calls per kernel
BUDGET = 2.0            # seconds of calls per kernel
ALPHA = 0.75            # constrained minimiser u = 0: a handful of iterations from any start
DISK_BAND_LIMITS = (16, 32)     # band limits of the fields planar.beta_l integrates
RHO = 1.5               # the transfer's rho, as criterion 5's random_degree6 field
AUDIT_RADIUS = 3.0      # the disk of criterion 9's Bol audits
# (l, s); (2, 7) rejects steps, and (1, 32) is a concentrated start, unresolved
SHOTS = ((0.0, 0.0), (1.0, 2.0), (2.0, -5.0), (2.0, 7.0), (1.0, 32.0))


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


def disk_kernels():
    """(name, call) of the disk-rule kernels: planar.beta_l of a transferred
    unit-mass random start at each of DISK_BAND_LIMITS, and eigen.domain_mass
    of the perturbed audit field on Disk(AUDIT_RADIUS)."""
    calls = []
    for L in DISK_BAND_LIMITS:
        u = functional.random_start(sphere.build_grid(L), (L, 0), degree=6)
        v = planar.to_planar(functional.shift_to_unit_mass(u), RHO)
        calls.append((f"planar.beta_l.L{L}", lambda v=v: planar.beta_l(v)))
    g = planar.audit_fields()["perturbed"]
    calls.append((f"eigen.domain_mass.disk{AUDIT_RADIUS:g}",
                  lambda: eigen.domain_mass(g, eigen.Disk(AUDIT_RADIUS))))
    return calls


def shot_kernels():
    """(name, call) of shooting.shoot at each (l, s) of SHOTS, with the default
    r_max, and of shooting.beta_prime of that shot where it converged; and
    {shoot name: {"accepted": n, "rejected": n}} of the shots' steps."""
    calls, steps = [], {}
    for l, s in SHOTS:
        sol = shooting.shoot(l, s)
        name = f"shooting.shoot.l{l:g}.s{s:g}"
        calls.append((name, lambda l=l, s=s: shooting.shoot(l, s)))
        steps[name] = {"accepted": len(sol.r_grid) - 1, "rejected": sol.rejected_steps}
        if sol.verdict == "converged":
            calls.append((f"shooting.beta_prime.l{l:g}.s{s:g}",
                          lambda sol=sol: shooting.beta_prime(sol)))
    return calls, steps


def main() -> int:
    times = {}
    for L in BAND_LIMITS:
        grid = sphere.build_grid(L)
        for lanes in LANES:
            for name, call in kernels(grid, lanes):
                times[f"{name}.L{L}.lanes{lanes}"] = fastest(call)
    shots, steps = shot_kernels()
    for name, call in disk_kernels() + shots:
        times[name] = fastest(call)
    env = {"python": platform.python_version(), "numpy": np.__version__, "blas_threads": 1,
           "machine": platform.machine(), "nproc": os.cpu_count()}
    print(json.dumps({"env": env, "repeats": REPEATS, "budget_s": BUDGET, "kernels": times,
                      "shot_steps": steps}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
