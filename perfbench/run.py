"""Run one benchmark workload; the last line of output is the result as JSON.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

With --trace 0 the run reports the end-to-end metrics, measured with tracing
off.  With --trace 1 it first runs one traced repeat, then the untraced
repeats, and reports the per-layer metrics.  The traced repeat has the inputs
of repeat 0 (for verify, in an order no untraced repeat uses) and its rows must
hash like repeat 0's, so for verify this also checks that the criterion order
does not matter.  The tracing overhead is the traced repeat's wall time minus
the median untraced repeat's; spans are written to perfbench/out/.  A run's work is
fixed by the workload and --seconds (whole repeats, see
workloads.repeats_for), so the parent and a change run identical inputs.

Times are taken from the fastest repeat: the 2-core hosts this runs on switch
between a fast and a slow speed state for seconds at a time (about 17 ms and
28 ms for one fixed Python loop), so a median over a run reads whichever state
dominated it, while the fastest of several short repeats does not.  A task
slot's time is its fastest repeat, `wall_s` is the sum of those (one repeat
with every task at its fastest), and set-up is the fastest of several set-ups
spread through the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_PROBES = 4
TAIL_BEYOND = 10

# A fresh interpreter repeating the set-up; prints its set-up time.
_PROBE = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[1] + '/src']; "
          "from perfbench.run import timed_setup; "
          "print(timed_setup(sys.argv[2], int(sys.argv[3]))[2])")


def timed_setup(workload: str, seed: int):
    """Import the package and build the workload's grids and inputs; returns
    (workloads module, state, seconds)."""
    t0 = time.perf_counter()
    from perfbench import workloads

    state = workloads.WORKLOADS[workload].setup(seed)
    return workloads, state, time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> float:
    out = subprocess.run([sys.executable, "-c", _PROBE, str(ROOT), workload, str(seed)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def run_repeat(tasks: list, rec=None):
    """Run tasks in order; returns (wall seconds, {slot: seconds}, passed flags, rows)."""
    times, passed, rows = {}, [], []
    t_start = time.perf_counter()
    for i, task in enumerate(tasks):
        if rec is not None:
            rec.task = i
            rec.open(task.name)
        t0 = time.perf_counter()
        try:
            ok, row = task.run()
        except Exception as exc:   # a task that raises is a failed task, not a crash
            traceback.print_exc()
            ok, row = False, {"error": repr(exc)}
        finally:
            if rec is not None:
                rec.close()
        times[task.key] = time.perf_counter() - t0
        passed.append(bool(ok))
        rows.append(row)
    return time.perf_counter() - t_start, times, passed, rows


def task_quantiles(slot_times: dict, repeats: int) -> tuple[float, float, float]:
    """(p50, tail, tail percentile) over the run's tasks, each slot's fastest
    repeat standing for all `repeats` of its tasks.  The tail is at the highest
    percentile with at least TAIL_BEYOND tasks beyond it."""
    xs = sorted(slot_times.values())
    beyond = -(-TAIL_BEYOND // repeats)         # slots holding TAIL_BEYOND tasks
    if len(xs) <= beyond:
        raise ValueError(f"{len(xs) * repeats} tasks cannot give a tail with "
                         f"{TAIL_BEYOND} beyond it")
    return statistics.median(xs), xs[-beyond - 1], 100.0 * (len(xs) - beyond) / len(xs)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
            "git_commit": _git_commit()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("verify", "descent", "curves", "audits"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "onofri" / "__init__.py").is_file():
        print(f"no onofri sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    workloads, state, setup_main = timed_setup(args.workload, args.seed)
    from perfbench import tracer

    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    attempted = failed = 0
    checks = {}
    traced = None
    n_repeats = workloads.repeats_for(wl, args.seconds)
    if args.trace:
        # same inputs as repeat 0; where repeats share inputs, a fresh task order
        rec = tracer.Recorder()
        tasks = wl.tasks(state, n_repeats if wl.order_check else 0)
        with tracer.instrument(rec):
            wall, _, passed, rows = run_repeat(tasks, rec)
        traced = (wall, workloads.row_hash(tasks, rows), rec)
        attempted += len(passed)
        failed += passed.count(False)

    # set-up probes run between repeats, so they sample the whole run
    setups = [setup_main]
    walls, hashes, slot_times = [], [], {}
    for r in range(n_repeats):
        if len(setups) <= SETUP_PROBES:
            setups.append(setup_probe(args.workload, args.seed))
        tasks = wl.tasks(state, r)
        wall, times, passed, rows = run_repeat(tasks)
        walls.append(wall)
        for key, t in times.items():
            slot_times[key] = min(t, slot_times.get(key, t))
        hashes.append(workloads.row_hash(tasks, rows))
        attempted += len(passed)
        failed += passed.count(False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES + 1 - len(setups))]

    if wl.order_check and n_repeats > 1:
        checks["order"] = len(set(hashes)) == 1
    if traced is not None:
        checks["traced_rows"] = traced[1] == hashes[0]
    attempted += len(checks)
    failed += list(checks.values()).count(False)

    wall_s = sum(slot_times.values())
    p50_s, tail_s, tail_pct = task_quantiles(slot_times, n_repeats)
    print(f"workload {args.workload} seed {args.seed}: {n_repeats} repeats of "
          f"{len(slot_times)} tasks, repeat wall times {[round(w, 3) for w in walls]}")
    print(f"task p50 {p50_s:.6g} s; task tail {tail_s:.6g} s at p{tail_pct:.1f} of "
          f"{n_repeats * len(slot_times)} tasks (at least {TAIL_BEYOND} beyond it)")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}; checks {checks}")

    if traced is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (min(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        t_wall, t_hash, rec = traced
        overhead_s = t_wall - statistics.median(walls)
        values = tracer.layer_metrics(rec, overhead_s)
        metrics = {name: (value, tracer.unit_of(name)) for name, value in values.items()}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        path.write_text(json.dumps({
            "env": env, "workload": args.workload, "seed": args.seed,
            "traced_wall_s": t_wall, "untraced_wall_s": walls, "row_hash": t_hash,
            "metrics": values, **rec.dump()}))
        print(f"tracing overhead {overhead_s:.4f} s on a {t_wall:.3f} s traced repeat; "
              f"{len(rec.spans)} spans written to {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
