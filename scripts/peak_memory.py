#!/usr/bin/env python3
"""Warm tracemalloc peak of each acceptance criterion, and the line that sets it.

Each criterion runs three times on shared grids: once to warm its caches, once
under tracemalloc alone for its peak (bytes of Python and numpy allocations
made during the run and live at once), and once more with
sys.settrace as well.  The traced pass names the innermost `onofri` line that
was running when the peak last rose, followed by the `onofri` lines that
called it.  The peak printed is the untraced one: the trace function's own
allocations would add to it.

    PYTHONPATH=src python3 scripts/peak_memory.py [--criteria 2,10] [--seed N]
"""
import argparse
import sys
import tracemalloc
from pathlib import Path

from onofri import acceptance

SRC = str(Path(acceptance.__file__).parent)


def peak_bytes(run) -> int:
    """The tracemalloc peak of run(): bytes allocated during it and live at once."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_site(run) -> list[str]:
    """The `onofri` lines running when run()'s traced peak last rose, innermost first."""
    stack = []          # [code, line] of each running onofri frame, outermost first
    best = [0, []]

    def rose():
        peak = tracemalloc.get_traced_memory()[1]
        if peak > best[0]:
            best[1] = [f"{Path(code.co_filename).name}:{line} ({code.co_name})"
                       for code, line in reversed(stack)]
            best[0] = peak
            tracemalloc.reset_peak()        # so the list just made cannot set a new peak

    def on_event(frame, event, arg):
        rose()
        if event == "line":
            stack[-1][1] = frame.f_lineno
        elif event == "return":     # also when a generator yields or an exception leaves
            stack.pop()
        return on_event

    def on_call(frame, event, arg):
        rose()
        if not frame.f_code.co_filename.startswith(SRC):
            return None
        stack.append([frame.f_code, frame.f_lineno])
        return on_event

    tracemalloc.start()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return best[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    parser.add_argument("--criteria", default=",".join(map(str, sorted(acceptance.CRITERIA))),
                        help="comma-separated criterion numbers (default: all)")
    args = parser.parse_args()
    grids = acceptance.battery_grids()
    for cid in (int(c) for c in args.criteria.split(",")):
        def run(cid=cid):
            acceptance.CRITERIA[cid][1](args.seed, grids)

        run()
        peak = peak_bytes(run) / 2**20
        site = peak_site(run)
        print(f"criterion {cid:2d}  {peak:5.2f} MB  at {site[0] if site else '?'}")
        for caller in site[1:]:
            print(f"{'':27}< {caller}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
