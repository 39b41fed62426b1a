#!/usr/bin/env python3
"""Fingerprints of the acceptance and CLI rows, for checking that a change keeps them byte for byte.

Prints the first 16 hex digits of sha256(json.dumps(rows, sort_keys=True)) for
each of criteria 1-12 run alone, for acceptance.run_verify() (criteria 1-12
plus criterion 13's reversed pass), for the report rows of fixed runs of
every other subcommand (CLI_RUNS, with their verdicts and exit codes), and
for the radial shots of SHOT_GRID (profile, both masses, c_asym, verdict,
rejected steps and both beta_prime forms).  Run it on two trees and compare:

    PYTHONPATH=src python3 scripts/row_hashes.py [--seed N]

The seed is that of the battery; the CLI runs are fixed.  It then rebuilds
the files of results/ that the README's runs (RESULT_RUNS) and
scripts/unboundedness_probe.py write, in a temp dir, and prints whether each
file in results/ is byte for byte what its run writes now (fresh) or not (STALE).
"""
import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import unboundedness_probe
from onofri import acceptance, cli, report, shooting

# name: argv of `onofri`
CLI_RUNS = {
    "nodal_quadrant": ["nodal", "--field", "quadrant"],
    "nodal_linear": ["nodal", "--field", "linear"],
    "axisym_0.45": ["axisym", "--alpha", "0.45"],
    "axisym_0.55": ["axisym", "--alpha", "0.55"],
    "minimize": ["minimize", "--alpha", "0.7"],
    "alpha_scan": ["alpha-scan", "--alphas", "0.6,0.8"],
    "el_check": ["el-check", "--alpha", "0.8"],
    "bridge": ["bridge", "--alpha", "0.8"],
    "second_variation": ["second-variation"],
    "shoot": ["shoot", "--l", "1", "--s", "2.4849"],
    "beta_curve": ["beta-curve", "--l", "1"],
    "uniqueness": ["uniqueness", "--l", "1"],
    "bol_audit": ["bol-audit"],
    # stacks whose lanes stop at different iterations
    "alpha_scan_stack": ["alpha-scan", "--alphas", "0.55,0.6667,1", "--trials", "10"],
    "axisym_stack": ["axisym", "--alpha", "0.6", "--trials", "20"],
    "second_var_deg1": ["second-variation", "--mode", "degree1"],
    # more trials than one alpha_scan stack holds: three stacks per alpha
    "alpha_scan_25": ["alpha-scan", "--alphas", "0.55,0.8,1", "--trials", "25"],
    # open region only: no row asserts anything
    "alpha_scan_open": ["alpha-scan", "--alphas", "0.55,0.6", "--trials", "2"],
}

# file of results/: argv of the `onofri` run that writes it with --csv
RESULT_RUNS = {
    "alpha_scan.csv": ["alpha-scan", "--alphas", "0.55,0.6,0.6666666666666666,0.7,0.75,0.8,0.9,1",
                       "--trials", "10", "--seed", "20260808"],
    "beta_curve_l0.csv": ["beta-curve", "--l", "0", "--s-min", "-4", "--s-max", "4", "--n", "33"],
    **{f"beta_curve_l{l}.csv": ["beta-curve", "--l", l, "--s-min", "-6", "--s-max", "10", "--n", "65"]
       for l in ("0.5", "1", "2")},
}

# (l, s) of the shot fingerprint: the search bracket at four exponents, plus a
# shot with rejected steps
SHOT_GRID = [(l, float(s)) for l in (0.0, 0.5, 1.0, 2.0) for s in np.linspace(-6.0, 10.0, 9)]
SHOT_GRID.append((2.0, 7.0))


def fingerprint(rows) -> str:
    text = json.dumps(report.to_builtin(rows), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cli_rows(argv) -> tuple[int, str | None, list]:
    """The exit code, the verdict and the report rows of one CLI run, its stdout discarded."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(out)])
        rep = json.loads(out.read_text()) if out.exists() else {"verdict": None, "rows": []}
        return code, rep["verdict"], rep["rows"]


def shot_rows() -> list:
    """Every field of the shots of SHOT_GRID that a caller reads, and beta_prime."""
    rows = []
    for l, s in SHOT_GRID:
        sol = shooting.shoot(l, s)
        rows.append({"l": l, "s": s, "r_grid": sol.r_grid, "values": sol.values,
                     "beta_mass": sol.beta_mass, "beta_slope": sol.beta_slope,
                     "c_asym": sol.c_asym, "verdict": sol.verdict,
                     "rejected_steps": sol.rejected_steps,
                     "beta_prime": shooting.beta_prime(sol) if sol.verdict == "converged" else None})
    return rows


def fresh_results() -> list[tuple[str, bool]]:
    """(file, whether results/ holds the bytes its run writes now) for each
    file of RESULT_RUNS and the unboundedness probe's trace."""
    trace = unboundedness_probe.TRACE
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RESULT_RUNS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([*argv, "--csv", str(Path(tmp) / name)])
        report.write_csv(str(Path(tmp) / trace.name), unboundedness_probe.trace_rows())
        return [(name, (trace.parent / name).read_bytes() == (Path(tmp) / name).read_bytes())
                for name in [*RESULT_RUNS, trace.name]]


def outputs(seed):
    """(name, rows, verdicts, note) of every output the script fingerprints, in
    print order: each criterion run alone, run_verify, CLI_RUNS (their verdicts
    are the exit code and the report's verdict) and the shots (no verdicts)."""
    for cid in sorted(acceptance.CRITERIA):
        rows = acceptance.run_battery(seed, [cid])
        yield f"criterion {cid:2d}", rows, [row["passed"] for row in rows], ""
    rows = acceptance.run_verify(seed)
    yield "run_verify", rows, [row["passed"] for row in rows], f"({len(rows)} rows)"
    for name, argv in CLI_RUNS.items():
        code, verdict, rows = cli_rows(argv)
        yield f"cli {name}", rows, [code, verdict], f"({len(rows)} rows, {verdict}, exit {code})"
    rows = shot_rows()
    yield "shots", rows, [], f"({len(rows)} shots)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    seed = parser.parse_args().seed
    for name, rows, _, note in outputs(seed):
        width = 20 if name.startswith("cli ") else 13
        print(f"{name:<{width}} {fingerprint(rows)}  {note}".rstrip())
    for name, fresh in fresh_results():
        print(f"results {name} {'fresh' if fresh else 'STALE'}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
