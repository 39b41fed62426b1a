#!/usr/bin/env python3
"""Mutation sweep of src/onofri: the one-token changes that no output or test notices.

A mutant changes one AST site of a module: `+` and `-` swap, `*` and `/` swap
(augmented assignments included), `<` and `<=` swap, `>` and `>=` swap, and a
numeric literal is scaled by 1.5 (an integer gains 1; a float zero, which the
scaling keeps, gives no mutant).  The mutant is the module's parsed tree with
that one node changed, written out by ast.unparse; its ledger row names the
node's first line and column, less the line's indentation.  Each mutant runs
in a fresh interpreter on a copy of the tree, never in the checkout, and is
judged by the oracle of scripts/row_hashes.py: each criterion run alone,
run_verify, the CLI runs and the shots, with their fingerprints and verdicts.

    caught   a battery row's verdict, a CLI verdict or an exit code changes
             (the oracle stops at the first output where one does), the run
             raises, or it times out
    changed  a fingerprint moves while every verdict holds
    same     every fingerprint is byte-identical

A changed or same mutant then runs against the test files that import its
module, and if it survives those, against the rest of the Tier-1 suite (hypothesis
seeded, the ledger's own test left out: it reads the ledger, not the program).
The survivors of both passes make the ledger, results/mutants.csv, one row per
mutant.  A row keeps the class and reason of the previous ledger's row with
the same module, source line, column and mutation, so a statement moved into or
out of a block keeps them; a new survivor's class is left empty, for a reader to
give (tests/test_mutation_ledger.py fails until then):

    dead       the line changes no reachable result: it goes
    test-only  only tests and perfbench's tracer reach it
    perf       a fast path whose value equals the general path's
    margin     a budget, floor, resolution or tolerance with room to spare
    guard      an input or overflow check whose boundary no test pins
    gap        a value no check constrains: the reason names what adds one

    PYTHONPATH=src python3 scripts/mutation_sweep.py [--modules axisym,conformal]

With --modules, only those modules' rows are replaced.  acceptance.py is not
swept: its literals are the checks' own tolerances and test points, and
tests/test_mutations.py pins a mutation for each of its criteria.
"""
import argparse
import ast
import csv
import io
import json
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "results" / "mutants.csv"
SKIPPED = {"acceptance", "__init__", "errors"}
COLUMNS = ["module", "line", "col", "source", "mutation", "oracle", "class", "reason"]
JOBS = 2                    # mutants run at once
ORACLE_TIMEOUT = 30.0       # s; a clean oracle run takes about 1.3 s
SUITE_TIMEOUT = 120.0       # s; the whole Tier-1 suite takes about 15 s
LEDGER_TEST = "tests/test_mutation_ledger.py"
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


# ---------------------------------------------------------------------------
# mutants
# ---------------------------------------------------------------------------


def _sites(source: str) -> tuple[ast.Module, list]:
    """The parsed source and, in ast.walk order, (node, old, new, attr, value) of
    each mutation site: the mutant swaps the token old for new, and setting the
    node's attr to value makes it in the tree."""
    tree, sites = ast.parse(source), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            op = type(node.op)
            sites.append((node, SYMBOLS[op], SYMBOLS[SWAPS[op]], "op", SWAPS[op]()))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(map(type, node.ops)):
                if op in SWAPS:
                    ops = [*node.ops[:i], SWAPS[op](), *node.ops[i + 1:]]
                    sites.append((node, SYMBOLS[op], SYMBOLS[SWAPS[op]], "ops", ops))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            new = node.value + 1 if isinstance(node.value, int) else node.value * 1.5
            if new != node.value:
                sites.append((node, ast.get_source_segment(source, node), repr(new), "value", new))
    return tree, sites


def mutants(source: str) -> list[tuple[int, int, str, str]]:
    """(line, column, old, new) of every mutant of the source, in ast.walk order:
    the mutated node starts at that line (from 1) and column (UTF-8 bytes, from 0,
    less the line's indentation, so a statement keeps its column in any block)."""
    indent = [len(line) - len(line.lstrip()) for line in source.splitlines()]
    return [(node.lineno, node.col_offset - indent[node.lineno - 1], old, new)
            for node, old, new, _, _ in _sites(source)[1]]


def mutant(source: str, index: int) -> str:
    """The source of the index-th mutant of mutants(source), as ast.unparse writes it."""
    tree, sites = _sites(source)
    node, _, _, attr, value = sites[index]
    setattr(node, attr, value)
    return ast.unparse(tree)


# ---------------------------------------------------------------------------
# the oracle, run in the mutated copy
# ---------------------------------------------------------------------------


def oracle(clean: dict | None) -> dict:
    """name: [fingerprint, verdicts] of the outputs scripts/row_hashes.py
    fingerprints, in print order; given the clean run's verdicts by name, it
    stops after the first output whose verdicts differ from them."""
    from row_hashes import fingerprint, outputs
    from onofri import acceptance

    got = {}
    for name, rows, verdicts, _ in outputs(acceptance.DEFAULT_SEED):
        got[name] = [fingerprint(rows), verdicts]
        if clean is not None and verdicts != clean[name]:
            break
    return got


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def _run(cmd, cwd: Path, timeout: float, stdin: str = "") -> subprocess.CompletedProcess | None:
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, input=stdin, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


def _judge(copy: Path, clean: dict | None) -> tuple[str, dict | None]:
    """The oracle's outcome in the copy, and its output (cut at the first
    output whose verdicts differ from the clean run's)."""
    verdicts = None if clean is None else {name: v for name, (_, v) in clean.items()}
    done = _run([sys.executable, "scripts/mutation_sweep.py", "--oracle"], copy, ORACLE_TIMEOUT,
                json.dumps(verdicts))
    if done is None or done.returncode != 0:
        return "caught", None
    got = json.loads(done.stdout.splitlines()[-1])
    if clean is None:
        return "same", got
    if any(got[name][1] != verdicts[name] for name in got):
        return "caught", got
    if any(got[name][0] != fp for name, (fp, _) in clean.items()):
        return "changed", got
    return "same", got


def _tests_pass(copy: Path, files: list[str], passed=()) -> bool:
    """Whether the test files (all of Tier-1 when none) pass in the copy, leaving
    out the files already passed."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
           *(f"--ignore={f}" for f in (LEDGER_TEST, *passed)), *files]
    done = _run(cmd, copy, SUITE_TIMEOUT)
    return done is not None and done.returncode == 0


def test_files(module: str) -> list[str]:
    """The test files that import onofri.<module>."""
    pattern = re.compile(rf"^from onofri(?: import .*\b{module}\b|\.{module} import)", re.M)
    return sorted(f"tests/{p.name}" for p in (ROOT / "tests").glob("test_*.py")
                  if pattern.search(p.read_text()))


def _copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
    shutil.copytree(ROOT, dest, ignore=ignore)
    return dest


def read_ledger(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _key(row: dict, seen: dict) -> tuple:
    """module, source, column and mutation, with the count of earlier rows that share them."""
    base = (row["module"], row["source"], str(row["col"]), row["mutation"])
    seen[base] = seen.get(base, -1) + 1
    return (*base, seen[base])


def sweep(modules: list[str], workdir: Path | None, log) -> tuple[list[dict], dict]:
    """The surviving rows of the modules' mutants, and per module a count of each outcome."""
    tmp = Path(tempfile.mkdtemp(prefix="mutation_sweep_", dir=workdir))
    try:
        copies = queue.Queue()
        for i in range(JOBS):
            copies.put(_copy_tree(tmp / f"tree{i}"))
        probe = copies.get()
        _, clean = _judge(probe, None)
        if clean is None or not _tests_pass(probe, []):
            raise RuntimeError("the oracle or Tier-1 fails on the unmutated tree")
        copies.put(probe)
        lock, rows, counts = threading.Lock(), [], {}

        def one(module, source, files, index, site):
            line, col, old, new = site
            copy = copies.get()
            target = copy / "src" / "onofri" / f"{module}.py"
            try:
                target.write_text(mutant(source, index))
                fate, _ = _judge(copy, clean)
                if fate != "caught":
                    if files and not _tests_pass(copy, files):
                        fate = "module tests"
                    elif not _tests_pass(copy, [], passed=files):
                        fate = "tier-1"
            finally:
                target.write_text(source)
                copies.put(copy)
            with lock:
                counts.setdefault(module, {}).setdefault(fate, 0)
                counts[module][fate] += 1
                log(f"{module}:{line}:{col} {old} -> {new}: {fate}")
                if fate in ("same", "changed"):
                    rows.append({"module": module, "index": index, "line": line, "col": col,
                                 "source": source.splitlines()[line - 1].strip(),
                                 "mutation": f"{old} -> {new}", "oracle": fate})

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            futures = []
            for module in modules:
                source = (ROOT / "src" / "onofri" / f"{module}.py").read_text()
                files = test_files(module)
                futures += [pool.submit(one, module, source, files, i, site)
                            for i, site in enumerate(mutants(source))]
            for future in futures:
                future.result()
        return sorted(rows, key=lambda r: (r["module"], r["index"])), counts
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def write_ledger(path: Path, rows: list[dict]) -> None:
    rows = sorted(rows, key=lambda r: (r["module"], int(r["line"]), int(r["col"]), r["mutation"]))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows({c: row.get(c, "") for c in COLUMNS} for row in rows)
    path.write_text(buf.getvalue())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modules", help="comma-separated modules of src/onofri (default: all swept)")
    parser.add_argument("--workdir", type=Path, help="where the tree copies go (default: the temp dir)")
    parser.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.oracle:
        print(json.dumps(oracle(json.loads(sys.stdin.read()))))
        return 0
    every = sorted(p.stem for p in (ROOT / "src" / "onofri").glob("*.py") if p.stem not in SKIPPED)
    modules = args.modules.split(",") if args.modules else every
    if unknown := set(modules) - set(every):
        parser.error(f"not swept: {', '.join(sorted(unknown))}")

    start = time.perf_counter()
    rows, counts = sweep(modules, args.workdir, lambda msg: print(msg, file=sys.stderr, flush=True))
    old, seen = read_ledger(LEDGER), {}
    given = {_key(row, seen): (row["class"], row["reason"]) for row in old}
    seen = {}
    for row in rows:
        row["class"], row["reason"] = given.get(_key(row, seen), ("", ""))
    kept = [row for row in old if row["module"] not in modules]
    write_ledger(LEDGER, kept + rows)

    print(f"{'module':<12} {'mutants':>7} {'caught':>7} {'module tests':>12} {'tier-1':>7} {'changed':>7} {'same':>5}")
    for module in modules:
        c = counts.get(module, {})
        print(f"{module:<12} {sum(c.values()):>7} {c.get('caught', 0):>7} {c.get('module tests', 0):>12} "
              f"{c.get('tier-1', 0):>7} {c.get('changed', 0):>7} {c.get('same', 0):>5}")
    print(f"{len(rows)} survivors, {sum(not r['class'] for r in rows)} unclassified, "
          f"{time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
