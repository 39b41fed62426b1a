#!/usr/bin/env python3
"""Fingerprints of the acceptance rows, for checking that a change keeps them byte for byte.

Prints the first 16 hex digits of sha256(json.dumps(rows, sort_keys=True)) for
each of criteria 1-12 run alone, and for acceptance.run_verify() (criteria
1-12 plus criterion 13's reversed pass).  Run it on two trees and compare:

    PYTHONPATH=src python3 scripts/row_hashes.py [--seed N]
"""
import argparse
import hashlib
import json
import sys

from onofri import acceptance
from onofri.report import to_builtin


def fingerprint(rows) -> str:
    return hashlib.sha256(json.dumps(to_builtin(rows), sort_keys=True).encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    seed = parser.parse_args().seed
    for cid in sorted(acceptance.CRITERIA):
        print(f"criterion {cid:2d}  {fingerprint(acceptance.run_battery(seed, [cid]))}")
    rows = acceptance.run_verify(seed)
    print(f"run_verify    {fingerprint(rows)}  ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
