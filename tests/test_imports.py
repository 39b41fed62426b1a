"""scipy stays off the import path: only the 2-D eigen path loads it.

Each check runs in a fresh interpreter, since this test session has scipy
loaded already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import onofri

SRC = str(Path(onofri.__file__).resolve().parent.parent)

REPORT_SCIPY = ("import json, sys; "
                "print(json.dumps(sorted(k for k in sys.modules "
                "if k == 'scipy' or k.startswith('scipy.'))))")


def _scipy_modules_after(code: str, tmp_path) -> list:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", f"{code}\n{REPORT_SCIPY}"], env=env,
                         cwd=tmp_path, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert _scipy_modules_after("import onofri", tmp_path) == []


def test_verify_loads_no_scipy(tmp_path):
    code = ("from onofri import cli\n"
            "assert cli.main(['verify', '--out', 'verify.json']) == cli.EXIT_OK")
    assert _scipy_modules_after(code, tmp_path) == []
