"""scipy stays off the import path: only the 2-D eigen path loads it.  numpy.fft
stays off it too: the sphere transforms are matrix products.

Each check runs in a fresh interpreter, since this test session has scipy
loaded already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onofri

SRC = str(Path(onofri.__file__).resolve().parent.parent)

REPORT = ("import json, sys; "
          "print(json.dumps(sorted(k for k in sys.modules "
          "if k in ('scipy', 'numpy.fft') or k.startswith(('scipy.', 'numpy.fft.')))))")
VERIFY = ("from onofri import cli\n"
          "assert cli.main(['verify', '--out', 'verify.json']) == cli.EXIT_OK")


def _modules_after(code: str, tmp_path) -> list:
    """The scipy and numpy.fft modules loaded once code has run."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", f"{code}\n{REPORT}"], env=env,
                         cwd=tmp_path, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert _modules_after("import onofri", tmp_path) == []


@pytest.fixture(scope="module")
def verify_modules(tmp_path_factory):
    return _modules_after(VERIFY, tmp_path_factory.mktemp("verify"))


def test_verify_loads_no_scipy(verify_modules):
    assert [k for k in verify_modules if k.startswith("scipy")] == []


def test_verify_loads_no_numpy_fft(verify_modules):
    assert [k for k in verify_modules if k.startswith("numpy.fft")] == []
