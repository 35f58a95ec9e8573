"""Smoke tests of the scripts under ``scripts/``, each run in a
subprocess with ``PYTHONPATH=src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    ).stdout


def test_plurality_quasipolynomial_script_checks_its_fit():
    out = run_script("plurality_quasipolynomial.py", "--classes", "all", "--check-at", "96")
    assert out.startswith("period 12, degree 5")
    assert len(re.findall(r"^class \d+: ", out, re.MULTILINE)) == 12
    enumerated = re.search(r"^f\(96\) by enumeration: (\d+)", out, re.MULTILINE)
    fitted = re.search(r"^f\(96\) by the fitted polynomial: (\d+)$", out, re.MULTILINE)
    assert enumerated and fitted
    assert enumerated.group(1) == fitted.group(1) == "4176821"
