"""Smoke tests of the scripts under ``scripts/``, each run in a
subprocess with ``PYTHONPATH=src``."""

import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import referendum_irwin_hall

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, check=True):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300, check=check,
    )
    return done.stdout if check else done


def test_plurality_quasipolynomial_script_checks_its_fit():
    out = run_script("plurality_quasipolynomial.py", "--classes", "all", "--check-at", "96")
    assert out.startswith("period 12, degree 5")
    assert len(re.findall(r"^class \d+: ", out, re.MULTILINE)) == 12
    enumerated = re.search(r"^f\(96\) by enumeration: (\d+)", out, re.MULTILINE)
    fitted = re.search(r"^f\(96\) by the fitted polynomial: (\d+)$", out, re.MULTILINE)
    assert enumerated and fitted
    assert enumerated.group(1) == fitted.group(1) == "4176821"


def test_plurality_quasipolynomial_script_checks_past_the_default_budget():
    # n = 1000 (class 4 mod 12) visits about 3.4e5 nodes, within the
    # default budget, though its vertex box holds 2.1e13 points
    out = run_script("plurality_quasipolynomial.py", "--classes", "4",
                     "--check-at", "1000")
    enumerated = re.search(r"^f\(1000\) by enumeration: (\d+)", out, re.MULTILINE)
    fitted = re.search(r"^f\(1000\) by the fitted polynomial: (\d+)$", out, re.MULTILINE)
    assert enumerated and fitted
    assert enumerated.group(1) == fitted.group(1) == "414433614658"


def test_plurality_quasipolynomial_script_fits_the_class_it_checks():
    # n = 100 is class 4 mod 12, which --classes 0 leaves out
    out = run_script("plurality_quasipolynomial.py", "--classes", "0", "--check-at", "100")
    assert re.findall(r"^class (\d+): ", out, re.MULTILINE) == ["0", "4"]
    enumerated = re.search(r"^f\(100\) by enumeration: (\d+)", out, re.MULTILINE)
    fitted = re.search(r"^f\(100\) by the fitted polynomial: (\d+)$", out, re.MULTILINE)
    assert enumerated and fitted
    assert enumerated.group(1) == fitted.group(1) == "5061918"


def test_referendum_scan_matches_irwin_hall():
    out = run_script("referendum_scan.py", "--max-districts", "9")
    printed = re.findall(r"^N=\s*(\d+)\s+(\S+)\s+= ", out, re.MULTILINE)
    assert [int(n) for n, _ in printed] == list(range(3, 10))
    for n, exact in printed:
        assert F(exact) == referendum_irwin_hall(int(n))


@pytest.mark.parametrize("name, args", [
    ("plurality_quasipolynomial.py", ("--check-at", "-3")),
    ("plurality_quasipolynomial.py", ("--classes", "0,+1")),
    ("referendum_scan.py", ("--max-districts", "\u0663")),
    ("referendum_scan.py", ("--max-districts", "0_3")),
])
def test_scripts_read_integers_in_ascii_digits(name, args):
    # int() would read these as -3, 1 and 3
    done = run_script(name, *args, check=False)
    assert done.returncode == 2 and done.stdout == ""
    assert f"argument {args[0]}: invalid " in done.stderr
