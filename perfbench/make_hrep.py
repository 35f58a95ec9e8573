"""Regenerate the quasipolynomial workload's H-rep files.

Usage, from the repository root: python3 perfbench/make_hrep.py

Writes the three terms of the plurality manipulability region (sincere
ranking a > b > c), favor_b + favor_c - both, to perfbench/inputs/.
The files are checked in, so a later change to the event compiler does
not change the benchmark's inputs; rerun this only to refresh them on
purpose.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from polyvote.polytope import format_hrep  # noqa: E402
from polyvote.socialchoice import PLURALITY, manipulability_event  # noqa: E402

from workloads import PLURALITY_TERMS  # noqa: E402

if __name__ == "__main__":
    region = manipulability_event(PLURALITY)
    for (sign, poly), (flag, name) in zip(region.terms, PLURALITY_TERMS):
        if (sign < 0) != (flag == "--subtract-file"):
            sys.exit(f"term sign {sign} does not match {flag} for {name}")
        with open(os.path.join(HERE, "inputs", name), "w", encoding="utf-8") as fh:
            fh.write(format_hrep(poly))
        print(f"wrote perfbench/inputs/{name}")
