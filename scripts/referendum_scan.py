#!/usr/bin/env python3
"""Exact referendum-paradox probabilities over a range of district counts."""

import argparse
import time

from polyvote.linalg import decimal_string, parse_integer
from polyvote.socialchoice import referendum_probability

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-districts", type=parse_integer, default=10)
    args = parser.parse_args()
    for n in range(3, args.max_districts + 1):
        t0 = time.perf_counter()
        p = referendum_probability(n)
        print(f"N={n:2d}  {str(p):>20}  = {decimal_string(p)}"
              f"  ({time.perf_counter()-t0:.2f}s)")
