#!/usr/bin/env python3
"""Fit the counting quasipolynomial of the plurality manipulability
region and cross-check one large dilation against direct enumeration.

The region is the inclusion-exclusion union of the polytopes where a
coalition can elect b or c instead of the sincere winner a; its counting
function is a degree-5 quasipolynomial of period 12.  The check sums
each term's enumerated count, never the series that `polyvote count`
reads past its window, and stops once a term's count visits more than
--budget nodes; n = 1000 visits about 3.4e5 under the default.
"""

import argparse
import time

from polyvote.ehrhart import (
    DEFAULT_BUDGET,
    count_lattice_points,
    ehrhart_pipeline,
)
from polyvote.linalg import parse_integer
from polyvote.socialchoice import PLURALITY, manipulability_event


def classes(text):
    """'all', or comma-separated integers in ASCII digits, each with an
    optional leading "-"."""
    if text == "all":
        return None
    return [parse_integer(c, signed=True) for c in text.split(",")]


def run(classes, check_at, budget):
    region = manipulability_event(PLURALITY)
    if classes is not None:
        classes = classes + [check_at]  # the check evaluates check_at's class
    t0 = time.perf_counter()
    q = ehrhart_pipeline(region, classes=classes)
    print(f"period {q.period}, degree {q.degree}  (fit in {time.perf_counter()-t0:.1f}s)")
    for r, poly in enumerate(q.polys):
        if poly is None:
            continue
        coeffs = " ".join(map(str, poly))
        print(f"class {r}: {coeffs}")
    print(f"leading coefficient {q.leading_coefficient()}"
          f" = region volume {region.volume()}")
    print(f"limiting manipulability probability: "
          f"{720 * q.leading_coefficient()}")
    t0 = time.perf_counter()
    enumerated = sum(s * count_lattice_points(p, check_at, budget)
                     for s, p in region.terms)
    print(f"f({check_at}) by enumeration: {enumerated}"
          f"  (in {time.perf_counter()-t0:.1f}s)")
    print(f"f({check_at}) by the fitted polynomial: {q.evaluate(check_at)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classes", type=classes, default="0,1,6",
                        help="residue classes to fit, or 'all'")
    parser.add_argument("--check-at", type=parse_integer, default=96)
    parser.add_argument("--budget", type=parse_integer, default=DEFAULT_BUDGET,
                        help="ceiling on the nodes each term's count visits "
                             "at --check-at")
    args = parser.parse_args()
    run(args.classes, args.check_at, args.budget)
