#!/usr/bin/env python3
"""Fit the counting quasipolynomial of the plurality manipulability
region and cross-check one large dilation against direct enumeration.

The region is the inclusion-exclusion union of the polytopes where a
coalition can elect b or c instead of the sincere winner a; its counting
function is a degree-5 quasipolynomial of period 12.  Like `polyvote
count`, the enumeration stops once a term's count visits more than
--budget nodes; n = 1000 visits about 3.4e5 under the default.
"""

import argparse
import time

from polyvote.ehrhart import DEFAULT_BUDGET, ehrhart_pipeline, region_count
from polyvote.socialchoice import PLURALITY, manipulability_event


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
    enumerated = region_count(region, check_at, budget)
    print(f"f({check_at}) by enumeration: {enumerated}"
          f"  (in {time.perf_counter()-t0:.1f}s)")
    print(f"f({check_at}) by the fitted polynomial: {q.evaluate(check_at)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classes", default="0,1,6",
                        help="residue classes to fit, or 'all'")
    parser.add_argument("--check-at", type=int, default=96)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="ceiling on the nodes each term's count visits "
                             "at --check-at")
    args = parser.parse_args()
    classes = None if args.classes == "all" else [int(c) for c in args.classes.split(",")]
    run(classes, args.check_at, args.budget)
