"""One pass over a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN.json [--setup-only] [--trace SPANS.jsonl]

Imports ``polyvote.cli`` from the checkout's ``src``, loads the plan,
prints ``READY`` (the parent times set-up up to that line), times the
reference kernel, calls ``polyvote.cli.main(argv)`` in-process for
every operation, capturing its exit code and output, and times the
kernel again.  The last line on stdout is one JSON object with every
operation's result, the pass time (the sum of the ``main`` calls), the
two kernel times, peak RSS and, when traced, the span summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import polyvote
    import polyvote.cli

    if not os.path.abspath(polyvote.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"polyvote imported from {polyvote.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference_s = [reference.seconds()]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(polyvote)
    cli = polyvote.cli

    results = []

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        results.append({"argv": argv, "code": code, "out": out.getvalue(),
                        "err": err.getvalue(), "seconds": seconds})

    for argv in plan["ops"]:
        run(argv)
    if plan.get("round_trip"):
        # one `prob` per row the tables printed, mixed with the fixed ops
        follow = []
        for res in results:
            if res["code"] == 0:
                with contextlib.suppress(ValueError, KeyError, TypeError):
                    rows = json.loads(res["out"])
                    rows = [rows] if isinstance(rows, dict) else rows
                    follow += [["prob", row["spec"], "--format", "json"] for row in rows]
        follow += plan["then"]
        random.Random(plan["seed"]).shuffle(follow)
        for argv in follow:
            run(argv)

    reference_s.append(reference.seconds())
    report = {
        "results": results,
        "pass_s": sum(r["seconds"] for r in results),
        "reference_s": reference_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        report["trace"] = tracer.summary()
        tracer.write(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
