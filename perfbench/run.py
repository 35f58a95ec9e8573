"""Benchmark for polyvote: one workload, timed end to end or traced by layer.

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's operations through ``polyvote.cli.main``
in a fresh worker interpreter, so every pass starts cold, as a command
line call does.  Passes repeat until ``--seconds`` have gone by, and
every pass's output is checked against ``oracles``.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it
alternates plain and traced passes and reports the per-layer metrics.
Pass and layer times are scaled to the speed of ``reference.kernel`` as
timed around each pass in its worker, so that runs minutes apart on a
host of drifting speed can be compared; the wall times are kept in the
BENCH file.  The last line of stdout is one JSON object; the run's numbers also go
to .bench_build/perfbench/BENCH_<workload>_trace<t>_seed<n>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import oracles
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# set-up-only workers started before the passes, so that set-up time is a
# median of several fresh interpreters even when few passes fit in a run
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def spawn(plan_path: str, *flags: str) -> tuple[float, dict | None]:
    """Start a worker; returns its set-up time (spawn to READY) and, unless
    it was set-up only, its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, *flags]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {(ready + err).strip()[-2000:]}")
    if "--setup-only" in flags:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def at_reference_speed(report: dict, seconds: float) -> float:
    """``seconds`` measured in one worker, expressed at the speed of the
    reference kernel timed around that worker's pass (see reference.py)."""
    return seconds * reference.NOMINAL_S / statistics.mean(report["reference_s"])


def layer_metrics(summary: dict) -> dict[str, float]:
    self_s, calls = summary["self_s"], summary["calls"]
    return {
        "cli.self_s": self_s["cli"],
        "socialchoice.self_s": self_s["socialchoice"],
        "socialchoice.polytopes_compiled": summary["polytopes_compiled"],
        "polytope.vertices_s": self_s["polytope.vertices"],
        "polytope.vertices_found": summary["vertices_found"],
        "polytope.volume_self_s": self_s["polytope.volume"],
        "polytope.volume_calls": calls.get("polytope.HPolytope.volume", 0),
        "linalg.self_s": self_s["linalg"],
        "linalg.calls": sum(c for n, c in calls.items() if n.startswith("linalg.")),
        "ehrhart.count_s": self_s["ehrhart.count"],
        "ehrhart.count_calls": calls.get("ehrhart.count_lattice_points", 0),
        "ehrhart.interpolate_s": self_s["ehrhart.interpolate"],
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "polyvote", "cli.py")):
        print(f"no polyvote sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    bad = oracles.self_check()
    if bad:
        print("oracle self-check failed: " + "; ".join(bad), file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans_{args.workload}.jsonl")
    setups, plain, traced = [], [], []
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
            plan = workloads.plan(args.workload, args.seed, os.path.relpath(work, ROOT))
            plan_path = os.path.join(work, "plan.json")
            with open(plan_path, "w", encoding="utf-8") as fh:
                json.dump(plan, fh)
            spawn(plan_path, "--setup-only")  # fills bytecode and file caches
            setups += [spawn(plan_path, "--setup-only")[0] for _ in range(SETUP_SAMPLES)]
            start = time.perf_counter()
            while True:
                setup_s, report = spawn(plan_path)
                setups.append(setup_s)
                plain.append(report)
                if args.trace:
                    traced.append(spawn(plan_path, "--trace", spans_path)[1])
                if time.perf_counter() - start >= args.seconds:
                    break
    except WorkerError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    # every pass runs the same operations; check each one
    outcomes = [o for r in plain + traced for o in workloads.check(args.workload, r["results"])]
    attempted = len(outcomes)
    failures = [o for o in outcomes if o.fault]
    correct = not any(o.fault == "unexpected" for o in failures)

    pass_s = [r["pass_s"] for r in plain]
    # set-up time is spawn and import work, which the kernel does not
    # track, so it stays a wall time
    scales = [at_reference_speed(r, 1.0) for r in plain]
    scaled_s = [at_reference_speed(r, r["pass_s"]) for r in plain]
    if args.trace:
        summaries = [r["trace"] for r in traced]
        per_pass = [{k: at_reference_speed(r, v) if k.endswith("_s") else v
                     for k, v in layer_metrics(r["trace"]).items()} for r in traced]
        # median_low: a value one traced pass measured, so counts stay whole
        metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(at_reference_speed(r, r["pass_s"]) for r in traced)
            - statistics.median(scaled_s))
        units = {k: "s" if k.endswith("_s") else "count" for k in metrics}
    else:
        metrics = {
            "run_s": statistics.median(scaled_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

    passes = len(plain) + len(traced)
    distinct_failures = sorted({(o.op, o.fault, o.detail) for o in failures})
    print(f"workload {args.workload}: {attempted // passes} ops per pass, "
          f"{len(failures) // passes} failed per pass, {passes} passes "
          f"({attempted} attempted, {len(failures)} failed)")
    for op, fault, detail in distinct_failures:
        what = workloads.FAULTS.get(fault, "unexpected failure")
        print(f"  FAILED [{fault}] {op}: {detail} -- {what}")
    q = quartiles(pass_s)
    print(f"wall time of {len(pass_s)} plain passes: median {q[1]:.4f} s, "
          f"quartiles {q[0]:.4f} / {q[2]:.4f} s; set-up median of {len(setups)} "
          f"{statistics.median(setups):.4f} s; pass times scaled to the reference "
          f"speed by factors {min(scales):.3f}..{max(scales):.3f}")
    if args.trace:
        split = {k: statistics.median(s["self_s"][k] for s in summaries)
                 for k in summaries[0]["self_s"]}
        total = sum(split.values()) or 1.0
        print("traced self time (wall): " + ", ".join(
            f"{k} {v:.3f} s ({100 * v / total:.0f}%)" for k, v in split.items()))
        missing = summaries[0]["missing"]
        if missing:
            print("not traced (absent from the program): " + ", ".join(missing))

    op_seconds: dict[str, list[float]] = {}
    for r in plain:
        for res in r["results"]:
            op_seconds.setdefault(workloads.op_label(res["argv"]), []).append(res["seconds"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "scales": scales, "reference_s": [r["reference_s"] for r in plain + traced],
        "pass_s": pass_s, "traced_pass_s": [r["pass_s"] for r in traced],
        "setup_s": setups, "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
        "op_median_s": {k: statistics.median(v) for k, v in op_seconds.items()},
        "failures": distinct_failures,
        "traced_self_s": [s["self_s"] for s in summaries] if args.trace else [],
        "traced_calls": summaries[0]["calls"] if args.trace else {},
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    bench_path = os.path.join(
        OUT_DIR, f"BENCH_{args.workload}_trace{args.trace}_seed{args.seed}.json")
    with open(bench_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
