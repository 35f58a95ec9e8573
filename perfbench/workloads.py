"""The three workloads: their operations, input files, and output checks.

``plan`` writes a workload's input files into the run's work directory
and returns the worker's plan; ``check`` compares one pass's results
with ``oracles`` and returns one ``Outcome`` per operation.  The seed
orders the operations and the constraint lines of each H-rep file; it
never changes which operations run, so every seed does the same work.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("iac-events", "referendum", "quasipolynomial")

# referendum: `prob` stays at N <= 6, where the polytope with the missing
# cap (fault F1) and the corrected one cost about the same
REFERENDUM_PROB_N = (3, 4, 5, 6)
DISTRICTS = 8
DISTRICT_WON = (5, 6, 7)
# quasipolynomial: residue classes fitted, dilation counted, and fitted
# values compared with the series per class (n = r + period * j)
CLASSES = (0, 1, 6)
COUNT_N = 96
SERIES_POINTS_PER_CLASS = 10
PLURALITY_TERMS = (("--polytope-file", "plurality_favor_b.hrep"),
                   ("--polytope-file", "plurality_favor_c.hrep"),
                   ("--subtract-file", "plurality_both.hrep"))
RULES = ("plurality", "borda", "antiplurality")
# named faults, counted as failed until mended
FAULTS = {
    "F1": "referendum_district_polytope has no cap x_i <= 1 on won districts",
    "F2": "table 1 prints joint-/relative-efficiency specs that `prob` rejects",
}
F2_KINDS = ("joint-efficiency", "relative-efficiency")


@dataclass(frozen=True)
class Outcome:
    op: str
    fault: str | None  # None: passed; "F1", "F2": named fault; "unexpected"
    detail: str = ""


def op_label(argv) -> str:
    skip = {"--format", "json"}
    return " ".join(os.path.basename(a) if a.endswith(".hrep") else a
                    for a in argv if a not in skip)


def _write_hrep(path: str, dim: int, lines: list[str], rng: random.Random) -> None:
    lines = list(lines)
    rng.shuffle(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([f"dim {dim}"] + lines) + "\n")


def district_hrep_lines(districts: int, won: int) -> list[str]:
    """Stated model: won shares in [1/2, 1], lost in [0, 1/2], and a
    popular vote of at most half."""
    lines = []
    for i in range(districts):
        unit = " ".join("1" if j == i else "0" for j in range(districts))
        lo, hi = ("1/2", "1") if i < won else ("0", "1/2")
        lines += [f"{unit} >= {lo}", f"{unit} <= {hi}"]
    lines.append(" ".join(["1"] * districts) + f" <= {districts}/2")
    return lines


def plan(workload: str, seed: int, work_dir: str) -> dict:
    """Write the inputs under ``work_dir`` (relative to the checkout
    root, which is the worker's working directory) and return its plan."""
    rng = random.Random(seed)
    if workload == "iac-events":
        tables = [["table", "--table", str(t), "--format", "json"] for t in (1, 2, 3, 4)]
        rng.shuffle(tables)
        then = [["prob", spec, "--format", "json"] for spec in
                [f"manipulable:{r}" for r in RULES] + ["condorcet-paradox"]
                + [f"rule-winner:{r}" for r in RULES]]
        return {"ops": tables, "round_trip": True, "then": then, "seed": seed}
    if workload == "referendum":
        ops = [["prob", f"referendum:N={n}", "--format", "json"] for n in REFERENDUM_PROB_N]
        for k in DISTRICT_WON:
            path = os.path.join(work_dir, f"district_N{DISTRICTS}_k{k}.hrep")
            _write_hrep(path, DISTRICTS, district_hrep_lines(DISTRICTS, k), rng)
            ops.append(["volume", "--polytope-file", path, "--format", "json"])
        rng.shuffle(ops)
        return {"ops": ops}
    if workload == "quasipolynomial":
        files = []
        for flag, name in PLURALITY_TERMS:
            with open(os.path.join(HERE, "inputs", name), encoding="utf-8") as fh:
                header, *lines = [ln for ln in fh.read().splitlines() if ln.strip()]
            path = os.path.join(work_dir, name)
            _write_hrep(path, int(header.split()[1]), lines, rng)
            files += [flag, path]
        ops = [["ehrhart", *files, "--classes", ",".join(map(str, CLASSES)),
                "--format", "json"],
               ["count", *files, "--n", str(COUNT_N), "--format", "json"]]
        rng.shuffle(ops)
        return {"ops": ops}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks


def _exact(res) -> Fraction:
    return Fraction(json.loads(res["out"])["exact"])


def _is_probability(p: Fraction) -> bool:
    return 0 <= p <= 1


def _fail(res, why: str) -> str:
    err = res["err"].strip().splitlines()
    return f"{why}; exit {res['code']}" + (f" ({err[-1]})" if err else "")


def _check_table(number: int, res) -> tuple[list[str], dict[str, Fraction]]:
    """Problems with one table's output, and its values by spec."""
    if res["code"] != 0:
        return [_fail(res, "table did not run")], {}
    rows = json.loads(res["out"])
    problems = []
    if len(rows) != oracles.TABLE_ROWS[number]:
        problems.append(f"{len(rows)} rows, expected {oracles.TABLE_ROWS[number]}")
    by_label = {r["label"]: Fraction(r["exact"]) for r in rows}
    for label, value in by_label.items():
        if not _is_probability(value):
            problems.append(f"{label} = {value} outside [0, 1]")
    for (t, label), want in oracles.PAPER_EXACT.items():
        if t == number and by_label.get(label) != want:
            problems.append(f"{label} = {by_label.get(label)}, expected {want}")
    for (t, label), text in oracles.PAPER_DECIMAL.items():
        if t != number:
            continue
        tol = oracles.DECIMAL_TOL_OVERRIDE.get((t, label), oracles.DECIMAL_TOL)
        if label not in by_label or abs(by_label[label] - Fraction(text)) > tol:
            problems.append(f"{label} = {by_label.get(label)}, printed {text}")
    t, label, joint, given = oracles.TRANSPOSED_ROW
    if t == number and (given not in by_label or joint not in by_label
                        or by_label.get(label) != by_label[joint] / by_label[given]):
        problems.append(f"{label} != {joint} / {given}")
    return problems, {r["spec"]: Fraction(r["exact"]) for r in rows}


def _check_iac(results) -> list[Outcome]:
    outcomes = []
    table_values: dict[str, Fraction] = {}
    for res in results:
        if res["argv"][0] != "table":
            continue
        problems, values = _check_table(int(res["argv"][2]), res)
        table_values.update(values)
        outcomes.append(Outcome(op_label(res["argv"]), "unexpected" if problems else None,
                                "; ".join(problems)))
    round_trips = 0
    for res in results:
        if res["argv"][0] != "prob":
            continue
        spec, label = res["argv"][1], op_label(res["argv"])
        wants = []
        if spec in table_values:
            round_trips += 1
            wants.append(table_values[spec])
            if res["code"] == 2 and spec.split(":")[0] in F2_KINDS:
                outcomes.append(Outcome(label, "F2", _fail(res, "table spec rejected")))
                continue
        if spec in oracles.LITERATURE:
            wants.append(oracles.LITERATURE[spec])
        if spec.startswith("rule-winner:"):
            wants.append(Fraction(1, 3))  # relabelling symmetry
        if res["code"] != 0:
            outcomes.append(Outcome(label, "unexpected", _fail(res, "prob failed")))
            continue
        got = _exact(res)
        if not _is_probability(got) or not wants or any(got != w for w in wants):
            outcomes.append(Outcome(label, "unexpected", f"got {got}, expected {wants}"))
        else:
            outcomes.append(Outcome(label, None))
    expected = sum(oracles.TABLE_ROWS.values())
    if round_trips != expected:
        outcomes.append(Outcome("table round trip", "unexpected",
                                f"{round_trips} table specs went through prob, "
                                f"expected {expected}"))
    return outcomes


def _check_referendum(results) -> list[Outcome]:
    outcomes = []
    for res in results:
        label = op_label(res["argv"])
        if res["code"] != 0:
            outcomes.append(Outcome(label, "unexpected", _fail(res, "failed")))
            continue
        got = _exact(res)
        if res["argv"][0] == "prob":
            n = int(res["argv"][1].split("=")[1])
            want = oracles.referendum_probability(n)
            if got == want and _is_probability(got):
                outcomes.append(Outcome(label, None))
            elif got == oracles.uncapped_referendum_probability(n):
                outcomes.append(Outcome(label, "F1", f"got {got}, expected {want}"))
            else:
                outcomes.append(Outcome(label, "unexpected", f"got {got}, expected {want}"))
        else:
            k = int(res["argv"][2].rsplit("_k", 1)[1].split(".")[0])
            want = oracles.district_volume(DISTRICTS, k)
            if got == want:
                outcomes.append(Outcome(label, None))
            else:
                outcomes.append(Outcome(label, "unexpected", f"got {got}, expected {want}"))
    return outcomes


def _check_ehrhart(res) -> list[str]:
    data = json.loads(res["out"])
    period, degree = data["period"], data["degree"]
    series = oracles.manipulable_counts(max(CLASSES) + period * SERIES_POINTS_PER_CLASS)
    problems = []
    if degree != 5:
        problems.append(f"degree {degree}, expected 5")
    if sorted(map(int, data["classes"])) != sorted(CLASSES):
        problems.append(f"classes {sorted(data['classes'])}, expected {list(CLASSES)}")
    for r, coeffs in data["classes"].items():
        poly = [Fraction(c) for c in coeffs]
        if 720 * poly[-1] != oracles.MANIPULABLE_PROBABILITY:
            problems.append(f"class {r}: 720 * leading coefficient = {720 * poly[-1]}")
        for j in range(SERIES_POINTS_PER_CLASS):
            n = int(r) + period * j
            value = sum(c * n**i for i, c in enumerate(poly))
            if value != series[n]:
                problems.append(f"class {r} at n={n}: {value} != series")
                break
    return problems


def _check_quasipolynomial(results) -> list[Outcome]:
    outcomes = []
    for res in results:
        label = op_label(res["argv"])
        if res["code"] != 0:
            outcomes.append(Outcome(label, "unexpected", _fail(res, "failed")))
            continue
        if res["argv"][0] == "ehrhart":
            problems = _check_ehrhart(res)
        else:
            got, want = _exact(res), oracles.manipulable_counts(COUNT_N)[COUNT_N]
            problems = [] if got == want else [f"got {got}, expected {want}"]
        outcomes.append(Outcome(label, "unexpected" if problems else None, "; ".join(problems)))
    return outcomes


def check(workload: str, results) -> list[Outcome]:
    """One outcome per operation.  A result that cannot even be parsed
    is an unexpected failure of that operation."""
    checker = {"iac-events": _check_iac, "referendum": _check_referendum,
               "quasipolynomial": _check_quasipolynomial}[workload]
    try:
        return checker(results)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [Outcome(op_label(r["argv"]), "unexpected", f"unreadable output: {exc!r}")
                for r in results]
