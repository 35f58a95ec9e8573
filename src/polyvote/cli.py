"""Command-line front end.

Subcommands: ``volume``, ``count`` and ``ehrhart`` operate on plaintext
H-representation files (repeatable ``--polytope-file`` plus
``--subtract-file`` assemble a signed inclusion-exclusion region);
``table`` recomputes one of the five summary tables from first
principles; ``prob`` evaluates a canonical event-spec string.  Exit
codes: 0 success, 2 input error, 3 geometric error, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from collections import namedtuple
from fractions import Fraction

from .ehrhart import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ehrhart_pipeline,
    region_count,
)
from .linalg import decimal_string
from .polytope import EventRegion, GeometryError, HPolytope, parse_hrep
from .socialchoice import EVENT_SPECS, probability_for_spec, table_rows


class OutputRecord(namedtuple("OutputRecord", "label exact spec")):
    """One output row: a label, an exact value or None, and its spec."""

    __slots__ = ()

    @property
    def exact_str(self) -> str:
        return str(self.exact) if self.exact is not None else "n/a"

    @property
    def decimal_str(self) -> str:
        return decimal_string(self.exact) if self.exact is not None else "n/a"

    def as_json_obj(self):
        return {
            "label": self.label,
            "exact": str(self.exact) if self.exact is not None else None,
            "decimal": float(self.decimal_str) if self.exact is not None else None,
            "spec": self.spec,
        }


def render_records(records: list[OutputRecord], fmt: str) -> str:
    if fmt == "json":
        payload = [r.as_json_obj() for r in records]
        return json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["label", "exact", "decimal", "spec"])
        for r in records:
            writer.writerow([r.label, r.exact_str, r.decimal_str, r.spec])
        return buf.getvalue()
    lines = [f"{r.label}: exact={r.exact_str} decimal={r.decimal_str} spec={r.spec}"
             for r in records]
    return "\n".join(lines) + "\n"


def _load_polytope(path: str) -> HPolytope:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_hrep(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load_region(args) -> tuple[EventRegion, str]:
    terms = [(1, _load_polytope(p)) for p in args.polytope_file]
    terms += [(-1, _load_polytope(p)) for p in args.subtract_file or []]
    spec = "+".join(args.polytope_file)
    if args.subtract_file:
        spec += "-" + "-".join(args.subtract_file)
    return EventRegion(tuple(terms)), spec


def cmd_volume(args) -> str:
    region, spec = _load_region(args)
    rec = OutputRecord("volume", region.volume(), spec)
    return render_records([rec], args.format)


def cmd_count(args) -> str:
    region, spec = _load_region(args)
    total = region_count(region, args.n, budget=args.budget)
    rec = OutputRecord(f"lattice count at dilation {args.n}", Fraction(total), spec)
    return render_records([rec], args.format)


def cmd_ehrhart(args) -> str:
    region, _ = _load_region(args)
    classes = None
    if args.classes:
        classes = [int(c) for c in args.classes.split(",")]
    q = ehrhart_pipeline(region, classes=classes, budget=args.budget)
    fitted = [(r, poly) for r, poly in enumerate(q.polys) if poly is not None]
    if args.format == "json":
        payload = {
            "period": q.period,
            "degree": q.degree,
            "classes": {
                str(r): list(map(str, poly)) for r, poly in fitted
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["class"] + [f"c{i}" for i in range(q.degree + 1)])
        for r, poly in fitted:
            writer.writerow([r] + list(map(str, poly)))
        return buf.getvalue()
    lines = [f"period {q.period}", f"degree {q.degree}"]
    for r, poly in fitted:
        coeffs = " ".join(map(str, poly))
        lines.append(f"class {r}: {coeffs}")
    return "\n".join(lines) + "\n"


def cmd_table(args) -> str:
    rows = table_rows(args.table)
    records = [OutputRecord(r.label, r.probability, r.spec) for r in rows]
    return render_records(records, args.format)


def cmd_prob(args) -> str:
    result = probability_for_spec(args.spec)
    rec = OutputRecord(result.label, result.probability, result.spec)
    return render_records([rec], args.format)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves no
    state in it."""
    parser = argparse.ArgumentParser(
        prog="polyvote",
        description="Exact polytope volumes, lattice counts, Ehrhart "
                    "quasipolynomials and IAC voting probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, files=False, budget=False):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        if files:
            p.add_argument("--polytope-file", action="append", required=True,
                           metavar="PATH", help="H-representation file (repeatable)")
            p.add_argument("--subtract-file", action="append", metavar="PATH",
                           help="file whose count enters with sign -1 (repeatable)")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="ceiling on the nodes each count visits: an "
                                "enumerated range of a coordinate costs its "
                                "length")

    p = sub.add_parser("volume", help="exact volume of a polytope file")
    add_common(p, files=True)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("count", help="lattice points of the n-fold dilation")
    add_common(p, files=True, budget=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("ehrhart", help="counting quasipolynomial by interpolation")
    add_common(p, files=True, budget=True)
    p.add_argument("--classes", metavar="R1,R2,...",
                   help="restrict to these residue classes (taken modulo the "
                        "period); default: all")
    p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("table", help="recompute one of the five summary tables")
    add_common(p)
    p.add_argument("--table", type=int, choices=range(1, 6), required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("prob", help="probability of a canonical event spec")
    add_common(p)
    p.add_argument("spec", help="one of " + ", ".join(
        form.usage for forms in EVENT_SPECS.values() for form in forms)
        + "; RULE is plurality, borda, antiplurality or lambda=P/Q")
    p.set_defaults(func=cmd_prob)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        sys.stdout.write(args.func(args))
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except (GeometryError, RecursionError) as exc:
        print(f"geometric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
