"""Command-line front end.

Subcommands: ``volume``, ``count`` and ``ehrhart`` operate on plaintext
H-representation files (repeatable ``--polytope-file`` plus
``--subtract-file`` assemble a signed inclusion-exclusion region);
``table`` recomputes one of the five summary tables from first
principles; ``prob`` evaluates a canonical event-spec string.  Exit
codes: 0 success, 2 input error, 3 geometric error, 4 budget exceeded.

One ``COMMANDS`` table maps each subcommand to its help line, its
argument builder and its handler.  Each subcommand's parser is built
on first use and cached per process; the full parser with every
subcommand is built only for a command line that names none of them
(no arguments, ``-h`` or an unknown command).
"""

from __future__ import annotations

import argparse
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
    """One output row: a label, an exact value and its spec."""

    __slots__ = ()

    @property
    def decimal_str(self) -> str:
        return decimal_string(self.exact)

    def as_json_obj(self):
        return {
            "label": self.label,
            "exact": str(self.exact),
            "decimal": float(self.decimal_str),
            "spec": self.spec,
        }


def render_records(records: list[OutputRecord], fmt: str) -> str:
    if fmt == "json":
        payload = [r.as_json_obj() for r in records]
        return json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n"
    if fmt == "csv":
        import csv  # imported here: only csv output needs it

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["label", "exact", "decimal", "spec"])
        for r in records:
            writer.writerow([r.label, r.exact, r.decimal_str, r.spec])
        return buf.getvalue()
    lines = [f"{r.label}: exact={r.exact} decimal={r.decimal_str} spec={r.spec}"
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
    q = ehrhart_pipeline(region, classes=args.classes, budget=args.budget)
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
        import csv

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


def _budget(text: str) -> int:
    """``--budget``: a non-negative integer."""
    try:
        budget = int(text)
    except ValueError:
        budget = None
    if budget is None or budget < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return budget


def _classes(text: str) -> list[int]:
    """``--classes``: one or more comma-separated integers.  An empty
    value is an input error; leaving the flag out fits every class."""
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers such as 0,1,6, got {text!r}") from None


def _add_files(p) -> None:
    p.add_argument("--polytope-file", action="append", required=True,
                   metavar="PATH", help="H-representation file (repeatable)")
    p.add_argument("--subtract-file", action="append", metavar="PATH",
                   help="file whose count enters with sign -1 (repeatable)")


def _add_budget(p) -> None:
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                   help="ceiling (>= 0) on the nodes each lattice count "
                        "visits; a count already made in this process "
                        "(by polytope and dilation) is reused and "
                        "charges the nodes it visited the first time; "
                        "count also holds the steps of reading "
                        "the Ehrhart series to it; ehrhart stops at once "
                        "when its window would pass it, checked before "
                        "building the series denominator and, in "
                        "dimension <= 2, again after")


def _count_arguments(p) -> None:
    _add_files(p)
    _add_budget(p)
    p.add_argument("--n", type=int, required=True)


def _ehrhart_arguments(p) -> None:
    _add_files(p)
    _add_budget(p)
    p.add_argument("--classes", type=_classes, metavar="R1,R2,...",
                   help="restrict to these residue classes (taken modulo the "
                        "period), one or more comma-separated integers; "
                        "default, with the flag left out: all")


def _table_arguments(p) -> None:
    p.add_argument("--table", type=int, choices=range(1, 6), required=True)


def _prob_arguments(p) -> None:
    p.add_argument("spec", help="one of " + ", ".join(
        form.usage for forms in EVENT_SPECS.values() for form in forms)
        + "; RULE is plurality, borda, antiplurality or lambda=P/Q")


Command = namedtuple("Command", "help add_arguments run")

# each subcommand: its help line, the builder of its arguments (every
# subcommand also takes --format) and its handler
COMMANDS = {
    "volume": Command("exact volume of a polytope file", _add_files, cmd_volume),
    "count": Command("lattice points of the n-fold dilation", _count_arguments, cmd_count),
    "ehrhart": Command("counting quasipolynomial by interpolation", _ehrhart_arguments,
                       cmd_ehrhart),
    "table": Command("recompute one of the five summary tables", _table_arguments, cmd_table),
    "prob": Command("probability of a canonical event spec", _prob_arguments, cmd_prob),
}


def _add_command_arguments(p, command: str) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    COMMANDS[command].add_arguments(p)


@functools.cache
def command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, built on its first use and cached
    per process; parsing leaves no state in it.  Its prog is
    ``polyvote <command>``, as in the tree of ``build_parser``."""
    p = argparse.ArgumentParser(prog=f"polyvote {command}")
    _add_command_arguments(p, command)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The full parser with every subcommand, from ``COMMANDS``.  Only
    a command line that names no subcommand needs it: for the usage
    error, the top-level help or the unknown command."""
    parser = argparse.ArgumentParser(
        prog="polyvote",
        description="Exact polytope volumes, lattice counts, Ehrhart "
                    "quasipolynomials and IAC voting probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_command_arguments(sub.add_parser(name, help=command.help), name)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv else None
    try:
        if command in COMMANDS:
            # as in the full tree, the subcommand parses what it knows
            # and the top level reports the rest
            args, extra = command_parser(command).parse_known_args(argv[1:])
            if extra:
                build_parser().error("unrecognized arguments: " + " ".join(extra))
        else:
            args = build_parser().parse_args(argv)
            command = args.command
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        sys.stdout.write(COMMANDS[command].run(args))
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
