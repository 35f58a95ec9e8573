"""Command-line front end.

Subcommands: ``volume``, ``count`` and ``ehrhart`` operate on plaintext
H-representation files (repeatable ``--polytope-file`` plus
``--subtract-file`` assemble a signed inclusion-exclusion region);
``table`` recomputes one of the five summary tables from first
principles; ``prob`` evaluates a canonical event-spec string.  Exit
codes: 0 success, 2 input error, 3 geometric error, 4 budget exceeded.

One ``COMMANDS`` table maps each subcommand to its help line, its
options as data and its handler; ``_parse`` reads a command line from
it and the usage, errors (exit 2) and help are printed from it.  No
parser object is built, and no call imports argparse, whose first
parser calls gettext, which imports locale.
"""

from __future__ import annotations

import io
import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .ehrhart import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ehrhart_pipeline,
    ehrhart_series,
    region_count,
)
from .linalg import decimal_string, parse_integer
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


def _render_series(series, fmt: str) -> str:
    """The Ehrhart series of ``polyvote ehrhart`` without --classes:
    period, degree, D's factors (1 - t^j)^e_j, the window's first n and
    the numerator h."""
    factors = list(series.factors.items())
    if fmt == "json":
        payload = {
            "period": series.period,
            "degree": series.dim,
            "denominator": [[j, e] for j, e in factors],
            "start": series.start,
            "numerator": list(series.h),
        }
        return json.dumps(payload, indent=2) + "\n"
    denominator = " ".join(f"(1-t{f'^{j}' if j > 1 else ''})^{e}" for j, e in factors) or "1"
    numerator = " ".join(map(str, series.h)) or "0"
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["period", "degree", "denominator", "start", "numerator"])
        writer.writerow([series.period, series.dim, denominator, series.start, numerator])
        return buf.getvalue()
    return (f"period {series.period}\ndegree {series.dim}\ndenominator {denominator}\n"
            f"start {series.start}\nnumerator {numerator}\n")


def cmd_ehrhart(args) -> str:
    region, _ = _load_region(args)
    if args.classes is None:
        return _render_series(ehrhart_series(region, budget=args.budget), args.format)
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


def _natural(text: str) -> int:
    """``--budget``, ``--n``, ``--table``: a non-negative integer, ASCII digits."""
    try:
        return parse_integer(text)
    except ValueError:
        raise ValueError(f"expected a non-negative integer, got {text!r}") from None


def _classes(text: str) -> list[int]:
    """``--classes``: one or more comma-separated integers in ASCII
    digits, each with an optional leading "-".  An empty value is an
    input error; leaving the flag out fits no class and prints the
    Ehrhart series instead."""
    try:
        return [parse_integer(c, signed=True) for c in text.split(",")]
    except ValueError:
        raise ValueError(
            f"expected comma-separated integers such as 0,1,6, got {text!r}") from None


def _format(text: str) -> str:
    if text not in ("text", "json", "csv"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'text', 'json', 'csv')")
    return text


def _table(text: str) -> int:
    number = _natural(text)
    if not 1 <= number <= 5:
        raise ValueError(f"invalid choice: {number} (choose from 1, 2, 3, 4, 5)")
    return number


def _spec_help() -> str:
    return "one of " + ", ".join(
        form.usage for forms in EVENT_SPECS.values() for form in forms
    ) + "; RULE is plurality, borda, antiplurality or lambda=P/Q"


# One argument of a subcommand.  A flag without leading dashes names
# the positional; ``read`` turns the text into the value or raises
# ValueError; a ``many`` flag appends each value to a list (None while
# absent); ``help`` is a string, or a function that joins it on -h.
Option = namedtuple("Option", "flag metavar read many required default help",
                    defaults=(False, False, None, None))

_HELP = Option("--help", None, None, help="show this help message and exit")
_FORMAT = Option("--format", "{text,json,csv}", _format, default="text")
_FILES = (
    Option("--polytope-file", "PATH", str, many=True, required=True,
           help="H-representation file (repeatable)"),
    Option("--subtract-file", "PATH", str, many=True,
           help="file whose count enters with sign -1 (repeatable)"),
)
_BUDGET = Option("--budget", "BUDGET", _natural, default=DEFAULT_BUDGET,
                 help="ceiling (>= 0) on the nodes each lattice count visits; a region's "
                      "Ehrhart series (by region and budget) already made in this process "
                      "is reused, so count and ehrhart on one region share it; count also "
                      "holds the steps of reading the series to it; the series stops "
                      "at once when its window would pass it, checked before building "
                      "its denominator and, in dimension <= 2, again after")

Command = namedtuple("Command", "help options run")

# each subcommand: its help line, its arguments (every subcommand also
# takes -h and --format) and its handler
COMMANDS = {
    "volume": Command("exact volume of a polytope file", _FILES, cmd_volume),
    "count": Command("lattice points of the n-fold dilation", _FILES + (
        _BUDGET, Option("--n", "N", _natural, required=True)), cmd_count),
    "ehrhart": Command("Ehrhart series, or the quasipolynomial's classes", _FILES + (
        _BUDGET, Option("--classes", "R1,R2,...", _classes,
                        help="fit these residue classes (taken modulo the period), one or "
                             "more comma-separated integers, and print their polynomials; "
                             "default, with the flag left out: print the series (period, "
                             "degree, denominator factors, window start, numerator) and "
                             "fit no class")), cmd_ehrhart),
    "table": Command("recompute one of the five summary tables", (
        Option("--table", "{1,2,3,4,5}", _table, required=True),), cmd_table),
    "prob": Command("probability of a canonical event spec", (
        Option("spec", "spec", str, required=True, help=_spec_help),), cmd_prob),
}


class UsageError(Exception):
    """A command line the parser refuses, reported with the usage of
    ``polyvote <command>`` (of ``polyvote`` when command is None)."""

    def __init__(self, command: str | None, message: str):
        super().__init__(message)
        self.command = command


def _prog(command: str | None) -> str:
    return f"polyvote {command}" if command else "polyvote"


def _option(token: str, flags) -> tuple[Option | None, str | None] | None:
    """What ``token`` is, read as argparse reads it: None for a value
    ("-", a negative number, or text with a space that names no flag),
    else the flag of ``flags`` or -h/--help that it names, exactly or
    by a unique prefix, with the value after any "=", or ``(None,
    None)`` for a flag it does not know."""
    if token[:1] != "-" or token == "-":
        return None
    if token == "-h":
        return _HELP, None
    if token.startswith("--"):
        name, eq, value = token.partition("=")
        matches = [o for o in (_HELP, *flags) if o.flag.startswith(name)]
        exact = [o for o in matches if o.flag == name]
        if exact or len(matches) == 1 and name != "--":
            return (exact or matches)[0], value if eq else None
    if re.fullmatch(r"-\d+|-\d*\.\d+", token) or " " in token:
        return None
    return None, None


def _usage(command: str | None) -> str:
    """The usage line, wrapped at 79 columns between arguments."""
    if command is None:
        words = ["[-h]", "{" + ",".join(COMMANDS) + "}", "..."]
    else:
        options = (_FORMAT, *COMMANDS[command].options)
        words = ["[-h]"] + [f"{o.flag} {o.metavar}" if o.required else f"[{o.flag} {o.metavar}]"
                            for o in options if o.flag[0] == "-"]
        words += [o.metavar for o in options if o.flag[0] != "-"]
    lines = [f"usage: {_prog(command)}"]
    indent = " " * len(lines[0])
    for word in words:
        if len(lines[-1]) + len(word) >= 79:
            lines.append(indent)
        lines[-1] += " " + word
    return "\n".join(lines)


def _help(command: str | None) -> str:
    """The help of ``polyvote`` or of one subcommand, wrapped at 79
    columns without breaking a word or a spec form."""
    import textwrap  # imported here: only -h needs it

    def wrap(text: str, width: int) -> list[str]:
        return textwrap.wrap(text, width, break_long_words=False, break_on_hyphens=False)

    def row(head: str, text) -> list[str]:
        text = text() if callable(text) else text
        lines = wrap(text, 55) if text else []
        if len(head) > 20 or not lines:
            lines.insert(0, "")
        return [f"  {head:<20}  {lines[0]}".rstrip()] + [" " * 24 + line for line in lines[1:]]

    lines = [_usage(command), ""]
    if command is None:
        lines += wrap("Exact polytope volumes, lattice counts, Ehrhart quasipolynomials "
                      "and IAC voting probabilities.", 79)
        lines += ["", "commands:"]
        for name, entry in COMMANDS.items():
            lines += row(name, entry.help)
        lines.append("")
        options = ()
    else:
        options = (_FORMAT, *COMMANDS[command].options)
        positionals = [o for o in options if o.flag[0] != "-"]
        if positionals:
            lines.append("positional arguments:")
            for o in positionals:
                lines += row(o.metavar, o.help)
            lines.append("")
        options = [o for o in options if o.flag[0] == "-"]
    lines += ["options:"] + row("-h, --help", _HELP.help)
    for o in options:
        lines += row(f"{o.flag} {o.metavar}", o.help)
    return "\n".join(lines) + "\n"


def _parse(command: str, argv: list[str]) -> SimpleNamespace | None:
    """The arguments of ``polyvote <command>`` in ``argv``, read from
    its entry in ``COMMANDS``, or None once -h has printed the help.
    Forms: ``--flag value``, ``--flag=value``, a unique prefix of a
    flag, and ``--``, after which every token is a value.  A value
    that starts with "-" is taken only if it is a negative number.
    Raises UsageError, as argparse did: a bad value at once, then
    missing required arguments, then unrecognized ones."""
    options = (_FORMAT, *COMMANDS[command].options)
    flags = [o for o in options if o.flag[0] == "-"]
    positionals = [o for o in options if o.flag[0] != "-"]
    values = {o.flag: o.default for o in options}
    given, extra = set(), []
    only_values = False
    tokens = iter(argv)
    for token in tokens:
        if token == "--" and not only_values:
            only_values = True
            continue
        found = None if only_values else _option(token, flags)
        if found is None and not positionals or found == (None, None):
            extra.append(token)
            continue
        option, text = (positionals.pop(0), token) if found is None else found
        if option is _HELP:
            sys.stdout.write(_help(command))
            return None
        if text is None:
            # the end of argv reads as "--", which is no value
            text = next(tokens, "--")
            if _option(text, flags) is not None:
                raise UsageError(command, f"argument {option.flag}: expected one argument")
        try:
            value = option.read(text)
        except ValueError as exc:
            raise UsageError(command, f"argument {option.flag}: {exc}") from None
        flag = option.flag
        values[flag] = (values[flag] or []) + [value] if option.many else value
        given.add(flag)
    missing = [o.flag for o in options if o.required and o.flag not in given]
    if missing:
        raise UsageError(command, "the following arguments are required: " + ", ".join(missing))
    if extra:
        raise UsageError(None, "unrecognized arguments: " + " ".join(extra))
    return SimpleNamespace(**{f.lstrip("-").replace("-", "_"): v for f, v in values.items()})


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv else None
    try:
        if command in COMMANDS:
            args = _parse(command, argv[1:])
        elif argv and _option(command, ()) is None:
            raise UsageError(None, f"argument command: invalid choice: {command!r} "
                             f"(choose from {', '.join(map(repr, COMMANDS))})")
        elif argv and _option(command, ())[0] is _HELP:
            sys.stdout.write(_help(None))
            return 0
        else:
            raise UsageError(None, "the following arguments are required: command")
    except UsageError as exc:
        print(_usage(exc.command), f"{_prog(exc.command)}: error: {exc}",
              sep="\n", file=sys.stderr)
        return 2
    if args is None:
        return 0
    try:
        sys.stdout.write(COMMANDS[command].run(args))
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except (GeometryError, RecursionError) as exc:
        print(f"geometric error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
