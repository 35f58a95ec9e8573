import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from polyvote import cli, ehrhart, polytope
from polyvote.cli import main
from polyvote.polytope import format_hrep
import polyvote.socialchoice as sc

from helpers import clear_event_memos, referendum_irwin_hall

ROOT = Path(__file__).resolve().parent.parent

SIMPLEX5 = """\
dim 5
1 0 0 0 0 >= 0
0 1 0 0 0 >= 0
0 0 1 0 0 >= 0
0 0 0 1 0 >= 0
0 0 0 0 1 >= 0
1 1 1 1 1 <= 1
"""

CUBE3 = """\
dim 3
1 0 0 >= 0
0 1 0 >= 0
0 0 1 >= 0
1 0 0 <= 1
0 1 0 <= 1
0 0 1 <= 1
"""

# the box [0, 1/7] x [0, 1/11] x [0, 1/13]
WIDE3 = "dim 3\n7 0 0 >= 0\n7 0 0 <= 1\n0 11 0 >= 0\n0 11 0 <= 1\n0 0 13 >= 0\n0 0 13 <= 1\n"

EMPTY2 = """\
dim 2
1 0 >= 2
1 0 <= 1
0 1 >= 0
0 1 <= 1
"""

UNBOUNDED2 = """\
dim 2
1 0 >= 0
0 1 >= 0
"""


@pytest.fixture
def run(capsys, tmp_path):
    def invoke(*args, files=None):
        argv = list(args)
        for flag, content in files or []:
            path = tmp_path / f"f{len(argv)}.hrep"
            path.write_text(content)
            argv += [flag, str(path)]
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    return invoke


def test_volume_simplex(run):
    code, out, _ = run("volume", files=[("--polytope-file", SIMPLEX5)])
    assert code == 0
    assert "exact=1/120" in out and "decimal=0.00833" in out


def test_volume_cube_and_empty(run):
    code, out, _ = run("volume", files=[("--polytope-file", CUBE3)])
    assert code == 0 and "exact=1" in out
    code, out, _ = run("volume", files=[("--polytope-file", EMPTY2)])
    assert code == 0 and "exact=0" in out


def test_count_simplex(run):
    code, out, _ = run("count", "--n", "10", files=[("--polytope-file", SIMPLEX5)])
    assert code == 0 and "exact=3003" in out
    code, out, _ = run("count", "--n", "0", files=[("--polytope-file", CUBE3)])
    assert code == 0 and "exact=1" in out


def test_count_inclusion_exclusion_region(run):
    region = sc.manipulability_event(sc.PLURALITY)
    files = [("--polytope-file", format_hrep(region.terms[0][1])),
             ("--polytope-file", format_hrep(region.terms[1][1])),
             ("--subtract-file", format_hrep(region.terms[2][1]))]
    code, out, _ = run("count", "--n", "12", files=files)
    assert code == 0
    assert "exact=537" in out  # a_12 of the union counting series


def test_ehrhart_unit_cube(run):
    # without --classes the series: the window n = -2 ... 3 of
    # -1, 0, 1, 8, 27, 64 times D = (1 - t)^4 is h and two zeros
    code, out, _ = run("ehrhart", files=[("--polytope-file", CUBE3)])
    assert code == 0
    assert out == "period 1\ndegree 3\ndenominator (1-t)^4\nstart -2\nnumerator -1 4 -5 8\n"
    code, out, _ = run("ehrhart", "--classes", "0", files=[("--polytope-file", CUBE3)])
    assert code == 0
    assert out == "period 1\ndegree 3\nclass 0: 1 3 3 1\n"


def test_ehrhart_csv_rows(run):
    square = "dim 2\n1 0 >= 0\n0 1 >= 0\n1 0 <= 1\n0 1 <= 1\n"
    code, out, _ = run("ehrhart", "--format", "csv", "--classes", "0",
                       files=[("--polytope-file", square)])
    assert code == 0 and out == "class,c0,c1,c2\r\n0,1,2,1\r\n"
    code, out, _ = run("ehrhart", "--format", "csv", files=[("--polytope-file", square)])
    assert code == 0 and out == ("period,degree,denominator,start,numerator\r\n"
                                 "1,2,(1-t)^3,-1,0 1 1\r\n")


def test_ehrhart_json_shape(run):
    code, out, _ = run("ehrhart", "--format", "json", "--classes", "0",
                       files=[("--polytope-file", CUBE3)])
    data = json.loads(out)
    assert data["period"] == 1 and data["degree"] == 3
    assert data["classes"]["0"] == ["1", "3", "3", "1"]
    code, out, _ = run("ehrhart", "--format", "json", files=[("--polytope-file", CUBE3)])
    assert code == 0
    assert json.loads(out) == {"period": 1, "degree": 3, "denominator": [[1, 4]], "start": -2,
                               "numerator": [-1, 4, -5, 8]}


PLURALITY_FILES = [
    (flag, (ROOT / "perfbench" / "inputs" / f"plurality_{name}.hrep").read_text())
    for flag, name in (("--polytope-file", "favor_b"), ("--polytope-file", "favor_c"),
                       ("--subtract-file", "both"))
]


def test_ehrhart_prints_the_plurality_series_without_classes(run):
    # D = (1 - t^4)^3 (1 - t^3)^4 (1 - t^2) / (1 - t)^2, of degree 24;
    # the README shows the same lines
    code, out, err = run("ehrhart", files=PLURALITY_FILES)
    assert (code, err) == (0, "")
    assert out == (
        "period 12\n"
        "degree 5\n"
        "denominator (1-t^4)^3 (1-t^3)^4 (1-t^2)^1 (1-t)^-2\n"
        "start -12\n"
        "numerator -16 -32 -32 32 144 192 96 -192 -432 -416 -64 416 609 418 -58 -402 "
        "-399 -142 169 266 222 100 25 0\n"
    )
    assert out in (ROOT / "README.md").read_text(encoding="utf-8")


def test_a_failed_window_check_is_a_geometric_error(run, monkeypatch):
    # D = (1 - t)^2 is too small a denominator for plurality: the window
    # check fails, a fault of the bound and not of the input, so both
    # commands that read the series exit 3
    ehrhart._series.cache_clear()
    monkeypatch.setattr(ehrhart, "_series_denominator", lambda terms: {1: 2})
    message = ("geometric error: count at n=1 deviates from the series recurrence "
               "of degree 2\n")
    for command in (("ehrhart", "--classes", "0"), ("count", "--n", "96"), ("ehrhart",)):
        code, out, err = run(*command, files=PLURALITY_FILES)
        assert (code, out, err) == (3, "", message), command


def test_ehrhart_region_with_class_restriction(run):
    region = sc.manipulability_event(sc.PLURALITY)
    files = [("--polytope-file", format_hrep(region.terms[0][1])),
             ("--polytope-file", format_hrep(region.terms[1][1])),
             ("--subtract-file", format_hrep(region.terms[2][1]))]
    code, out, _ = run("ehrhart", "--classes", "0", files=files)
    assert code == 0
    assert "period 12" in out
    assert "class 0: 1 137/120 15/32 3/32 1/108 7/17280" in out


def test_table_text_json_csv_agree(run):
    code, text_out, _ = run("table", "--table", "5")
    assert code == 0
    code, json_out, _ = run("table", "--table", "5", "--format", "json")
    assert code == 0
    code, csv_out, _ = run("table", "--table", "5", "--format", "csv")
    assert code == 0

    json_exacts = [row["exact"] for row in json.loads(json_out)]
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    csv_exacts = [row["exact"] for row in csv_rows]
    text_exacts = [
        line.split("exact=")[1].split()[0] for line in text_out.strip().splitlines()
    ]
    assert json_exacts == csv_exacts == text_exacts
    assert json_exacts[0] == "1/8"
    # decimal always derives from the exact value
    for row in json.loads(json_out):
        assert abs(row["decimal"] - F(row["exact"])) <= F(1, 2 * 10**5)


@pytest.mark.parametrize("number", [1, 2, 3, 4, 5])
def test_prob_after_table_reads_the_memo(run, monkeypatch, number):
    # every spec a table prints is evaluated once; `prob` on it in the
    # same process compiles no polytope and computes no volume
    clear_event_memos()
    calls = []
    compile_rows, volume = sc.share_space_polytope, polytope._volume

    def compile_spy(rows):
        calls.append("compile")
        return compile_rows(rows)

    def volume_spy(poly):
        calls.append("volume")
        return volume(poly)

    monkeypatch.setattr(sc, "share_space_polytope", compile_spy)
    monkeypatch.setattr(polytope, "_volume", volume_spy)
    code, out, _ = run("table", "--table", str(number), "--format", "json")
    assert code == 0 and "volume" in calls
    rows = json.loads(out)
    calls.clear()
    for row in rows:
        code, out, _ = run("prob", row["spec"], "--format", "json")
        assert code == 0 and json.loads(out)["exact"] == row["exact"]
    assert calls == []


def test_prob_referendum_at_fifteen_districts(run):
    code, out, _ = run("prob", "referendum:N=15")
    assert code == 0
    assert F(out.split("exact=")[1].split()[0]) == referendum_irwin_hall(15)


def test_prob_specs(run):
    code, out, _ = run("prob", "manipulable:plurality")
    assert code == 0 and "exact=7/24" in out and "decimal=0.29167" in out
    code, out, _ = run("prob", "condorcet-paradox")
    assert code == 0 and "exact=1/16" in out
    code, out, _ = run("prob", "referendum:N=5")
    assert code == 0 and "exact=55/384" in out
    code, out, _ = run("prob", "referendum:N=4")
    assert code == 0 and "exact=1/48" in out
    code, out, _ = run("prob", "condorcet-efficiency:lambda=1/2")
    assert code == 0 and "exact=41/45" in out


def test_prob_joint_and_relative_efficiency_specs(run):
    code, out, _ = run("prob", "joint-efficiency:borda,plurality")
    assert code == 0 and "exact=2651/3240" in out
    code, out, _ = run("prob", "relative-efficiency:borda|plurality")
    assert code == 0 and "exact=2651/2856" in out
    code, _, err = run("prob", "joint-efficiency:borda")
    assert code == 2 and "input error" in err


def test_exit_code_input_error(run):
    code, _, err = run("prob", "no-such-event")
    assert code == 2 and "input error" in err
    for spec in ("manipulable:borda:junk", "condorcet-paradox:foo", "rule-winner:borda:x",
                 "condorcet-winner:z", "agreement:plurality,borda,antiplurality:winner"):
        code, out, err = run("prob", spec)
        assert code == 2 and out == "" and "does not match the form" in err, spec
    # rule weights and district counts are spelled inside the spec only
    assert run("prob", "condorcet-efficiency", "--lambda", "1/2")[0] == 2
    assert run("prob", "referendum", "--districts", "4")[0] == 2
    code, _, err = run("count", "--n", "3", files=[("--polytope-file", "dim 2\n1 0 < 1\n")])
    assert code == 2
    # --n and --table read ASCII digits only, no sign, space or digit separator
    for n in ("1_0", "٥", " 3", "+3", "-3"):
        code, out, err = run("count", "--n", n, files=[("--polytope-file", CUBE3)])
        assert (code, out) == (2, "")
        assert f"argument --n: expected a non-negative integer, got {n!r}" in err
    for table in ("٣", "+3", " 3", "3_0", "6"):
        code, out, err = run("table", "--table", table)
        assert (code, out) == (2, "") and "argument --table" in err, table


@pytest.mark.parametrize("content, message", [
    (None, "input error: cannot read "),
    ("dim 0\n", "input error: line 1: dimension must be positive"),
    ("# no header\n", "input error: missing 'dim d' header line"),
    ("dim 3\n1 0 0 0 <= 1\n", "input error: line 2: expected 3 coefficients, REL, rhs"),
])
def test_polytope_file_errors_are_input_errors(run, tmp_path, content, message):
    if content is None:  # a path with no file behind it
        code, out, err = run("volume", "--polytope-file", str(tmp_path / "missing.hrep"))
    else:
        code, out, err = run("volume", files=[("--polytope-file", content)])
    assert code == 2 and out == ""
    assert err.startswith(message)


def test_zero_denominator_is_an_input_error(run):
    code, out, err = run("volume", files=[("--polytope-file", "dim 2\n1/0 0 <= 1\n")])
    assert code == 2 and out == ""
    assert "input error: line 2: zero denominator in '1/0'" in err
    code, out, err = run("volume", files=[("--polytope-file", "dim 2\n1 0 <= 1\n0 0.5 <= 1\n")])
    assert code == 2 and out == ""
    assert "input error: line 3: not a rational literal: '0.5'" in err


def test_zero_denominator_in_a_spec_is_an_input_error(run):
    code, out, err = run("prob", "manipulable:lambda=1/0")
    assert code == 2 and out == ""
    assert err == ("input error: spec 'manipulable:lambda=1/0' does not match the form "
                   "manipulable:RULE: zero denominator in '1/0'\n")


@pytest.mark.parametrize("weight, message", [
    ("0.5", "not a rational literal: '0.5'"),
    ("1e-1", "not a rational literal: '1e-1'"),
    ("1/0x", "not a rational literal: '1/0x'"),
    ("1/0", "zero denominator in '1/0'"),
])
def test_rule_weights_read_as_hrep_literals(run, weight, message):
    # a rule weight is p or p/q, as in an H-rep file; decimals are refused
    code, out, err = run("prob", f"rule-winner:lambda={weight}")
    assert code == 2 and out == ""
    assert err == (f"input error: spec 'rule-winner:lambda={weight}' does not match the form "
                   f"rule-winner:RULE: {message}\n")


def test_exit_code_geometric_error(run):
    code, _, err = run("count", "--n", "3", files=[("--polytope-file", UNBOUNDED2)])
    assert code == 3 and "geometric error" in err


def test_exit_code_budget_error(run):
    # WIDE3's window (deg D = 1312) bounds more nodes than enumerating
    # n = 100000 does, so the count enumerates, and x0 alone takes 14,286
    # values
    code, _, err = run("count", "--n", "100000", "--budget", "1000",
                       files=[("--polytope-file", WIDE3)])
    assert code == 4 and "budget exceeded" in err
    # at n = 10^6 reading the series costs fewer nodes than enumerating,
    # but D's build and the halving rounds take 209,984 steps, past the
    # budget: the count enumerates and stops at once
    code, _, err = run("count", "--n", "1000000", "--budget", "1000",
                       files=[("--polytope-file", WIDE3)])
    assert code == 4 and "budget exceeded: dilation 1000000" in err
    # the unit cube's window is n = -2 ... 3: the series route stays
    # inside the budget
    code, out, _ = run("count", "--n", "100000", "--budget", "1000",
                       files=[("--polytope-file", CUBE3)])
    assert code == 0 and "exact=1000030000300001 " in out


def test_negative_budget_is_an_input_error(run):
    # ASCII digits only, no sign, space or digit separator
    for budget in ("-5", "+5", " 5", "1_000", "\u0665"):
        code, out, err = run("count", "--n", "5", "--budget", budget,
                             files=[("--polytope-file", CUBE3)])
        assert (code, out) == (2, "")
        assert f"argument --budget: expected a non-negative integer, got {budget!r}" in err


@pytest.mark.parametrize("classes", [",0", "0,x", "\u0661,+2", "1_0", "0, 1", "1,--1", "0,-"])
def test_malformed_classes_name_the_flag(run, classes):
    code, out, err = run("ehrhart", "--classes", classes, files=[("--polytope-file", CUBE3)])
    assert (code, out) == (2, "")
    assert ("argument --classes: expected comma-separated integers such as 0,1,6, "
            f"got {classes!r}") in err


def test_empty_classes_is_an_input_error(run):
    # an empty list of classes is not "every class": that is the flag left out
    code, out, err = run("ehrhart", "--classes", "", files=[("--polytope-file", CUBE3)])
    assert (code, out) == (2, "")
    assert ("argument --classes: expected comma-separated integers such as 0,1,6, "
            "got ''") in err
    code, out, _ = run("ehrhart", files=[("--polytope-file", CUBE3)])
    assert code == 0 and out.startswith("period 1\ndegree 3\ndenominator (1-t)^4\n")


def test_classes_take_a_leading_minus(run):
    code, out, _ = run("ehrhart", "--classes=-1,0", files=[("--polytope-file", CUBE3)])
    assert code == 0 and "class 0: 1 3 3 1" in out


def test_ehrhart_budget_exit_reports_requirements(run):
    # deg D = 1312, so the window's first count is at n = -656 + 1312 +
    # 1 = 657, where x0 takes floor(657 / 7) + 1 = 94 values and the
    # polygon of (x1, x2) costs nothing
    code, out, err = run("ehrhart", "--budget", "93", files=[("--polytope-file", WIDE3)])
    assert code == 4 and out == ""
    assert "budget exceeded: dilation 657 reached 94 nodes (budget 93)" in err
    code, _, _ = run("ehrhart", "--budget", "94", "--classes", "0",
                     files=[("--polytope-file", WIDE3)])
    assert code == 0


def test_ehrhart_budget_exit_on_a_huge_segment_window(run):
    # [0, 1/10^6]: a window of 10^6 + 2 values or more, a node each
    code, out, err = run("ehrhart", "--budget", "1000", "--classes", "0",
                         files=[("--polytope-file", "dim 1\n1 >= 0\n1000000 <= 1\n")])
    assert code == 4 and out == ""
    assert "budget exceeded: 1000002 window values or more, a node each (budget 1000)" in err


def test_ehrhart_budget_exit_on_a_triangle_window_past_its_denominator(run):
    # (0, 0), (1/997, 0), (0, 1/991): 999 window values on the largest
    # denominator, but 1,991 once D, of degree 1 + 997 + 991, is built
    code, out, err = run("ehrhart", "--budget", "1000", "--classes", "0",
                         files=[("--polytope-file", "dim 2\n1 0 >= 0\n0 1 >= 0\n997 991 <= 1\n")])
    assert code == 4 and out == ""
    assert err == ("budget exceeded: 1991 window values or more, a node each (budget 1000): "
                   "the window of degree 1989\n")


def test_count_at_n_1000_fits_the_default_budget(run):
    code, out, err = run("count", "--n", "1000", "--format", "json", files=PLURALITY_FILES)
    assert (code, err) == (0, "")
    assert json.loads(out)["exact"] == "414433614658"


# the triangle x, y >= 0, x + y <= 1 less the unit square: a signed
# region whose count is -n(n + 1)/2
NEGATIVE_REGION = [
    ("--polytope-file", "dim 2\n1 0 >= 0\n0 1 >= 0\n1 1 <= 1\n"),
    ("--subtract-file", "dim 2\n1 0 >= 0\n0 1 >= 0\n1 0 <= 1\n0 1 <= 1\n"),
]


@pytest.mark.parametrize("command", [("volume",), ("count", "--n", "4"), ("ehrhart",)])
def test_negative_signed_region_is_a_geometric_error(run, command):
    code, out, err = run(*command, files=NEGATIVE_REGION)
    assert code == 3 and out == ""
    assert "geometric error: signed region" in err and "came out negative" in err


def test_usage_error_exit_code(run):
    assert run("volume")[0] == 2  # missing required --polytope-file


def test_output_records_render_by_field():
    half = cli.OutputRecord(label="half", exact=F(1, 2), spec="s")
    assert cli.render_records([half], "text") == "half: exact=1/2 decimal=0.50000 spec=s\n"


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # every command line call pays for the modules its import chain
    # loads; csv is imported by the csv output branches alone, and
    # argparse would bring gettext, which imports locale
    code = ("import sys; before = set(sys.modules); import polyvote.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = set(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, timeout=60, check=True).stdout.split())
    assert "polyvote.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "csv", "_csv", "argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", [
    ["prob", "condorcet-paradox"],
    ["volume", "--polytope-file", str(ROOT / "perfbench" / "inputs" / "plurality_both.hrep")],
    ["-h"],
    ["prob", "-h"],
])
def test_a_call_loads_no_argparse_gettext_or_locale(argv):
    code = ("import contextlib, io, sys; before = set(sys.modules); "
            "from polyvote.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[1:])\n"
            "print(code, *sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    exit_code, *loaded = done.stdout.split()
    assert exit_code == "0" and done.stderr == ""
    assert not set(loaded) & {"argparse", "gettext", "locale"}


def test_output_is_deterministic(run):
    first = run("table", "--table", "3", "--format", "json")
    second = run("table", "--table", "3", "--format", "json")
    assert first == second


def test_parse_keeps_no_state_between_calls(run):
    code, out, err = run("volume", "--format", "json")  # no --polytope-file
    assert code == 2 and out == "" and "--polytope-file" in err
    code, out, _ = run("volume", files=[("--polytope-file", CUBE3)])
    assert code == 0 and out.startswith("volume: exact=1 decimal=1.00000 spec=")
    assert len(out.split("spec=")[1].split("+")) == 1
    # --polytope-file appends: a list kept from the last run would grow
    code, out, _ = run("volume", files=[("--polytope-file", CUBE3), ("--polytope-file", CUBE3)])
    assert code == 0 and "exact=2 " in out
    assert len(out.split("spec=")[1].split("+")) == 2
    code, out, _ = run("volume", files=[("--polytope-file", CUBE3)])
    assert code == 0 and "exact=1 " in out
    assert len(out.split("spec=")[1].split("+")) == 1
    code, out, _ = run("prob", "condorcet-paradox")
    assert code == 0 and out.startswith("no pairwise-majority winner exists: exact=1/16 ")


# command lines with their exit code, stdout and the stderr line that
# holds "error:", as argparse gave them; {F} stands for a file of CUBE3
PINNED = [
    ("", 2, "", "polyvote: error: the following arguments are required: command"),
    ("nope", 2, "", "polyvote: error: argument command: invalid choice: 'nope' "
                    "(choose from 'volume', 'count', 'ehrhart', 'table', 'prob')"),
    ("--version", 2, "", "polyvote: error: the following arguments are required: command"),
    ("prob a b", 2, "", "polyvote: error: unrecognized arguments: b"),
    ("prob -- condorcet-paradox", 0,
     "no pairwise-majority winner exists: exact=1/16 decimal=0.06250 spec=condorcet-paradox\n",
     None),
    ("prob condorcet-paradox --format xml", 2, "",
     "polyvote prob: error: argument --format: invalid choice: 'xml' "
     "(choose from 'text', 'json', 'csv')"),
    ("prob condorcet-paradox --form json", 0,
     '{\n  "label": "no pairwise-majority winner exists",\n  "exact": "1/16",\n'
     '  "decimal": 0.0625,\n  "spec": "condorcet-paradox"\n}\n', None),
    ("prob condorcet-paradox --bogus", 2, "", "polyvote: error: unrecognized arguments: --bogus"),
    ("volume", 2, "",
     "polyvote volume: error: the following arguments are required: --polytope-file"),
    ("volume --polytope-file", 2, "",
     "polyvote volume: error: argument --polytope-file: expected one argument"),
    ("volume --polytope-file={F}", 0, "volume: exact=1 decimal=1.00000 spec={F}\n", None),
    ("table --table 6", 2, "",
     "polyvote table: error: argument --table: invalid choice: 6 (choose from 1, 2, 3, 4, 5)"),
    ("count --polytope-file {F} --n", 2, "",
     "polyvote count: error: argument --n: expected one argument"),
    ("count --polytope-file {F} --n -3", 2, "",
     "polyvote count: error: argument --n: expected a non-negative integer, got '-3'"),
    ("count --polytope-file {F} --n 5 --n 6", 0,
     "lattice count at dilation 6: exact=343 decimal=343.00000 spec={F}\n", None),
    ("ehrhart --polytope-file {F} --classes -1,0", 2, "",
     "polyvote ehrhart: error: argument --classes: expected one argument"),
    ("ehrhart --polytope-file {F} --classes=-1,0", 0, "period 1\ndegree 3\nclass 0: 1 3 3 1\n",
     None),
]


@pytest.mark.parametrize("line, code, out, error", PINNED,
                         ids=[case[0] or "no-arguments" for case in PINNED])
def test_command_line_forms(run, tmp_path, line, code, out, error):
    path = tmp_path / "cube.hrep"
    path.write_text(CUBE3)
    got_code, got_out, err = run(*line.replace("{F}", str(path)).split())
    assert (got_code, got_out) == (code, out.replace("{F}", str(path)))
    if error is None:
        assert err == ""
    else:
        assert [row for row in err.splitlines() if "error:" in row] == [error]
        prog = error.split(": error: ")[0]
        assert err.startswith(f"usage: {prog} ")


def test_a_key_error_is_not_reported_as_an_input_error(monkeypatch):
    # no input path raises KeyError: one comes from a bug, not the user
    def broken(spec):
        raise KeyError(spec)

    monkeypatch.setattr(cli, "probability_for_spec", broken)
    with pytest.raises(KeyError):
        main(["prob", "condorcet-paradox"])


@pytest.mark.parametrize("argv", [[], ["nope"]])
def test_no_or_unknown_subcommand_is_a_usage_error(run, argv):
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: polyvote [-h] {volume,count,ehrhart,table,prob} ...")
    assert "polyvote: error: " in err


def test_top_level_help_lists_every_subcommand(run):
    code, out, err = run("-h")
    assert code == 0 and err == "" and out.startswith("usage: polyvote ")
    for command, (help_text, _, _) in cli.COMMANDS.items():
        assert command in out and help_text in out
    assert len(cli.COMMANDS) == 5


def test_subcommand_help_lists_the_spec_forms(run, monkeypatch):
    monkeypatch.setenv("COLUMNS", "2000")  # no wrapping at the hyphens
    code, out, err = run("prob", "-h")
    assert code == 0 and err == "" and out.startswith("usage: polyvote prob ")
    for forms in sc.EVENT_SPECS.values():
        for form in forms:
            assert form.usage in out


def test_subcommand_parser_reports_unknown_arguments_at_the_top_level(run):
    code, out, err = run("prob", "condorcet-paradox", "--bogus")
    assert code == 2 and out == ""
    assert err.startswith("usage: polyvote [-h] {volume,count,ehrhart,table,prob} ...")
    assert "polyvote: error: unrecognized arguments: --bogus" in err


def test_module_entry_point_reads_sys_argv():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "polyvote.cli", "prob", "condorcet-paradox"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert "exact=1/16 " in done.stdout
