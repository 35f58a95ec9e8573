"""The README's event-spec examples and spec table stay in step with the
code: every ``polyvote prob ...`` line runs, and so does every
``polyvote count ...`` command on the repository's own input files, and
the table lists exactly the forms of the registry."""

import re
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

import polyvote.socialchoice as sc
from polyvote.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _commands(prefix):
    """The README's commands that start with ``prefix``, each with its
    backslash-continued lines joined."""
    commands, joined = [], ""
    for line in README.splitlines():
        joined += line.strip()
        if joined.endswith("\\"):
            joined = joined[:-1]
            continue
        if joined.startswith(prefix):
            commands.append(joined)
        joined = ""
    return commands


PROB_LINES = _commands("polyvote prob ")
COUNT_LINES = [c for c in _commands("polyvote count ") if "perfbench/inputs/" in c]


def test_readme_has_prob_examples():
    assert len(PROB_LINES) >= 5


@pytest.mark.parametrize("line", PROB_LINES)
def test_readme_prob_line_runs(line, capsys):
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == 0, line
    out = capsys.readouterr().out
    exact = F(re.search(r"exact=(\S+)", out).group(1))
    assert 0 <= exact <= 1, line


def test_readme_count_past_the_window_runs(monkeypatch, capsys):
    assert any("--n 1000000000" in line for line in COUNT_LINES)
    monkeypatch.chdir(ROOT)
    for line in COUNT_LINES:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, line
        # f(10^9) of the plurality manipulability region
        assert "exact=405092601851851933256173197145062573765433 " in capsys.readouterr().out


def test_readme_spec_table_matches_registry():
    listed = re.findall(r"^\| `([^`]+)` \|", README, flags=re.MULTILINE)
    usages = [form.usage for forms in sc.EVENT_SPECS.values() for form in forms]
    assert [u.replace("\\|", "|") for u in listed] == usages
