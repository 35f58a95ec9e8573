"""The README's event-spec examples and spec table stay in step with the
code: every ``polyvote prob ...`` line runs, and the table lists exactly
the forms of the registry."""

import re
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

import polyvote.socialchoice as sc
from polyvote.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
PROB_LINES = [line.strip() for line in README.splitlines()
              if line.strip().startswith("polyvote prob ")]


def test_readme_has_prob_examples():
    assert len(PROB_LINES) >= 5


@pytest.mark.parametrize("line", PROB_LINES)
def test_readme_prob_line_runs(line, capsys):
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == 0, line
    out = capsys.readouterr().out
    exact = F(re.search(r"exact=(\S+)", out).group(1))
    assert 0 <= exact <= 1, line


def test_readme_spec_table_matches_registry():
    listed = re.findall(r"^\| `([^`]+)` \|", README, flags=re.MULTILINE)
    usages = [form.usage for forms in sc.EVENT_SPECS.values() for form in forms]
    assert [u.replace("\\|", "|") for u in listed] == usages
