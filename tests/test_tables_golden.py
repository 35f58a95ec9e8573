"""Bit-for-bit guard on the exact values of the five summary tables.

``tests/data/tables_golden.json`` maps every spec the tables print to
its exact rational.  Tables 1-4 were recorded before the geometry
kernel moved to integer-only arithmetic; table 5 (the referendum
paradox) was recorded once won districts were capped at share 1."""

import json
from pathlib import Path

import pytest

import polyvote.socialchoice as sc

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "tables_golden.json").read_text(encoding="utf-8")
)
TABLES = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def rows():
    return [row for number in TABLES for row in sc.table_rows(number)]


def test_tables_match_golden_bit_for_bit(rows):
    assert {row.spec: str(row.probability) for row in rows} == GOLDEN


def test_every_table_row_round_trips_through_its_spec(rows):
    for row in rows:
        result = sc.probability_for_spec(row.spec)
        assert result.spec == row.spec
        assert result.probability == row.probability, row.spec
