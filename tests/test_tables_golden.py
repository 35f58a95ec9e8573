"""Bit-for-bit guard on the exact values of the five summary tables.

``tests/data/tables_golden.json`` maps every spec the tables print to
its exact rational.  Tables 1-4 were recorded before the geometry
kernel moved to integer-only arithmetic; table 5 (the referendum
paradox) was recorded once won districts were capped at share 1.

``tests/data/spec_terms_golden.json`` maps every spec the tables print,
the benchmark's extra specs, ``condorcet-winner`` and
``condorcet-loser`` to the terms of its event and of the region it is
measured against, each a weight and the polytope's H-representation,
as the per-kind builders made them before the atom table replaced
them."""

import json
from pathlib import Path

import pytest

import polyvote.socialchoice as sc
from polyvote.polytope import format_hrep

from helpers import spec_regions

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "tables_golden.json").read_text(encoding="utf-8"))
TERMS_GOLDEN = json.loads((DATA / "spec_terms_golden.json").read_text(encoding="utf-8"))
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


def test_compiled_terms_match_golden_exactly():
    printed = {spec for number in TABLES for _, spec in sc._table_specs(number)}
    assert printed | {"condorcet-winner", "condorcet-loser"} <= set(TERMS_GOLDEN)

    def terms(region):
        return None if region is None else [[w, format_hrep(p)] for w, p in region.terms]

    for spec, golden in TERMS_GOLDEN.items():
        _, event, given = spec_regions(spec)
        assert {"event": terms(event), "given": terms(given)} == golden, spec
