"""``json_row``'s generated line writer against the encoder it replaces."""

import dataclasses
import math
import types
import typing
from datetime import date
from enum import EnumMeta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverage_auditor.analysis import StratumReport
from coverage_auditor.corpus import CandidateSentence
from coverage_auditor.countries import CountryCode, CountryRegistry
from coverage_auditor.dates import DateMention
from coverage_auditor.ground_truth import ConsolidatedEvent
from coverage_auditor.matching import MatchResult
from coverage_auditor.pipeline import _ENCODER
from coverage_auditor.places import ResolvedCandidate
from coverage_auditor.rows import json_row

ROW_TYPES = [ConsolidatedEvent, CandidateSentence, ResolvedCandidate, MatchResult,
             DateMention, StratumReport]

# Any text, with the characters an escaper or a %-template could get wrong
# drawn often.
TEXT = st.text(st.characters() | st.sampled_from('"\\%{}\x00\x1f\x7f\n\u2028ſ洪'))
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 1e-7, 1e16, 5e-324]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
LEAVES = {str: TEXT, int: st.integers(), float: FLOATS, bool: st.booleans(),
          date: st.dates(), CountryCode: st.sampled_from(list(CountryRegistry.load()))}


def values(tp):
    """Values of annotation ``tp``, as a row of that type may hold them."""
    if type(tp) is types.UnionType:  # X | None
        return st.none() | values(typing.get_args(tp)[0])
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list:
        return st.lists(values(args[0]), max_size=4)
    if origin is tuple:
        return st.tuples(*map(values, args))
    if origin is dict:
        return st.dictionaries(TEXT, values(args[1]), max_size=4)
    if dataclasses.is_dataclass(tp):
        return rows(tp)
    if isinstance(tp, EnumMeta):
        return st.sampled_from(tp)
    return LEAVES[tp]


def rows(row_type):
    hints = typing.get_type_hints(row_type)
    return st.builds(row_type, **{f.name: values(hints[f.name])
                                  for f in dataclasses.fields(row_type)})


@pytest.mark.parametrize("row_type", ROW_TYPES, ids=lambda t: t.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_line_is_what_the_encoder_writes(row_type, data):
    row = data.draw(rows(row_type))
    assert row.to_json_line() == _ENCODER.encode(row.to_json_dict())


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
def test_float_edge_cases_are_written_as_the_encoder_writes_them(x):
    # drawn too rarely above to rely on: a NaN in about 1 example in 100
    for row in (CandidateSentence("a", "t", 0, 0, "s", True, x),
                StratumReport("axis", "bucket", 1, 0, x)):
        assert row.to_json_line() == _ENCODER.encode(row.to_json_dict())


def test_a_line_writer_patched_before_its_first_call_stays_patched(monkeypatch):
    @json_row()
    @dataclasses.dataclass
    class Row:
        x: int
    calls = []
    ungenerated = Row.to_json_line
    monkeypatch.setattr(Row, "to_json_line",
                        lambda self: calls.append(self.x) or ungenerated(self))
    assert [Row(1).to_json_line(), Row(2).to_json_line()] == ['{"x":1}', '{"x":2}']
    assert calls == [1, 2]
    monkeypatch.undo()
    assert Row(3).to_json_line() == '{"x":3}'
