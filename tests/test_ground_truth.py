import csv
import gc
import io
import random
import warnings
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverage_auditor.ground_truth import (SOURCES, Source, SourceRecord,
                                           consolidate, filter_multi_source,
                                           impute_end_date,
                                           normalize_records,
                                           parse_source_records, venn_counts)
from oracles import oracle_consolidate, oracle_parse_source_records


def make_record(registry, iso3, start, end, source=Source.FLOODLIST,
                native_id="x1", fatalities=None, locations=(),
                disaster_type="Flood", affected=None):
    return SourceRecord(
        source_id=source,
        country_raw=iso3,
        start_date=start,
        end_date=end,
        fatalities=fatalities,
        affected=affected,
        locations=list(locations),
        native_id=native_id,
        disaster_type=disaster_type,
        country=registry.get(iso3),
    )


def signatures(events):
    return {
        (e.country.iso3, e.start_date, e.end_date, frozenset(e.native_ids))
        for e in events
    }


# --- parsing ----------------------------------------------------------------

FLOODLIST_CSV = """country,start_date,end_date,fatalities,locations,tags,id
Angola,2016-03-05,2016-03-07,15,Lobito;Benguela,floods,FL-1
Nepal,2018-06-01,2018-06-02,5,,landslides,FL-2
Haiti,2017-09-07,,3,Ouanaminthe,floods;landslides,FL-3
Peru,2017-03-15,2017-03-10,2,,floods,FL-4
"""


def test_parse_floodlist_filters_and_rejects():
    result = parse_source_records(io.BytesIO(FLOODLIST_CSV.encode()), Source.FLOODLIST)
    ids = [r.native_id for r in result.records]
    assert ids == ["FL-1", "FL-3"]  # FL-3: mixed tags stay in
    assert [r.line_no for r in result.excluded] == [3]  # landslides-only
    assert [r.line_no for r in result.rejects] == [5]  # end before start
    assert result.records[0].locations == ["Lobito", "Benguela"]
    assert result.records[1].end_date is None


def test_parse_emdat_keeps_flood_and_storm_only():
    csv_text = """iso,country,start_date,end_date,deaths,affected,disaster_type,id
JPN,Japan,2018-06-18,2018-06-18,5,,Earthquake,EM-1
JPN,Japan,2018-07-02,2018-07-08,225,,Flood,EM-2
USA,United States of America,2017-09-06,2017-09-14,58,2000000,Storm,EM-3
"""
    result = parse_source_records(io.BytesIO(csv_text.encode()), Source.EMDAT)
    assert [r.native_id for r in result.records] == ["EM-2", "EM-3"]
    assert len(result.excluded) == 1


def test_parse_emdat_same_id_different_countries_is_not_a_duplicate():
    csv_text = """iso,country,start_date,end_date,deaths,affected,disaster_type,id
HTI,Haiti,2017-09-08,2017-09-10,4,,Storm,EM-9
CUB,Cuba,2017-09-08,2017-09-12,10,,Storm,EM-9
CUB,Cuba,2017-09-08,2017-09-12,10,,Storm,EM-9
"""
    result = parse_source_records(io.BytesIO(csv_text.encode()), Source.EMDAT)
    assert len(result.records) == 2
    assert [r.reason for r in result.rejects] == ["duplicate id 'EM-9'"]


def test_parse_rejects_wrong_header():
    bad = b"country,began,wrong,dead,displaced,id\n"
    with pytest.raises(IOError):
        parse_source_records(io.BytesIO(bad), Source.DFO)


def test_padded_header_names_are_accepted():
    csv_text = ("country , began,ended ,dead,displaced, id\n"
                "Angola,2016-03-01,2016-03-10,14,9000,4321\n").encode()
    result = parse_source_records(io.BytesIO(csv_text), Source.DFO)
    assert [r.native_id for r in result.records] == ["4321"]
    assert result.records[0].affected == "9000 displaced"
    assert not result.rejects and not result.excluded
    # Looking fields up by header name found none of the padded ones.
    old = oracle_parse_source_records(io.BytesIO(csv_text), Source.DFO)
    assert [(r.line_no, r.reason) for r in old.rejects] == [(2, "'country'")]


def test_a_date_is_exactly_yyyy_mm_dd():
    """The other ISO forms that ``date.fromisoformat`` reads on Python 3.11,
    but not on 3.10, are rejects on both, for the reason 3.10 gives."""
    csv_text = ("country,began,ended,dead,displaced,id\n"
                "Angola,20160301,2016-03-10,14,9000,4321\n"
                "Angola,2016-03-01,2016-W10-4,14,9000,4322\n").encode()
    result = parse_source_records(io.BytesIO(csv_text), Source.DFO)
    assert result.records == []
    assert [(r.line_no, r.reason) for r in result.rejects] == [
        (2, "Invalid isoformat string: '20160301'"),
        (3, "Invalid isoformat string: '2016-W10-4'")]


# Generated source files: each field draws mostly from values that parse
# (some need quoting: commas, newlines) and otherwise from values that fail
# (bad dates and counts, negative counts, empty ids); rows may be short,
# long or blank, and the few ids repeat.
FIELD_VALUES = {  # kind: (values that parse, values that fail)
    "country": (["Angola", "angola ", "Cuba", "Korea, Republic of", "Haiti\nSud"],
                [""]),
    "iso": (["AGO", "", "CUB"], []),
    "date": (["2018-06-01", "2018-06-03", " 2018-06-02 ", "", "9999-12-31"],
             ["2018-13-01", "June 1"]),
    "count": (["", "5", " 12 ", "0"], ["-3", "x", "1.5"]),
    "locations": (["", "Lobito;Benguela", "a; ;b", "Lobito, Benguela", "x\r\ny"], []),
    "tags": (["floods", "floods;landslides", "", " ; "],
             ["landslides", "Landslides ; landslides"]),
    "disaster_type": (["Flood", "Storm", "flash flood", "Drought, storm"],
                      ["Earthquake", ""]),
    "affected": (["", "9000", " 12 "], []),
    "id": (["A1", "A2", "A1 "], ["", " "]),
}
FIELD_KINDS = {
    Source.FLOODLIST: ["country", "date", "date", "count", "locations", "tags", "id"],
    Source.EMDAT: ["iso", "country", "date", "date", "count", "affected",
                   "disaster_type", "id"],
    Source.DFO: ["country", "date", "date", "count", "affected", "id"],
}


@st.composite
def field_value(draw, kind):
    good, bad = FIELD_VALUES[kind]
    return draw(st.sampled_from(bad if bad and draw(st.integers(0, 7)) == 0 else good))


@st.composite
def source_files(draw):
    source = draw(st.sampled_from(list(Source)))
    kinds = FIELD_KINDS[source]
    rows = [SOURCES[source].header]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            rows.append([])  # a blank line
            continue
        width = draw(st.sampled_from([len(kinds)] * 6 + [0, 1, len(kinds) - 1,
                                                         len(kinds) + 1]))
        rows.append([draw(field_value(kinds[i])) if i < len(kinds)
                     else draw(st.sampled_from(["", "extra", "a,b"]))
                     for i in range(width)])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerows(rows)
    return source, out.getvalue().encode()


@settings(max_examples=400, deadline=None)
@given(source_files())
def test_positional_parse_matches_dict_reader_oracle(case):
    source, data = case
    got = parse_source_records(io.BytesIO(data), source)
    want = oracle_parse_source_records(io.BytesIO(data), source)
    assert got.records == want.records
    assert [(r.line_no, r.reason) for r in got.rejects] == \
        [(r.line_no, r.reason) for r in want.rejects]
    assert [(r.line_no, r.reason) for r in got.excluded] == \
        [(r.line_no, r.reason) for r in want.excluded]


def test_impute_end_date_adds_three_days(registry):
    rec = make_record(registry, "HTI", date(2017, 9, 7), None)
    assert impute_end_date(rec).end_date == date(2017, 9, 10)
    rec2 = make_record(registry, "HTI", date(2017, 9, 7), date(2017, 9, 8))
    assert impute_end_date(rec2).end_date == date(2017, 9, 8)


def test_normalize_records_reports_unknown_names(registry):
    good = make_record(registry, "AGO", date(2016, 3, 1), None)
    bad = SourceRecord(Source.DFO, "Elbonia", date(2016, 3, 1), date(2016, 3, 2),
                       None, None, [], "d1", "Flood")
    late = SourceRecord(Source.DFO, "Angola", date(9999, 12, 30), None,
                        None, None, [], "d2", "Flood")
    kept, rejected = normalize_records([bad, good, late], registry)
    assert len(kept) == 1 and kept[0].country.iso3 == "AGO"
    assert kept[0].end_date == date(2016, 3, 4)
    # The undatable come first, then the unresolved.
    assert [(r.raw, r.reason) for r in rejected] == [
        ("dfo:d2", "imputed end_date past 9999-12-31"),
        ("dfo:d1", "unresolved country 'Elbonia'")]


# --- consolidation ----------------------------------------------------------

def test_consolidate_merges_transitively(registry):
    # a-b overlap and b-c overlap, but a-c do not: still one event.
    a = make_record(registry, "AGO", date(2016, 3, 1), date(2016, 3, 4), native_id="a")
    b = make_record(registry, "AGO", date(2016, 3, 4), date(2016, 3, 8), native_id="b")
    c = make_record(registry, "AGO", date(2016, 3, 8), date(2016, 3, 10), native_id="c")
    events = consolidate([a, b, c])
    assert len(events) == 1
    assert events[0].start_date == date(2016, 3, 1)
    assert events[0].end_date == date(2016, 3, 10)


def test_consolidate_touching_endpoints_merge_but_gap_does_not(registry):
    a = make_record(registry, "PER", date(2017, 3, 1), date(2017, 3, 5), native_id="a")
    b = make_record(registry, "PER", date(2017, 3, 5), date(2017, 3, 9), native_id="b")
    c = make_record(registry, "PER", date(2017, 3, 10), date(2017, 3, 12), native_id="c")
    events = consolidate([a, b, c])
    assert signatures(events) == {
        ("PER", date(2017, 3, 1), date(2017, 3, 9),
         frozenset([("floodlist", "a"), ("floodlist", "b")])),
        ("PER", date(2017, 3, 10), date(2017, 3, 12),
         frozenset([("floodlist", "c")])),
    }


def test_consolidate_never_merges_across_countries(registry):
    a = make_record(registry, "IND", date(2018, 8, 1), date(2018, 8, 5), native_id="a")
    b = make_record(registry, "PAK", date(2018, 8, 1), date(2018, 8, 5), native_id="b")
    assert len(consolidate([a, b])) == 2


def test_consolidate_fatalities_is_max_with_provenance(registry):
    a = make_record(registry, "AGO", date(2016, 3, 1), date(2016, 3, 5),
                    source=Source.FLOODLIST, native_id="a", fatalities=15)
    b = make_record(registry, "AGO", date(2016, 3, 2), date(2016, 3, 6),
                    source=Source.EMDAT, native_id="b", fatalities=14)
    c = make_record(registry, "AGO", date(2016, 3, 3), date(2016, 3, 7),
                    source=Source.DFO, native_id="c", fatalities=None)
    (event,) = consolidate([a, b, c])
    assert event.fatalities == 15


def test_consolidate_source_flags_and_event_id(registry):
    a = make_record(registry, "CUB", date(2017, 9, 8), date(2017, 9, 12),
                    source=Source.EMDAT, native_id="e")
    b = make_record(registry, "CUB", date(2017, 9, 9), date(2017, 9, 11),
                    source=Source.DFO, native_id="d")
    (event,) = consolidate([a, b])
    assert event.event_id == "CUB-2017-09-08"
    assert (event.in_emdat, event.in_dartmouth, event.in_floodlist) == (True, True, False)
    assert event.source_count == 2


def test_filter_multi_source(registry):
    single = consolidate([make_record(registry, "BRA", date(2017, 5, 1),
                                      date(2017, 5, 3), native_id="s")])
    assert filter_multi_source(single) == []
    assert filter_multi_source(single, min_sources=1) == single


def test_venn_counts_partition(registry):
    records = [
        make_record(registry, "AGO", date(2016, 3, 1), date(2016, 3, 5),
                    source=Source.FLOODLIST, native_id="f"),
        make_record(registry, "AGO", date(2016, 3, 2), date(2016, 3, 6),
                    source=Source.EMDAT, native_id="e"),
        make_record(registry, "BRA", date(2017, 5, 1), date(2017, 5, 3),
                    source=Source.DFO, native_id="d"),
    ]
    events = consolidate(records)
    counts = venn_counts(events)
    assert counts["floodlist+emdat"] == 1
    assert counts["dfo"] == 1
    assert sum(counts.values()) == len(events)


def test_json_round_trip(registry):
    a = make_record(registry, "HTI", date(2017, 9, 7), date(2017, 9, 10),
                    native_id="a", fatalities=3, locations=["Ouanaminthe"])
    b = make_record(registry, "HTI", date(2017, 9, 8), date(2017, 9, 10),
                    source=Source.EMDAT, native_id="b", fatalities=4,
                    affected="10000", disaster_type="Storm")
    (event,) = consolidate([a, b])
    from coverage_auditor.ground_truth import ConsolidatedEvent
    clone = ConsolidatedEvent.from_json_dict(event.to_json_dict(), registry)
    assert clone.to_json_dict() == event.to_json_dict()


# --- randomized comparison against the brute-force oracle --------------------

def random_records(rng, registry, iso3_pool, year=2018, max_records=30):
    records = []
    for i in range(rng.randint(1, max_records)):
        start = date(year, 1, 1) + timedelta(days=rng.randint(0, 330))
        end = start + timedelta(days=rng.randint(0, 20))
        records.append(make_record(
            registry, rng.choice(iso3_pool), start, end,
            source=rng.choice(list(Source)), native_id=f"r{i}",
            fatalities=rng.choice([None, rng.randint(0, 500)])))
    return records


@pytest.mark.parametrize("seed", [7, 1234])
def test_consolidate_matches_oracle(registry, seed):
    rng = random.Random(seed)
    pool = ["AGO", "USA", "IND", "PAK", "BRA"]
    for _ in range(200):
        records = random_records(rng, registry, pool)
        assert signatures(consolidate(records)) == oracle_consolidate(records)


def test_consolidate_order_invariant_and_idempotent(registry):
    rng = random.Random(42)
    pool = ["JPN", "GBR", "SDN"]
    for _ in range(50):
        records = random_records(rng, registry, pool)
        base = signatures(consolidate(records))
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert signatures(consolidate(shuffled)) == base

        # Re-consolidating the events (as single records) changes nothing.
        rerun = [make_record(registry, e.country.iso3, e.start_date, e.end_date,
                             native_id=f"evt{i}")
                 for i, e in enumerate(consolidate(records))]
        assert len(consolidate(rerun)) == len(base)


def test_consolidate_properties(registry):
    rng = random.Random(99)
    pool = ["AGO", "USA", "IND"]
    for _ in range(50):
        records = random_records(rng, registry, pool)
        events = consolidate(records)
        # Coverage: every record lands in exactly one event.
        assert sum(len(e.native_ids) for e in events) == len(records)
        # Range soundness: each event spans exactly its members.
        for event in events:
            members = [r for r in records
                       if (r.source_id.value, r.native_id) in set(event.native_ids)
                       and r.country.iso3 == event.country.iso3]
            assert event.start_date == min(r.start_date for r in members)
            assert event.end_date == max(r.end_date for r in members)
        # Same-country events are pairwise disjoint.
        by_country = {}
        for event in events:
            by_country.setdefault(event.country.iso3, []).append(event)
        for group in by_country.values():
            group.sort(key=lambda e: e.start_date)
            for prev, nxt in zip(group, group[1:]):
                assert prev.end_date < nxt.start_date


def test_consolidate_stage_closes_its_input_files(e2e_dir, tmp_path):
    from coverage_auditor.pipeline import PipelineConfig, run_pipeline

    cfg = PipelineConfig.from_ini(e2e_dir / "config.ini")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_pipeline(cfg, tmp_path, stages=["consolidate"])
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
