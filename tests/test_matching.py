import random
from dataclasses import replace
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverage_auditor.dates import DateMention, YearSource
from coverage_auditor.ground_truth import ConsolidatedEvent
from coverage_auditor.matching import EventIndex, Strategy, evaluate, match_all
from coverage_auditor.places import ResolvedCandidate, ResolverStage
from oracles import oracle_match_ym, oracle_match_ymd


def make_event(registry, iso3, start, end, fatalities=None):
    return ConsolidatedEvent(
        event_id=f"{iso3}-{start.isoformat()}",
        country=registry.get(iso3),
        start_date=start,
        end_date=end,
        fatalities=fatalities,
        affected=None,
        locations_by_source={},
        native_ids=[("floodlist", "x")],
        disaster_type="Flood",
        in_emdat=True,
        in_dartmouth=False,
        in_floodlist=True,
    )


def make_candidate(registry, iso3, year, month, day=None,
                   article_id="a1", sentence_index=0):
    mention = DateMention("span", day=day, month=month, year=year,
                          year_source=YearSource.EXPLICIT)
    return ResolvedCandidate(article_id, sentence_index, registry.get(iso3),
                             mention, "P", ResolverStage.UNRESOLVED)


# --- YMD ----------------------------------------------------------------------

def test_ymd_matches_inside_event_range(registry):
    index = EventIndex([make_event(registry, "PAK",
                                   date(2019, 4, 13), date(2019, 4, 18))])
    cand = make_candidate(registry, "PAK", 2019, 4, 13)
    assert ([m.event_id for m in match_all([cand], index, Strategy.YMD, 5)]
            == ["PAK-2019-04-13"])


def test_ymd_window_is_inclusive_at_end_plus_five(registry):
    index = EventIndex([make_event(registry, "PAK",
                                   date(2019, 4, 13), date(2019, 4, 18))])
    at_edge = make_candidate(registry, "PAK", 2019, 4, 23)   # end + 5
    past_edge = make_candidate(registry, "PAK", 2019, 4, 24)  # end + 6
    assert len(match_all([at_edge], index, Strategy.YMD, 5)) == 1
    assert match_all([past_edge], index, Strategy.YMD, 5) == []


def test_ymd_never_matches_before_start(registry):
    index = EventIndex([make_event(registry, "PAK",
                                   date(2019, 4, 13), date(2019, 4, 18))])
    before = make_candidate(registry, "PAK", 2019, 4, 12)
    assert match_all([before], index, Strategy.YMD, 5) == []


def test_ymd_dayless_candidate_uses_month_interval(registry):
    index = EventIndex([make_event(registry, "USA",
                                   date(2018, 8, 20), date(2018, 8, 23))])
    august = make_candidate(registry, "USA", 2018, 8, day=None)
    july = make_candidate(registry, "USA", 2018, 7, day=None)
    september = make_candidate(registry, "USA", 2018, 9, day=None)
    assert len(match_all([august], index, Strategy.YMD, 5)) == 1
    assert match_all([july], index, Strategy.YMD, 5) == []
    # Aug 23 + 5 = Aug 28, still short of September.
    assert match_all([september], index, Strategy.YMD, 5) == []


def test_ymd_requires_same_country(registry):
    index = EventIndex([make_event(registry, "PAK",
                                   date(2019, 4, 13), date(2019, 4, 18))])
    cand = make_candidate(registry, "IND", 2019, 4, 14)
    assert match_all([cand], index, Strategy.YMD, 5) == []


# --- YM -----------------------------------------------------------------------

def test_ym_matches_on_month_intersection(registry):
    index = EventIndex([make_event(registry, "USA",
                                   date(2018, 8, 20), date(2018, 8, 23))])
    cand = make_candidate(registry, "USA", 2018, 8, 2)  # day ignored by YM
    assert len(match_all([cand], index, Strategy.YM, 0)) == 1


def test_ym_single_day_overlap_counts(registry):
    # Event ends on the 1st; a candidate month starting that day intersects.
    index = EventIndex([make_event(registry, "IND",
                                   date(2018, 7, 20), date(2018, 8, 1))])
    august = make_candidate(registry, "IND", 2018, 8, day=None)
    september = make_candidate(registry, "IND", 2018, 9, day=None)
    assert len(match_all([august], index, Strategy.YM, 0)) == 1
    assert match_all([september], index, Strategy.YM, 0) == []


def test_unmatchable_date_matches_nothing(registry):
    index = EventIndex([make_event(registry, "USA",
                                   date(2018, 8, 20), date(2018, 8, 23))])
    cand = make_candidate(registry, "USA", 2018, None)
    assert match_all([cand], index, Strategy.YMD, 5) == []
    assert match_all([cand], index, Strategy.YM, 0) == []


def test_open_ended_event_matches_without_leaving_the_calendar(registry):
    index = EventIndex([make_event(registry, "PAK", date(2012, 8, 1), date.max)])
    inside = make_candidate(registry, "PAK", 2019, 4, 13)
    before = make_candidate(registry, "PAK", 2012, 7, 31)
    assert ([m.event_id for m in match_all([inside], index, Strategy.YMD, 5)]
            == ["PAK-2012-08-01"])
    assert match_all([before], index, Strategy.YMD, 5) == []
    assert ([m.event_id for m in match_all([inside], index, Strategy.YM, 0)]
            == ["PAK-2012-08-01"])
    assert match_all([before], index, Strategy.YM, 0) == []


# --- the interval search against every event of the country -------------------

# Events start within four months around a leap day, last 0-60 days, and
# often share a start; candidate days are any of 1-31 (clamped to the month)
# or an event's own start or end.
EVENT_BASE = date(2019, 12, 1)


@st.composite
def match_cases(draw):
    """(iso3, start, end) events and (iso3, year, month, day) candidates."""
    events = []
    for iso3 in ("PAK", "IND"):
        for _ in range(draw(st.integers(0, 12))):
            start = EVENT_BASE + timedelta(days=draw(st.integers(0, 120)))
            end = start + timedelta(days=draw(st.sampled_from([0, 1, 3, 12, 30, 60])))
            events.append((iso3, start, end))
    candidates = []
    for _ in range(draw(st.integers(1, 8))):
        if events and draw(st.booleans()):
            iso3, *bounds = draw(st.sampled_from(events))
            day = draw(st.sampled_from(bounds))
            candidates.append((iso3, day.year, day.month, day.day))
        else:
            candidates.append((draw(st.sampled_from(["PAK", "IND", "USA"])),
                               draw(st.sampled_from([2019, 2020, None])),
                               draw(st.integers(1, 12)),
                               draw(st.sampled_from([None, 1, 15, 28, 29, 30, 31]))))
    return events, candidates


@settings(max_examples=300, deadline=None)
@given(case=match_cases(), window_days=st.sampled_from([0, 1, 5, 40]))
@example(case=([("PAK", date(2020, 2, 29), date(2020, 3, 2)),
                ("PAK", date(2020, 1, 31), date(2020, 1, 31))],
               [("PAK", 2020, 2, 29), ("PAK", 2020, 1, None), ("PAK", 2020, 2, 31)]),
         window_days=0)
def test_interval_search_matches_full_scan_oracle(registry, case, window_days):
    events, candidates = case
    events = [replace(make_event(registry, iso3, start, end), event_id=f"E{i:02d}")
              for i, (iso3, start, end) in enumerate(events)]
    index = EventIndex(events)
    for k, (iso3, year, month, day) in enumerate(candidates):
        cand = make_candidate(registry, iso3, year, month, day, sentence_index=k)
        assert (match_all([cand], index, Strategy.YMD, window_days)
                == oracle_match_ymd(cand, events, window_days))
        assert (match_all([cand], index, Strategy.YM, window_days)
                == oracle_match_ym(cand, events))


# --- YMD(window=0) is contained in YM, and equals it on day-less dates ----------

def test_ymd_window_zero_subset_of_ym(registry):
    rng = random.Random(2024)
    base = date(2018, 1, 1)
    for _ in range(1000):
        start = base + timedelta(days=rng.randint(0, 320))
        event = make_event(registry, "IND", start,
                           start + timedelta(days=rng.randint(0, 30)))
        index = EventIndex([event])
        cand = make_candidate(
            registry, "IND", 2018, rng.randint(1, 12),
            day=rng.choice([None, rng.randint(1, 28)]))
        ymd = match_all([cand], index, Strategy.YMD, 0)
        ym = match_all([cand], index, Strategy.YM, 0)
        if ymd:
            assert ym, (cand.date, event.start_date, event.end_date)
        if cand.date.day is None:
            # match_all's one loop rests on this: only the label differs.
            assert [replace(m, strategy=Strategy.YM) for m in ymd] == ym, cand.date


# --- evaluation -----------------------------------------------------------------

def test_evaluate_counts(registry):
    events = [make_event(registry, "IND", date(2018, 6, 1 + 2 * i),
                         date(2018, 6, 2 + 2 * i)) for i in range(10)]
    index = EventIndex(events)
    cands = [make_candidate(registry, "IND", 2018, 6, 1, sentence_index=i)
             for i in range(3)]
    matches = match_all(cands, index, Strategy.YMD, window_days=0)
    labels = {("a1", 0): True, ("a1", 1): False}  # a1#2 unlabeled -> irrelevant
    report = evaluate(matches, labels, len(events))
    assert report.matched_candidates == 3
    assert report.relevant_matched == 1
    assert report.precision == pytest.approx(1 / 3)
    assert report.hits == 1
    assert report.recall == pytest.approx(0.1)


def test_evaluate_precision_undefined_without_matches(registry):
    events = [make_event(registry, "IND", date(2018, 6, 1), date(2018, 6, 2))]
    report = evaluate([], {}, len(events))
    assert report.precision is None
    assert report.recall == 0.0


def test_evaluate_recall_is_share_of_events_hit(registry):
    events = [make_event(registry, "IND", date(2018, 6, 1 + 3 * i),
                         date(2018, 6, 2 + 3 * i)) for i in range(4)]
    index = EventIndex(events)
    cand = make_candidate(registry, "IND", 2018, 6, 1)
    matches = match_all([cand], index, Strategy.YMD, window_days=0)
    report = evaluate(matches, {}, len(events))
    assert report.hits == 1
    assert report.recall == pytest.approx(0.25)
