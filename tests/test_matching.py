import random
from datetime import date, timedelta

import pytest

from coverage_auditor.dates import DateMention, YearSource
from coverage_auditor.ground_truth import ConsolidatedEvent
from coverage_auditor.matching import (EventIndex, Strategy, evaluate,
                                       match_all, match_ym, match_ymd)
from coverage_auditor.places import PlaceMention, ResolvedCandidate


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
                             mention, PlaceMention("P", registry.get(iso3)))


# --- YMD ----------------------------------------------------------------------

def test_ymd_matches_inside_event_range(registry):
    index = EventIndex([make_event(registry, "PAK",
                                   date(2019, 4, 13), date(2019, 4, 18))])
    cand = make_candidate(registry, "PAK", 2019, 4, 13)
    assert [m.event_id for m in match_ymd(cand, index)] == ["PAK-2019-04-13"]


def test_ymd_window_is_inclusive_at_end_plus_five(registry):
    index = EventIndex([make_event(registry, "PAK",
                                   date(2019, 4, 13), date(2019, 4, 18))])
    at_edge = make_candidate(registry, "PAK", 2019, 4, 23)   # end + 5
    past_edge = make_candidate(registry, "PAK", 2019, 4, 24)  # end + 6
    assert len(match_ymd(at_edge, index, window_days=5)) == 1
    assert match_ymd(past_edge, index, window_days=5) == []


def test_ymd_never_matches_before_start(registry):
    index = EventIndex([make_event(registry, "PAK",
                                   date(2019, 4, 13), date(2019, 4, 18))])
    before = make_candidate(registry, "PAK", 2019, 4, 12)
    assert match_ymd(before, index) == []


def test_ymd_dayless_candidate_uses_month_interval(registry):
    index = EventIndex([make_event(registry, "USA",
                                   date(2018, 8, 20), date(2018, 8, 23))])
    august = make_candidate(registry, "USA", 2018, 8, day=None)
    july = make_candidate(registry, "USA", 2018, 7, day=None)
    september = make_candidate(registry, "USA", 2018, 9, day=None)
    assert len(match_ymd(august, index, window_days=5)) == 1
    assert match_ymd(july, index, window_days=5) == []
    # Aug 23 + 5 = Aug 28, still short of September.
    assert match_ymd(september, index, window_days=5) == []


def test_ymd_requires_same_country(registry):
    index = EventIndex([make_event(registry, "PAK",
                                   date(2019, 4, 13), date(2019, 4, 18))])
    cand = make_candidate(registry, "IND", 2019, 4, 14)
    assert match_ymd(cand, index) == []


# --- YM -----------------------------------------------------------------------

def test_ym_matches_on_month_intersection(registry):
    index = EventIndex([make_event(registry, "USA",
                                   date(2018, 8, 20), date(2018, 8, 23))])
    cand = make_candidate(registry, "USA", 2018, 8, 2)  # day ignored by YM
    assert len(match_ym(cand, index)) == 1


def test_ym_single_day_overlap_counts(registry):
    # Event ends on the 1st; a candidate month starting that day intersects.
    index = EventIndex([make_event(registry, "IND",
                                   date(2018, 7, 20), date(2018, 8, 1))])
    august = make_candidate(registry, "IND", 2018, 8, day=None)
    september = make_candidate(registry, "IND", 2018, 9, day=None)
    assert len(match_ym(august, index)) == 1
    assert match_ym(september, index) == []


def test_unmatchable_date_matches_nothing(registry):
    index = EventIndex([make_event(registry, "USA",
                                   date(2018, 8, 20), date(2018, 8, 23))])
    cand = make_candidate(registry, "USA", 2018, None)
    assert match_ymd(cand, index) == []
    assert match_ym(cand, index) == []


# --- YMD(window=0) is contained in YM, on random pairs --------------------------

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
        ymd = match_ymd(cand, index, window_days=0)
        ym = match_ym(cand, index)
        if ymd:
            assert ym, (cand.date, event.start_date, event.end_date)


# --- evaluation -----------------------------------------------------------------

def test_evaluate_counts(registry):
    events = [make_event(registry, "IND", date(2018, 6, 1 + 2 * i),
                         date(2018, 6, 2 + 2 * i)) for i in range(10)]
    index = EventIndex(events)
    cands = [make_candidate(registry, "IND", 2018, 6, 1, sentence_index=i)
             for i in range(3)]
    matches = match_all(cands, index, Strategy.YMD, window_days=0)
    labels = {("a1", 0): True, ("a1", 1): False}  # a1#2 unlabeled -> irrelevant
    report = evaluate([m.to_json_dict() for m in matches], labels, len(events))
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
    report = evaluate([m.to_json_dict() for m in matches], {}, len(events))
    assert report.hits == 1
    assert report.recall == pytest.approx(0.25)
