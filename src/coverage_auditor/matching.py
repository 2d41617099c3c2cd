"""Match resolved candidate sentences against consolidated events.

Two strategies, from strict to lax:
  YMD - same country and the candidate date falls inside
        [start_date, end_date + window_days];
  YM  - same country and the candidate's calendar month intersects
        [start_date, end_date].

Day-less candidate dates ("August 2018") are treated under YMD as matching
when any day of that month falls inside the window. So YM is YMD with a
window of 0, applied to the candidate's month.
"""

from __future__ import annotations

import calendar
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date
from enum import Enum
from itertools import accumulate
from typing import Iterable

from .ground_truth import ConsolidatedEvent
from .places import ResolvedCandidate
from .rows import json_row


class Strategy(str, Enum):
    YMD = "ymd"
    YM = "ym"


@json_row()
@dataclass(slots=True)
class MatchResult:
    """A ``matches.jsonl`` row: an event, and the resolved candidate row it matched."""
    event_id: str
    article_id: str
    sentence_index: int
    strategy: Strategy
    matched_date: str  # YYYY-MM-DD, or YYYY-MM for a day-less date
    iso3: str

    @classmethod
    def from_candidate(cls, event_id: str, candidate: ResolvedCandidate,
                       strategy: Strategy) -> "MatchResult":
        d = candidate.date
        day = "" if d.day is None else f"-{d.day:02d}"
        return cls(event_id, candidate.article_id, candidate.sentence_index, strategy,
                   f"{d.year:04d}-{d.month:02d}{day}", candidate.country.iso3)


@dataclass
class EvalReport:
    precision: float | None  # undefined (None) when nothing matched
    recall: float
    hits: int
    matched_candidates: int
    relevant_matched: int
    ground_truth_total: int


_NO_EVENTS: tuple = ([], [], [])


class EventIndex:
    """Country-keyed view over consolidated events; immutable after build.

    Each country's events are sorted by (start, id), next to their start
    ordinals and a running maximum of their end ordinals, so the events
    that can overlap a date interval are found by two bisections.
    """

    def __init__(self, events: Iterable[ConsolidatedEvent]):
        by_country: dict[str, list[ConsolidatedEvent]] = {}
        for event in events:
            by_country.setdefault(event.country.iso3, []).append(event)
        self._by_country: dict[str, tuple[list[ConsolidatedEvent], list[int], list[int]]] = {}
        for iso3, group in by_country.items():
            group.sort(key=lambda e: (e.start_date, e.event_id))
            self._by_country[iso3] = (
                group,
                [e.start_date.toordinal() for e in group],
                list(accumulate((e.end_date.toordinal() for e in group), max)))

    def reaching(self, iso3: str, lo: int, hi: int) -> list[ConsolidatedEvent]:
        """The country's events in index order, from the first whose end, or
        an earlier event's, is on or after ordinal ``lo``, to the last that
        starts on or before ordinal ``hi``. Every event that starts by ``hi``
        and ends on or after ``lo`` is among them."""
        group, starts, reach = self._by_country.get(iso3, _NO_EVENTS)
        return group[bisect_left(reach, lo):bisect_right(starts, hi)]


def match_all(candidates: Iterable[ResolvedCandidate], events: EventIndex,
              strategy: Strategy, window_days: int) -> list[MatchResult]:
    """The events each matchable candidate's interval reaches, in index order.

    The interval is the candidate's day, clamped to its month, under YMD
    when the date has one, else its calendar month; the window is
    ``window_days`` under YMD and 0 under YM.
    """
    window = window_days if strategy is Strategy.YMD else 0
    matches: list[MatchResult] = []
    for candidate in candidates:
        d = candidate.date
        if not d.is_matchable:
            continue
        last = calendar.monthrange(d.year, d.month)[1]
        if strategy is Strategy.YMD and d.day is not None:
            lo = hi = date(d.year, d.month, min(d.day, last))
        else:
            lo, hi = date(d.year, d.month, 1), date(d.year, d.month, last)
        # lo <= end + window, written so that no date leaves the calendar's range.
        for event in events.reaching(candidate.country.iso3,
                                     lo.toordinal() - window, hi.toordinal()):
            if (lo - event.end_date).days <= window and hi >= event.start_date:
                matches.append(MatchResult.from_candidate(event.event_id, candidate,
                                                          strategy))
    return matches


def evaluate(matches: list[MatchResult],
             labeled_sample: dict[tuple[str, int], bool],
             ground_truth_total: int) -> EvalReport:
    """Precision over labeled matched candidates, recall over events.

    ``labeled_sample`` maps (article_id, sentence_index) to a human
    relevance judgement; matched candidates missing from the sample count
    as irrelevant.
    """
    candidate_keys = {(m.article_id, m.sentence_index) for m in matches}
    matched_candidates = len(candidate_keys)
    relevant = sum(1 for key in candidate_keys if labeled_sample.get(key, False))
    hits = len({m.event_id for m in matches})
    return EvalReport(
        precision=(relevant / matched_candidates) if matched_candidates else None,
        recall=(hits / ground_truth_total) if ground_truth_total else 0.0,
        hits=hits,
        matched_candidates=matched_candidates,
        relevant_matched=relevant,
        ground_truth_total=ground_truth_total,
    )
