"""Match resolved candidate sentences against consolidated events.

Two strategies, from strict to lax:
  YMD - same country and the candidate date falls inside
        [start_date, end_date + window] (window defaults to 5 days);
  YM  - same country and the candidate's calendar month intersects
        [start_date, end_date].

Day-less candidate dates ("August 2018") are treated under YMD as matching
when any day of that month falls inside the window.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from typing import Iterable

from .countries import CountryCode
from .dates import DateMention
from .ground_truth import ConsolidatedEvent
from .places import ResolvedCandidate

DEFAULT_WINDOW_DAYS = 5


class Strategy(str, Enum):
    YMD = "ymd"
    YM = "ym"


@dataclass
class MatchResult:
    event_id: str
    candidate: ResolvedCandidate
    strategy: Strategy
    matched_date: DateMention
    matched_country: CountryCode

    def to_json_dict(self) -> dict:
        d = self.matched_date
        if d.day is not None:
            date_str = f"{d.year:04d}-{d.month:02d}-{d.day:02d}"
        else:
            date_str = f"{d.year:04d}-{d.month:02d}"
        return {
            "event_id": self.event_id,
            "article_id": self.candidate.article_id,
            "sentence_index": self.candidate.sentence_index,
            "strategy": self.strategy.value,
            "matched_date": date_str,
            "iso3": self.matched_country.iso3,
        }


@dataclass
class EvalReport:
    precision: float | None  # undefined (None) when nothing matched
    recall: float
    hits: int
    matched_candidates: int
    relevant_matched: int
    ground_truth_total: int


class EventIndex:
    """Country-keyed view over consolidated events; immutable after build."""

    def __init__(self, events: Iterable[ConsolidatedEvent]):
        self._by_country: dict[str, list[ConsolidatedEvent]] = {}
        for event in events:
            self._by_country.setdefault(event.country.iso3, []).append(event)
        for group in self._by_country.values():
            group.sort(key=lambda e: (e.start_date, e.event_id))

    def for_country(self, iso3: str) -> list[ConsolidatedEvent]:
        return self._by_country.get(iso3, [])


def _month_interval(year: int, month: int) -> tuple[date, date]:
    last = calendar.monthrange(year, month)[1]
    return date(year, month, 1), date(year, month, last)


def _candidate_interval(mention: DateMention) -> tuple[date, date]:
    assert mention.year is not None and mention.month is not None
    if mention.day is not None:
        d = date(mention.year, mention.month, min(mention.day,
                 calendar.monthrange(mention.year, mention.month)[1]))
        return d, d
    return _month_interval(mention.year, mention.month)


def match_ymd(candidate: ResolvedCandidate, events: EventIndex,
              window_days: int = DEFAULT_WINDOW_DAYS) -> list[MatchResult]:
    """Country equality plus date inside [start, end + window], inclusive."""
    if not candidate.date.is_matchable:
        return []
    lo, hi = _candidate_interval(candidate.date)
    matches = []
    for event in events.for_country(candidate.country.iso3):
        window_end = event.end_date + timedelta(days=window_days)
        if lo <= window_end and hi >= event.start_date:
            matches.append(MatchResult(event.event_id, candidate, Strategy.YMD,
                                       candidate.date, candidate.country))
    return matches


def match_ym(candidate: ResolvedCandidate, events: EventIndex) -> list[MatchResult]:
    """Country equality plus calendar-month overlap with [start, end]."""
    if not candidate.date.is_matchable:
        return []
    month_lo, month_hi = _month_interval(candidate.date.year, candidate.date.month)
    matches = []
    for event in events.for_country(candidate.country.iso3):
        if month_lo <= event.end_date and month_hi >= event.start_date:
            matches.append(MatchResult(event.event_id, candidate, Strategy.YM,
                                       candidate.date, candidate.country))
    return matches


def match_all(candidates: Iterable[ResolvedCandidate], events: EventIndex,
              strategy: Strategy, window_days: int = DEFAULT_WINDOW_DAYS,
              ) -> list[MatchResult]:
    matches: list[MatchResult] = []
    for candidate in candidates:
        if strategy is Strategy.YMD:
            matches.extend(match_ymd(candidate, events, window_days))
        else:
            matches.extend(match_ym(candidate, events))
    return matches


def evaluate(match_rows: list[dict],
             labeled_sample: dict[tuple[str, int], bool],
             ground_truth_total: int) -> EvalReport:
    """Precision over labeled matched candidates, recall over events.

    ``match_rows`` are ``matches.jsonl`` rows. ``labeled_sample`` maps
    (article_id, sentence_index) to a human relevance judgement; matched
    candidates missing from the sample count as irrelevant.
    """
    candidate_keys = {(m["article_id"], m["sentence_index"]) for m in match_rows}
    matched_candidates = len(candidate_keys)
    relevant = sum(1 for key in candidate_keys if labeled_sample.get(key, False))
    hits = len({m["event_id"] for m in match_rows})
    return EvalReport(
        precision=(relevant / matched_candidates) if matched_candidates else None,
        recall=(hits / ground_truth_total) if ground_truth_total else 0.0,
        hits=hits,
        matched_candidates=matched_candidates,
        relevant_matched=relevant,
        ground_truth_total=ground_truth_total,
    )
