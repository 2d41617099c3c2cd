"""Placename spotting and candidate expansion.

The default extractor is a deterministic gazetteer longest-match over
capitalized token spans, so tests run hermetically; an external NER tagger
can be plugged in through the same callable interface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable

from .countries import CountryCode, CountryRegistry
from .corpus import CandidateSentence
from .dates import DateMention


class ResolverStage(str, Enum):
    GAZETTEER = "GAZETTEER"
    REMOTE_GEOCODER = "REMOTE_GEOCODER"
    CONTEXT_INFERENCE = "CONTEXT_INFERENCE"
    UNRESOLVED = "UNRESOLVED"


@dataclass(slots=True)
class PlaceMention:
    raw_span: str
    resolved: CountryCode | None = None
    resolver_stage: ResolverStage = ResolverStage.UNRESOLVED


@dataclass(slots=True)
class ResolvedCandidate:
    """One (country, date) reading of a candidate sentence, keyed by the
    candidate's (article_id, sentence_index)."""
    article_id: str
    sentence_index: int
    country: CountryCode
    date: DateMention
    place: PlaceMention  # provenance: the first span resolving to country

    def to_json_dict(self) -> dict:
        return {
            "article_id": self.article_id,
            "sentence_index": self.sentence_index,
            "iso3": self.country.iso3,
            "date": self.date.to_json_dict(),
            "place_span": self.place.raw_span,
            "place_stage": self.place.resolver_stage.value,
        }

    @classmethod
    def from_json_dict(cls, d: dict, registry: CountryRegistry) -> "ResolvedCandidate":
        country = registry.get(d["iso3"])
        return cls(d["article_id"], d["sentence_index"], country,
                   DateMention.from_json_dict(d["date"]),
                   PlaceMention(d["place_span"], country,
                                ResolverStage(d["place_stage"])))


# extractor: text -> place-name spans in positional order
PlacenameExtractor = Callable[[str], list[str]]


class Gazetteer:
    """Immutable set of lowercased placename phrases."""

    def __init__(self, names: set[str]):
        self._names = frozenset(names)
        self.max_tokens = max((len(k.split()) for k in self._names), default=1)

    @classmethod
    def load(cls, path: Path | None = None,
             registry: CountryRegistry | None = None) -> "Gazetteer":
        """Registry display names plus the first tab field of each line."""
        path = path or Path(str(resources.files("coverage_auditor")
                                .joinpath("data", "gazetteer.tsv")))
        names = {c.display_name.lower() for c in registry or ()}
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                names.add(line.split("\t", 1)[0].strip().lower())
        return cls(names)

    def __contains__(self, phrase: str) -> bool:
        return phrase.lower() in self._names


_CAP_TOKEN_RE = re.compile(r"\b[A-Z][\w'’-]*\b")


class GazetteerSpotter:
    """Longest-match placename spotting over runs of capitalized tokens."""

    def __init__(self, gazetteer: Gazetteer):
        self.gazetteer = gazetteer

    def __call__(self, text: str) -> list[str]:
        spans: list[str] = []
        for run in _capitalized_runs(text):
            i = 0
            while i < len(run):
                matched = False
                max_len = min(len(run) - i, self.gazetteer.max_tokens)
                for length in range(max_len, 0, -1):
                    tokens = run[i:i + length]
                    phrase_start = tokens[0][1]
                    phrase_end = tokens[-1][1] + len(tokens[-1][0])
                    phrase = text[phrase_start:phrase_end]
                    if " ".join(t[0] for t in tokens) in self.gazetteer:
                        spans.append(phrase)
                        i += length
                        matched = True
                        break
                if not matched:
                    i += 1
        return spans


def _capitalized_runs(text: str) -> list[list[tuple[str, int]]]:
    """Group capitalized tokens separated only by whitespace."""
    runs: list[list[tuple[str, int]]] = []
    current: list[tuple[str, int]] = []
    for m in _CAP_TOKEN_RE.finditer(text):
        if current:
            prev_word, prev_start = current[-1]
            between = text[prev_start + len(prev_word):m.start()]
            if between.strip():  # something other than whitespace intervenes
                runs.append(current)
                current = []
        current.append((m.group(0), m.start()))
    if current:
        runs.append(current)
    return runs


def extract_placenames(text: str,
                       extractor: PlacenameExtractor) -> list[PlaceMention]:
    """Non-overlapping spans, left to right; duplicates keep first position."""
    seen: set[str] = set()
    mentions: list[PlaceMention] = []
    for span in extractor(text):
        if span in seen:
            continue
        seen.add(span)
        mentions.append(PlaceMention(raw_span=span))
    return mentions


def expand_candidates(candidate: CandidateSentence,
                      dates: list[DateMention],
                      places: list[PlaceMention]) -> list[ResolvedCandidate]:
    """Cartesian product of distinct resolved countries and resolved dates.

    Candidates with no resolved country or no matchable date expand to
    nothing (the caller counts the discards).
    """
    countries: dict[str, tuple[CountryCode, PlaceMention]] = {}
    for place in places:
        if place.resolved is not None and place.resolved.iso3 not in countries:
            countries[place.resolved.iso3] = (place.resolved, place)

    usable_dates: list[DateMention] = []
    seen_dates: set[tuple] = set()
    for mention in dates:
        if not mention.is_matchable:
            continue
        key = (mention.year, mention.month, mention.day)
        if key in seen_dates:
            continue
        seen_dates.add(key)
        usable_dates.append(mention)

    expanded: list[ResolvedCandidate] = []
    for iso3 in sorted(countries):
        country, place = countries[iso3]
        for mention in usable_dates:
            expanded.append(ResolvedCandidate(candidate.article_id,
                                              candidate.sentence_index,
                                              country, mention, place))
    return expanded
