"""Placename spotting, phrase matching and candidate expansion.

The spotter is a deterministic gazetteer longest-match over capitalized
token spans, so tests run hermetically. ``PhraseMatcher`` finds the
leftmost-longest phrases of a word list with one dict probe per word that
starts none; the spotter and whole-text country inference
(``geocode.AliasScanInferencer``) both run on it. What it matches depends
on its phrases alone, not on the order they are given in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

from .countries import CountryCode, CountryRegistry, _default_data_path, _read_tsv
from .corpus import CandidateSentence
from .dates import DateMention
from .rows import json_row


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


@json_row(keys={"country": "iso3"})
@dataclass(slots=True)
class ResolvedCandidate:
    """One (country, date) reading of a candidate sentence, keyed by its
    (article_id, sentence_index); the first span naming country, and its stage."""
    article_id: str
    sentence_index: int
    country: CountryCode
    date: DateMention
    place_span: str
    place_stage: ResolverStage


class PhraseMatcher:
    """Leftmost-longest, non-overlapping matches of whole-word phrases.

    ``phrases`` maps a phrase (words joined by single spaces) to a value
    other than None. A word that starts no phrase costs one dict probe; at
    one that does, the longest phrase length starting there is tried first.
    """

    def __init__(self, phrases: dict[str, object]):
        self._values = phrases
        self._longest: dict[str, int] = {}  # first word -> most words
        for phrase in phrases:
            words = phrase.split(" ")
            if len(words) > self._longest.get(words[0], 0):
                self._longest[words[0]] = len(words)

    def matches(self, words: list[str]) -> Iterator[tuple[int, int, object]]:
        """(start, end, value) of each match in ``words[start:end]``, left
        to right."""
        longest, values = self._longest, self._values
        i, n = 0, len(words)
        while i < n:
            start, i = i, i + 1
            most = longest.get(words[start])
            if most is None:
                continue
            for end in range(min(start + most, n), start, -1):
                value = values.get(" ".join(words[start:end]))
                if value is not None:
                    yield start, end, value
                    i = end
                    break


class Gazetteer:
    """Immutable set of lowercased placename phrases, held as a
    ``PhraseMatcher`` whose values are the phrases themselves."""

    def __init__(self, names: set[str]):
        self.phrases = PhraseMatcher({name: name for name in names})

    @classmethod
    def load(cls, path: Path | None = None,
             registry: CountryRegistry | None = None) -> "Gazetteer":
        """Registry display names plus the first tab field of each line."""
        path = path or _default_data_path("gazetteer.tsv")
        names = {c.display_name.lower() for c in registry or ()}
        names.update(_read_tsv(path, None, lambda name, *_: name.lower()))
        return cls(names)


_CAP_TOKEN_RE = re.compile(r"\b[A-Z][\w'’-]*\b")


class GazetteerSpotter:
    """Longest-match placename spotting over runs of capitalized tokens."""

    def __init__(self, gazetteer: Gazetteer):
        self.gazetteer = gazetteer

    def __call__(self, text: str) -> list[str]:
        spans: list[str] = []
        matches = self.gazetteer.phrases.matches
        for run in _capitalized_runs(text):
            # Lowercasing token by token equals lowercasing the phrase: the
            # space between tokens ends any final-sigma context.
            for start, end, _ in matches([token.lower() for token, _ in run]):
                last, last_at = run[end - 1]
                spans.append(text[run[start][1]:last_at + len(last)])
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
            expanded.append(ResolvedCandidate(
                candidate.article_id, candidate.sentence_index, country, mention,
                place.raw_span, place.resolver_stage))
    return expanded
