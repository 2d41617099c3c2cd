"""Date mention extraction and year inference from surrounding context.

Mentions may be partial ("April 13", "early June"); a three-step cascade
borrows the year from the sentence, paragraph, or article title when each
context level contains exactly one distinct year token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Collection

from .rows import json_row

YEAR_MIN, YEAR_MAX = 1900, 2100


class YearSource(str, Enum):
    EXPLICIT = "EXPLICIT"
    SENTENCE = "SENTENCE"
    PARAGRAPH = "PARAGRAPH"
    TITLE = "TITLE"
    UNRESOLVED = "UNRESOLVED"


@json_row()
@dataclass(frozen=True, slots=True)
class DateMention:
    raw_span: str
    day: int | None = None
    month: int | None = None
    year: int | None = None
    year_source: YearSource = YearSource.UNRESOLVED

    @property
    def is_matchable(self) -> bool:
        """Year-month matching needs both; a bare year never matches."""
        return self.month is not None and self.year is not None


_MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12,
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7, "aug": 8,
    "sep": 9, "sept": 9, "oct": 10, "nov": 11, "dec": 12,
}

# early, mid, late by first letter: IGNORECASE lets the "i" of "mid" be "İ"
# or "ı", which do not lower-case to "i".
_MODIFIER_DAY = {"e": 5, "m": 15, "l": 25}

_MONTH_PAT = (r"(?:January|February|March|April|May|June|July|August|September|"
              r"October|November|December|Jan\.?|Feb\.?|Mar\.?|Apr\.?|Jun\.?|"
              r"Jul\.?|Aug\.?|Sept\.?|Sep\.?|Oct\.?|Nov\.?|Dec\.?)")
_DAY_PAT = r"\d{1,2}(?:st|nd|rd|th)?"
_YEAR_PAT = r"\d{4}"

# Alternatives are ordered longest-first so e.g. "April 13, 2019" is not
# consumed as a bare "April".
_DATE_RE = re.compile(
    rf"\b(?:"
    rf"(?P<iso>(?P<iso_y>\d{{4}})-(?P<iso_m>\d{{2}})-(?P<iso_d>\d{{2}}))"
    rf"|(?P<mdy>(?P<mdy_mon>{_MONTH_PAT})\s+(?P<mdy_d>{_DAY_PAT}),?\s+(?P<mdy_y>{_YEAR_PAT}))"
    rf"|(?P<dmy>(?P<dmy_d>{_DAY_PAT})\s+(?P<dmy_mon>{_MONTH_PAT})\s+(?P<dmy_y>{_YEAR_PAT}))"
    rf"|(?P<my>(?P<my_mon>{_MONTH_PAT}),?\s+(?P<my_y>{_YEAR_PAT}))"
    rf"|(?P<md>(?P<md_mon>{_MONTH_PAT})\s+(?P<md_d>\d{{1,2}})(?:st|nd|rd|th)?)"
    rf"|(?P<modm>(?P<mod>[Ee]arly|[Mm]id|[Ll]ate)[-\s](?P<modm_mon>{_MONTH_PAT}))"
    rf"|(?P<mon>{_MONTH_PAT})"
    rf"|(?P<bare_y>\d{{4}})"
    rf")\b",
    re.IGNORECASE,
)

# Every alternative of _DATE_RE starts, right after its \b, with a digit, the
# first three letters of a month, or a modifier; under the same flags this
# matches wherever _DATE_RE can, so the full pattern is tried only here.
_ANCHOR_RE = re.compile(
    r"\b(?:\d|jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec|early|mid|late)",
    re.IGNORECASE,
)

_YEAR_TOKEN_RE = re.compile(r"\b(\d{4})\b")


# The non-ASCII letters that IGNORECASE equates with ASCII ones (İ and ı
# with i, long s with s, the Kelvin sign with k); lower() maps none of them
# onto that ASCII letter, so a month token is folded through this first.
_ASCII_FOLD = str.maketrans("\u0130\u0131\u017f\u212a", "iisk")


def _month_num(token: str) -> int | None:
    return _MONTHS.get(token.rstrip(".").translate(_ASCII_FOLD).lower())


def _valid_year(y: int) -> bool:
    return YEAR_MIN <= y <= YEAR_MAX


def _day_num(token: str) -> int | None:
    digits = re.sub(r"(st|nd|rd|th)$", "", token, flags=re.IGNORECASE)
    day = int(digits)
    return day if 1 <= day <= 31 else None


def _date_matches(text: str):
    """The matches of ``_DATE_RE.finditer(text)``, tried at anchors only.

    No alternative matches the empty string, and ``match(text, pos)`` judges
    its leading word boundary against ``text[pos - 1]``, so resuming at a
    match's end, or else one past the anchor, yields what finditer does.
    """
    search, match = _ANCHOR_RE.search, _DATE_RE.match
    pos = 0
    while (anchor := search(text, pos)) is not None:
        m = match(text, anchor.start())
        if m is None:
            pos = anchor.start() + 1
        else:
            yield m
            pos = m.end()


# Each form of _DATE_RE, by its outer group: the groups that hold its year,
# month and day, None where the form has none.
_FORMS = {
    "iso": ("iso_y", "iso_m", "iso_d"),
    "mdy": ("mdy_y", "mdy_mon", "mdy_d"),
    "dmy": ("dmy_y", "dmy_mon", "dmy_d"),
    "my": ("my_y", "my_mon", None),
    "md": (None, "md_mon", "md_d"),
    "modm": (None, "modm_mon", "mod"),
    "mon": (None, "mon", None),
    "bare_y": ("bare_y", None, None),
}


def find_dates(text: str) -> list[DateMention]:
    """Extract date mentions left to right, longest pattern first.

    A 4-digit year inside the span makes the mention EXPLICIT; partial
    mentions stay UNRESOLVED until infer_year(). Bare 4-digit numbers
    outside 1900-2100 are not treated as years.
    """
    mentions: list[DateMention] = []
    for m in _date_matches(text):
        year_group, month_group, day_group = _FORMS[m.lastgroup]
        year = month = day = None
        if year_group is not None:
            year = int(m.group(year_group))
            if not _valid_year(year):
                continue
        if month_group is not None:
            token = m.group(month_group)
            month = int(token) if token.isdigit() else _month_num(token)
            if month is None or not 1 <= month <= 12:
                continue
            # Yearless months must be capitalized: "may" is usually a verb.
            if year is None and not token[0].isupper():
                continue
        if day_group is not None:
            token = m.group(day_group)
            day = (_day_num(token) if token[0].isdigit()
                   else _MODIFIER_DAY[token[0].lower()])
            if day is None:
                continue
        mentions.append(DateMention(m.group(0), day, month, year,
                                    YearSource.UNRESOLVED if year is None
                                    else YearSource.EXPLICIT))
    return mentions


def distinct_years(text: str) -> set[int]:
    """Distinct plausible year tokens occurring in a text."""
    return {int(tok) for tok in _YEAR_TOKEN_RE.findall(text)
            if _valid_year(int(tok))}


def infer_year(mention: DateMention, sentence: str,
               paragraph_years: Collection[int] = (),
               title: str = "") -> DateMention:
    """Adopt a year from context when exactly one candidate exists.

    Cascade: one distinct year in the sentence wins; failing that (and only
    when the sentence is year-free) a unique year in the paragraph, given as
    its ``distinct_years``, then in the title. Ambiguity at a level never
    falls back to guessing.
    """
    if mention.year is not None:
        return mention
    sentence_years = distinct_years(sentence)
    if len(sentence_years) == 1:
        years, source = sentence_years, YearSource.SENTENCE
    elif sentence_years:
        return mention  # several years in the sentence: ambiguous
    elif len(paragraph_years) == 1:
        years, source = paragraph_years, YearSource.PARAGRAPH
    else:
        years, source = distinct_years(title), YearSource.TITLE
        if len(years) != 1:
            return mention
    # Built directly: dataclasses.replace takes over twice as long.
    return DateMention(mention.raw_span, mention.day, mention.month,
                       next(iter(years)), source)
