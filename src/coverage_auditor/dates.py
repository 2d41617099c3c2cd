"""Date mention extraction and year inference from surrounding context.

Mentions may be partial ("April 13", "early June"); a three-step cascade
borrows the year from the sentence, paragraph, or article title when each
context level contains exactly one distinct year token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Collection

YEAR_MIN, YEAR_MAX = 1900, 2100


class YearSource(str, Enum):
    EXPLICIT = "EXPLICIT"
    SENTENCE = "SENTENCE"
    PARAGRAPH = "PARAGRAPH"
    TITLE = "TITLE"
    UNRESOLVED = "UNRESOLVED"


@dataclass(frozen=True)
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

    def to_json_dict(self) -> dict:
        return {"raw_span": self.raw_span, "day": self.day, "month": self.month,
                "year": self.year, "year_source": self.year_source.value}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DateMention":
        return cls(raw_span=d["raw_span"], day=d.get("day"), month=d.get("month"),
                   year=d.get("year"), year_source=YearSource(d["year_source"]))


_MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12,
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7, "aug": 8,
    "sep": 9, "sept": 9, "oct": 10, "nov": 11, "dec": 12,
}

_MODIFIER_DAY = {"early": 5, "mid": 15, "late": 25}

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

_YEAR_TOKEN_RE = re.compile(r"\b(\d{4})\b")


def _month_num(token: str) -> int | None:
    return _MONTHS.get(token.rstrip(".").lower())


def _valid_year(y: int) -> bool:
    return YEAR_MIN <= y <= YEAR_MAX


def _day_num(token: str) -> int | None:
    digits = re.sub(r"(st|nd|rd|th)$", "", token, flags=re.IGNORECASE)
    day = int(digits)
    return day if 1 <= day <= 31 else None


def find_dates(text: str) -> list[DateMention]:
    """Extract date mentions left to right, longest pattern first.

    A 4-digit year inside the span makes the mention EXPLICIT; partial
    mentions stay UNRESOLVED until infer_year(). Bare 4-digit numbers
    outside 1900-2100 are not treated as years.
    """
    mentions: list[DateMention] = []
    for m in _DATE_RE.finditer(text):
        span = m.group(0)
        if m.group("iso"):
            year, month, day = int(m.group("iso_y")), int(m.group("iso_m")), int(m.group("iso_d"))
            if not (_valid_year(year) and 1 <= month <= 12 and 1 <= day <= 31):
                continue
            mentions.append(DateMention(span, day, month, year, YearSource.EXPLICIT))
        elif m.group("mdy") or m.group("dmy"):
            kind = "mdy" if m.group("mdy") else "dmy"
            month = _month_num(m.group(f"{kind}_mon"))
            day = _day_num(m.group(f"{kind}_d"))
            year = int(m.group(f"{kind}_y"))
            if month is None or day is None or not _valid_year(year):
                continue
            mentions.append(DateMention(span, day, month, year, YearSource.EXPLICIT))
        elif m.group("my"):
            month = _month_num(m.group("my_mon"))
            year = int(m.group("my_y"))
            if month is None or not _valid_year(year):
                continue
            mentions.append(DateMention(span, None, month, year, YearSource.EXPLICIT))
        elif m.group("md"):
            month = _month_num(m.group("md_mon"))
            day = _day_num(m.group("md_d"))
            if month is None or day is None or not m.group("md_mon")[0].isupper():
                continue
            mentions.append(DateMention(span, day, month, None))
        elif m.group("modm"):
            month = _month_num(m.group("modm_mon"))
            # Yearless months must be capitalized: "may" is usually a verb.
            if month is None or not m.group("modm_mon")[0].isupper():
                continue
            day = _MODIFIER_DAY[m.group("mod").lower()]
            mentions.append(DateMention(span, day, month, None))
        elif m.group("mon"):
            month = _month_num(m.group("mon"))
            if month is None or not m.group("mon")[0].isupper():
                continue
            mentions.append(DateMention(span, None, month, None))
        else:  # bare year
            year = int(m.group("bare_y"))
            if not _valid_year(year):
                continue
            mentions.append(DateMention(span, None, None, year, YearSource.EXPLICIT))
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
        return replace(mention, year=next(iter(sentence_years)),
                       year_source=YearSource.SENTENCE)
    if sentence_years:
        return mention  # several years in the sentence: ambiguous
    if len(paragraph_years) == 1:
        return replace(mention, year=next(iter(paragraph_years)),
                       year_source=YearSource.PARAGRAPH)
    title_years = distinct_years(title)
    if len(title_years) == 1:
        return replace(mention, year=next(iter(title_years)),
                       year_source=YearSource.TITLE)
    return mention
