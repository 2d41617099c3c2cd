"""Stratified hit-rate reporting along socio-economic axes, plus
citation-domain frequency extraction.
"""

from __future__ import annotations

import csv
import math
import typing
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple
from urllib.parse import urlsplit

from .corpus import CandidateSentence
from .countries import Continent, text_lines
from .ground_truth import ConsolidatedEvent
from .rows import json_row

UNKNOWN_BUCKET = "unknown"


@dataclass
class CountryIndicators:
    iso3: str
    gdp_per_capita_usd: float | None
    gni_group: str | None  # one of the four income-group labels, verbatim
    vulnerability: float | None  # 0-10
    lack_of_coping: float | None  # 0-10
    english_speaker_pct: float | None  # 0-100
    population: int | None


@json_row()
@dataclass
class StratumReport:
    axis: str
    bucket_label: str
    ground_truth_count: int
    matched_count: int
    hit_rate_pct: float | None


# Each ``CountryIndicators`` field's CSV column and the type its text is read as.
_COLUMNS = [({"gdp_per_capita_usd": "gdp_per_capita", "english_speaker_pct": "english_pct"}
             .get(name, name), (typing.get_args(tp) or (tp,))[0])
            for name, tp in typing.get_type_hints(CountryIndicators).items()]


def load_indicators(path: Path) -> dict[str, CountryIndicators]:
    """Read the indicators snapshot CSV keyed by iso3. A missing column, or a
    missing or unparsable value, or a line that is not UTF-8, is a ValueError
    naming the file (line, column)."""
    indicators: dict[str, CountryIndicators] = {}
    with open(path, "rb") as fh:
        reader = csv.DictReader(text_lines(fh, f"indicators {path}"))
        for column, _ in _COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"indicators {path}: no {column} column")
        for row in reader:
            values = []
            for column, parse in _COLUMNS:
                try:
                    if row[column] is None:
                        raise ValueError("missing")
                    text = row[column].strip()
                    values.append(parse(text) if text else None)
                except ValueError as exc:
                    raise ValueError(f"indicators {path} line {reader.line_num}: "
                                     f"{column}: {exc}") from None
            ind = CountryIndicators(*values)
            indicators[ind.iso3] = ind
    return indicators


def round_half_up(value: float, digits: int = 2) -> float:
    return float(Decimal(str(value)).quantize(Decimal(10) ** -digits,
                                              rounding=ROUND_HALF_UP))


def compute_hit_rate_pct(ground_truth: int, matched: int) -> float | None:
    if ground_truth == 0:
        return None
    return round_half_up(100.0 * matched / ground_truth)


# --- stratification ----------------------------------------------------------

class Axis(NamedTuple):
    """Where an axis takes an event's value from, and how it buckets it.

    ``source`` is a function of the event, or the ``CountryIndicators``
    fields the value is made of (``combine`` joins several); an event whose
    country has no indicators row, or no value in one of those fields,
    lands in ``unknown``. With ``bounds``, value v lands in
    ``labels[bisect_right(bounds, v)]``, so each band holds its lower bound,
    and an input outside ``valid`` (each field, for several) raises
    ValueError. Without bounds the value is the label. ``labels`` is the
    report order; an axis without labels reports in label order.
    """
    source: Callable[[ConsolidatedEvent], Any] | tuple[str, ...]
    bounds: tuple[float, ...] = ()
    labels: tuple[str, ...] = ()
    valid: tuple[float, float] = (0, math.inf)
    combine: Callable[..., float] | None = None


def _country(event: ConsolidatedEvent) -> str:
    return event.country.iso3


AXIS_TABLE = {
    "continent": Axis(lambda e: e.country.continent.value,
                      labels=tuple(c.value for c in Continent)),
    "gdp": Axis(("gdp_per_capita_usd",), (812, 2218, 5484, 9200, 44714),
                ("Low income", "Lower middle income", "Middle income",
                 "Upper middle income", "High income", "Very high income")),
    "gni": Axis(("gni_group",)),
    # The geometric combination sqrt(v*l) of two 0-10 indicators; the top
    # band is closed at 10.
    "vuln": Axis(("vulnerability", "lack_of_coping"), (2, 4, 6, 8),
                 ("0-2", "2-4", "4-6", "6-8", "8-10"), (0, 10),
                 lambda v, l: math.sqrt(v * l)),
    "english": Axis(("english_speaker_pct",), (20, 40, 60, 80),
                    ("<20", "20-40", "40-60", "60-80", "80+"), (0, 100)),
    "population": Axis(("population",), (754_394, 6_465_513, 24_992_369),
                       ("G1", "G2", "G3", "G4")),
    # Unknown counts pool into "0" or are excluded (``fatalities_unknown``).
    "fatalities": Axis(lambda e: e.fatalities, (1, 10, 100, 2000),
                       ("0", "1-9", "10-99", "100-1999", "2000+")),
    "month": Axis(lambda e: f"{e.start_date.year:04d}-{e.start_date.month:02d}"),
    "country": Axis(_country),
}

AXES = list(AXIS_TABLE)


def _bucket(axis: str, key, indicators: dict[str, CountryIndicators],
            fatalities_unknown: str) -> str | None:
    """The bucket of ``key``: an event's value, or on an axis read from the
    indicators, the event's country. None: excluded by policy."""
    spec = AXIS_TABLE[axis]
    if callable(spec.source):
        value = key
        if value is None:  # fatalities the sources did not report
            if fatalities_unknown == "exclude":
                return None
            value = 0
        inputs = (value,)
    else:
        row = indicators.get(key)
        inputs = (None,) if row is None else tuple(getattr(row, f) for f in spec.source)
        if None in inputs:
            return UNKNOWN_BUCKET
        value = spec.combine(*inputs) if spec.combine else inputs[0]
    if not spec.bounds:
        return value
    lo, hi = spec.valid
    if not all(lo <= x <= hi for x in inputs):
        raise ValueError(f"{axis} input out of range [{lo}, {hi}]: {inputs}")
    return spec.labels[bisect_right(spec.bounds, value)]


def stratify(events: list[ConsolidatedEvent], matched_ids: set[str],
             indicators: dict[str, CountryIndicators], axis: str,
             min_country_events: int = 5,
             fatalities_unknown: str = "zero") -> list[StratumReport]:
    """Per-bucket ground-truth counts, matched counts, and hit rates.

    An event counts as matched when its id is in ``matched_ids``. The
    "unknown" bucket collects events whose indicator is missing; it is
    reported last but excluded from the axis' main totals. On the country
    axis, countries with fewer than ``min_country_events`` events are
    dropped, and rows come out ordered by descending event count.
    """
    if axis not in AXIS_TABLE:
        raise ValueError(f"unknown axis {axis!r}")
    if fatalities_unknown not in ("zero", "exclude"):
        raise ValueError(f"unknown-fatalities policy {fatalities_unknown!r}")
    source = AXIS_TABLE[axis].source
    key_of = source if callable(source) else _country
    buckets: dict = {}  # key -> bucket, so each distinct key is bucketed once
    gt_counts: dict[str, int] = {}
    hit_counts: dict[str, int] = {}
    for event in events:
        key = key_of(event)
        if key not in buckets:
            buckets[key] = _bucket(axis, key, indicators, fatalities_unknown)
        bucket = buckets[key]
        if bucket is None:
            continue  # excluded by policy
        gt_counts[bucket] = gt_counts.get(bucket, 0) + 1
        if event.event_id in matched_ids:
            hit_counts[bucket] = hit_counts.get(bucket, 0) + 1

    if axis == "country":
        order = sorted((b for b, n in gt_counts.items() if n >= min_country_events),
                       key=lambda b: (-gt_counts[b], b))
    else:
        labels = AXIS_TABLE[axis].labels or sorted(gt_counts.keys() - {UNKNOWN_BUCKET})
        order = [b for b in labels if b in gt_counts]
        if UNKNOWN_BUCKET in gt_counts:
            order.append(UNKNOWN_BUCKET)

    reports = []
    for bucket in order:
        gt = gt_counts[bucket]
        hit = hit_counts.get(bucket, 0)
        reports.append(StratumReport(axis, bucket, gt, hit, compute_hit_rate_pct(gt, hit)))
    return reports


# --- citation domains --------------------------------------------------------

def registrable_domain(url: str) -> str | None:
    """Hostname with scheme, credentials, port, path and leading www. removed."""
    try:
        host = urlsplit(url.strip()).hostname
    except ValueError:
        return None
    if not host or "." not in host:
        return None
    host = host.lower()
    if host.startswith("www."):
        host = host[4:]
    return host or None


def extract_reference_domains(matched_candidates: Iterable[CandidateSentence],
                              top_k: int = 10,
                              ) -> tuple[list[tuple[str, int]], int]:
    """Citation-domain counts over matched candidates.

    Returns (top-k list ordered by count desc then domain asc,
    unparsable-URL tally).
    """
    counts: dict[str, int] = {}
    skipped = 0
    for cand in matched_candidates:
        for url in cand.citations:
            domain = registrable_domain(url)
            if domain is None:
                skipped += 1
                continue
            counts[domain] = counts.get(domain, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k], skipped
