"""Stratified hit-rate reporting along socio-economic axes, plus
citation-domain frequency extraction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path
from typing import Iterable
from urllib.parse import urlsplit

from .corpus import CandidateSentence
from .ground_truth import ConsolidatedEvent

AXES = ["continent", "gdp", "gni", "vuln", "english", "population",
        "fatalities", "month", "country"]

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
    continent: str | None = None


@dataclass
class StratumReport:
    axis: str
    bucket_label: str
    ground_truth_count: int
    matched_count: int
    hit_rate_pct: float | None

    def to_json_dict(self) -> dict:
        return {
            "axis": self.axis,
            "bucket_label": self.bucket_label,
            "ground_truth_count": self.ground_truth_count,
            "matched_count": self.matched_count,
            "hit_rate_pct": self.hit_rate_pct,
        }


def load_indicators(path: Path) -> dict[str, CountryIndicators]:
    """Read the indicators snapshot CSV keyed by iso3."""
    def _float(v: str) -> float | None:
        return float(v) if v.strip() else None

    def _int(v: str) -> int | None:
        return int(v) if v.strip() else None

    indicators: dict[str, CountryIndicators] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            ind = CountryIndicators(
                iso3=row["iso3"].strip(),
                gdp_per_capita_usd=_float(row["gdp_per_capita"]),
                gni_group=row["gni_group"].strip() or None,
                vulnerability=_float(row["vulnerability"]),
                lack_of_coping=_float(row["lack_of_coping"]),
                english_speaker_pct=_float(row["english_pct"]),
                population=_int(row["population"]),
                continent=row.get("continent", "").strip() or None,
            )
            indicators[ind.iso3] = ind
    return indicators


def round_half_up(value: float, digits: int = 2) -> float:
    return float(Decimal(str(value)).quantize(Decimal(10) ** -digits,
                                              rounding=ROUND_HALF_UP))


def compute_hit_rate_pct(ground_truth: int, matched: int) -> float | None:
    if ground_truth == 0:
        return None
    return round_half_up(100.0 * matched / ground_truth)


# --- bucket functions --------------------------------------------------------

GDP_BOUNDS = [812.0, 2218.0, 5484.0, 9200.0, 44714.0]
GDP_LABELS = ["Low income", "Lower middle income", "Middle income",
              "Upper middle income", "High income", "Very high income"]


def gdp_bucket(gdp: float | None) -> str:
    """Six income buckets; lower bound inclusive, upper exclusive."""
    if gdp is None:
        return UNKNOWN_BUCKET
    if gdp < 0:
        raise ValueError(f"negative GDP per capita: {gdp}")
    for bound, label in zip(GDP_BOUNDS, GDP_LABELS):
        if gdp < bound:
            return label
    return GDP_LABELS[-1]


VULN_LABELS = ["0-2", "2-4", "4-6", "6-8", "8-10"]


def combined_vulnerability(v: float, l: float) -> float:
    """Geometric combination sqrt(v*l) of the two 0-10 indicators."""
    if not (0 <= v <= 10 and 0 <= l <= 10):
        raise ValueError(f"indicators out of range: v={v}, l={l}")
    return math.sqrt(v * l)


def vulnerability_bucket(combined: float) -> str:
    """[0,2), [2,4), [4,6), [6,8), [8,10] - top bucket closed."""
    if not 0 <= combined <= 10:
        raise ValueError(f"combined indicator out of range: {combined}")
    idx = min(int(combined // 2), 4)
    return VULN_LABELS[idx]


POPULATION_BOUNDS = [754_394, 6_465_513, 24_992_369]
POPULATION_LABELS = ["G1", "G2", "G3", "G4"]


def population_group(pop: int | None) -> str:
    """Population quartile groups; lower bound inclusive."""
    if pop is None:
        return UNKNOWN_BUCKET
    if pop < 0:
        raise ValueError(f"negative population: {pop}")
    for bound, label in zip(POPULATION_BOUNDS, POPULATION_LABELS):
        if pop < bound:
            return label
    return POPULATION_LABELS[-1]


FATALITY_LABELS = ["0", "1-9", "10-99", "100-1999", "2000+"]


def fatalities_bucket(n: int | None, unknown: str = "zero") -> str | None:
    """Fatality brackets; absent values pool into "0" unless excluded.

    Counts of 2000 and above land in a separate "2000+" bucket reported
    apart from the four main brackets.
    """
    if n is None:
        if unknown == "zero":
            n = 0
        elif unknown == "exclude":
            return None
        else:
            raise ValueError(f"unknown-fatalities policy {unknown!r}")
    if n < 0:
        raise ValueError(f"negative fatalities: {n}")
    if n == 0:
        return "0"
    if n <= 9:
        return "1-9"
    if n <= 99:
        return "10-99"
    if n <= 1999:
        return "100-1999"
    return "2000+"


ENGLISH_LABELS = ["<20", "20-40", "40-60", "60-80", "80+"]


def english_bucket(pct: float | None) -> str:
    """English-speaker share buckets; lower bound inclusive from 20 up."""
    if pct is None:
        return UNKNOWN_BUCKET
    if not 0 <= pct <= 100:
        raise ValueError(f"percentage out of range: {pct}")
    if pct < 20:
        return "<20"
    if pct < 40:
        return "20-40"
    if pct < 60:
        return "40-60"
    if pct < 80:
        return "60-80"
    return "80+"


# --- stratification ----------------------------------------------------------

def _bucket_for(event: ConsolidatedEvent, axis: str,
                indicators: dict[str, CountryIndicators],
                fatalities_unknown: str) -> str | None:
    iso3 = event.country.iso3
    ind = indicators.get(iso3)
    if axis == "continent":
        return event.country.continent.value
    if axis == "country":
        return iso3
    if axis == "month":
        return f"{event.start_date.year:04d}-{event.start_date.month:02d}"
    if axis == "fatalities":
        return fatalities_bucket(event.fatalities, unknown=fatalities_unknown)
    if ind is None:
        return UNKNOWN_BUCKET
    if axis == "gdp":
        return gdp_bucket(ind.gdp_per_capita_usd)
    if axis == "gni":
        return ind.gni_group or UNKNOWN_BUCKET
    if axis == "vuln":
        if ind.vulnerability is None or ind.lack_of_coping is None:
            return UNKNOWN_BUCKET
        return vulnerability_bucket(
            combined_vulnerability(ind.vulnerability, ind.lack_of_coping))
    if axis == "english":
        return english_bucket(ind.english_speaker_pct)
    if axis == "population":
        return population_group(ind.population)
    raise ValueError(f"unknown axis {axis!r}")


def _bucket_order(axis: str, labels: Iterable[str]) -> list[str]:
    fixed = {
        "continent": ["Asia", "NorthAmerica", "Africa", "Europe",
                      "SouthAmerica", "Oceania"],
        "gdp": GDP_LABELS,
        "vuln": VULN_LABELS,
        "english": ENGLISH_LABELS,
        "population": POPULATION_LABELS,
        "fatalities": FATALITY_LABELS,
    }
    present = set(labels)
    if axis in fixed:
        ordered = [lab for lab in fixed[axis] if lab in present]
        ordered += sorted(present - set(fixed[axis]) - {UNKNOWN_BUCKET})
    else:
        ordered = sorted(present - {UNKNOWN_BUCKET})
    if UNKNOWN_BUCKET in present:
        ordered.append(UNKNOWN_BUCKET)
    return ordered


def stratify(events: list[ConsolidatedEvent], matched_ids: set[str],
             indicators: dict[str, CountryIndicators], axis: str,
             min_country_events: int = 5,
             fatalities_unknown: str = "zero") -> list[StratumReport]:
    """Per-bucket ground-truth counts, matched counts, and hit rates.

    An event counts as matched when its id is in ``matched_ids``. The
    "unknown" bucket collects events whose indicator is missing; it is
    reported but excluded from the axis' main totals. On the country axis,
    countries with fewer than ``min_country_events`` events are dropped,
    and rows come out ordered by descending event count.
    """
    gt_counts: dict[str, int] = {}
    hit_counts: dict[str, int] = {}
    for event in events:
        bucket = _bucket_for(event, axis, indicators, fatalities_unknown)
        if bucket is None:
            continue  # excluded by policy
        gt_counts[bucket] = gt_counts.get(bucket, 0) + 1
        if event.event_id in matched_ids:
            hit_counts[bucket] = hit_counts.get(bucket, 0) + 1

    order = _bucket_order(axis, gt_counts)
    if axis == "country":
        order = [b for b in order if gt_counts[b] >= min_country_events
                 or b == UNKNOWN_BUCKET]
        order.sort(key=lambda b: (-gt_counts[b], b))

    reports = []
    for bucket in order:
        gt = gt_counts[bucket]
        hit = hit_counts.get(bucket, 0)
        reports.append(StratumReport(
            axis=axis, bucket_label=bucket, ground_truth_count=gt,
            matched_count=hit, hit_rate_pct=compute_hit_rate_pct(gt, hit)))
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
