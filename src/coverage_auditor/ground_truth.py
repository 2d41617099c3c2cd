"""Ingest per-source flood records and consolidate them into one database.

Three source databases feed the ground truth: a news-curated feed
(floodlist), a validated disaster registry (emdat), and a remote-sensing /
news archive (dfo). Records from the same country whose date ranges
overlap (transitively, endpoints inclusive) are merged into a single
country-level event carrying provenance flags for each source.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from enum import Enum
from typing import BinaryIO, Iterable

from .countries import CountryCode, CountryRegistry

IMPUTED_DURATION_DAYS = 3  # median flood duration; fills missing end dates


class Source(str, Enum):
    FLOODLIST = "floodlist"
    EMDAT = "emdat"
    DFO = "dfo"


@dataclass(slots=True)
class SourceRecord:
    source_id: Source
    country_raw: str
    start_date: date
    end_date: date | None
    fatalities: int | None
    affected: str | None
    locations: list[str]
    native_id: str
    disaster_type: str
    country: CountryCode | None = None  # set by resolve_countries()


@dataclass(slots=True)
class RejectedRow:
    line_no: int
    reason: str
    raw: str = ""


@dataclass
class ParseResult:
    records: list[SourceRecord]
    rejects: list[RejectedRow]   # rows failing the schema
    excluded: list[RejectedRow]  # rows dropped by source-specific filters


@dataclass(slots=True)
class ConsolidatedEvent:
    event_id: str
    country: CountryCode
    start_date: date
    end_date: date
    fatalities: int | None
    affected: str | None
    locations_by_source: dict[str, list[str]]
    native_ids: list[tuple[str, str]]
    disaster_type: str
    in_emdat: bool
    in_dartmouth: bool
    in_floodlist: bool
    # All member fatality values, for provenance (not part of the wire format).
    member_fatalities: list[tuple[str, str, int]] = field(default_factory=list)

    @property
    def source_count(self) -> int:
        return sum([self.in_emdat, self.in_dartmouth, self.in_floodlist])

    def to_json_dict(self) -> dict:
        return {
            "event_id": self.event_id,
            "country": self.country.iso3,
            "start_date": self.start_date.isoformat(),
            "end_date": self.end_date.isoformat(),
            "fatalities": self.fatalities,
            "affected": self.affected,
            "locations_by_source": self.locations_by_source,
            "native_ids": [list(pair) for pair in self.native_ids],
            "disaster_type": self.disaster_type,
            "in_emdat": self.in_emdat,
            "in_dartmouth": self.in_dartmouth,
            "in_floodlist": self.in_floodlist,
        }

    @classmethod
    def from_json_dict(cls, d: dict, registry: CountryRegistry) -> "ConsolidatedEvent":
        return cls(
            event_id=d["event_id"],
            country=registry.get(d["country"]),
            start_date=date.fromisoformat(d["start_date"]),
            end_date=date.fromisoformat(d["end_date"]),
            fatalities=d.get("fatalities"),
            affected=d.get("affected"),
            locations_by_source={k: list(v) for k, v in d["locations_by_source"].items()},
            native_ids=[tuple(pair) for pair in d["native_ids"]],
            disaster_type=d["disaster_type"],
            in_emdat=d["in_emdat"],
            in_dartmouth=d["in_dartmouth"],
            in_floodlist=d["in_floodlist"],
        )


# --- parsing ---------------------------------------------------------------

_SCHEMAS = {
    Source.FLOODLIST: ["country", "start_date", "end_date", "fatalities",
                       "locations", "tags", "id"],
    Source.EMDAT: ["iso", "country", "start_date", "end_date", "deaths",
                   "affected", "disaster_type", "id"],
    Source.DFO: ["country", "began", "ended", "dead", "displaced", "id"],
}


def _parse_date(value: str) -> date | None:
    value = value.strip()
    if not value:
        return None
    return date.fromisoformat(value)


def _parse_count(value: str) -> int | None:
    value = value.strip()
    if not value:
        return None
    n = int(value)
    if n < 0:
        raise ValueError(f"negative count: {n}")
    return n


def parse_source_records(raw_file: BinaryIO, source_id: Source) -> ParseResult:
    """Parse one per-source CSV file into SourceRecords.

    Malformed rows go to ``rejects`` with line number and reason; rows
    dropped by source-specific relevance filters (non-flood/storm disaster
    types, landslide-only news tags) go to ``excluded``. Nothing is
    silently dropped.
    """
    # Detach on the way out, so that closing raw_file stays the caller's job
    # and the wrapper never closes (or leaks) it.
    text = io.TextIOWrapper(raw_file, encoding="utf-8")
    try:
        return _parse_rows(text, source_id)
    finally:
        text.detach()


def _parse_rows(text: io.TextIOWrapper, source_id: Source) -> ParseResult:
    try:
        reader = csv.DictReader(text)
        header = reader.fieldnames
    except (OSError, UnicodeDecodeError) as exc:
        raise IOError(f"unreadable {source_id.value} file: {exc}") from exc

    expected = _SCHEMAS[source_id]
    if header is None or [h.strip() for h in header] != expected:
        raise IOError(
            f"{source_id.value}: header {header} does not match schema {expected}")

    records: list[SourceRecord] = []
    rejects: list[RejectedRow] = []
    excluded: list[RejectedRow] = []
    # EM-DAT repeats one identifier across the per-country rows of a
    # multi-country disaster, so uniqueness is keyed on (id, country).
    seen_ids: set[tuple[str, str]] = set()

    for line_no, row in enumerate(reader, start=2):
        try:
            record = _row_to_record(row, source_id)
        except (ValueError, KeyError, TypeError) as exc:
            rejects.append(RejectedRow(line_no, str(exc), raw=json.dumps(row)))
            continue
        if record is None:
            excluded.append(RejectedRow(line_no, _exclusion_reason(row, source_id),
                                        raw=json.dumps(row)))
            continue
        key = (record.native_id, record.country_raw.strip().lower())
        if key in seen_ids:
            rejects.append(RejectedRow(line_no, f"duplicate id {record.native_id!r}"))
            continue
        seen_ids.add(key)
        records.append(record)

    return ParseResult(records, rejects, excluded)


def _exclusion_reason(row: dict, source_id: Source) -> str:
    if source_id is Source.EMDAT:
        return f"disaster_type {row.get('disaster_type')!r} is not flood/storm"
    return "tagged only as landslides"


def _row_to_record(row: dict, source_id: Source) -> SourceRecord | None:
    """Map one CSV row to a SourceRecord, or None if filtered out."""
    if any(v is None for v in row.values()):
        raise ValueError("short row")

    if source_id is Source.FLOODLIST:
        tags = [t.strip().lower() for t in row["tags"].split(";") if t.strip()]
        # News items tagged only as landslides are not floods.
        if tags and set(tags) == {"landslides"}:
            return None
        start, end = _parse_date(row["start_date"]), _parse_date(row["end_date"])
        record = SourceRecord(
            source_id=source_id,
            country_raw=row["country"],
            start_date=_require(start, "start_date"),
            end_date=end,
            fatalities=_parse_count(row["fatalities"]),
            affected=None,
            locations=[loc.strip() for loc in row["locations"].split(";") if loc.strip()],
            native_id=row["id"].strip(),
            disaster_type="Flood",
        )
    elif source_id is Source.EMDAT:
        # Keep only events whose primary disaster type is a flood or storm.
        dtype = row["disaster_type"].strip()
        if not any(word in dtype.lower() for word in ("flood", "storm")):
            return None
        record = SourceRecord(
            source_id=source_id,
            country_raw=row["country"],
            start_date=_require(_parse_date(row["start_date"]), "start_date"),
            end_date=_parse_date(row["end_date"]),
            fatalities=_parse_count(row["deaths"]),
            affected=row["affected"].strip() or None,
            locations=[],
            native_id=row["id"].strip(),
            disaster_type=dtype,
        )
    elif source_id is Source.DFO:
        displaced = row["displaced"].strip()
        record = SourceRecord(
            source_id=source_id,
            country_raw=row["country"],
            start_date=_require(_parse_date(row["began"]), "began"),
            end_date=_parse_date(row["ended"]),
            fatalities=_parse_count(row["dead"]),
            affected=f"{displaced} displaced" if displaced else None,
            locations=[],
            native_id=row["id"].strip(),
            disaster_type="Flood",
        )
    else:  # pragma: no cover
        raise ValueError(f"unknown source {source_id}")

    if not record.native_id:
        raise ValueError("empty id")
    if record.end_date is not None and record.end_date < record.start_date:
        raise ValueError(f"end_date {record.end_date} before start_date {record.start_date}")
    return record


def _require(value, name):
    if value is None:
        raise ValueError(f"missing {name}")
    return value


# --- normalization ---------------------------------------------------------

def impute_end_date(record: SourceRecord) -> SourceRecord:
    """Fill a missing end date as start + 3 days (median flood duration)."""
    if record.end_date is not None:
        return record
    return replace(record, end_date=record.start_date + timedelta(days=IMPUTED_DURATION_DAYS))


def resolve_countries(records: Iterable[SourceRecord], registry: CountryRegistry,
                      ) -> tuple[list[SourceRecord], list[RejectedRow]]:
    """Attach CountryCodes; unresolved names are reported, never guessed."""
    resolved: list[SourceRecord] = []
    unresolved: list[RejectedRow] = []
    for rec in records:
        country = registry.normalize_country(rec.country_raw)
        if country is None:
            unresolved.append(RejectedRow(
                0, f"unresolved country {rec.country_raw!r}",
                raw=f"{rec.source_id.value}:{rec.native_id}"))
        else:
            resolved.append(replace(rec, country=country))
    return resolved, unresolved


# --- consolidation ---------------------------------------------------------

def consolidate(records: list[SourceRecord]) -> list[ConsolidatedEvent]:
    """Merge records into country-level events.

    Two records merge when they share a country and their date ranges
    overlap (inclusive); merging is transitive, so a chain of pairwise
    overlaps collapses into one event. Every record must already carry a
    resolved country and a concrete end date.
    """
    by_country: dict[str, list[SourceRecord]] = {}
    for rec in records:
        if rec.country is None:
            raise ValueError(f"unresolved country on {rec.source_id.value}:{rec.native_id}")
        if rec.end_date is None:
            raise ValueError(f"missing end_date on {rec.source_id.value}:{rec.native_id}")
        by_country.setdefault(rec.country.iso3, []).append(rec)

    events: list[ConsolidatedEvent] = []
    for iso3 in sorted(by_country):
        group = sorted(by_country[iso3],
                       key=lambda r: (r.start_date, r.end_date, r.source_id.value, r.native_id))
        cluster: list[SourceRecord] = []
        cluster_end: date | None = None
        for rec in group:
            if cluster and rec.start_date <= cluster_end:
                cluster.append(rec)
                cluster_end = max(cluster_end, rec.end_date)
            else:
                if cluster:
                    events.append(_build_event(cluster))
                cluster = [rec]
                cluster_end = rec.end_date
        if cluster:
            events.append(_build_event(cluster))

    events.sort(key=lambda e: (e.country.iso3, e.start_date, e.event_id))
    return events


def _build_event(members: list[SourceRecord]) -> ConsolidatedEvent:
    members = sorted(members, key=lambda r: (r.source_id.value, r.native_id))
    start = min(r.start_date for r in members)
    end = max(r.end_date for r in members)
    country = members[0].country
    assert country is not None

    native_ids = sorted((r.source_id.value, r.native_id) for r in members)
    sources = {r.source_id for r in members}

    member_fatalities = [(r.source_id.value, r.native_id, r.fatalities)
                         for r in members if r.fatalities is not None]
    # Sources report the same death toll with different completeness; the
    # max avoids double counting while keeping the most complete figure.
    fatalities = max((v for _, _, v in member_fatalities), default=None)

    affected = next((r.affected for r in members if r.affected), None)

    locations_by_source: dict[str, list[str]] = {}
    for rec in members:
        if rec.locations:
            bucket = locations_by_source.setdefault(rec.source_id.value, [])
            for loc in rec.locations:
                if loc not in bucket:
                    bucket.append(loc)

    disaster_type = ", ".join(sorted({r.disaster_type for r in members}))

    return ConsolidatedEvent(
        event_id=f"{country.iso3}-{start.isoformat()}",
        country=country,
        start_date=start,
        end_date=end,
        fatalities=fatalities,
        affected=affected,
        locations_by_source=locations_by_source,
        native_ids=native_ids,
        disaster_type=disaster_type,
        in_emdat=Source.EMDAT in sources,
        in_dartmouth=Source.DFO in sources,
        in_floodlist=Source.FLOODLIST in sources,
        member_fatalities=member_fatalities,
    )


def filter_multi_source(events: list[ConsolidatedEvent],
                        min_sources: int = 2) -> list[ConsolidatedEvent]:
    """Keep events confirmed by at least ``min_sources`` source databases."""
    return [e for e in events if e.source_count >= min_sources]


VENN_KEYS = [
    "floodlist", "emdat", "dfo",
    "floodlist+emdat", "floodlist+dfo", "emdat+dfo",
    "floodlist+emdat+dfo",
]


def venn_counts(events: list[ConsolidatedEvent]) -> dict[str, int]:
    """Count events per non-empty source combination; sums to len(events)."""
    counts = {key: 0 for key in VENN_KEYS}
    for event in events:
        parts = []
        if event.in_floodlist:
            parts.append("floodlist")
        if event.in_emdat:
            parts.append("emdat")
        if event.in_dartmouth:
            parts.append("dfo")
        if not parts:
            raise ValueError(f"event {event.event_id} has no source flags")
        counts["+".join(parts)] += 1
    return counts
