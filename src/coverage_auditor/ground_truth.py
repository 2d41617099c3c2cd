"""Ingest per-source flood records and consolidate them into one database.

Three source databases feed the ground truth: a news-curated feed
(floodlist), a validated disaster registry (emdat), and a remote-sensing /
news archive (dfo). ``SOURCES`` gives each one row, in ``Source`` order:
its CSV header, the builder that reads a row of it by position, and the
``ConsolidatedEvent`` flag that marks an event it confirms. Records from
the same country whose date ranges overlap (transitively, endpoints
inclusive) are merged into a single country-level event carrying those
flags; ``venn_counts`` reports the events per combination of sources.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from functools import cache
from itertools import combinations
from operator import attrgetter
from typing import BinaryIO, Callable, Iterable, NamedTuple

from .countries import CountryCode, CountryRegistry, text_lines
from .rows import iso_date, json_row

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
    country: CountryCode | None = None  # set by normalize_records()


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


@json_row()
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

    @property
    def source_count(self) -> int:
        return sum([self.in_emdat, self.in_dartmouth, self.in_floodlist])


# --- parsing ---------------------------------------------------------------

def _parse_date(value: str) -> date | None:
    value = value.strip()
    if not value:
        return None
    return iso_date(value)


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
    silently dropped. Blank rows are skipped and not numbered, so the first
    data row is line 2 and each later non-blank row adds one. A line that is
    not UTF-8 is an IOError naming the source and the line of the file.
    """
    reader = csv.reader(text_lines(raw_file, f"unreadable {source_id.value} file", IOError))
    header = next(reader, None)
    expected, build, _ = SOURCES[source_id]
    if header is None or [h.strip() for h in header] != expected:
        raise IOError(
            f"{source_id.value}: header {header} does not match schema {expected}")

    width = len(expected)
    records: list[SourceRecord] = []
    rejects: list[RejectedRow] = []
    excluded: list[RejectedRow] = []
    # EM-DAT repeats one identifier across the per-country rows of a
    # multi-country disaster, so uniqueness is keyed on (id, country).
    seen_ids: set[tuple[str, str]] = set()

    line_no = 1
    for row in reader:
        if not row:
            continue
        line_no += 1
        if len(row) < width:
            rejects.append(RejectedRow(line_no, "short row"))
            continue
        try:
            record = build(row)
        except ValueError as exc:
            rejects.append(RejectedRow(line_no, str(exc)))
            continue
        if isinstance(record, str):
            excluded.append(RejectedRow(line_no, record))
            continue
        key = (record.native_id, record.country_raw.strip().lower())
        if key in seen_ids:
            rejects.append(RejectedRow(line_no, f"duplicate id {record.native_id!r}"))
            continue
        seen_ids.add(key)
        records.append(record)

    return ParseResult(records, rejects, excluded)


# One builder per source maps a row, by position, to a SourceRecord, or to
# the reason the source's relevance filter drops it; fields past the header's
# are ignored. A malformed field raises ValueError; faults are tested in the
# order filter, dates, counts, id, then end before start.

def _floodlist_record(row: list[str]) -> SourceRecord | str:
    country, start, end, fatalities, locations, tags, native_id, *_ = row
    tags = [t.strip().lower() for t in tags.split(";") if t.strip()]
    # News items tagged only as landslides are not floods.
    if tags and set(tags) == {"landslides"}:
        return "tagged only as landslides"
    start, end = _parse_date(start), _parse_date(end)
    return _checked(SourceRecord(
        Source.FLOODLIST, country, _require(start, "start_date"), end,
        _parse_count(fatalities), None,
        [loc.strip() for loc in locations.split(";") if loc.strip()],
        native_id.strip(), "Flood"))


def _emdat_record(row: list[str]) -> SourceRecord | str:
    _, country, start, end, deaths, affected, dtype, native_id, *_ = row
    # Keep only events whose primary disaster type is a flood or storm.
    lowered = dtype.lower()
    if "flood" not in lowered and "storm" not in lowered:
        return f"disaster_type {dtype!r} is not flood/storm"
    return _checked(SourceRecord(
        Source.EMDAT, country, _require(_parse_date(start), "start_date"),
        _parse_date(end), _parse_count(deaths), affected.strip() or None, [],
        native_id.strip(), dtype.strip()))


def _dfo_record(row: list[str]) -> SourceRecord:
    country, began, ended, dead, displaced, native_id, *_ = row
    displaced = displaced.strip()
    return _checked(SourceRecord(
        Source.DFO, country, _require(_parse_date(began), "began"),
        _parse_date(ended), _parse_count(dead),
        f"{displaced} displaced" if displaced else None, [],
        native_id.strip(), "Flood"))


class SourceSpec(NamedTuple):
    """A source database's CSV header, whose columns its rows hold by
    position; ``build(row)``, a ``SourceRecord`` or the reason the row is
    excluded; and the ``ConsolidatedEvent`` flag of the events it confirms."""
    header: list[str]
    build: Callable[[list[str]], SourceRecord | str]
    flag: str


# The source databases in ``Source`` order, which is also the Venn order.
SOURCES = {
    Source.FLOODLIST: SourceSpec(
        ["country", "start_date", "end_date", "fatalities", "locations", "tags", "id"],
        _floodlist_record, "in_floodlist"),
    Source.EMDAT: SourceSpec(
        ["iso", "country", "start_date", "end_date", "deaths", "affected",
         "disaster_type", "id"],
        _emdat_record, "in_emdat"),
    Source.DFO: SourceSpec(
        ["country", "began", "ended", "dead", "displaced", "id"],
        _dfo_record, "in_dartmouth"),
}


def _checked(record: SourceRecord) -> SourceRecord:
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

_IMPUTED_DURATION = timedelta(days=IMPUTED_DURATION_DAYS)


def impute_end_date(record: SourceRecord) -> SourceRecord:
    """Fill a missing end date, in place, as start + 3 days (median flood
    duration). Raises OverflowError when that falls past ``date.max``."""
    if record.end_date is None:
        record.end_date = record.start_date + _IMPUTED_DURATION
    return record


def normalize_records(records: Iterable[SourceRecord], registry: CountryRegistry,
                      ) -> tuple[list[SourceRecord], list[RejectedRow]]:
    """Impute each missing end date, then attach the CountryCode, in place,
    looking each raw spelling up once. A record whose end would fall past
    the calendar, or whose country is unknown, is reported (the undatable
    first), never clamped or guessed."""
    kept: list[SourceRecord] = []
    undatable: list[RejectedRow] = []
    unresolved: list[RejectedRow] = []
    country_of = cache(registry.normalize_country)
    for rec in records:
        try:
            impute_end_date(rec)
        except OverflowError:
            undatable.append(RejectedRow(0, f"imputed end_date past {date.max}",
                                         raw=_ref(rec)))
            continue
        rec.country = country_of(rec.country_raw)
        if rec.country is None:
            unresolved.append(RejectedRow(0, f"unresolved country {rec.country_raw!r}",
                                          raw=_ref(rec)))
        else:
            kept.append(rec)
    return kept, undatable + unresolved


def _ref(rec: SourceRecord) -> str:
    return f"{rec.source_id.value}:{rec.native_id}"


# --- consolidation ---------------------------------------------------------

# Source is a str enum, so ordering on the member orders on its value.
_BY_RANGE = attrgetter("start_date", "end_date", "source_id", "native_id")
_BY_SOURCE_ID = attrgetter("source_id", "native_id")
_SOURCE_NAMES = {source: source.value for source in Source}
_FLAGS = {source: spec.flag for source, spec in SOURCES.items()}
_NO_FLAGS = dict.fromkeys(_FLAGS.values(), False)


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
            raise ValueError(f"unresolved country on {_ref(rec)}")
        if rec.end_date is None:
            raise ValueError(f"missing end_date on {_ref(rec)}")
        by_country.setdefault(rec.country.iso3, []).append(rec)

    events: list[ConsolidatedEvent] = []
    for iso3 in sorted(by_country):
        group = sorted(by_country[iso3], key=_BY_RANGE)
        cluster: list[SourceRecord] = []
        cluster_end: date | None = None
        for rec in group:
            if cluster and rec.start_date <= cluster_end:
                cluster.append(rec)
                if rec.end_date > cluster_end:
                    cluster_end = rec.end_date
            else:
                if cluster:
                    events.append(_build_event(cluster))
                cluster = [rec]
                cluster_end = rec.end_date
        if cluster:
            events.append(_build_event(cluster))
    # Countries in order, each one's disjoint clusters by start: the events
    # come out sorted by (country, start), and so by event_id.
    return events


def _build_event(members: list[SourceRecord]) -> ConsolidatedEvent:
    members.sort(key=_BY_SOURCE_ID)
    country = members[0].country
    assert country is not None
    start = members[0].start_date
    end = members[0].end_date
    native_ids: list[tuple[str, str]] = []
    fatalities = None
    affected = None
    locations_by_source: dict[str, list[str]] = {}
    disaster_types: set[str] = set()
    flags = _NO_FLAGS.copy()
    for rec in members:
        source = _SOURCE_NAMES[rec.source_id]
        if rec.start_date < start:
            start = rec.start_date
        if rec.end_date > end:
            end = rec.end_date
        # Sorted by (source, id), so these pairs come out sorted.
        native_ids.append((source, rec.native_id))
        if rec.fatalities is not None:
            # Sources report the same death toll with different completeness;
            # the max avoids double counting while keeping the most complete.
            if fatalities is None or rec.fatalities > fatalities:
                fatalities = rec.fatalities
        if affected is None and rec.affected:
            affected = rec.affected
        if rec.locations:
            bucket = locations_by_source.setdefault(source, [])
            for loc in rec.locations:
                if loc not in bucket:
                    bucket.append(loc)
        disaster_types.add(rec.disaster_type)
        flags[_FLAGS[rec.source_id]] = True

    return ConsolidatedEvent(f"{country.iso3}-{start.isoformat()}", country, start, end,
                             fatalities, affected, locations_by_source, native_ids,
                             ", ".join(sorted(disaster_types)), **flags)


def filter_multi_source(events: list[ConsolidatedEvent],
                        min_sources: int = 2) -> list[ConsolidatedEvent]:
    """Keep events confirmed by at least ``min_sources`` source databases."""
    return [e for e in events if e.source_count >= min_sources]


# Each non-empty combination of sources, keyed by the flags of the events
# it counts; the combinations are in ``Source`` order, singles first.
_VENN = {tuple(source in combo for source in Source): "+".join(s.value for s in combo)
         for n in range(1, len(Source) + 1) for combo in combinations(Source, n)}
VENN_KEYS = list(_VENN.values())
_EVENT_FLAGS = attrgetter(*_FLAGS.values())


def venn_counts(events: list[ConsolidatedEvent]) -> dict[str, int]:
    """Count events per non-empty source combination; sums to len(events)."""
    counts = {key: 0 for key in VENN_KEYS}
    for event in events:
        key = _VENN.get(_EVENT_FLAGS(event))
        if key is None:
            raise ValueError(f"event {event.event_id} has no source flags")
        counts[key] += 1
    return counts
