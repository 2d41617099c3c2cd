"""Independent brute-force references.

Deliberately naive, but obviously correct, which is the point:
- consolidation repeatedly merges any two clusters that share a country
  and contain at least one overlapping pair of records, until nothing
  merges (O(n^3)-ish);
- source CSV parsing reads each row into a dict keyed by header name
  (``csv.DictReader``), as the parser did before it read rows by position;
- whole-text country inference searches for every alias on its own;
- placename spotting joins and lowercases the tokens of every phrase
  length at every token of a capitalized run, longest first, and looks the
  phrase up in a set of names, as the spotter did before it used a phrase
  matcher;
- wikitext stripping assembles every page's paragraphs and citations in
  one function, with no gate between the markup passes and the assembly,
  and with the older sentinel U+E000 around citation markers;
- candidate extraction segments and keyword-tests every sentence of every
  article, with no article-level gate;
- date finding tries the full date pattern at every position of the text;
- matching tests a candidate against every event of its country, found by
  scanning the plain event list rather than the index under test.
"""

from __future__ import annotations

import csv
import io
import json
import re
from datetime import date, timedelta
from typing import BinaryIO

from coverage_auditor.corpus import (Article, CandidateSentence, Citation,
                                     _owning_sentence, _sentence_spans,
                                     keyword_filter, segment_sentences)
from coverage_auditor.countries import CountryCode, normalize_name
from coverage_auditor.dates import (_DATE_RE, _MODIFIER_DAY, DateMention,
                                    YearSource, _day_num, _month_num,
                                    _valid_year, distinct_years)
from coverage_auditor.ground_truth import (SOURCES, ConsolidatedEvent,
                                           ParseResult, RejectedRow, Source,
                                           SourceRecord, _parse_count,
                                           _parse_date, _require)
from coverage_auditor.matching import MatchResult, Strategy
from coverage_auditor.places import ResolvedCandidate, _capitalized_runs


def _records_overlap(a: SourceRecord, b: SourceRecord) -> bool:
    if a.country.iso3 != b.country.iso3:
        return False
    return a.start_date <= b.end_date and b.start_date <= a.end_date


def _clusters_touch(ca: list[SourceRecord], cb: list[SourceRecord]) -> bool:
    return any(_records_overlap(a, b) for a in ca for b in cb)


def oracle_consolidate(records: list[SourceRecord]) -> set[tuple]:
    """Transitive closure by pairwise merging to a fixpoint.

    Returns a set of cluster signatures:
    (iso3, min start, max end, frozenset of (source, native_id)).
    """
    clusters: list[list[SourceRecord]] = [[r] for r in records]
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if _clusters_touch(clusters[i], clusters[j]):
                    clusters[i].extend(clusters.pop(j))
                    merged = True
                    break
            if merged:
                break
    return {
        (
            cluster[0].country.iso3,
            min(r.start_date for r in cluster),
            max(r.end_date for r in cluster),
            frozenset((r.source_id.value, r.native_id) for r in cluster),
        )
        for cluster in clusters
    }


def oracle_parse_source_records(raw_file: BinaryIO, source_id: Source) -> ParseResult:
    """The ``csv.DictReader`` parser that positional parsing replaced: one
    dict per row, fields looked up by header name."""
    text = io.TextIOWrapper(raw_file, encoding="utf-8")
    try:
        return _oracle_parse_rows(text, source_id)
    finally:
        text.detach()


def _oracle_parse_rows(text: io.TextIOWrapper, source_id: Source) -> ParseResult:
    try:
        reader = csv.DictReader(text)
        header = reader.fieldnames
    except (OSError, UnicodeDecodeError) as exc:
        raise IOError(f"unreadable {source_id.value} file: {exc}") from exc

    expected = SOURCES[source_id].header
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
            record = _oracle_row_to_record(row, source_id)
        except (ValueError, KeyError, TypeError) as exc:
            rejects.append(RejectedRow(line_no, str(exc), raw=json.dumps(row)))
            continue
        if record is None:
            excluded.append(RejectedRow(line_no, _oracle_exclusion_reason(row, source_id),
                                        raw=json.dumps(row)))
            continue
        key = (record.native_id, record.country_raw.strip().lower())
        if key in seen_ids:
            rejects.append(RejectedRow(line_no, f"duplicate id {record.native_id!r}"))
            continue
        seen_ids.add(key)
        records.append(record)

    return ParseResult(records, rejects, excluded)


def _oracle_exclusion_reason(row: dict, source_id: Source) -> str:
    if source_id is Source.EMDAT:
        return f"disaster_type {row.get('disaster_type')!r} is not flood/storm"
    return "tagged only as landslides"


def _oracle_row_to_record(row: dict, source_id: Source) -> SourceRecord | None:
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


def oracle_infer_country(sentence: str, title: str,
                         alias_items: list[tuple[str, CountryCode]]) -> CountryCode | None:
    """Sentence, then title: of the aliases found at a word boundary, the
    leftmost, and of those the longest."""
    for text in (normalize_name(sentence), normalize_name(title)):
        hits = []
        for alias, country in alias_items:
            m = re.search(rf"\b{re.escape(alias)}\b", text)
            if m:
                hits.append((m.start(), -len(alias), country))
        if hits:
            return min(hits, key=lambda hit: hit[:2])[2]
    return None


def oracle_spot(text: str, names: set[str]) -> list[str]:
    """Longest-match spans of the lowercased ``names`` over runs of
    capitalized tokens, left to right."""
    max_tokens = max((len(k.split()) for k in names), default=1)
    spans: list[str] = []
    for run in _capitalized_runs(text):
        i = 0
        while i < len(run):
            matched = False
            max_len = min(len(run) - i, max_tokens)
            for length in range(max_len, 0, -1):
                tokens = run[i:i + length]
                phrase_start = tokens[0][1]
                phrase_end = tokens[-1][1] + len(tokens[-1][0])
                phrase = text[phrase_start:phrase_end]
                if " ".join(t[0] for t in tokens).lower() in names:
                    spans.append(phrase)
                    i += length
                    matched = True
                    break
            if not matched:
                i += 1
    return spans


_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_TEMPLATE_RE = re.compile(r"\{\{[^{}]*\}\}", re.DOTALL)
_REF_RE = re.compile(r"<ref[^>/]*?>(.*?)</ref>|<ref[^>]*?/>", re.DOTALL | re.IGNORECASE)
_FILE_LINK_RE = re.compile(r"\[\[(?:File|Image|Category)\s*:[^\[\]]*\]\]", re.IGNORECASE)
_PIPED_LINK_RE = re.compile(r"\[\[[^\[\]|]*\|([^\[\]]*)\]\]")
_PLAIN_LINK_RE = re.compile(r"\[\[([^\[\]|]*)\]\]")
_EXT_LINK_RE = re.compile(r"\[(https?://\S+)(?:\s+([^\]]*))?\]")
_URL_RE = re.compile(r"https?://[^\s|<>\]}\"']+")
_TAG_RE = re.compile(r"</?[a-zA-Z][^>]*>")
_HEADING_RE = re.compile(r"^=+\s*(.*?)\s*=+\s*$", re.MULTILINE)

_MARK = "\ue000"  # sentinel wrapping citation slots during stripping


def oracle_strip_wikitext(text: str) -> tuple[list[str], list[Citation]]:
    """Heuristically reduce wikitext to plain paragraphs.

    Templates, refs and markup are removed; link display text is kept;
    URLs inside <ref> tags are harvested and returned as citations
    anchored at their character position in the stripped paragraph.
    """
    urls: list[str] = []

    def _take_ref(match: re.Match) -> str:
        body = match.group(1) or ""
        found = _URL_RE.findall(body)
        if not found:
            return ""
        slot = len(urls)
        urls.extend(found)
        return f"{_MARK}{slot}:{len(found)}{_MARK}"

    text = _COMMENT_RE.sub("", text)
    text = _REF_RE.sub(_take_ref, text)
    for _ in range(20):  # templates nest; strip inside-out
        text, n = _TEMPLATE_RE.subn("", text)
        if n == 0:
            break
    text = _FILE_LINK_RE.sub("", text)
    text = _PIPED_LINK_RE.sub(r"\1", text)
    text = _PLAIN_LINK_RE.sub(r"\1", text)
    text = _EXT_LINK_RE.sub(lambda m: m.group(2) or "", text)
    text = _HEADING_RE.sub(r"\1", text)
    text = _TAG_RE.sub(" ", text)
    text = text.replace("'''", "").replace("''", "")

    paragraphs: list[str] = []
    citations: list[Citation] = []
    marker_re = re.compile(f"{_MARK}(\\d+):(\\d+){_MARK}")
    for block in re.split(r"\n\s*\n", text):
        cleaned = " ".join(block.split())
        if not cleaned:
            continue
        out: list[str] = []
        pos = 0
        pidx = len(paragraphs)
        plain_len = 0
        for m in marker_re.finditer(cleaned):
            chunk = cleaned[pos:m.start()]
            out.append(chunk)
            plain_len += len(chunk)
            slot, count = int(m.group(1)), int(m.group(2))
            for url in urls[slot:slot + count]:
                citations.append(Citation(pidx, max(plain_len - 1, 0), url))
            pos = m.end()
        out.append(cleaned[pos:])
        final = " ".join("".join(out).split())
        if final:
            paragraphs.append(final)
    return paragraphs, citations


def oracle_extract_candidates(article: Article,
                              substring: bool = False) -> list[CandidateSentence]:
    """All sentences of a keyword-titled article, else keyword sentences."""
    title_hit = keyword_filter(article.title, substring)
    candidates: list[CandidateSentence] = []
    sentence_counter = 0
    for pidx, paragraph in enumerate(article.paragraphs):
        sentences = segment_sentences(paragraph)
        spans = _sentence_spans(paragraph, sentences)
        para_citations = [c for c in article.citations if c.paragraph_index == pidx]
        years = None  # computed for paragraphs holding a candidate only
        for text, (s_start, _) in zip(sentences, spans):
            if title_hit or keyword_filter(text, substring):
                if years is None:
                    years = sorted(distinct_years(paragraph))
                urls = [c.url for c in para_citations
                        if _owning_sentence(spans, c.offset) == s_start]
                candidates.append(CandidateSentence(
                    article_id=article.article_id,
                    title=article.title,
                    paragraph_index=pidx,
                    sentence_index=sentence_counter,
                    text=text,
                    via_title_rule=title_hit,
                    citations=urls,
                    paragraph_years=years,
                ))
            sentence_counter += 1
    return candidates


def oracle_find_dates(text: str) -> list[DateMention]:
    """The date pattern's finditer over the whole text, then the same branches
    as ``find_dates`` (the modifier keyed by its first letter, as there)."""
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
            day = _MODIFIER_DAY[m.group("mod")[0].lower()]
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


def _country_events(events: list[ConsolidatedEvent],
                    iso3: str) -> list[ConsolidatedEvent]:
    """The country's events, in the order matching reports them: (start, id)."""
    return sorted((e for e in events if e.country.iso3 == iso3),
                  key=lambda e: (e.start_date, e.event_id))


def _month_days(year: int, month: int) -> tuple[date, date]:
    """The month's first day and its last, the day before the next month's first."""
    following = date(year + month // 12, month % 12 + 1, 1)
    return date(year, month, 1), following - timedelta(days=1)


def oracle_match_ymd(candidate: ResolvedCandidate, events: list[ConsolidatedEvent],
                     window_days: int) -> list[MatchResult]:
    """Every event of the candidate's country against [start, end + window]:
    the candidate's day, or the month's last day if the month is shorter, or
    its whole month when it has no day."""
    if not candidate.date.is_matchable:
        return []
    d = candidate.date
    lo, hi = _month_days(d.year, d.month)
    if d.day is not None:
        lo = hi = min(lo + timedelta(days=d.day - 1), hi)
    matches = []
    for event in _country_events(events, candidate.country.iso3):
        window_end = event.end_date + timedelta(days=window_days)
        if lo <= window_end and hi >= event.start_date:
            matches.append(MatchResult.from_candidate(event.event_id, candidate,
                                                      Strategy.YMD))
    return matches


def oracle_match_ym(candidate: ResolvedCandidate,
                    events: list[ConsolidatedEvent]) -> list[MatchResult]:
    """Every event of the candidate's country against the candidate's month."""
    if not candidate.date.is_matchable:
        return []
    month_lo, month_hi = _month_days(candidate.date.year, candidate.date.month)
    matches = []
    for event in _country_events(events, candidate.country.iso3):
        if month_lo <= event.end_date and month_hi >= event.start_date:
            matches.append(MatchResult.from_candidate(event.event_id, candidate,
                                                      Strategy.YM))
    return matches
