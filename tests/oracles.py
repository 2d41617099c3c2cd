"""Independent brute-force references.

Deliberately naive, but obviously correct, which is the point:
- consolidation repeatedly merges any two clusters that share a country
  and contain at least one overlapping pair of records, until nothing
  merges (O(n^3)-ish);
- whole-text country inference searches for every alias on its own;
- candidate extraction segments and keyword-tests every sentence of every
  article, with no article-level gate.
"""

from __future__ import annotations

import re

from coverage_auditor.corpus import (Article, CandidateSentence,
                                     _owning_sentence, _sentence_spans,
                                     keyword_filter, segment_sentences)
from coverage_auditor.countries import CountryCode, normalize_name
from coverage_auditor.dates import distinct_years
from coverage_auditor.ground_truth import SourceRecord


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
