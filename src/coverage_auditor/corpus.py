"""Corpus scanning: article ingestion, sentence segmentation, keyword
filtering, and relevance scoring.

Articles come in as JSON Lines (plain text, bit-faithful) or as a MediaWiki
XML dump whose wikitext is stripped heuristically. Sentences containing a
flood keyword, or belonging to an article whose title contains one, become
candidate sentences; a pluggable scorer then assigns each a relevance
probability.
"""

from __future__ import annotations

import json
import logging
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator, TextIO

from .dates import distinct_years

log = logging.getLogger(__name__)

FLOOD_KEYWORDS = ["flood", "floods", "flooding", "flooded", "inundation"]
DEFAULT_RELEVANCE_THRESHOLD = 0.40

# text -> probability in [0, 1]
RelevanceScorer = Callable[[str], float]


@dataclass
class Citation:
    paragraph_index: int
    offset: int  # character offset within the stripped paragraph text
    url: str


@dataclass
class Article:
    article_id: str
    title: str
    paragraphs: list[str]
    citations: list[Citation] = field(default_factory=list)


@dataclass
class CandidateSentence:
    article_id: str
    title: str
    paragraph_index: int
    sentence_index: int  # running index over all sentences of the article
    text: str
    via_title_rule: bool
    relevance: float = 0.0
    citations: list[str] = field(default_factory=list)
    paragraph_years: list[int] = field(default_factory=list)  # for year inference

    def to_json_dict(self) -> dict:
        return {
            "article_id": self.article_id,
            "title": self.title,
            "paragraph_index": self.paragraph_index,
            "sentence_index": self.sentence_index,
            "text": self.text,
            "via_title_rule": self.via_title_rule,
            "relevance": round(self.relevance, 6),
            "citations": self.citations,
            "paragraph_years": self.paragraph_years,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CandidateSentence":
        return cls(
            article_id=d["article_id"],
            title=d["title"],
            paragraph_index=d["paragraph_index"],
            sentence_index=d["sentence_index"],
            text=d["text"],
            via_title_rule=d["via_title_rule"],
            relevance=d.get("relevance", 0.0),
            citations=list(d.get("citations", [])),
            paragraph_years=d["paragraph_years"],
        )


@dataclass
class ArticleReject:
    locator: str  # line number or page title
    reason: str


# --- ingestion --------------------------------------------------------------

def ingest_articles(stream: BinaryIO | TextIO, format: str,
                    rejects: list[ArticleReject] | None = None) -> Iterator[Article]:
    """Stream articles from a JSONL file or MediaWiki XML dump.

    Malformed entries are appended to ``rejects`` (when given) and the
    stream continues.
    """
    if format == "jsonl":
        yield from _ingest_jsonl(stream, rejects)
    elif format == "xml":
        yield from _ingest_mediawiki_xml(stream, rejects)
    else:
        raise ValueError(f"unknown corpus format {format!r}")


def _ingest_jsonl(stream, rejects) -> Iterator[Article]:
    for line_no, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
            citations = [Citation(c["paragraph_index"], c.get("offset", 0), c["url"])
                         for c in obj.get("citations", [])]
            article = Article(
                article_id=str(obj["article_id"]),
                title=obj["title"],
                paragraphs=[str(p) for p in obj["paragraphs"]],
                citations=citations,
            )
            if not article.title:
                raise ValueError("empty title")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if rejects is not None:
                rejects.append(ArticleReject(f"line {line_no}", str(exc)))
            continue
        yield article


def _local_tag(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _ingest_mediawiki_xml(stream, rejects) -> Iterator[Article]:
    """Parse <page> elements, keeping main-namespace pages only."""
    context = ET.iterparse(stream, events=("end",))
    for _, elem in context:
        if _local_tag(elem.tag) != "page":
            continue
        fields = {}
        for child in elem.iter():
            tag = _local_tag(child.tag)
            if tag in ("title", "ns", "id", "text") and tag not in fields:
                fields[tag] = child.text or ""
        elem.clear()
        title = fields.get("title", "")
        try:
            if fields.get("ns", "0").strip() not in ("", "0"):
                continue  # non-article namespace
            if not title:
                raise ValueError("page without title")
            paragraphs, citations = strip_wikitext(fields.get("text", ""))
            yield Article(
                article_id=fields.get("id", "").strip() or title,
                title=title,
                paragraphs=paragraphs,
                citations=citations,
            )
        except ValueError as exc:
            if rejects is not None:
                rejects.append(ArticleReject(title or "<unnamed page>", str(exc)))


# --- wikitext stripping -----------------------------------------------------

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

_MARK = ""  # sentinel wrapping citation slots during stripping


def strip_wikitext(text: str) -> tuple[list[str], list[Citation]]:
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


# --- sentence segmentation --------------------------------------------------

_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "gen", "sen", "rep", "st", "mt", "ft",
    "no", "vs", "etc", "e.g", "i.e", "cf", "al", "approx", "fig",
    "u.s", "u.k", "u.n", "d.c",
    "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept", "oct",
    "nov", "dec",
}

_SPLIT_RE = re.compile(r"[.!?]+[\"'”’)\]]*\s+(?=[A-Z0-9\"'“‘(])")


def segment_sentences(paragraph: str) -> list[str]:
    """Split plain text into sentences on terminal punctuation.

    Splits happen after ``. ! ?`` followed by whitespace and an
    uppercase/digit/quote start; a small abbreviation list and
    single-letter initials suppress false splits. Sentences are exact
    substrings of the input, so rejoining them loses only the
    inter-sentence whitespace.
    """
    if not paragraph.strip():
        return []
    sentences: list[str] = []
    start = 0
    for match in _SPLIT_RE.finditer(paragraph):
        head = paragraph[start:match.start()]
        token = head.rsplit(None, 1)[-1] if head.split() else ""
        bare = token.rstrip(".").lower()
        if bare in _ABBREVIATIONS or (len(bare) == 1 and bare.isalpha()):
            continue
        end = match.end()
        while end > start and paragraph[end - 1].isspace():
            end -= 1
        sentences.append(paragraph[start:end])
        start = match.end()
    tail = paragraph[start:].strip()
    if tail:
        sentences.append(paragraph[start:].strip())
    return sentences


# --- keyword filter and candidate extraction --------------------------------

_KEYWORD_RE = re.compile(
    r"\b(?:" + "|".join(FLOOD_KEYWORDS) + r")\b", re.IGNORECASE)
_KEYWORD_SUBSTR_RE = re.compile("|".join(FLOOD_KEYWORDS), re.IGNORECASE)


def keyword_filter(text: str, substring: bool = False) -> bool:
    """True iff a flood keyword occurs (case-insensitively, at word
    boundaries unless ``substring`` is set)."""
    pattern = _KEYWORD_SUBSTR_RE if substring else _KEYWORD_RE
    return pattern.search(text) is not None


def extract_candidates(article: Article, substring: bool = False) -> list[CandidateSentence]:
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


def _sentence_spans(paragraph: str, sentences: list[str]) -> list[tuple[int, int]]:
    spans = []
    cursor = 0
    for sent in sentences:
        start = paragraph.index(sent, cursor)
        spans.append((start, start + len(sent)))
        cursor = start + len(sent)
    return spans


def _owning_sentence(spans: list[tuple[int, int]], offset: int) -> int:
    """Citation offsets attach to the nearest preceding sentence start."""
    owner = spans[0][0] if spans else 0
    for start, _ in spans:
        if start <= offset:
            owner = start
        else:
            break
    return owner


# --- relevance scoring -------------------------------------------------------

_POSITIVE_CUES = FLOOD_KEYWORDS + [
    "inundat", "rain", "rainfall", "overflow", "evacuat", "submerg",
    "storm surge", "levee", "river", "deluge", "monsoon", "landfall",
]
_NEGATIVE_CUES = ["myth", "film", "movie", "album", "video game", "song",
                  "novel", "band"]


def builtin_scorer(text: str) -> float:
    """Deterministic lexical stand-in for a trained flood classifier.

    A logistic function over counts of distinct flood-associated cues,
    calibrated only to order sentences sensibly.
    """
    lower = text.lower()
    pos = sum(1 for cue in _POSITIVE_CUES if cue in lower)
    neg = sum(1 for cue in _NEGATIVE_CUES if cue in lower)
    return 1.0 / (1.0 + math.exp(-(0.8 * pos - 1.5 * neg - 0.5)))


def constant_scorer(p: float) -> RelevanceScorer:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"constant score {p} outside [0, 1]")
    return lambda _text: p


def score_relevance(candidate: CandidateSentence, scorer: RelevanceScorer) -> float:
    """Score one candidate; the score is stored on the candidate."""
    score = float(scorer(candidate.text))
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"scorer returned {score}, outside [0, 1]")
    candidate.relevance = score
    return score


def filter_by_relevance(candidates: Iterable[CandidateSentence],
                        scorer: RelevanceScorer,
                        threshold: float = DEFAULT_RELEVANCE_THRESHOLD,
                        ) -> tuple[list[CandidateSentence], int]:
    """Retain candidates scoring strictly above the threshold.

    Returns (retained, dropped_count); scorer failures drop the candidate
    with a logged reason.
    """
    retained: list[CandidateSentence] = []
    dropped = 0
    for cand in candidates:
        try:
            score = score_relevance(cand, scorer)
        except Exception as exc:
            log.warning("scorer failed on %s#%d: %s",
                        cand.article_id, cand.sentence_index, exc)
            dropped += 1
            continue
        if score > threshold:
            retained.append(cand)
        else:
            dropped += 1
    return retained, dropped
