"""Corpus scanning: article ingestion, sentence segmentation, keyword
filtering, and relevance scoring.

Articles come in as JSON Lines (plain text, bit-faithful) or as a MediaWiki
XML dump whose wikitext is stripped heuristically; ``sniff_format`` tells
the two apart by the first byte of the decompressed stream. Sentences
containing a flood keyword, or belonging to an article whose title contains
one, become candidate sentences; a pluggable scorer then assigns each a
relevance probability.

Most pages of a dump are not about floods, so the article gate of
``extract_candidates`` also runs inside XML ingest, between the markup passes
(``strip_wikitext``) and paragraph assembly (``assemble_paragraphs``): a page
whose title and stripped text cannot hold a keyword is yielded without
paragraphs, and never assembled.
"""

from __future__ import annotations

import codecs
import json
import logging
import math
import operator
import re
import xml.etree.ElementTree as ET
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator, TextIO

from .dates import distinct_years
from .rows import _JSON, json_row

log = logging.getLogger(__name__)

FLOOD_KEYWORDS = ["flood", "floods", "flooding", "flooded", "inundation"]

# text -> probability in [0, 1]
RelevanceScorer = Callable[[str], float]


@dataclass(slots=True)
class Citation:
    paragraph_index: int
    offset: int  # character offset within the stripped paragraph text
    url: str


@dataclass(slots=True)
class Article:
    article_id: str
    title: str
    paragraphs: list[str]
    citations: list[Citation] = field(default_factory=list)


@json_row()
@dataclass(slots=True)
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


@dataclass(slots=True)
class ArticleReject:
    locator: str  # line number or page title
    reason: str


# --- ingestion --------------------------------------------------------------

def sniff_format(stream: BinaryIO) -> str:
    """``xml`` when the first byte of ``stream`` past an optional UTF-8 BOM
    and ASCII whitespace is ``<``, else ``jsonl``. Only peeks, so the stream
    still starts at its first byte."""
    head = stream.peek(64).removeprefix(codecs.BOM_UTF8).lstrip()
    return "xml" if head.startswith(b"<") else "jsonl"


def ingest_articles(stream: BinaryIO | TextIO, format: str,
                    rejects: list[ArticleReject],
                    redirects: list[str] | None = None) -> Iterator[Article]:
    """Stream articles from a JSONL file or MediaWiki XML dump.

    Malformed entries are appended to ``rejects`` and the stream goes on.
    Every main-namespace page of a dump but a redirect is yielded, and a
    page that ``extract_candidates`` would skip whole has no paragraphs or
    citations. A redirect names its target's subject and holds no prose:
    its title is appended to ``redirects``, if given.
    """
    if format == "jsonl":
        yield from _ingest_jsonl(stream, rejects)
    elif format == "xml":
        yield from _ingest_mediawiki_xml(stream, rejects,
                                         [] if redirects is None else redirects)
    else:
        raise ValueError(f"unknown corpus format {format!r}")


def _ingest_jsonl(stream, rejects) -> Iterator[Article]:
    for line_no, raw in enumerate(stream, start=1):
        try:
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8")  # a line that is not UTF-8 is a reject
            if not raw.strip():
                continue
            article = _jsonl_article(json.loads(raw))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError too
            rejects.append(ArticleReject(f"line {line_no}", str(exc)))
            continue
        yield article


_ABSENT = object()  # a missing key's value, which no JSON type matches


def _typed(name: str, value, *kinds: type):
    """``value`` if its type is one of ``kinds`` (exactly, so a bool is no
    integer); else a ValueError naming the field."""
    if type(value) not in kinds:
        raise ValueError(f"{name}: expected {' or '.join(map(_JSON.get, kinds))}, "
                         f"got {_JSON.get(type(value), 'nothing')}")
    return value


def _jsonl_article(obj) -> Article:
    """The article a JSONL line holds, its fields checked as the README
    describes; other keys are ignored."""
    obj = _typed("article", obj, dict)
    article_id = _typed("article_id", obj.get("article_id", _ABSENT), str, int)
    title = _typed("title", obj.get("title", _ABSENT), str)
    if not title:
        raise ValueError("empty title")
    paragraphs = _typed("paragraphs", obj.get("paragraphs", _ABSENT), list)
    for i, paragraph in enumerate(paragraphs):
        _typed(f"paragraphs[{i}]", paragraph, str)
    citations = []
    for i, c in enumerate(_typed("citations", obj.get("citations", []), list)):
        at = f"citations[{i}]"
        c = _typed(at, c, dict)
        citations.append(Citation(
            _typed(f"{at}.paragraph_index", c.get("paragraph_index", _ABSENT), int),
            _typed(f"{at}.offset", c.get("offset", 0), int),
            _typed(f"{at}.url", c.get("url", _ABSENT), str)))
    return Article(str(article_id), title, paragraphs, citations)


def _local_tag(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _ingest_mediawiki_xml(stream, rejects, redirects) -> Iterator[Article]:
    """Parse <page> elements, keeping main-namespace pages that are not
    redirects. A redirect page carries a ``<redirect>`` element, or, in a
    dump without the element, its text starts with the ``#REDIRECT`` magic
    word."""
    open_elems = []  # the element each open tag started, outermost first
    for event, elem in ET.iterparse(stream, events=("start", "end")):
        if event == "start":
            open_elems.append(elem)
            continue
        open_elems.pop()
        if _local_tag(elem.tag) != "page":
            continue
        if open_elems:  # detach the page, or the tree keeps every page read
            open_elems[-1].remove(elem)
        fields = {}
        for child in elem.iter():
            tag = _local_tag(child.tag)
            if tag in ("title", "ns", "id", "text", "redirect") and tag not in fields:
                fields[tag] = child.text or ""
        elem.clear()
        title = fields.get("title", "")
        try:
            if fields.get("ns", "0").strip() not in ("", "0"):
                continue  # non-article namespace
            if not title:
                raise ValueError("page without title")
            text = fields.get("text", "")
            if "redirect" in fields or text.lstrip()[:9].upper() == "#REDIRECT":
                redirects.append(title)
                continue
            paragraphs, citations = _strip_page(title, text)
            yield Article(
                article_id=fields.get("id", "").strip() or title,
                title=title,
                paragraphs=paragraphs,
                citations=citations,
            )
        except ValueError as exc:
            rejects.append(ArticleReject(title or "<unnamed page>", str(exc)))


# --- wikitext stripping -----------------------------------------------------

_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_TEMPLATE_RE = re.compile(r"\{\{[^{}]*\}\}", re.DOTALL)
# ``<ref[^>/]*?>(.*?)</ref>|<ref[^>]*?/>``, with the body's lazy ``.*?``
# unrolled: runs of non-``<`` and any ``<`` that does not open ``</ref>``.
_REF_RE = re.compile(r"<ref(?:[^>/]*?>([^<]*(?:<(?!/ref>)[^<]*)*)</ref>|[^>]*?/>)",
                     re.IGNORECASE)
_FILE_LINK_RE = re.compile(r"\[\[(?:File|Image|Category)\s*:[^\[\]]*\]\]", re.IGNORECASE)
_PIPED_LINK_RE = re.compile(r"\[\[[^\[\]|]*\|([^\[\]]*)\]\]")
_PLAIN_LINK_RE = re.compile(r"\[\[([^\[\]|]*)\]\]")
_EXT_LINK_RE = re.compile(r"\[(https?://\S+)(?:\s+([^\]]*))?\]")
_URL_RE = re.compile(r"https?://[^\s|<>\]}\"']+")
_TAG_RE = re.compile(r"</?[a-zA-Z][^>]*>")
# ``^=+\s*(.*?)\s*=+\s*$``, led by a literal ``=`` so that the search skips
# from one ``=`` to the next; the lookbehind stands for ``^``.
_HEADING_RE = re.compile(r"=(?<![^\n]=)=*\s*(.*?)\s*=+\s*$", re.MULTILINE)

# Wraps citation slots. XML 1.0 text cannot hold NUL, so no page can forge one.
_MARK = "\x00"
_MARKER_RE = re.compile(f"{_MARK}(\\d+):(\\d+){_MARK}")
_group1 = operator.itemgetter(1)  # ``r"\1"`` without re's template expansion


def _strip_page(title: str, wikitext: str) -> tuple[list[str], list[Citation]]:
    """A page's paragraphs and citations, or none for a page that the
    article gate of ``extract_candidates`` would skip.

    The gate runs on the stripped text, before assembly, and it is exact:
    no keyword holds whitespace or a marker character, assembly never joins
    two non-space characters, and the markup passes have already resolved
    splices such as ``flo<!-- -->od``.
    """
    text, urls = strip_wikitext(wikitext)
    if _may_hold_keyword(title) or _may_hold_keyword(
            _MARKER_RE.sub("", text) if urls else text):
        return assemble_paragraphs(text, urls)
    return [], []


def strip_wikitext(text: str) -> tuple[str, list[str]]:
    """Heuristically reduce wikitext to plain text: the markup passes.

    Comments, templates, refs and markup are removed; link display text is
    kept. URLs inside <ref> tags are harvested into the returned list, and
    each such ref leaves a marker ``\\x00slot:count\\x00`` naming its slice
    of that list, for ``assemble_paragraphs``.
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
    text = _PIPED_LINK_RE.sub(_group1, text)
    text = _PLAIN_LINK_RE.sub(_group1, text)
    text = _EXT_LINK_RE.sub(lambda m: m.group(2) or "", text)
    text = _HEADING_RE.sub(_group1, text)
    text = _TAG_RE.sub(" ", text)
    return text.replace("'''", "").replace("''", ""), urls


def assemble_paragraphs(text: str, urls: list[str]) -> tuple[list[str], list[Citation]]:
    """Split stripped text into whitespace-normalized paragraphs. Each
    marker's URLs become citations anchored on the last character before the
    marker (offset 0 if none), so each belongs to the sentence that holds
    that character; a marker in a block with no text is dropped."""
    paragraphs: list[str] = []
    citations: list[Citation] = []
    for block in re.split(r"\n\s*\n", text):
        pieces = _MARKER_RE.split(block)  # text, slot, count, text, ..., text
        paragraph = " ".join("".join(pieces[::3]).split())
        if not paragraph:
            continue
        # ``length``: the normalized length of the text before the marker at
        # hand, so its last character is at ``length - 1``. ``in_word``: that
        # text ends in a non-space, which a piece that starts with one joins.
        length, in_word = 0, False
        for piece, slot, count in zip(pieces[::3], pieces[1::3], pieces[2::3]):
            if words := piece.split():
                joins = in_word and not piece[0].isspace()
                length += (length > 0 and not joins) + len(" ".join(words))
            if piece:
                in_word = not piece[-1].isspace()
            slot = int(slot)
            citations.extend(Citation(len(paragraphs), max(length - 1, 0), url)
                             for url in urls[slot:slot + int(count)])
        paragraphs.append(paragraph)
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


def _may_hold_keyword(text: str) -> bool:
    """False only if no flood keyword can match in ``text``, in either mode.

    Every keyword holds ``flood`` or ``inundation``, and under IGNORECASE
    each of ``f l o d n u a t`` matches only characters that lower-case to
    it; ``i`` also matches ``İ`` and ``ı``, hence ``nundat``.
    """
    lower = text.lower()
    return "flood" in lower or "nundat" in lower


def extract_candidates(article: Article, substring: bool = False) -> list[CandidateSentence]:
    """All sentences of a keyword-titled article, else keyword sentences. A
    citation belongs to the last sentence starting at or before its offset
    (the first sentence, if none does)."""
    # Sentences are substrings of their paragraph and sentence_index counts
    # within the article, so an article that cannot hold a keyword is
    # skipped whole, before any segmentation.
    if not (_may_hold_keyword(article.title)
            or any(_may_hold_keyword(p) for p in article.paragraphs)):
        return []
    title_hit = keyword_filter(article.title, substring)
    cited: dict[int, list[Citation]] = {}
    for c in article.citations:
        cited.setdefault(c.paragraph_index, []).append(c)
    candidates: list[CandidateSentence] = []
    sentence_counter = 0
    for pidx, paragraph in enumerate(article.paragraphs):
        sentences = segment_sentences(paragraph)
        urls: list[list[str]] = [[] for _ in sentences]
        if sentences and pidx in cited:
            starts = _sentence_starts(paragraph, sentences)
            for c in cited[pidx]:
                urls[max(bisect_right(starts, c.offset) - 1, 0)].append(c.url)
        years = None  # computed for paragraphs holding a candidate only
        for text, text_urls in zip(sentences, urls):
            if title_hit or keyword_filter(text, substring):
                if years is None:
                    years = sorted(distinct_years(paragraph))
                candidates.append(CandidateSentence(
                    article_id=article.article_id,
                    title=article.title,
                    paragraph_index=pidx,
                    sentence_index=sentence_counter,
                    text=text,
                    via_title_rule=title_hit,
                    citations=text_urls,
                    paragraph_years=years,
                ))
            sentence_counter += 1
    return candidates


def _sentence_starts(paragraph: str, sentences: list[str]) -> list[int]:
    """Where each of ``segment_sentences(paragraph)`` starts."""
    starts = []
    cursor = 0
    for sent in sentences:
        cursor = paragraph.index(sent, cursor)
        starts.append(cursor)
        cursor += len(sent)
    return starts


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
    """Score one candidate; the score is stored on the candidate, rounded
    to 6 places as ``candidates.jsonl`` holds it."""
    score = float(scorer(candidate.text))
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"scorer returned {score}, outside [0, 1]")
    candidate.relevance = round(score, 6)
    return score


def filter_by_relevance(candidates: Iterable[CandidateSentence],
                        scorer: RelevanceScorer, threshold: float,
                        failed: list[CandidateSentence],
                        ) -> tuple[list[CandidateSentence], int]:
    """Retain candidates scoring strictly above the threshold.

    Returns (retained, dropped_count). A candidate the scorer fails on is
    dropped with a logged reason and appended to ``failed``.
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
            failed.append(cand)
            continue
        if score > threshold:
            retained.append(cand)
        else:
            dropped += 1
    return retained, dropped
