import gc
import io
import json
import re
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverage_auditor import corpus
from coverage_auditor.corpus import (Article, Citation, assemble_paragraphs,
                                     builtin_scorer, constant_scorer,
                                     extract_candidates, filter_by_relevance,
                                     ingest_articles, keyword_filter,
                                     segment_sentences, strip_wikitext)
from coverage_auditor.cli import main
from conftest import FIXTURES
from oracles import oracle_extract_candidates, oracle_strip_wikitext

E2E = FIXTURES / "e2e"


# --- keyword filter -----------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("The river flooded the town.", True),
    ("Severe FLOODING was reported.", True),
    ("An inundation followed the dam break.", True),
    ("The floodplain is fertile.", False),      # word boundary
    ("Antiflooding measures failed.", False),
    ("No water-related words here.", False),
])
def test_keyword_word_boundary(text, expected):
    assert keyword_filter(text) is expected


def test_keyword_substring_mode():
    assert keyword_filter("The floodplain is fertile.", substring=True)
    assert not keyword_filter("fluid dynamics", substring=True)


# --- segmentation -------------------------------------------------------------

def test_segmentation_is_lossless_substrings():
    para = ("Dr. Smith visited St. Louis on Monday. The river rose 3 ft. above "
            "normal! Was anyone hurt? No. J. Doe reported otherwise.")
    sentences = segment_sentences(para)
    for s in sentences:
        assert s in para
    # Abbreviations and single-letter initials do not split.
    assert sentences[0].startswith("Dr. Smith visited St. Louis")
    assert any(s.startswith("Was anyone") for s in sentences)


def test_segmentation_empty_and_single():
    assert segment_sentences("   ") == []
    assert segment_sentences("No terminal punctuation") == ["No terminal punctuation"]


# --- ingestion ----------------------------------------------------------------

def test_ingest_jsonl_rejects_malformed_lines():
    stream = io.BytesIO(
        b'{"article_id": "a", "title": "A", "paragraphs": ["One."]}\n'
        b'not json at all\n'
        b'{"article_id": "b", "paragraphs": ["missing title"]}\n'
        b'\n'
        b'{"article_id": "c", "title": "C", "paragraphs": ["Two."]}\n')
    rejects = []
    articles = list(ingest_articles(stream, "jsonl", rejects))
    assert [a.article_id for a in articles] == ["a", "c"]
    assert len(rejects) == 2


def _flood_line(cite=None, **fields):
    citation = {"paragraph_index": 0, "offset": 0, "url": "https://k.in/a", **(cite or {})}
    return json.dumps({"article_id": "x", "title": "Floods", "paragraphs": ["Floods hit Kerala."],
                       "citations": [citation], **fields})


# Each line is one malformed article, and the reason its reject gives.
MALFORMED_JSONL = {
    "offset string": (_flood_line({"offset": "x"}),
                      "citations[0].offset: expected integer, got string"),
    "offset null": (_flood_line({"offset": None}),
                    "citations[0].offset: expected integer, got null"),
    "url number": (_flood_line({"url": 5}), "citations[0].url: expected string, got integer"),
    "numeric title": (_flood_line(title=2019), "title: expected string, got integer"),
    "empty title": (_flood_line(title=""), "empty title"),
    "array line": ('["Floods", "hit"]', "article: expected object, got array"),
    "paragraphs string": (_flood_line(paragraphs="Floods hit Kerala."),
                          "paragraphs: expected array, got string"),
    "paragraph null": (_flood_line(paragraphs=[None]),
                       "paragraphs[0]: expected string, got null"),
    "bool id": (_flood_line(article_id=True),
                "article_id: expected string or integer, got boolean"),
    "citation string": (_flood_line(citations=["https://k.in/a"]),
                        "citations[0]: expected object, got string"),
    "no paragraph_index": (_flood_line(citations=[{"url": "https://k.in/a"}]),
                           "citations[0].paragraph_index: expected integer, got nothing"),
}


@pytest.mark.parametrize("line, reason", MALFORMED_JSONL.values(), ids=MALFORMED_JSONL)
def test_malformed_jsonl_article_is_a_reject_of_its_line(tmp_path, line, reason):
    good = (E2E / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    text = good[0] + line + "\n" + good[1]
    rejects = []
    articles = list(ingest_articles(io.BytesIO(text.encode()), "jsonl", rejects))
    assert [a.article_id for a in articles] == [
        json.loads(row)["article_id"] for row in good[:2]]
    assert [(r.locator, r.reason) for r in rejects] == [("line 2", reason)]

    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(text, encoding="utf-8")
    out = tmp_path / "run"
    assert main(["scan", "--input", str(corpus), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"][0]["counts"]["article_rejects"] == 1


MEDIAWIKI_XML = """<mediawiki>
  <page>
    <title>2016 Angola floods</title>
    <ns>0</ns>
    <id>101</id>
    <revision><text>{{Infobox flood|deaths=15}}
'''Flooding''' in early March 2016 hit [[Lobito]], [[Angola|the country]].&lt;ref&gt;https://reliefweb.int/report/angola/floods&lt;/ref&gt;

Aid agencies responded.</text></revision>
  </page>
  <page>
    <title>Talk:2016 Angola floods</title>
    <ns>1</ns>
    <id>102</id>
    <revision><text>Discussion page, not an article.</text></revision>
  </page>
</mediawiki>
"""


def test_ingest_mediawiki_xml_strips_and_filters_namespaces():
    articles = list(ingest_articles(io.BytesIO(MEDIAWIKI_XML.encode()), "xml", []))
    assert len(articles) == 1  # Talk: page dropped
    art = articles[0]
    assert art.title == "2016 Angola floods"
    assert art.paragraphs[0] == ("Flooding in early March 2016 hit Lobito, "
                                 "the country.")
    assert art.paragraphs[1] == "Aid agencies responded."
    assert [c.url for c in art.citations] == [
        "https://reliefweb.int/report/angola/floods"]
    assert art.citations[0].paragraph_index == 0


def test_xml_page_without_title_is_a_reject():
    page = "<page><title></title><ns>0</ns><id>9</id><revision><text>Floods.</text></revision></page>"
    dump = MEDIAWIKI_XML.replace("</mediawiki>", page + "</mediawiki>")
    rejects = []
    articles = list(ingest_articles(io.BytesIO(dump.encode()), "xml", rejects))
    assert [a.title for a in articles] == ["2016 Angola floods"]
    assert [(r.locator, r.reason) for r in rejects] == [("<unnamed page>", "page without title")]


def test_unknown_corpus_format_is_a_value_error():
    with pytest.raises(ValueError, match="unknown corpus format 'csv'"):
        list(ingest_articles(io.BytesIO(b"a,b\n"), "csv", []))


# Real-dump redirects (export-0.11): one page with the <redirect> element,
# one from a dump without it, whose magic word is known only by its text.
KERALA_REDIRECTS = [
    """<page><title>Kerala floods 2018</title><ns>0</ns><id>201</id>
    <redirect title="2018 Kerala floods" />
    <revision><text>#REDIRECT [[2018 Kerala floods]]</text></revision></page>""",
    """<page><title>Kerala floods 2018</title><ns>0</ns><id>202</id>
    <revision><text>
  #redirect [[2018 Kerala floods]] {{R from move}}</text></revision></page>""",
]


@pytest.mark.parametrize("redirect", KERALA_REDIRECTS, ids=["element", "magic word"])
def test_xml_ingest_skips_redirect_pages(monkeypatch, redirect):
    calls = []
    strip = corpus.strip_wikitext
    monkeypatch.setattr(corpus, "strip_wikitext", lambda text: calls.append(text) or strip(text))
    dump = MEDIAWIKI_XML.replace("</mediawiki>", redirect + "</mediawiki>")
    rejects, redirects = [], []
    articles = list(ingest_articles(io.BytesIO(dump.encode()), "xml", rejects, redirects))
    assert [a.title for a in articles] == ["2016 Angola floods"]
    assert (rejects, redirects) == ([], ["Kerala floods 2018"])
    assert len(calls) == 1  # the redirect's text is never stripped


def test_xml_ingest_keeps_a_page_that_only_mentions_a_redirect():
    page = ("<page><title>Floods</title><ns>0</ns><id>1</id><revision><text>"
            "Floods hit. #REDIRECT is a magic word.</text></revision></page>")
    redirects = []
    [article] = ingest_articles(io.BytesIO(f"<mediawiki>{page}</mediawiki>".encode()),
                                "xml", [], redirects)
    assert redirects == [] and article.paragraphs == ["Floods hit. #REDIRECT is a magic word."]


def test_xml_ingest_does_not_keep_finished_pages():
    page = ("<page><title>Page {i}</title><ns>0</ns><id>{i}</id>"
            "<revision><text>{body}</text></revision></page>")
    dump = ("<mediawiki><siteinfo><sitename>W</sitename></siteinfo>"
            + "".join(page.format(i=i, body="word " * 200) for i in range(2000))
            + "</mediawiki>").encode()
    live = []
    for n, _ in enumerate(ingest_articles(io.BytesIO(dump), "xml", [])):
        if n % 250 == 0:
            live.append(sum(isinstance(o, ET.Element) for o in gc.get_objects()))
    assert n == 1999
    # About a parser read's worth of pages is alive at once, not every page.
    assert max(live) < 500, live


def test_strip_wikitext_nested_templates_and_external_links():
    text = "{{outer|{{inner|x}}|y}}See [http://example.com/a the report] here."
    paragraphs, citations = assemble_paragraphs(*strip_wikitext(text))
    assert paragraphs == ["See the report here."]
    assert citations == []


# --- candidate extraction -----------------------------------------------------

def make_article(title, paragraphs, citations=()):
    return Article("art-1", title, paragraphs, list(citations))


def test_title_rule_takes_all_sentences():
    art = make_article("2016 Angola floods",
                       ["First sentence, no keyword. Second one either."])
    cands = extract_candidates(art)
    assert len(cands) == 2
    assert all(c.via_title_rule for c in cands)


def test_sentence_index_is_article_global():
    art = make_article("Kyushu", [
        "No keyword here. Still nothing.",
        "Then the floods came. And receded in 2019.",
    ])
    cands = extract_candidates(art)
    assert [(c.paragraph_index, c.sentence_index) for c in cands] == [(1, 2)]
    assert cands[0].paragraph_years == [2019]


def test_citation_attaches_to_nearest_preceding_sentence():
    para = "The floods began overnight. Damage was extensive across town."
    offset = para.index("Damage") + 10
    art = make_article("News", [para],
                       [Citation(0, offset, "https://example.org/x"),
                        Citation(0, 0, "https://example.org/y")])
    cands = extract_candidates(art)
    # Only the first sentence has the keyword; it owns the offset-0 citation.
    assert len(cands) == 1
    assert cands[0].citations == ["https://example.org/y"]


# The gate skips an article unless its title or a paragraph holds "flood" or
# "nundat" once lower-cased. The alphabet mixes keyword fragments, the
# characters IGNORECASE folds unusually (İ ı ſ K), punctuation,
# abbreviations and whitespace, plus whole keyword-like words in odd cases
# ("İnundation", "FLooding", "floodplain", "ınundated").
FRAGMENTS = ["flo", "od", "Flo", "OD", "flood", "FLOODS", "inundat", "ion",
             "INUNDAT", "nundat", "İ", "ı", "ſ", "K", "k", "s", "ing", "ed",
             "plain", "River", "2019", "The", " ", "  ", "\n", ".", ". ", "! ",
             "? ", ",", "-", "(", ")", '"', "'", "Dr. ", "St. ", "U.S. ", "J. "]


def _word(*parts):
    return st.tuples(*map(st.sampled_from, parts)).map("".join)


keyword_word = st.one_of(
    _word(["f", "F"], ["lo", "LO", "Lo"], ["od", "OD", "o"],
          ["", "s", "ing", "ed", "plain"]),
    _word(["i", "I", "İ", "ı", ""], ["nundat", "NUNDAT", "nunda"],
          ["ion", "ION", "ed", ""]))
fragment_text = st.lists(st.one_of(keyword_word, st.sampled_from(FRAGMENTS)),
                         max_size=12).map("".join)


@st.composite
def articles(draw):
    paragraphs = draw(st.lists(fragment_text, max_size=4))
    title = draw(st.one_of(fragment_text, st.sampled_from(
        ["2016 Angola floods", "Flooding in Kyushu", "Kyushu", "Inundation"])))
    citations = draw(st.lists(st.builds(
        Citation, st.integers(0, max(len(paragraphs) - 1, 0)),
        st.integers(0, 60), st.sampled_from(["https://a.org/1", "https://b.org/2"])),
        max_size=3))
    return Article("art-1", title, paragraphs, citations)


@settings(max_examples=400, deadline=None)
@given(article=articles(), substring=st.booleans())
@example(article=make_article("Kyushu", ["Rain. İnundation followed."]), substring=False)
@example(article=make_article("ınundation", ["Rain fell."]), substring=True)
def test_gated_extraction_matches_ungated_oracle(article, substring):
    assert (extract_candidates(article, substring)
            == oracle_extract_candidates(article, substring))


def test_gate_letters_match_only_their_lowercase():
    # IGNORECASE lets "i" match "İ" and "ı" (so the gate looks for "nundat"),
    # but each letter of "flood" and "nundat" only its own two cases.
    assert re.fullmatch("(?i)i", "\u0130") and re.fullmatch("(?i)i", "\u0131")
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for letter in "flodnuat":
        assert {c.lower() for c in re.findall("(?i)" + letter, every)} == {letter}


def test_article_without_keyword_is_never_segmented(monkeypatch):
    calls = []
    for name in ("segment_sentences", "keyword_filter"):
        real = getattr(corpus, name)
        monkeypatch.setattr(corpus, name, lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    plain = make_article("Kyushu", ["Rain fell all week. The river rose.",
                                    "A flo od, an inun dation."])
    assert extract_candidates(plain) == []
    assert calls == []
    flooded = make_article("Kyushu", ["Rain fell. The river rose.",
                                      "Then the floods came."])
    assert len(extract_candidates(flooded)) == 1
    assert calls.count("segment_sentences") == 2


# --- gated XML stripping ------------------------------------------------------

def xml_dump(pages, elements=()):
    """A MediaWiki dump of main-namespace (title, wikitext) pages, ids 1, 2,
    ...; the pages of ids in ``elements`` carry a ``<redirect>`` element."""
    page = ("<page><title>{}</title><ns>0</ns><id>{}</id>{}"
            "<revision><text>{}</text></revision></page>")
    return ("<mediawiki>" + "".join(
        page.format(escape(title), i, '<redirect title="Floods" />' * (i in elements),
                    escape(text))
        for i, (title, text) in enumerate(pages, start=1)) + "</mediawiki>").encode()


def test_page_text_cannot_forge_a_citation():
    text = "Floods hit \ue0000:1\ue000 the town<ref>see http://a.example/x</ref>."
    [art] = ingest_articles(io.BytesIO(xml_dump([("Floods", text)])), "xml", [])
    assert art.paragraphs == ["Floods hit \ue0000:1\ue000 the town."]
    assert art.citations == [Citation(0, 24, "http://a.example/x")]


def _cited(wikitext):
    """Each candidate's text and citations, for a page that went through
    XML ingest."""
    [art] = ingest_articles(io.BytesIO(xml_dump([("Kyushu", wikitext)])), "xml", [])
    return [(c.text, c.citations) for c in extract_candidates(art)]


def test_xml_citations_follow_their_sentences_in_document_order():
    wikitext = ("Floods hit Kerala<ref>http://a.org/1 http://a.org/2</ref> in June."
                "<ref>see http://a.org/3</ref> The flood receded by July."
                "<ref>http://a.org/4</ref>")
    assert _cited(wikitext) == [
        ("Floods hit Kerala in June.", ["http://a.org/1", "http://a.org/2", "http://a.org/3"]),
        ("The flood receded by July.", ["http://a.org/4"]),
    ]


# A citation belongs to the sentence that holds the last character before
# its ref, however many refs stand between; a ref in a block with no text
# cites nothing, wherever the block falls.
@pytest.mark.parametrize("wikitext, cited", [
    ("Rain <ref>http://a.org/1</ref> and <ref>http://a.org/2</ref> floods hit."
     "<ref>http://a.org/3</ref> Next floods came.",
     [("Rain and floods hit.", ["http://a.org/1", "http://a.org/2", "http://a.org/3"]),
      ("Next floods came.", [])]),
    ("Intro about floods.\n\n<ref>http://a.org/x</ref>\n\nFloods hit Kerala. More text.",
     [("Intro about floods.", []), ("Floods hit Kerala.", [])]),
    ("Intro about floods.\n\n<ref>http://a.org/x</ref>", [("Intro about floods.", [])]),
], ids=["drifted ref", "ref-only block", "ref-only last block"])
def test_a_ref_cites_the_sentence_before_it(wikitext, cited):
    assert _cited(wikitext) == cited


# Wikitext pieces that can splice a keyword together or break it apart:
# keyword fragments, every markup construct the passes strip, Unicode
# whitespace and the ``İ`` that lower-cases to two characters. U+E000 and
# NUL are left out: they are the old and the new marker sentinel.
WIKI_PIECES = ["flo", "od", "FLO", "o", "d", "fl", "inundat", "nun", "dat", "İ",
               "ı", "ion", "The ", "river", "2019", ". ", "! ", " ", "\n", "\n\n",
               "\t", "\x85", "\xa0", "\u2028", "<!--", "-->", "<!-- c -->", "<ref>",
               "</ref>", "</REF>", '<ref name="a">', '<ref name="b"/>',
               "http://a.example/x", "https://b.example/y ", "{{", "}}", "{{t}}",
               "|", "[[", "]]", "[[x|", "[[File:f.png|", "[[Category:Floods]]",
               "[http://c.example ", "[https://d.example]", "]", "''", "'''",
               "=", "==", "\n== ", " ==\n", "<br>", "<br/>", "</p>", "<span>",
               "<", ">", "/"]


# Markup that vanishes or leaves a gap when stripped, put inside a keyword
# as in ``flo<!-- -->od``; a pair wraps the word's head, as in ``[[x|flo]]od``.
SPLICES = ["<!-- -->", "''", "'''", "{{t}}", "{{a|{{b}}}}", "<ref>http://a.example/z</ref>",
           "<ref/>", "<ref>no url</ref>", "<br>", " ", "\n\n", "\xa0", ("[[x|", "]]"),
           ("[[", "]]"), ("[http://b.example ", "]"), ("''", "''"), ("<b>", "</b>")]


@st.composite
def spliced_keyword(draw):
    word = draw(st.sampled_from(["flood", "Flooding", "inundation", "İnundated"]))
    cut = draw(st.integers(1, len(word) - 1))
    splice = draw(st.sampled_from(SPLICES))
    if isinstance(splice, tuple):
        return splice[0] + word[:cut] + splice[1] + word[cut:]
    return word[:cut] + splice + word[cut:]


def _wrap(inner, opening, closing):
    return inner.map(lambda parts: opening + "".join(parts) + closing)


def wikitexts(whitespace=()):
    """Wikitext from the pieces above, with nested constructs; ``whitespace``
    adds pieces that only a non-XML caller can pass."""
    leaf = st.one_of(spliced_keyword(), st.sampled_from(WIKI_PIECES + list(whitespace)))
    constructs = [("<!--", "-->"), ("<ref>", "</ref>"), ("<ref>http://e.example/", "</ref>"),
                  ("{{t|", "}}"), ("[[x|", "]]"), ("[[", "]]"), ("[http://f.example ", "]"),
                  ("''", "''"), ("'''", "'''"), ("\n== ", " ==\n"), ("<b>", "</b>")]
    tree = st.recursive(leaf, lambda inner: st.one_of(
        [_wrap(st.lists(inner, max_size=3), o, c) for o, c in constructs]),
        max_leaves=10)
    return st.lists(tree, max_size=8).map("".join)


# Two of six titles pass the gate on their own.
page_titles = st.sampled_from(["Kyushu", "Lobito", "Flo od", "Rain",
                               "2016 Angola floods", "İnundation"])


def _oracle_page(title, wikitext):
    """The oracle's paragraphs and citations, or none where the gate of
    ``extract_candidates`` would skip the article they make."""
    paragraphs, citations = oracle_strip_wikitext(wikitext)
    if corpus._may_hold_keyword(title) or any(map(corpus._may_hold_keyword, paragraphs)):
        return paragraphs, citations
    return [], []


@settings(max_examples=400, deadline=None)
@given(title=page_titles, wikitext=wikitexts(whitespace=["\x1c"]))
def test_gated_strip_matches_the_oracle(title, wikitext):
    assert corpus._strip_page(title, wikitext) == _oracle_page(title, wikitext)


# Whitespace then the ``#REDIRECT`` magic word, in a drawn case.
magic_words = st.tuples(st.sampled_from(["", " ", "\n", " \n\t"]),
                        st.lists(st.booleans(), min_size=9, max_size=9)).map(
    lambda drawn: drawn[0] + "".join(c.upper() if up else c.lower()
                                     for c, up in zip("#REDIRECT", drawn[1])))
# A page, or a redirect by its element or by its magic word.
page_kinds = st.sampled_from(["page", "page", "element", "magic word"])


@settings(max_examples=200, deadline=None)
@given(pages=st.lists(st.tuples(page_titles, wikitexts(), page_kinds, magic_words),
                      max_size=4),
       substring=st.booleans())
def test_xml_ingest_matches_the_oracle(pages, substring):
    texts = [(title, magic + " " + wikitext if kind == "magic word" else wikitext)
             for title, wikitext, kind, magic in pages]
    elements = {i for i, page in enumerate(pages, start=1) if page[2] == "element"}
    rejects, redirects = [], []
    got = list(ingest_articles(io.BytesIO(xml_dump(texts, elements)), "xml", rejects,
                               redirects))
    assert rejects == []
    kept = [(i, page) for i, page in enumerate(pages, start=1) if page[2] == "page"]
    assert [a.article_id for a in got] == [str(i) for i, _ in kept]
    assert redirects == [page[0] for page in pages if page[2] != "page"]
    for art, (_, (title, wikitext, _, _)) in zip(got, kept):
        assert (art.paragraphs, art.citations) == _oracle_page(title, wikitext)
        want = Article(art.article_id, title, *oracle_strip_wikitext(wikitext))
        candidates = extract_candidates(art, substring)
        assert not any("#redirect" in c.text.lower() for c in candidates)
        assert candidates == oracle_extract_candidates(want, substring)


@pytest.mark.parametrize("wikitext, assembled", [
    ("flo<!-- -->od", True),
    ("fl''oo''d", True),
    ("[[x|flo]]od", True),
    ("flo{{t}}od", True),
    ("floo<ref>http://a.example</ref>d", True),
    ("flo<br>od", False),
])
def test_gate_sees_words_that_markup_splices(wikitext, assembled):
    [art] = ingest_articles(io.BytesIO(xml_dump([("Kyushu", wikitext)])), "xml", [])
    assert (art.paragraphs, art.citations) == _oracle_page("Kyushu", wikitext)
    assert bool(art.paragraphs) is assembled


# --- scoring ------------------------------------------------------------------

def make_candidate(text):
    art = make_article("Floods", [text])
    return extract_candidates(art)


def test_threshold_is_strictly_greater():
    cands = make_candidate("One sentence.") + make_candidate("Another one.")
    failed = []
    kept, dropped = filter_by_relevance(cands, constant_scorer(0.40), 0.40, failed)
    assert (len(kept), dropped, failed) == (0, 2, [])
    kept, dropped = filter_by_relevance(cands, constant_scorer(0.41), 0.40, failed)
    assert (len(kept), dropped, failed) == (2, 0, [])


def test_builtin_scorer_orders_sensibly():
    flood = builtin_scorer("Heavy rain caused flooding and evacuations.")
    film = builtin_scorer("The Flood is a 2019 drama film.")
    neutral = builtin_scorer("The committee met on Tuesday.")
    assert flood > 0.40 >= neutral > film


def test_constant_scorer_validates_range():
    with pytest.raises(ValueError):
        constant_scorer(1.5)


def test_scorer_failure_drops_candidate():
    def bad(_text):
        raise RuntimeError("model unavailable")
    cands = make_candidate("The floods rose.")
    failed = []
    kept, dropped = filter_by_relevance(cands, bad, 0.40, failed)
    assert (kept, dropped, failed) == ([], 1, cands)
