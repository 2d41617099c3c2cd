import io

import pytest

from coverage_auditor.corpus import (Article, Citation, builtin_scorer,
                                     constant_scorer, extract_candidates,
                                     filter_by_relevance, ingest_articles,
                                     keyword_filter, segment_sentences,
                                     strip_wikitext)


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
    stream = io.StringIO(
        '{"article_id": "a", "title": "A", "paragraphs": ["One."]}\n'
        'not json at all\n'
        '{"article_id": "b", "paragraphs": ["missing title"]}\n'
        '\n'
        '{"article_id": "c", "title": "C", "paragraphs": ["Two."]}\n')
    rejects = []
    articles = list(ingest_articles(stream, "jsonl", rejects))
    assert [a.article_id for a in articles] == ["a", "c"]
    assert len(rejects) == 2


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


def test_strip_wikitext_nested_templates_and_external_links():
    text = "{{outer|{{inner|x}}|y}}See [http://example.com/a the report] here."
    paragraphs, citations = strip_wikitext(text)
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


# --- scoring ------------------------------------------------------------------

def make_candidate(text):
    art = make_article("Floods", [text])
    return extract_candidates(art)


def test_threshold_is_strictly_greater():
    cands = make_candidate("One sentence.") + make_candidate("Another one.")
    kept, dropped = filter_by_relevance(cands, constant_scorer(0.40), 0.40)
    assert (len(kept), dropped) == (0, 2)
    kept, dropped = filter_by_relevance(cands, constant_scorer(0.41), 0.40)
    assert (len(kept), dropped) == (2, 0)


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
    kept, dropped = filter_by_relevance(cands, bad)
    assert (kept, dropped) == ([], 1)
