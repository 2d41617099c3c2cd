import pytest

from coverage_auditor.dates import (DateMention, YearSource, distinct_years,
                                    find_dates, infer_year)


def spans(text):
    return [(m.day, m.month, m.year) for m in find_dates(text)]


@pytest.mark.parametrize("text,expected", [
    ("floods on 2019-04-13 hit hard", [(13, 4, 2019)]),
    ("on April 13, 2019 the rain began", [(13, 4, 2019)]),
    ("on 13 April 2019 the rain began", [(13, 4, 2019)]),
    ("during July 2012 and beyond", [(None, 7, 2012)]),
    ("on April 13 the rain began", [(13, 4, None)]),
    ("in early June the river rose", [(5, 6, None)]),
    ("in mid-July it crested", [(15, 7, None)]),
    ("by late August it receded", [(25, 8, None)]),
    ("In September floods came", [(None, 9, None)]),
    ("back in 2017 it happened", [(None, None, 2017)]),
    ("serial number 3456 is not a year", []),
    ("it may rain in may", []),                 # lowercase month = verb/noun
    ("Sept. 8, 2017 update", [(8, 9, 2017)]),
])
def test_date_patterns(text, expected):
    assert spans(text) == expected


def test_longest_pattern_wins():
    mentions = find_dates("floods of April 13, 2019 were severe")
    assert len(mentions) == 1
    assert mentions[0].raw_span == "April 13, 2019"
    assert mentions[0].year_source is YearSource.EXPLICIT


def test_invalid_components_are_skipped():
    assert spans("on 2019-13-40 nothing happened") == []
    assert spans("the flood of 1862 was historic") == []  # outside 1900-2100


def test_bare_year_is_never_matchable():
    (mention,) = find_dates("back in 2017 it happened")
    assert not mention.is_matchable


def test_distinct_years():
    assert distinct_years("between 2016 and 2018, but not 0042") == {2016, 2018}
    assert distinct_years("no years here") == set()


# --- year inference cascade ---------------------------------------------------

def mention(day=13, month=4):
    return DateMention("April 13", day=day, month=month)


def test_explicit_year_untouched():
    m = DateMention("April 13, 2019", 13, 4, 2019, YearSource.EXPLICIT)
    out = infer_year(m, "sentence from 1999", distinct_years("paragraph 2001"),
                     "title 2002")
    assert (out.year, out.year_source) == (2019, YearSource.EXPLICIT)


def test_sentence_year_wins():
    out = infer_year(mention(), "On April 13 of 2019, rains fell.",
                     distinct_years("Paragraph mentions 1999."), "Title 2001")
    assert (out.year, out.year_source) == (2019, YearSource.SENTENCE)


def test_ambiguous_sentence_stops_the_cascade():
    out = infer_year(mention(), "Between 2018 and 2019, on April 13.",
                     distinct_years("Paragraph says 2019 only."), "Title 2019")
    assert out.year is None
    assert out.year_source is YearSource.UNRESOLVED


def test_paragraph_year_used_when_sentence_is_year_free():
    out = infer_year(mention(), "On April 13 the rain began.",
                     distinct_years("The 2019 season was harsh. "
                                    "On April 13 the rain began."),
                     "A title with 2001")
    assert (out.year, out.year_source) == (2019, YearSource.PARAGRAPH)


def test_title_year_is_the_last_resort():
    out = infer_year(mention(), "On April 13 the rain began.",
                     distinct_years("On April 13 the rain began."),
                     "2019 Khyber Pakhtunkhwa floods")
    assert (out.year, out.year_source) == (2019, YearSource.TITLE)


def test_no_year_anywhere_stays_unresolved():
    out = infer_year(mention(), "On April 13 the rain began.",
                     distinct_years("On April 13 the rain began."),
                     "Flooding in Sudan")
    assert out.year is None
    assert not out.is_matchable


def test_json_round_trip():
    m = DateMention("April 13, 2019", 13, 4, 2019, YearSource.EXPLICIT)
    assert DateMention.from_json_dict(m.to_json_dict()) == m
