from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_spot

from coverage_auditor.corpus import CandidateSentence
from coverage_auditor.dates import DateMention, YearSource
from coverage_auditor.places import (Gazetteer, GazetteerSpotter, PlaceMention,
                                     ResolvedCandidate, expand_candidates)


@pytest.fixture(scope="module")
def spotter(registry):
    return GazetteerSpotter(Gazetteer.load(registry=registry))


def names(spotter, text):
    """The spans stage_extract keeps of one text: each once, first place kept."""
    return list(dict.fromkeys(spotter(text)))


def test_longest_match_beats_prefix(spotter):
    # "Florida Keys" is its own entry; it must not be read as "Florida".
    assert names(spotter, "Storms battered the Florida Keys on Sunday.") == [
        "Florida Keys"]


def test_country_names_come_from_the_registry(spotter):
    assert names(spotter, "Rains fell across Japan and Pakistan.") == [
        "Japan", "Pakistan"]


def test_runs_break_on_punctuation_and_lowercase(spotter):
    # "Florida, September": the comma separates the capitalized tokens, so
    # no phrase spanning it is attempted.
    assert names(spotter, "flooding hits northern Florida, September 11") == [
        "Florida"]
    assert names(spotter, "in Coon Valley, Wisconsin and elsewhere") == [
        "Coon Valley", "Wisconsin"]


def test_duplicates_keep_first_position(spotter):
    text = "Wisconsin towns flooded; Wisconsin declared an emergency."
    assert names(spotter, text) == ["Wisconsin"]


def test_unknown_capitalized_spans_are_ignored(spotter):
    assert names(spotter, "Hurricane Irma struck Middlewich yesterday.") == []


def test_gazetteer_reads_the_first_field_of_wider_files(tmp_path):
    path = tmp_path / "gazetteer.tsv"
    path.write_text("# placename\tiso3\timportance\nMiddlewich\tGBR\t0.3\n"
                    "Rhine Delta\t\t0.5\n")
    spotter = GazetteerSpotter(Gazetteer.load(path))
    assert names(spotter, "Floods reached Middlewich and the Rhine Delta.") == [
        "Middlewich", "Rhine Delta"]


# Capitalized words that are no name, and near misses of names.
NON_NAMES = ["The", "Hurricane", "North", "Upper", "Saint", "Rio", "Ka\u03c3", "Ka’s",
             "Yorkshire", "New-York", "Floridas", "A1", "Coon_Valley"]
OTHER_WORDS = ["in", "of", "flooded", "2019", "51", "_", "\u0130", "\u03a3", "K\u03a3",
               "K\u0130RK", "\u0130zmir"]
SEPARATORS = [" ", "  ", "\t", "\n", "\u00a0", ", ", ",", "-", "\u2019", ". "]


@pytest.fixture(scope="module", params=["bundled", "nested"])
def spot_names(request, registry):
    """The bundled gazetteer's names, and a set of nested names (a name, its
    prefix and its suffix), names holding a final sigma, a dotted capital I,
    ``’``, ``-``, ``_`` or a digit, and names that can never match."""
    if request.param == "bundled":
        path = resources.files("coverage_auditor").joinpath("data", "gazetteer.tsv")
        lines = path.read_text(encoding="utf-8").splitlines()
        return ({c.display_name.lower() for c in registry}
                | {line.split("\t", 1)[0].strip().lower() for line in lines
                   if line and not line.startswith("#")})
    return {"new york", "new york city", "york", "upper rhine delta", "rhine delta",
            "rhine", "saint-denis", "o’hare bay", "ka\u03c2", "ka\u03c2 bay", "a1 road",
            "rio_grande", "ki\u0307rk", "ki\u0307rk port", "", "rhine  gap", "ka\u00a0bay"}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_spotter_matches_the_oracle(spot_names, data):
    names = sorted(spot_names)
    words = sorted({word for name in names for word in name.split()})
    token = st.one_of(st.sampled_from(names), st.sampled_from(words),
                      st.sampled_from(NON_NAMES), st.sampled_from(OTHER_WORDS))
    case = st.sampled_from([str, str.upper, str.title, str.capitalize, str.lower])
    text = data.draw(st.lists(st.tuples(token, case, st.sampled_from(SEPARATORS)),
                              max_size=10).map(
        lambda parts: "".join(change(tok) + sep for tok, change, sep in parts)))
    assert GazetteerSpotter(Gazetteer(spot_names))(text) == oracle_spot(text, spot_names)


# --- candidate expansion --------------------------------------------------------

def make_candidate():
    return CandidateSentence("a1", "T", 0, 0, "text", False)


def place(iso3, registry, span="X"):
    return PlaceMention(span, resolved=registry.get(iso3) if iso3 else None)


def test_expand_is_countries_times_dates(registry):
    dates = [DateMention("April 13, 2019", 13, 4, 2019, YearSource.EXPLICIT),
             DateMention("July 2012", None, 7, 2012, YearSource.EXPLICIT)]
    places = [place("PAK", registry, "KPK"), place("IND", registry, "Kerala"),
              place(None, registry, "West Africa")]
    rows = expand_candidates(make_candidate(), dates, places)
    assert len(rows) == 4
    assert sorted({r.country.iso3 for r in rows}) == ["IND", "PAK"]


def test_expand_dedupes_countries_and_dates(registry):
    dates = [DateMention("April 13, 2019", 13, 4, 2019, YearSource.EXPLICIT),
             DateMention("2019-04-13", 13, 4, 2019, YearSource.EXPLICIT),
             DateMention("back in 2019", None, None, 2019, YearSource.EXPLICIT)]
    places = [place("PAK", registry, "KPK"), place("PAK", registry, "Balochistan")]
    rows = expand_candidates(make_candidate(), dates, places)
    assert len(rows) == 1
    assert rows[0].place_span == "KPK"  # first mention carries provenance
    assert ResolvedCandidate.from_json_dict(rows[0].to_json_dict(), registry) == rows[0]


def test_expand_empty_without_place_or_matchable_date(registry):
    matchable = [DateMention("July 2012", None, 7, 2012, YearSource.EXPLICIT)]
    bare_year = [DateMention("2012", None, None, 2012, YearSource.EXPLICIT)]
    has_place = [place("JPN", registry, "Kyushu")]
    assert expand_candidates(make_candidate(), matchable, []) == []
    assert expand_candidates(make_candidate(), bare_year, has_place) == []
    assert expand_candidates(make_candidate(), [], has_place) == []
