import pytest

from coverage_auditor.corpus import CandidateSentence
from coverage_auditor.dates import DateMention, YearSource
from coverage_auditor.places import (Gazetteer, GazetteerSpotter, PlaceMention,
                                     ResolvedCandidate, expand_candidates,
                                     extract_placenames)


@pytest.fixture(scope="module")
def spotter(registry):
    return GazetteerSpotter(Gazetteer.load(registry=registry))


def names(spotter, text):
    return [m.raw_span for m in extract_placenames(text, spotter)]


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
    assert rows[0].place.raw_span == "KPK"  # first mention carries provenance
    assert ResolvedCandidate.from_json_dict(rows[0].to_json_dict(), registry) == rows[0]


def test_expand_empty_without_place_or_matchable_date(registry):
    matchable = [DateMention("July 2012", None, 7, 2012, YearSource.EXPLICIT)]
    bare_year = [DateMention("2012", None, None, 2012, YearSource.EXPLICIT)]
    has_place = [place("JPN", registry, "Kyushu")]
    assert expand_candidates(make_candidate(), matchable, []) == []
    assert expand_candidates(make_candidate(), bare_year, has_place) == []
    assert expand_candidates(make_candidate(), [], has_place) == []
