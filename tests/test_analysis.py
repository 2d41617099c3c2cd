from datetime import date
from pathlib import Path

import pytest

from coverage_auditor.analysis import (AXES, AXIS_TABLE, CountryIndicators,
                                       compute_hit_rate_pct,
                                       extract_reference_domains,
                                       load_indicators, registrable_domain,
                                       round_half_up, stratify)
from coverage_auditor.corpus import CandidateSentence
from conftest import FIXTURES
from test_matching import make_event

README = Path(__file__).resolve().parents[1] / "README.md"


def test_round_half_up_exact_halves():
    assert round_half_up(37.625) == 37.63
    assert round_half_up(37.624999) == 37.62
    assert round_half_up(2.5, 0) == 3.0


def test_compute_hit_rate_pct():
    assert compute_hit_rate_pct(194, 73) == 37.63
    assert compute_hit_rate_pct(0, 0) is None


# --- bucket boundaries, through the axis table ----------------------------------

NO_INDICATORS = dict.fromkeys(["gdp_per_capita_usd", "gni_group", "vulnerability",
                               "lack_of_coping", "english_speaker_pct", "population"])


def only_bucket(registry, axis, fatalities=None, fatalities_unknown="zero",
                **fields):
    """The bucket ``stratify`` puts one IND event in, given its fatalities
    and IND's indicator fields (the rest missing); None when it is excluded."""
    event = make_event(registry, "IND", date(2018, 8, 8), date(2018, 8, 25),
                       fatalities=fatalities)
    indicators = {"IND": CountryIndicators("IND", **{**NO_INDICATORS, **fields})}
    rows = stratify([event], set(), indicators, axis,
                    fatalities_unknown=fatalities_unknown)
    return rows[0].bucket_label if rows else None


def test_banded_axes_have_one_label_per_band():
    for axis, spec in AXIS_TABLE.items():
        if spec.bounds:
            assert len(spec.labels) == len(spec.bounds) + 1, axis
            assert list(spec.bounds) == sorted(set(spec.bounds)), axis
            assert spec.valid[0] < spec.bounds[0] and spec.bounds[-1] < spec.valid[1]


def test_readme_lists_every_axis_and_its_buckets():
    rows = [line for line in README.read_text().splitlines() if line.startswith("| `")]
    for axis, spec in AXIS_TABLE.items():
        (row,) = [r for r in rows if r.startswith(f"| `{axis}` |")]
        assert all(f"`{label}`" in row for label in spec.labels), axis


def test_axes_keep_their_order():
    assert AXES == ["continent", "gdp", "gni", "vuln", "english", "population",
                    "fatalities", "month", "country"]


@pytest.mark.parametrize("gdp,label", [
    (811.99, "Low income"),
    (812, "Lower middle income"),
    (2218, "Middle income"),
    (5484, "Upper middle income"),
    (9200, "High income"),
    (44713.99, "High income"),
    (44714, "Very high income"),
    (None, "unknown"),
])
def test_gdp_buckets(registry, gdp, label):
    assert only_bucket(registry, "gdp", gdp_per_capita_usd=gdp) == label


@pytest.mark.parametrize("v,l,label", [
    (1.0, 1.0, "0-2"),
    (2.0, 2.0, "2-4"),
    (4.0, 9.0, "6-8"),    # sqrt(36) = 6.0, lower bound inclusive
    (10.0, 10.0, "8-10"),  # top bucket closed at 10
])
def test_vulnerability_buckets(registry, v, l, label):
    assert only_bucket(registry, "vuln", vulnerability=v, lack_of_coping=l) == label


def test_vulnerability_validates_range(registry):
    with pytest.raises(ValueError):
        only_bucket(registry, "vuln", vulnerability=11.0, lack_of_coping=1.0)
    assert only_bucket(registry, "vuln", vulnerability=5.0) == "unknown"


@pytest.mark.parametrize("axis,fields", [
    ("gdp", {"gdp_per_capita_usd": -1.0}),
    ("english", {"english_speaker_pct": 100.5}),
    ("english", {"english_speaker_pct": -0.5}),
    ("population", {"population": -1}),
    ("fatalities", {"fatalities": -1}),
])
def test_out_of_range_inputs_raise(registry, axis, fields):
    with pytest.raises(ValueError):
        only_bucket(registry, axis, **fields)


def test_unknown_axis_raises(registry, indicators):
    event = make_event(registry, "IND", date(2018, 8, 8), date(2018, 8, 25))
    with pytest.raises(ValueError):
        stratify([event], set(), indicators, "religion")


@pytest.mark.parametrize("pop,label", [
    (754_393, "G1"),
    (754_394, "G2"),
    (6_465_512, "G2"),
    (6_465_513, "G3"),
    (24_992_368, "G3"),
    (24_992_369, "G4"),
    (None, "unknown"),
])
def test_population_groups(registry, pop, label):
    assert only_bucket(registry, "population", population=pop) == label


@pytest.mark.parametrize("pct,label", [
    (0, "<20"), (19.9, "<20"), (20, "20-40"), (40, "40-60"),
    (60, "60-80"), (79.9, "60-80"), (80, "80+"), (100, "80+"),
])
def test_english_buckets(registry, pct, label):
    assert only_bucket(registry, "english", english_speaker_pct=pct) == label


@pytest.mark.parametrize("n,label", [
    (0, "0"), (1, "1-9"), (9, "1-9"), (10, "10-99"), (99, "10-99"),
    (100, "100-1999"), (1999, "100-1999"), (2000, "2000+"),
])
def test_fatalities_buckets(registry, n, label):
    assert only_bucket(registry, "fatalities", fatalities=n) == label


def test_fatalities_unknown_policy(registry):
    assert only_bucket(registry, "fatalities", fatalities_unknown="zero") == "0"
    assert only_bucket(registry, "fatalities", fatalities_unknown="exclude") is None
    with pytest.raises(ValueError):
        only_bucket(registry, "fatalities", fatalities_unknown="guess")


def test_bucket_functions_partition_their_domains(registry):
    for gdp in [0, 500, 812, 3000, 9199, 9200, 44714, 1e6]:
        assert only_bucket(registry, "gdp", gdp_per_capita_usd=gdp) != "unknown"
    for pct in range(0, 101):
        assert only_bucket(registry, "english", english_speaker_pct=pct) != "unknown"
    for tenth in range(0, 101):
        assert only_bucket(registry, "vuln", vulnerability=tenth / 10.0,
                           lack_of_coping=tenth / 10.0) in [
            "0-2", "2-4", "4-6", "6-8", "8-10"]


# --- stratification --------------------------------------------------------------

@pytest.fixture(scope="module")
def indicators():
    return load_indicators(FIXTURES / "e2e" / "indicators.csv")


def test_stratify_continent(registry, indicators):
    events = [
        make_event(registry, "IND", date(2018, 8, 8), date(2018, 8, 25)),
        make_event(registry, "PAK", date(2019, 4, 13), date(2019, 4, 18)),
        make_event(registry, "AGO", date(2016, 3, 1), date(2016, 3, 10)),
    ]
    rows = stratify(events, {"IND-2018-08-08", "PAK-2019-04-13"}, indicators,
                    "continent")
    assert [(r.bucket_label, r.ground_truth_count, r.matched_count,
             r.hit_rate_pct) for r in rows] == [
        ("Asia", 2, 2, 100.0), ("Africa", 1, 0, 0.0)]


def test_stratify_unknown_bucket_reported_last(registry, indicators):
    events = [
        make_event(registry, "IND", date(2018, 8, 8), date(2018, 8, 25)),
        make_event(registry, "NPL", date(2018, 6, 1), date(2018, 6, 4)),
    ]
    rows = stratify(events, set(), indicators, "gdp")  # NPL has no indicator row
    assert rows[-1].bucket_label == "unknown"
    assert rows[-1].ground_truth_count == 1


def test_stratify_fatalities_exclude_policy(registry, indicators):
    events = [
        make_event(registry, "IND", date(2018, 8, 8), date(2018, 8, 25),
                   fatalities=400),
        make_event(registry, "PAK", date(2019, 4, 13), date(2019, 4, 18)),
    ]
    rows = stratify(events, set(), indicators, "fatalities",
                    fatalities_unknown="exclude")
    assert [(r.bucket_label, r.ground_truth_count) for r in rows] == [
        ("100-1999", 1)]


def test_stratify_month_axis(registry, indicators):
    events = [
        make_event(registry, "IND", date(2018, 8, 8), date(2018, 8, 25)),
        make_event(registry, "USA", date(2018, 8, 20), date(2018, 8, 23)),
        make_event(registry, "PAK", date(2019, 4, 13), date(2019, 4, 18)),
    ]
    rows = stratify(events, set(), indicators, "month")
    assert [(r.bucket_label, r.ground_truth_count) for r in rows] == [
        ("2018-08", 2), ("2019-04", 1)]


def test_stratify_country_axis_min_events_and_ordering(registry, indicators):
    events = (
        [make_event(registry, "IND", date(2018, 6, 1 + 3 * i),
                    date(2018, 6, 2 + 3 * i)) for i in range(3)]
        + [make_event(registry, "PAK", date(2019, 4, 1 + 3 * i),
                      date(2019, 4, 2 + 3 * i)) for i in range(3)]
        + [make_event(registry, "AGO", date(2016, 3, 1), date(2016, 3, 10))]
    )
    rows = stratify(events, {"PAK-2019-04-01"}, indicators, "country",
                    min_country_events=3)
    # AGO dropped (1 < 3); IND/PAK tie on count, broken alphabetically.
    assert [(r.bucket_label, r.matched_count) for r in rows] == [
        ("IND", 0), ("PAK", 1)]


# --- citation domains --------------------------------------------------------------

@pytest.mark.parametrize("url,domain", [
    ("https://www.bbc.com/news/world-41232190", "bbc.com"),
    ("http://weather.com:8080/storms?id=3", "weather.com"),
    ("https://WWW.RELIEFWEB.INT/report/1", "reliefweb.int"),
    ("https://timesofindia.indiatimes.com/x", "timesofindia.indiatimes.com"),
    ("ftp://user@reuters.com/wire", "reuters.com"),
    ("notaurl", None),
    ("https:///missing-host", None),
])
def test_registrable_domain(url, domain):
    assert registrable_domain(url) == domain


def make_cited_candidate(urls, idx=0):
    return CandidateSentence("a1", "T", 0, idx, "text", False,
                             citations=list(urls))


def test_extract_reference_domains_counts_and_ties():
    cands = [
        make_cited_candidate(["https://bbc.com/1", "https://weather.com/1"], 0),
        make_cited_candidate(["https://www.weather.com/2", "bad url", ""], 1),
        make_cited_candidate(["https://abc.net.au/3"], 2),
    ]
    domains, skipped = extract_reference_domains(cands, top_k=2)
    assert domains == [("weather.com", 2), ("abc.net.au", 1)]  # tie: abc < bbc
    assert skipped == 2
