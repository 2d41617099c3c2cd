"""Acceptance suite: ten end-to-end criteria, one printed verdict each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the verdict lines
even when everything passes.
"""

import json
import random
import time
from datetime import date, timedelta
from pathlib import Path

import pytest

from conftest import FIXTURES
from coverage_auditor.analysis import (compute_hit_rate_pct,
                                       extract_reference_domains)
from coverage_auditor.cli import main as cli_main
from coverage_auditor.corpus import CandidateSentence
from coverage_auditor.dates import (YearSource, distinct_years, find_dates,
                                    infer_year)
from coverage_auditor.geocode import CascadeResolver, KnowledgeBase
from coverage_auditor.ground_truth import (Source, consolidate,
                                           filter_multi_source)
from coverage_auditor.matching import EventIndex, Strategy, evaluate, match_all
from coverage_auditor.places import Gazetteer, GazetteerSpotter
from oracles import oracle_consolidate
from test_ground_truth import make_record, random_records, signatures
from test_matching import make_candidate, make_event

E2E = FIXTURES / "e2e"


def verdict(number, ok, detail):
    print(f"AC{number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"AC{number}: {detail}"


# --- AC1: consolidation equals the brute-force oracle ---------------------------

def test_ac1_consolidation_matches_oracle(registry):
    rng = random.Random(20180613)
    pool = ["AGO", "USA", "HTI", "IND", "PAK"]
    started = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        records = random_records(rng, registry, pool, max_records=30)
        if signatures(consolidate(records)) != oracle_consolidate(records):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    verdict(1, ok, f"500 random instances vs oracle: {mismatches} mismatches "
                   f"in {elapsed:.2f}s")


# --- AC2: worked consolidation example ------------------------------------------

def test_ac2_three_source_merge(registry):
    records = [
        make_record(registry, "AGO", date(2016, 3, 5), date(2016, 3, 7),
                    source=Source.FLOODLIST, native_id="FL-001", fatalities=15),
        make_record(registry, "AGO", date(2016, 3, 1), date(2016, 3, 10),
                    source=Source.EMDAT, native_id="EM-0001", fatalities=14),
        make_record(registry, "AGO", date(2016, 3, 1), date(2016, 3, 10),
                    source=Source.DFO, native_id="4321", fatalities=14),
    ]
    events = filter_multi_source(consolidate(records))
    ok = (len(events) == 1
          and events[0].start_date == date(2016, 3, 1)
          and events[0].end_date == date(2016, 3, 10)
          and events[0].in_floodlist and events[0].in_emdat
          and events[0].in_dartmouth)
    detail = "no event" if not events else (
        f"{events[0].event_id} [{events[0].start_date}..{events[0].end_date}] "
        f"sources={events[0].source_count}")
    verdict(2, ok, f"three overlapping records -> one event: {detail}")


# --- AC3: stratified hit-rate arithmetic ----------------------------------------

AC3_TABLE = {
    "continent": [(194, 73, 37.63), (106, 52, 49.06), (96, 21, 21.88),
                  (85, 18, 21.18), (57, 6, 10.53), (27, 8, 29.63)],
    "gdp": [(46, 9, 19.57), (87, 29, 33.33), (113, 32, 28.32),
            (69, 14, 20.29), (165, 45, 27.27), (69, 47, 68.12)],
    "vuln": [(66, 21, 31.82), (157, 60, 38.22), (130, 43, 33.08),
             (101, 31, 30.69), (90, 20, 22.22)],
    "english": [(131, 36, 27.48), (67, 19, 28.36), (37, 14, 37.84),
                (24, 9, 37.50), (92, 53, 57.61)],
    "population": [(14, 2, 14.29), (60, 8, 13.33), (133, 29, 21.80),
                   (342, 137, 40.06)],
    "fatalities": [(164, 31, 18.90), (184, 57, 30.98), (173, 68, 39.31),
                   (27, 20, 74.07)],
}


def test_ac3_stratified_hit_rates():
    failures = []
    for axis, rows in AC3_TABLE.items():
        for gt, matched, expected in rows:
            got = compute_hit_rate_pct(gt, matched)
            if abs(got - expected) > 0.01:
                failures.append(f"{axis} {matched}/{gt}: {got} != {expected}")
    n = sum(len(rows) for rows in AC3_TABLE.values())
    verdict(3, not failures,
            f"{n} stratified table rows within 0.01: {failures or 'all agree'}")


# --- AC4: precision/recall figures -----------------------------------------------

def _eval_case(registry, n_events, n_candidates, n_relevant):
    events = [make_event(registry, "IND", date(2018, 6, 1) + timedelta(days=4 * i),
                         date(2018, 6, 2) + timedelta(days=4 * i))
              for i in range(n_events)]
    index = EventIndex(events)
    starts = [e.start_date for e in events[:n_candidates]]
    cands = [make_candidate(registry, "IND", d.year, d.month, d.day,
                            sentence_index=i)
             for i, d in enumerate(starts)]
    labels = {("a1", i): i < n_relevant for i in range(n_candidates)}
    matches = match_all(cands, index, Strategy.YMD, window_days=0)
    return evaluate(matches, labels, len(events))


def test_ac4_precision_recall(registry):
    cases = [  # (events, matched candidates, relevant) -> precision %, recall %
        (18, 3, 2, 66.67, 16.67),
        (20, 3, 2, 66.67, 15.00),
        (26, 9, 8, 88.89, 34.62),
    ]
    failures = []
    for n_events, n_cands, n_rel, exp_p, exp_r in cases:
        report = _eval_case(registry, n_events, n_cands, n_rel)
        got_p = round(100 * report.precision, 2)
        got_r = round(100 * report.recall, 2)
        if abs(got_p - exp_p) > 0.01 or abs(got_r - exp_r) > 0.01:
            failures.append(f"{n_cands}/{n_events}: P={got_p} R={got_r}")
    verdict(4, not failures,
            f"three evaluation snapshots: {failures or 'all agree'}")


# --- AC5: placename resolution over eight reference sentences --------------------

AC5_CASES = [
    ("Severe floods swept across West Africa during the rainy season.",
     "West Africa floods", []),
    ("Floods and mudslides hit Tiquicheo Municipality after days of rain.",
     "Tiquicheo", []),
    ("Flash floods struck Poldokhtar and the wider Lorestan Province.",
     "Poldokhtar flood", []),
    ("Torrential rain brought widespread flooding to the region.",
     "2015 Southeast Africa floods", []),
    ("Flooding overtopped the New Orleans Outfall Canals.",
     "New Orleans Outfall Canals", []),
    ("Serious flooding was reported in Greenwich and Woolwich.",
     "Geology of Kent", ["GBR"]),
    ("In July 2012 floods hit Kyushu, Japan.", "Kyushu", ["JPN"]),
    ("Heavy rain flooded villages throughout Antu County.",
     "Antu County", ["CHN"]),
]


class _NoNetwork:
    def geocode(self, query):
        return []


def test_ac5_reference_sentences(registry):
    spotter = GazetteerSpotter(Gazetteer.load(registry=registry))
    resolver = CascadeResolver(KnowledgeBase.load(registry), _NoNetwork(),
                               registry)
    failures = []
    for sentence, title, expected in AC5_CASES:
        spans = dict.fromkeys(spotter(sentence) + spotter(title))
        resolved = {resolver.resolve(span, sentence, title).resolved
                    for span in spans}
        got = sorted(c.iso3 for c in resolved if c is not None)
        if got != expected:
            failures.append(f"{title!r}: {got} != {expected}")
    verdict(5, not failures,
            f"eight reference sentences: {failures or 'all resolve as expected'}")


# --- AC6: matching boundary behavior ---------------------------------------------

def test_ac6_matching_boundaries(registry):
    pak = EventIndex([make_event(registry, "PAK",
                                 date(2019, 4, 13), date(2019, 4, 18))])
    usa = EventIndex([make_event(registry, "USA",
                                 date(2018, 8, 20), date(2018, 8, 23))])
    checks = [
        ("PAK start day under YMD",
         len(match_all([make_candidate(registry, "PAK", 2019, 4, 13)], pak,
                       Strategy.YMD, 5)) == 1),
        ("USA August month under YM",
         len(match_all([make_candidate(registry, "USA", 2018, 8)], usa,
                       Strategy.YM, 0)) == 1),
        ("end + 5 still matches",
         len(match_all([make_candidate(registry, "PAK", 2019, 4, 23)], pak,
                       Strategy.YMD, 5)) == 1),
        ("end + 6 does not",
         match_all([make_candidate(registry, "PAK", 2019, 4, 24)], pak,
                   Strategy.YMD, 5) == []),
    ]
    failures = [name for name, ok in checks if not ok]
    verdict(6, not failures,
            f"window boundaries: {failures or 'all four checks hold'}")


# --- AC7: fifty year-inference cases ----------------------------------------------

def _year_inference_cases():
    months = ["January", "February", "March", "April", "May", "June", "July",
              "August", "September", "October", "November", "December"]
    cases = []
    for i in range(10):  # explicit years need no inference
        cases.append((f"Floods struck on {months[i]} {i + 3}, {2001 + i}.",
                      "An unrelated paragraph.", "Regional floods",
                      2001 + i, YearSource.EXPLICIT))
    for i in range(15):  # a lone year elsewhere in the sentence
        cases.append((f"On {months[i % 12]} {i + 1}, floods followed the "
                      f"{1990 + i} monsoon.",
                      f"The paragraph also mentions {1900 + i}.", "Floods",
                      1990 + i, YearSource.SENTENCE))
    for i in range(10):  # two years in the sentence: ambiguous, no fallback
        cases.append((f"Between {2000 + i} and {2001 + i}, on {months[i]} 9, "
                      f"floods came.",
                      f"A paragraph with just {2010 + i}.", f"{2020 + i} floods",
                      None, YearSource.UNRESOLVED))
    for i in range(8):  # year-free sentence, lone year in the paragraph
        cases.append((f"On {months[i]} 12 the river rose.",
                      f"The {2011 + i} season was harsh. On {months[i]} 12 "
                      f"the river rose.",
                      "A title with no digits",
                      2011 + i, YearSource.PARAGRAPH))
    for i in range(7):  # title year as the last resort
        cases.append((f"On {months[i]} 27 the levee broke.",
                      f"On {months[i]} 27 the levee broke.",
                      f"{2013 + i} Somewhere floods",
                      2013 + i, YearSource.TITLE))
    return cases


def test_ac7_year_inference_table():
    cases = _year_inference_cases()
    assert len(cases) == 50
    failures = []
    for idx, (sentence, paragraph, title, exp_year, exp_source) in enumerate(cases):
        mentions = [m for m in find_dates(sentence) if m.month is not None]
        out = infer_year(mentions[0], sentence, distinct_years(paragraph), title)
        if (out.year, out.year_source) != (exp_year, exp_source):
            failures.append(f"case {idx}: ({out.year}, {out.year_source.value})")
    verdict(7, not failures,
            f"50 year-inference cases: {failures or 'all agree'}")


# --- AC8: YMD(window=0) is contained in YM ----------------------------------------

def test_ac8_strategy_containment(registry):
    rng = random.Random(8)
    violations = 0
    for _ in range(1000):
        start = date(2018, 1, 1) + timedelta(days=rng.randint(0, 320))
        index = EventIndex([make_event(registry, "PAK", start,
                                       start + timedelta(days=rng.randint(0, 40)))])
        cand = make_candidate(registry, "PAK", 2018, rng.randint(1, 12),
                              day=rng.choice([None, rng.randint(1, 28)]))
        if (match_all([cand], index, Strategy.YMD, 0)
                and not match_all([cand], index, Strategy.YM, 0)):
            violations += 1
    verdict(8, violations == 0,
            f"1000 random pairs: {violations} containment violations")


# --- AC9: hermetic end-to-end run --------------------------------------------------

def test_ac9_end_to_end(tmp_path, capsys):
    started = time.perf_counter()
    runs = [tmp_path / "r1", tmp_path / "r2"]
    for out in runs:
        code = cli_main(["run", "--config", str(E2E / "config.ini"),
                         "--out", str(out)])
        assert code == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    artifacts = ["events.jsonl", "candidates.jsonl", "resolved.jsonl",
                 "matches.jsonl", "analysis.json"]
    identical = all((runs[0] / a).read_bytes() == (runs[1] / a).read_bytes()
                    for a in artifacts)

    matches = [json.loads(l) for l in
               (runs[0] / "matches.jsonl").read_text().splitlines()]
    irma_countries = {m["iso3"] for m in matches
                      if m["article_id"] == "hurricane-irma"}
    sudan_hits = [m for m in matches if m["iso3"] == "SDN"]
    events = [json.loads(l) for l in
              (runs[0] / "events.jsonl").read_text().splitlines()]
    sudan_in_gt = any(e["country"] == "SDN" for e in events)

    ok = (elapsed < 30.0 and identical and len(irma_countries) >= 2
          and sudan_in_gt and not sudan_hits)
    verdict(9, ok,
            f"two runs in {elapsed:.2f}s, byte-identical={identical}, "
            f"irma countries={sorted(irma_countries)}, "
            f"sudan matches={len(sudan_hits)}")


# --- AC10: citation-domain extraction ----------------------------------------------

def test_ac10_citation_domains():
    urls = (FIXTURES / "citation_urls.txt").read_text().split()
    assert len(urls) == 20
    cands = [CandidateSentence("a1", "T", 0, i, "text", False, citations=[u])
             for i, u in enumerate(urls)]
    domains, skipped = extract_reference_domains(cands, top_k=10)
    expected = [("weather.com", 5), ("bbc.com", 4), ("reliefweb.int", 4),
                ("reuters.com", 3), ("cnn.com", 2), ("abc.net.au", 1),
                ("indiatimes.com", 1)]
    ok = domains == expected and skipped == 0
    verdict(10, ok, f"20-URL fixture -> {domains}, skipped={skipped}")
