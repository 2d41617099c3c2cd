import json
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverage_auditor import geocode
from coverage_auditor.countries import CountryRegistry, normalize_name
from coverage_auditor.geocode import (AliasScanInferencer, CascadeResolver,
                                      GeoCache, GeocoderResult, KnowledgeBase,
                                      ReplayGeocoderClient, kb_lookup,
                                      remote_geocode)
from coverage_auditor.places import PlaceMention, ResolverStage
from coverage_auditor.rows import RowError
from oracles import oracle_infer_country


class CountingClient:
    """Scripted geocoder (case-insensitive, like a real one) that records
    every query it receives."""

    def __init__(self, responses=None, fail_times=0):
        self.responses = {normalize_name(k): v for k, v in (responses or {}).items()}
        self.fail_times = fail_times
        self.calls = []

    def geocode(self, query):
        self.calls.append(query)
        if self.fail_times > 0:
            self.fail_times -= 1
            raise ConnectionError("boom")
        return self.responses.get(normalize_name(query), [])


# A geocoder's answers: two names with a country, one without.
GEOCODER_ANSWERS = {
    "Coon Valley": [GeocoderResult("Coon Valley, WI", "USA", 0.45)],
    "Springfield": [GeocoderResult("Springfield, Illinois", "USA", 0.6),
                    GeocoderResult("Springfield, Tasmania", "AUS", 0.3)],
    "Lake Nowhere": [GeocoderResult("Lake Nowhere", None, 0.9)],
}


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(geocode.time, "sleep", lambda seconds: None)


@pytest.fixture(scope="module")
def kb(registry):
    return KnowledgeBase.load(registry)


# --- knowledge base -----------------------------------------------------------

def test_kb_lookup_is_case_insensitive(registry, kb):
    assert kb_lookup("jacksonville", kb).iso3 == "USA"
    # The resolver normalizes the name it looks up.
    mention = CascadeResolver(kb, CountingClient(), registry).resolve("JACKSONVILLE")
    assert (mention.resolved.iso3, mention.resolver_stage) == ("USA", ResolverStage.GAZETTEER)


def test_kb_country_names_resolve_to_themselves(kb):
    assert kb_lookup(normalize_name("Japan"), kb).iso3 == "JPN"


def test_kb_entry_without_enwiki_page_never_resolves(kb):
    assert kb_lookup(normalize_name("Tiquicheo Municipality"), kb) is None


def test_kb_unknown_placename(kb):
    assert kb_lookup(normalize_name("Atlantis"), kb) is None


def test_kb_rows_apply_in_order_over_the_display_names(registry, tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("Japan\tJPN\tfalse\n"        # removes a display name
                    "Atlantis\tXYZ\ttrue\n"       # a code the registry lacks
                    "Springfield\tUSA\ttrue\n"
                    "Springfield\tAUS\tfalse\n"   # the later row wins ...
                    "Kyushu\tJPN\tfalse\n"
                    "Kyushu\tJPN\ttrue\n")        # ... either way
    kb = KnowledgeBase.load(registry, path)
    assert kb_lookup("japan", kb) is None
    assert kb_lookup("atlantis", kb) is None
    assert kb_lookup("springfield", kb) is None
    assert kb_lookup("kyushu", kb).iso3 == "JPN"
    assert kb_lookup("india", kb).iso3 == "IND"


# --- remote geocoding -----------------------------------------------------------

def test_remote_picks_highest_importance(registry):
    client = CountingClient({"springfield": [
        GeocoderResult("Springfield, Illinois", "USA", 0.6),
        GeocoderResult("Springfield, Tasmania", "AUS", 0.3),
    ]})
    assert remote_geocode("springfield", client, registry=registry).iso3 == "USA"


def test_remote_importance_tie_breaks_on_display_name(registry):
    client = CountingClient({"x": [
        GeocoderResult("Beta place", "AUS", 0.5),
        GeocoderResult("Alpha place", "USA", 0.5),
    ]})
    assert remote_geocode("x", client, registry=registry).iso3 == "USA"


def test_remote_skips_results_without_country(registry):
    client = CountingClient({"x": [GeocoderResult("Somewhere", None, 0.9)]})
    assert remote_geocode("x", client, registry=registry) is None


def test_remote_retries_then_gives_up(registry):
    flaky = CountingClient({"x": [GeocoderResult("A", "USA", 0.5)]}, fail_times=2)
    assert remote_geocode("x", flaky, retries=2, backoff=0.0,
                          registry=registry).iso3 == "USA"
    assert len(flaky.calls) == 3

    dead = CountingClient(fail_times=99)
    with pytest.raises(ConnectionError):
        remote_geocode("x", dead, retries=2, backoff=0.0, registry=registry)
    assert len(dead.calls) == 3


def test_replay_client_unknown_query_is_empty(tmp_path):
    path = tmp_path / "replay.jsonl"
    path.write_text(json.dumps({
        "query": "Coon Valley",
        "results": [{"display_name": "Coon Valley, WI", "iso3": "USA",
                     "importance": 0.45}],
    }) + "\n")
    client = ReplayGeocoderClient(path)
    assert client.geocode("coon valley")[0].iso3 == "USA"
    assert client.geocode("nowhere") == []


# Each row a reader refuses, and the problem its error names.
BAD_ROWS = {
    "replay query": (ReplayGeocoderClient, {"query": 5, "results": []},
                     "query: expected string, got integer"),
    "replay results": (ReplayGeocoderClient, {"query": "x", "results": {}},
                       "results: expected array, got object"),
    "replay result": (ReplayGeocoderClient, {"query": "x", "results": ["Kyushu"]},
                      "results[0]: expected object, got string"),
    "replay display_name": (ReplayGeocoderClient,
                            {"query": "x", "results": [{"display_name": None}]},
                            "results[0].display_name: expected string, got null"),
    "replay iso3": (ReplayGeocoderClient,
                    {"query": "x", "results": [{"display_name": "X", "iso3": 392}]},
                    "results[0].iso3: expected string or null, got integer"),
    "geocache stage": (GeoCache, {"query": "x", "result": None, "stage": True},
                       "stage: expected string, got boolean"),
    "geocache query": (GeoCache, {"query": None, "result": None, "stage": "REMOTE_GEOCODER"},
                       "query: expected string, got null"),
    "geocache result": (GeoCache, {"query": "x", "result": 7, "stage": "REMOTE_GEOCODER"},
                        "result: expected string or null, got integer"),
}


@pytest.mark.parametrize("reader, row, problem", BAD_ROWS.values(), ids=BAD_ROWS)
def test_replay_and_geocache_rows_are_checked_field_by_field(tmp_path, reader, row, problem):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(RowError) as exc:
        reader(path)
    assert str(exc.value) == f"rows.jsonl line 1: {problem}"


# --- whole-text inference --------------------------------------------------------

def test_alias_scan_prefers_sentence_then_title(registry):
    infer = AliasScanInferencer(registry)
    assert infer("rains hit Kyushu, Japan today", "Some title").iso3 == "JPN"
    assert infer("no country here", "2019 Pakistan floods").iso3 == "PAK"
    assert infer("no country here", "no country there") is None


def test_alias_scan_longest_alias_wins(registry):
    infer = AliasScanInferencer(registry)
    assert infer("clashes in South Sudan displaced many", "").iso3 == "SSD"


def test_alias_scan_respects_word_boundaries(registry):
    infer = AliasScanInferencer(registry)
    # "Indiana" must not resolve via the substring "India".
    assert infer("storms crossed Indiana overnight", "") is None


# Words that contain an alias, or sit next to one, without being it.
NEAR_MISSES = ["Indiana", "Sudanese", "Nigeria-based", "Guineas", "Chinatown",
               "Jordanian", "Georgia", "Nigerien", "Congo", "Dominican"]
FILLER = ["floods", "in", "the", "north", "of", "and", "hit", "2019", "7",
          "\u0130", "\u0130ndia", "_"]
PUNCTUATION = [",", ".", "-", "'", "(", ")", ";", "\u2019"]
SEPARATORS = [" ", "", " - ", ", ", "\t", "\u00a0", "_"]


@pytest.fixture(scope="module", params=["bundled", "nested"])
def scan_registry(request, registry, tmp_path_factory):
    """The bundled registry, whose nested aliases ("united states",
    "united states of america") agree on the country, and one whose nested
    aliases disagree, so that only longest-first ordering gives the
    oracle's answers."""
    if request.param == "bundled":
        return registry
    tmp = tmp_path_factory.mktemp("nested")
    (tmp / "registry.tsv").write_text(
        "GIN\tGuinea\tAfrica\tGN\nGNB\tGuinea-Bissau\tAfrica\tGW\n"
        "PNG\tPapua New Guinea\tOceania\tPG\nSDN\tSudan\tAfrica\tSD\n"
        "SSD\tSouth Sudan\tAfrica\tSS\n")
    (tmp / "aliases.tsv").write_text(
        "Guinea Bissau Republic\tGIN\nSouth\tSDN\nNew Guinea\tGNB\n")
    return CountryRegistry.load(tmp / "registry.tsv", tmp / "aliases.tsv")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_alias_scan_matches_brute_force_oracle(scan_registry, data):
    aliases = [alias for alias, _ in scan_registry.alias_items()]
    words = sorted({word for alias in aliases for word in alias.split()})
    token = st.one_of(st.sampled_from(aliases), st.sampled_from(words),
                      st.sampled_from(NEAR_MISSES), st.sampled_from(FILLER),
                      st.sampled_from(PUNCTUATION))
    case = st.sampled_from([str, str.upper, str.title, str.capitalize])
    text = st.lists(st.tuples(token, case, st.sampled_from(SEPARATORS)),
                    max_size=8).map(
        lambda parts: "".join(change(tok) + sep for tok, change, sep in parts))
    sentence, title = data.draw(text), data.draw(text)
    assert (AliasScanInferencer(scan_registry)(sentence, title)
            == oracle_infer_country(sentence, title, scan_registry.alias_items()))


# --- cascade and cache ------------------------------------------------------------

def make_resolver(registry, kb, client, cache=None, refresh=False):
    return CascadeResolver(kb, client, registry, cache=cache, refresh=refresh)


def test_cascade_kb_short_circuits(registry, kb):
    client = CountingClient()
    resolver = make_resolver(registry, kb, client)
    mention = resolver.resolve("Jacksonville", "irrelevant", "")
    assert mention.resolved.iso3 == "USA"
    assert mention.resolver_stage is ResolverStage.GAZETTEER
    assert client.calls == []


def test_cascade_remote_then_context(registry, kb):
    client = CountingClient({"Coon Valley": [
        GeocoderResult("Coon Valley, WI", "USA", 0.45)]})
    resolver = make_resolver(registry, kb, client)
    remote = resolver.resolve("Coon Valley", "", "")
    assert remote.resolved.iso3 == "USA"
    assert remote.resolver_stage is ResolverStage.REMOTE_GEOCODER

    context = resolver.resolve("Kyushu", "rains hit Kyushu, Japan", "")
    assert context.resolved.iso3 == "JPN"
    assert context.resolver_stage is ResolverStage.CONTEXT_INFERENCE

    nothing = resolver.resolve("West Africa", "floods in the region", "")
    assert nothing.resolved is None
    assert nothing.resolver_stage is ResolverStage.UNRESOLVED


def test_cache_avoids_repeat_remote_calls(registry, kb, tmp_path):
    cache_path = tmp_path / "geocache.jsonl"
    client = CountingClient({"Coon Valley": [
        GeocoderResult("Coon Valley, WI", "USA", 0.45)]})
    resolver = make_resolver(registry, kb, client, cache=GeoCache(cache_path))
    for _ in range(3):
        assert resolver.resolve("Coon Valley").resolved.iso3 == "USA"
    assert len(client.calls) == 1

    # A fresh resolver reading the same cache file makes no remote calls.
    client2 = CountingClient()
    resolver2 = make_resolver(registry, kb, client2, cache=GeoCache(cache_path))
    mention = resolver2.resolve("Coon Valley")
    assert mention.resolved.iso3 == "USA"
    assert mention.resolver_stage is ResolverStage.REMOTE_GEOCODER
    assert client2.calls == []


def test_negative_results_are_cached_too(registry, kb, tmp_path):
    cache = GeoCache(tmp_path / "geocache.jsonl")
    client = CountingClient()
    resolver = make_resolver(registry, kb, client, cache=cache)
    assert resolver.resolve("Nowhereville").resolved is None
    assert resolver.resolve("Nowhereville").resolved is None
    assert len(client.calls) == 1


def test_refresh_bypasses_the_cache(registry, kb, tmp_path):
    cache_path = tmp_path / "geocache.jsonl"
    client = CountingClient()
    make_resolver(registry, kb, client, cache=GeoCache(cache_path)).resolve("Somewhere")
    assert len(client.calls) == 1

    refreshing = make_resolver(registry, kb, CountingClient(),
                               cache=GeoCache(cache_path), refresh=True)
    refreshing.resolve("Somewhere")
    assert len(refreshing.client.calls) == 1  # queried again despite the cache


def test_cache_file_is_append_only_jsonl(registry, kb, tmp_path):
    cache_path = tmp_path / "geocache.jsonl"
    resolver = make_resolver(registry, kb, CountingClient(),
                             cache=GeoCache(cache_path))
    resolver.resolve("Jacksonville")  # a kb hit: not a geocoder answer
    resolver.resolve("Atlantis")
    lines = [json.loads(l) for l in cache_path.read_text().splitlines()]
    assert [l["query"] for l in lines] == ["atlantis"]
    assert lines[0]["result"] is None
    assert lines[0]["stage"] == "REMOTE_GEOCODER"
    assert all("fetched_at" in l for l in lines)


def test_context_inference_is_per_mention(registry, kb, tmp_path):
    resolver = make_resolver(registry, kb, CountingClient(),
                             cache=GeoCache(tmp_path / "geocache.jsonl"))
    haiti = resolver.resolve("Caribbean", "floods struck Haiti", "")
    cuba = resolver.resolve("Caribbean", "floods struck Cuba", "")
    assert haiti.resolved.iso3 == "HTI"
    assert cuba.resolved.iso3 == "CUB"
    assert cuba.resolver_stage is ResolverStage.CONTEXT_INFERENCE


def test_failed_lookup_is_not_cached(registry, kb, tmp_path, no_backoff):
    cache_path = tmp_path / "geocache.jsonl"
    down = make_resolver(registry, kb, CountingClient(fail_times=99),
                         cache=GeoCache(cache_path))
    mention = down.resolve("Coon Valley", "floods in the valley", "")
    assert mention.resolver_stage is ResolverStage.UNRESOLVED
    assert not cache_path.exists() or "coon valley" not in cache_path.read_text()
    assert down.failures == 1

    client = CountingClient(GEOCODER_ANSWERS)
    back_up = make_resolver(registry, kb, client, cache=GeoCache(cache_path))
    mention = back_up.resolve("Coon Valley", "floods in the valley", "")
    assert mention.resolved.iso3 == "USA"
    assert mention.resolver_stage is ResolverStage.REMOTE_GEOCODER
    assert client.calls == ["Coon Valley"]
    assert back_up.failures == 0


def test_cache_rows_other_than_geocoder_answers_are_ignored(registry, kb, tmp_path):
    cache_path = tmp_path / "geocache.jsonl"
    cache_path.write_text("".join(json.dumps(row) + "\n" for row in [
        {"query": "caribbean", "result": "HTI", "stage": "CONTEXT_INFERENCE",
         "fetched_at": "2020-01-01T00:00:00+00:00"},
        {"query": "coon valley", "result": None, "stage": "UNRESOLVED",
         "fetched_at": "2020-01-01T00:00:00+00:00"},
    ]))
    client = CountingClient(GEOCODER_ANSWERS)
    resolver = make_resolver(registry, kb, client, cache=GeoCache(cache_path))
    assert resolver.resolve("Caribbean", "floods struck Cuba", "").resolved.iso3 == "CUB"
    assert resolver.resolve("Coon Valley").resolved.iso3 == "USA"
    assert client.calls == ["Caribbean", "Coon Valley"]


def test_kb_is_consulted_before_the_cache(registry, kb, tmp_path):
    cache_path = tmp_path / "geocache.jsonl"
    GeoCache(cache_path).put("jacksonville", "CAN")
    client = CountingClient()
    resolver = make_resolver(registry, kb, client, cache=GeoCache(cache_path))
    mention = resolver.resolve("Jacksonville")
    assert mention.resolved.iso3 == "USA"
    assert mention.resolver_stage is ResolverStage.GAZETTEER
    assert client.calls == []


def test_torn_last_line_is_dropped_on_load(tmp_path, caplog):
    cache_path = tmp_path / "geocache.jsonl"
    cache = GeoCache(cache_path)
    cache.put("coon valley", "USA")
    cache.put("atlantis", None)
    whole = cache_path.read_bytes()
    cache_path.write_bytes(whole + whole[:40])  # a run killed mid-append

    torn = GeoCache(cache_path)
    assert torn.answers == {"coon valley": "USA", "atlantis": None}
    assert "torn last line" in caplog.text
    assert cache_path.read_bytes() == whole
    torn.put("kyushu", "JPN")

    lines = cache_path.read_text().splitlines(keepends=True)
    assert len(lines) == 3 and all(line.endswith("\n") for line in lines)
    assert GeoCache(cache_path).answers == {
        "coon valley": "USA", "atlantis": None, "kyushu": "JPN"}


class HalfDownClient:
    """Answers "Place <even>" with Bolivia; fails on "Place <odd>"."""

    def geocode(self, query):
        if int(query.split()[1]) % 2:
            raise ConnectionError("boom")
        return [GeocoderResult(query, "BOL", 0.5)]


def test_prefetch_failures_are_counted_under_contention(registry, kb, tmp_path,
                                                        no_backoff):
    names = [f"Place {i}" for i in range(400)]
    cache_path = tmp_path / "geocache.jsonl"
    resolver = make_resolver(registry, kb, HalfDownClient(),
                             cache=GeoCache(cache_path))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=resolver.prefetch,
                                  args=(names, 4 * (os.cpu_count() or 1)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert resolver.failures == len(names) // 2
    rows = [json.loads(line) for line in cache_path.read_text().splitlines()]
    assert sorted(r["query"] for r in rows) == sorted(
        normalize_name(name) for name in names[::2])
    assert {r["result"] for r in rows} == {"BOL"}


def test_prefetch_pool_threads_set_no_attribute(registry, kb, monkeypatch, no_backoff):
    setters = []

    def recording_setattr(self, name, value):
        setters.append((threading.current_thread(), name))
        object.__setattr__(self, name, value)

    class DownClient:
        max_inflight = 2

        def geocode(self, query):
            raise ConnectionError("boom")

    resolver = make_resolver(registry, kb, DownClient())
    monkeypatch.setattr(CascadeResolver, "__setattr__", recording_setattr)
    resolver.prefetch([f"Place {i}" for i in range(12)], workers=DownClient.max_inflight)
    assert {thread for thread, _ in setters} == {threading.current_thread()}
    assert resolver.failures == 12


def test_prefetch_with_one_worker_stays_on_the_calling_thread(registry, kb):
    threads = []

    class ThreadRecordingClient:
        def geocode(self, query):
            threads.append(threading.current_thread())
            return [GeocoderResult(query, "BOL", 0.5)]

    resolver = make_resolver(registry, kb, ThreadRecordingClient())
    resolver.prefetch([f"Place {i}" for i in range(5)], workers=1)
    assert threads == [threading.current_thread()] * 5


# Names the kb answers, names only the geocoder answers, and names only
# context can place, in sentences and titles that name conflicting countries.
MENTION_NAMES = ["Jacksonville", "JACKSONVILLE", "Japan", "Coon Valley",
                 "coon valley", "Springfield", "Lake Nowhere", "Caribbean",
                 "Kyushu", "West Africa"]
MENTION_SENTENCES = ["floods struck Haiti", "floods struck Cuba",
                     "rains hit Japan and then Cuba", "the river rose", ""]
MENTION_TITLES = ["2019 Pakistan floods", "Floods in Haiti", ""]
mention_lists = st.lists(st.tuples(st.sampled_from(MENTION_NAMES),
                                   st.sampled_from(MENTION_SENTENCES),
                                   st.sampled_from(MENTION_TITLES)),
                         min_size=1, max_size=12)


def resolve_in_order(registry, kb, cache, mentions, order, prefetch=()):
    resolver = make_resolver(registry, kb, CountingClient(GEOCODER_ANSWERS),
                             cache=cache)
    resolver.prefetch(prefetch, workers=2)
    out: dict[int, PlaceMention] = {}
    for i in order:
        out[i] = resolver.resolve(*mentions[i])
    return [out[i] for i in range(len(mentions))]


@settings(max_examples=100, deadline=None)
@given(mentions=mention_lists, data=st.data())
def test_resolution_ignores_order_and_cache_state(registry, kb, mentions, data):
    indices = range(len(mentions))
    expected = resolve_in_order(registry, kb, None, mentions, indices)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "geocache.jsonl"
        for _ in range(2):  # a cold cache file, then the one it left behind
            order = data.draw(st.permutations(indices))
            prefetch = data.draw(st.lists(st.sampled_from(MENTION_NAMES), max_size=4))
            assert resolve_in_order(registry, kb, GeoCache(path), mentions,
                                    order, prefetch) == expected
