"""Placename-to-country resolution cascade.

Stages, in order: local knowledge-base lookup, remote geocoder query,
whole-text country inference. The first stage that succeeds wins. The
first two depend on the placename alone: ``CascadeResolver`` normalizes
each name once and answers each normalized name once per run, from the
kb, then the answers earlier runs paid a live geocoder for (its
``GeoCache`` file), then the geocoder; a failed lookup answers UNRESOLVED.
Inference depends on the sentence, so it runs for every mention the name
alone leaves without a country, and is never cached.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from types import NoneType
from typing import Callable, Iterable, Protocol

from .countries import (CountryCode, CountryRegistry, _default_data_path,
                        _read_tsv, default_registry, normalize_name)
from .places import PhraseMatcher, PlaceMention, ResolverStage
from .rows import _typed, read_jsonl

log = logging.getLogger(__name__)

DEFAULT_ENDPOINT_ENV = "COVAUD_GEOCODER_URL"
DEFAULT_ENDPOINT = "https://nominatim.openstreetmap.org/search"


@dataclass(slots=True)
class GeocoderResult:
    display_name: str
    iso3: str | None
    importance: float


class GeocoderClient(Protocol):
    max_inflight: int  # requests worth overlapping; 1 for answers held in memory

    def geocode(self, query: str) -> list[GeocoderResult]: ...


# sentence, title -> CountryCode or None
CountryInferencer = Callable[[str, str], CountryCode | None]


# --- knowledge base ----------------------------------------------------------

class KnowledgeBase:
    """Offline snapshot standing in for a live entity-database query: the
    country of each normalized name it resolves. ``kb.tsv`` rows apply in
    order over the registry's display names; a row whose has_enwiki flag is
    false (a place without an English encyclopedia page gives editors
    nothing to link to), or whose code is not in the registry, removes its name."""

    def __init__(self, countries: dict[str, CountryCode]):
        self._countries = countries

    @classmethod
    def load(cls, registry: CountryRegistry, path: Path | None = None) -> "KnowledgeBase":
        countries = {normalize_name(c.display_name): c for c in registry}
        for name, iso3, flag in _read_tsv(path or _default_data_path("kb.tsv"), 3):
            countries[normalize_name(name)] = (registry.get_optional(iso3)
                                               if flag.lower() == "true" else None)
        return cls({key: c for key, c in countries.items() if c is not None})

    def lookup(self, key: str) -> CountryCode | None:
        """``key``: a placename's ``normalize_name``."""
        return self._countries.get(key)


def kb_lookup(key: str, kb: KnowledgeBase) -> CountryCode | None:
    """Exact lookup of a normalized placename in the local knowledge base.

    A wrapper kept as a patch point: the benchmark's tracer
    (``perfbench/tracing.py``) times the kb layer by replacing this name
    (ROADMAP item 3), and ``tests/test_trace_targets.py`` fails if it is
    inlined or renamed."""
    return kb.lookup(key)


# --- remote geocoding --------------------------------------------------------

def _replay_row(obj) -> tuple[str, list[GeocoderResult]]:
    """A replay row's normalized query and its results, each field checked;
    a result's ``iso3`` may be missing (null), and its ``importance`` is
    whatever ``float()`` reads (0.0 if missing)."""
    query = _typed("query", obj["query"], str)
    results = []
    for i, r in enumerate(_typed("results", obj["results"], list)):
        at = f"results[{i}]"
        r = _typed(at, r, dict)
        results.append(GeocoderResult(_typed(f"{at}.display_name", r["display_name"], str),
                                      _typed(f"{at}.iso3", r.get("iso3"), str, NoneType),
                                      float(r.get("importance", 0.0))))
    return normalize_name(query), results


class ReplayGeocoderClient:
    """Serves recorded responses from a JSONL file; unknown queries get []."""

    max_inflight = 1

    def __init__(self, path: Path):
        self._responses: dict[str, list[GeocoderResult]] = dict(read_jsonl(path, _replay_row))

    def geocode(self, query: str) -> list[GeocoderResult]:
        return self._responses.get(normalize_name(query), [])


class LiveGeocoderClient:
    """Client for a Nominatim-style JSON endpoint: one HTTP/1.0 GET per
    query (``httpget``).

    An ``https`` endpoint's certificate and hostname are verified against
    the default trust store, loaded once per client. Redirects are not
    followed, and neither are proxies: an endpoint that the environment's
    proxy variables would route through a proxy is refused with
    ``ValueError``. Enforces a bounded number of in-flight requests and a
    global minimum delay between request starts. Alpha-2 country codes in
    the answers map to alpha-3 through ``registry`` (the bundled one by
    default).
    """

    def __init__(self, endpoint: str | None = None, min_delay_ms: int = 1000,
                 max_inflight: int = 2, timeout: float = 10.0,
                 registry: CountryRegistry | None = None):
        from .httpget import proxy_variable

        self.endpoint = (endpoint or os.environ.get(DEFAULT_ENDPOINT_ENV)
                         or DEFAULT_ENDPOINT)
        proxy = proxy_variable(self.endpoint)
        if proxy is not None:
            raise ValueError(f"{proxy} is set, but the live geocoder cannot go "
                             "through a proxy: unset it, or add the endpoint's "
                             "host to NO_PROXY")
        self.min_delay = min_delay_ms / 1000.0
        self.timeout = timeout
        self.registry = registry
        self.max_inflight = max_inflight
        self._gate = threading.Semaphore(max_inflight)
        self._tls = None  # the https context, made at the first https request
        self._lock = threading.Lock()
        self._last_request = 0.0

    def geocode(self, query: str) -> list[GeocoderResult]:
        """One request; raises as ``httpget.get`` does."""
        from urllib.parse import urlencode

        from .httpget import get

        params = urlencode({"q": query, "format": "jsonv2", "addressdetails": 1})
        sep = "&" if "?" in self.endpoint else "?"
        url = f"{self.endpoint}{sep}{params}"
        with self._gate:
            with self._lock:
                wait = self._last_request + self.min_delay - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                self._last_request = time.monotonic()
            if self._tls is None and url[:6].lower() == "https:":
                import ssl
                self._tls = ssl.create_default_context()
            body = get(url, "coverage-auditor/0.1", self.timeout, self._tls)
        payload = json.loads(body)
        registry = self.registry or default_registry()
        results = []
        for item in payload:
            country = _country_from_payload(item, registry)
            results.append(GeocoderResult(
                display_name=item.get("display_name", ""),
                iso3=country.iso3 if country else None,
                importance=float(item.get("importance", 0.0)),
            ))
        return results


def _country_from_payload(item: dict, registry: CountryRegistry) -> CountryCode | None:
    address = item.get("address") or {}
    code = address.get("country_code") or item.get("country_code")
    return registry.from_iso2(code) if code else None


def remote_geocode(placename: str, client: GeocoderClient,
                   retries: int = 2, backoff: float = 0.2,
                   registry: CountryRegistry | None = None) -> CountryCode | None:
    """One query; returns the most important result carrying a country.

    Importance ties break lexicographically on display_name. Network
    failures are retried up to ``retries`` times; the last one is raised.
    """
    registry = registry or default_registry()
    attempt = 0
    while True:
        try:
            results = client.geocode(placename)
            break
        except Exception:
            attempt += 1
            if attempt > retries:
                raise
            time.sleep(backoff * attempt)

    with_country = [r for r in results if r.iso3]
    if not with_country:
        return None
    best = min(with_country, key=lambda r: (-r.importance, r.display_name))
    return registry.get_optional(best.iso3)


# --- whole-text inference ----------------------------------------------------

class AliasScanInferencer:
    """Scan sentence then title for country names/demonyms; first hit wins.

    Both are normalized and split into words, and a ``PhraseMatcher`` over
    the registry's normalized aliases finds the leftmost alias; at one
    word, the alias of the most words wins, so "South Sudan" is never read
    as "Sudan". Normalized text is runs of word characters separated by
    single spaces, so this is the leftmost, then longest, alias found at
    word boundaries.
    """

    def __init__(self, registry: CountryRegistry):
        self._aliases = PhraseMatcher(dict(registry.alias_items()))

    def __call__(self, sentence: str, title: str) -> CountryCode | None:
        for text in (sentence, title):
            for _, _, country in self._aliases.matches(normalize_name(text).split()):
                return country
        return None


def context_infer(sentence: str, title: str,
                  inferencer: CountryInferencer) -> CountryCode | None:
    """Infer a country from the candidate's whole text.

    A wrapper kept as a patch point, like ``kb_lookup``: the benchmark's
    tracer times context inference by replacing this name (ROADMAP item 3),
    and ``tests/test_trace_targets.py`` fails if it is inlined or renamed."""
    return inferencer(sentence, title)


# --- cache and cascade -------------------------------------------------------

class GeoCache:
    """Append-only JSONL file of one live geocoder's answers (a file per
    endpoint, see ``geocache_path``), keyed by normalized query.

    A row holds an iso3 or null ("no result with a country"); kb hits,
    context inferences and failed lookups are never rows, and rows of any
    other stage (older caches) are ignored on load. ``answers`` holds the
    rows found on load; appends are serialized. No TTL: places rarely move
    countries.
    """

    _STAGE = ResolverStage.REMOTE_GEOCODER.value

    def __init__(self, path: Path):
        self.path = path
        self.answers: dict[str, str | None] = {}  # normalized query -> iso3
        self._lock = threading.Lock()
        if path.exists():
            data = path.read_bytes()
            end = data.rfind(b"\n") + 1
            if end < len(data):  # a run killed mid-append: cut its torn row off
                log.warning("geocache %s: dropping torn last line %r", path, data[end:])
                os.truncate(path, end)
            rows = read_jsonl(path, lambda obj: (
                _typed("stage", obj["stage"], str), _typed("query", obj["query"], str),
                _typed("result", obj["result"], str, NoneType)))
            self.answers = {query: iso3 for stage, query, iso3 in rows
                            if stage == self._STAGE}

    def put(self, key: str, iso3: str | None) -> None:
        """Append the answer for the normalized query ``key``."""
        row = json.dumps({
            "query": key, "result": iso3, "stage": self._STAGE,
            "fetched_at": datetime.now(timezone.utc).isoformat(),
        }, sort_keys=True)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(row + "\n")


def geocache_path(cache_dir: Path, endpoint: str) -> Path:
    """The cache file of one live geocoder, named by a digest of its
    endpoint URL, so that one endpoint's answers never answer for
    another's."""
    digest = hashlib.sha256(endpoint.encode("utf-8")).hexdigest()[:16]
    return cache_dir / f"geocache-{digest}.jsonl"


class CascadeResolver:
    """kb_lookup -> remote_geocode -> context_infer, first success wins.

    ``failures`` counts names whose geocoder lookup failed after retries.
    Without a ``cache``, no answer outlives the run; with ``refresh``, the
    cache's earlier answers are not read, but new ones are still appended.
    Prefetch's pool threads only look names up; the thread that calls
    ``prefetch`` and ``resolve`` records each answer and appends to the cache.
    """

    def __init__(self, kb: KnowledgeBase, client: GeocoderClient,
                 registry: CountryRegistry, cache: GeoCache | None = None,
                 refresh: bool = False):
        self.kb = kb
        self.client = client
        self.registry = registry
        self.cache = cache
        # normalized name -> iso3 or None, as earlier runs' requests answered
        self._earlier = {} if cache is None or refresh else cache.answers
        self.inferencer = AliasScanInferencer(registry)
        self.failures = 0
        # normalized name -> (country or None, GAZETTEER, REMOTE_GEOCODER or UNRESOLVED)
        self._answers: dict[str, tuple[CountryCode | None, ResolverStage]] = {}
        self._keys: dict[str, str] = {}  # raw spelling -> normalized name

    def _key(self, name: str) -> str:
        """``normalize_name(name)``, once per spelling: the kb's and cache's key."""
        key = self._keys.get(name)
        if key is None:
            key = self._keys[name] = normalize_name(name)
        return key

    def _lookup(self, name: str, key: str) -> tuple[CountryCode | None, ResolverStage, bool]:
        """What ``name`` (normalized: ``key``) alone resolves to: kb, then
        earlier runs' answers, then the geocoder, UNRESOLVED if it fails;
        and whether the geocoder answered, so that ``_record`` caches its
        answer. Writes nothing, so it may run on prefetch's pool threads."""
        country = kb_lookup(key, self.kb)
        if country is not None:
            return country, ResolverStage.GAZETTEER, False
        stage = ResolverStage.REMOTE_GEOCODER
        if key in self._earlier:
            iso3 = self._earlier[key]
            return (self.registry.get_optional(iso3) if iso3 else None), stage, False
        try:
            country = remote_geocode(name, self.client, registry=self.registry)
        except Exception as exc:
            log.warning("geocoder failed for %r after retries: %s", name, exc)
            return None, ResolverStage.UNRESOLVED, False
        return country, stage, True

    def _record(self, key: str, country: CountryCode | None,
                stage: ResolverStage, fetched: bool) -> None:
        """Hold ``_lookup``'s answer for ``key``, count a failed lookup, and
        append a fetched answer to the cache file, if there is one."""
        if stage is ResolverStage.UNRESOLVED:
            self.failures += 1
        if fetched and self.cache is not None:
            self.cache.put(key, country.iso3 if country else None)
        self._answers[key] = country, stage

    def prefetch(self, placenames: Iterable[str], workers: int) -> None:
        """Answer the distinct names not answered yet, ``workers`` at a
        time, so that geocoder requests overlap, each recorded on this
        thread as it completes; with one worker, in order on this thread.
        A lookup that raises, or an interrupt, cancels those not yet begun."""
        todo: dict[str, str] = {}  # normalized -> first raw spelling
        for name in placenames:
            key = self._key(name)
            if key not in self._answers:
                todo.setdefault(key, name)
        if workers <= 1:
            for key, name in todo.items():
                self._record(key, *self._lookup(name, key))
            return
        from concurrent.futures import ThreadPoolExecutor, as_completed

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            pending = {pool.submit(self._lookup, name, key): key
                       for key, name in todo.items()}
            for done in as_completed(pending):
                self._record(pending[done], *done.result())
        finally:
            pool.shutdown(cancel_futures=True)

    def resolve(self, placename: str, sentence: str = "",
                title: str = "") -> PlaceMention:
        key = self._key(placename)
        if key not in self._answers:
            self._record(key, *self._lookup(placename, key))
        country, stage = self._answers[key]
        if country is None:
            country = context_infer(sentence, title, self.inferencer)
            stage = (ResolverStage.CONTEXT_INFERENCE if country
                     else ResolverStage.UNRESOLVED)
        return PlaceMention(placename, country, stage)
