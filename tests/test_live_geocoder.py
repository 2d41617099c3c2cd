"""LiveGeocoderClient and CascadeResolver.prefetch against an in-process
Nominatim-style HTTP server on 127.0.0.1."""

import json
import os
import shutil
import ssl
import subprocess
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.error import HTTPError
from urllib.parse import parse_qs, urlsplit

import pytest

import coverage_auditor
from coverage_auditor import geocode
from coverage_auditor.cli import main
from coverage_auditor.countries import normalize_name
from coverage_auditor.geocode import (CascadeResolver, GeoCache, GeocoderResult,
                                      KnowledgeBase, LiveGeocoderClient,
                                      geocache_path, remote_geocode)
from coverage_auditor.pipeline import PipelineConfig, run_pipeline
from coverage_auditor.places import ResolverStage

E2E = Path(__file__).parent / "fixtures" / "e2e"
PROXY_VARS = ["http_proxy", "https_proxy", "all_proxy", "no_proxy",
              "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY"]


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        srv = self.server
        query = parse_qs(urlsplit(self.path).query)["q"][0]
        with srv.lock:
            srv.queries.append(query)
            srv.user_agents.append(self.headers.get("User-Agent"))
            srv.inflight += 1
            srv.inflight_max = max(srv.inflight_max, srv.inflight)
        time.sleep(srv.delay)
        if query in srv.held:  # answered once the test sets the event
            srv.held[query].wait(timeout=30)
        # Leave the in-flight count before answering: the client may start
        # its next request as soon as it has read this one.
        with srv.lock:
            srv.inflight -= 1
        if srv.status >= 300:
            self.send_error(srv.status)
            return
        if srv.fault == "no status line":
            return  # the connection closes with nothing sent
        body = json.dumps(srv.answers.get(normalize_name(query), [])).encode()
        self.send_response(srv.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if srv.fault == "short body":
            body = body[:len(body) // 2]
        for start in range(0, len(body), srv.segment):
            self.wfile.write(body[start:start + srv.segment])

    def log_message(self, *args):
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, answers, delay, status, fault, segment, tls):
        super().__init__(("127.0.0.1", 0), _Handler)
        if tls is not None:
            self.socket = tls.wrap_socket(self.socket, server_side=True,
                                          do_handshake_on_connect=False)
        self.scheme = "http" if tls is None else "https"
        self.answers = {normalize_name(k): v for k, v in answers.items()}
        self.delay = delay
        self.status = status
        self.fault = fault  # None, "no status line" or "short body"
        self.segment = segment  # the body is written this many bytes at a time
        self.lock = threading.Lock()
        self.queries: list[str] = []
        self.user_agents: list[str] = []
        self.inflight = 0
        self.inflight_max = 0
        self.held: dict[str, threading.Event] = {}  # query -> its answer's go

    @property
    def endpoint(self) -> str:
        return f"{self.scheme}://127.0.0.1:{self.server_port}/search"


@pytest.fixture
def serve(monkeypatch):
    """serve(answers, delay=0.0, status=200, fault=None, segment=1 << 20,
    tls=None) -> a running _Server; ``tls`` is a server-side SSLContext."""
    for var in PROXY_VARS:
        monkeypatch.delenv(var, raising=False)
    running = []

    def start(answers, delay=0.0, status=200, fault=None, segment=1 << 20, tls=None):
        srv = _Server(answers, delay, status, fault, segment, tls)
        thread = threading.Thread(target=srv.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        running.append((srv, thread))
        return srv

    yield start
    for srv, thread in running:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _answer(name, alpha2, importance=0.5):
    return {"display_name": name, "importance": importance,
            "address": {"country_code": alpha2}}


@pytest.fixture(scope="module")
def kb(registry):
    return KnowledgeBase.load(registry)


def test_results_parse_and_user_agent_is_sent(serve, registry):
    srv = serve({"Coon Valley": [
        _answer("Coon Valley, Wisconsin, United States", "us", 0.45),
        {"display_name": "Coon Valley (stream)", "importance": "0.1"},
    ]})
    client = LiveGeocoderClient(srv.endpoint, min_delay_ms=0, registry=registry)
    assert client.geocode("Coon Valley") == [
        GeocoderResult("Coon Valley, Wisconsin, United States", "USA", 0.45),
        GeocoderResult("Coon Valley (stream)", None, 0.1),
    ]
    assert srv.queries == ["Coon Valley"]
    assert srv.user_agents == ["coverage-auditor/0.1"]


def test_alpha2_codes_map_through_the_registry(serve, registry):
    srv = serve({"Cochabamba": [{"display_name": "Cochabamba, Bolivia",
                                 "importance": 0.6, "country_code": "bo"}]})
    client = LiveGeocoderClient(srv.endpoint, min_delay_ms=0, registry=registry)
    assert remote_geocode("Cochabamba", client, registry=registry).iso3 == "BOL"


def test_http_error_is_retried_then_skipped(serve, registry):
    srv = serve({}, status=500)
    client = LiveGeocoderClient(srv.endpoint, min_delay_ms=0, registry=registry)
    with pytest.raises(HTTPError):
        remote_geocode("Anywhere", client, retries=2, backoff=0.0,
                       registry=registry)
    assert srv.queries == ["Anywhere"] * 3


def test_any_2xx_is_an_answer_and_redirects_are_not_followed(serve, registry):
    srv = serve({"Cochabamba": [_answer("Cochabamba, Bolivia", "bo")]}, status=203)
    client = LiveGeocoderClient(srv.endpoint, min_delay_ms=0, registry=registry)
    assert remote_geocode("Cochabamba", client, registry=registry).iso3 == "BOL"

    srv = serve({}, status=302)
    client = LiveGeocoderClient(srv.endpoint, min_delay_ms=0, registry=registry)
    with pytest.raises(HTTPError) as raised:
        remote_geocode("Cochabamba", client, retries=2, backoff=0.0,
                       registry=registry)
    assert raised.value.code == 302
    assert srv.queries == ["Cochabamba"] * 3


@pytest.mark.parametrize("env, refused", [
    ({"HTTPS_PROXY": "http://proxy:3128"}, "HTTPS_PROXY"),
    ({"https_proxy": "http://proxy:3128", "HTTPS_PROXY": ""}, "https_proxy"),
    ({"https_proxy": "", "HTTPS_PROXY": "http://proxy:3128"}, None),
    ({"HTTP_PROXY": "http://proxy:3128"}, None),  # another scheme's proxy
    ({"HTTPS_PROXY": "http://proxy:3128", "NO_PROXY": "*"}, None),
    ({"HTTPS_PROXY": "http://proxy:3128", "NO_PROXY": "localhost, .example.org"}, None),
    ({"HTTPS_PROXY": "http://proxy:3128", "NO_PROXY": "geo.example.org:8443"}, None),
    ({"HTTPS_PROXY": "http://proxy:3128", "NO_PROXY": "geo.example.org:443"},
     "HTTPS_PROXY"),
    ({"HTTPS_PROXY": "http://proxy:3128", "no_proxy": "",
      "NO_PROXY": "geo.example.org"}, "HTTPS_PROXY"),
])
def test_a_proxied_endpoint_is_refused(monkeypatch, env, refused):
    for var in PROXY_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    endpoint = "https://geo.example.org:8443/search"
    if refused is None:
        assert LiveGeocoderClient(endpoint).endpoint == endpoint
    else:
        with pytest.raises(ValueError, match=f"{refused} is set"):
            LiveGeocoderClient(endpoint)


def test_a_proxied_live_run_is_a_config_error(monkeypatch, tmp_path, capsys):
    for var in PROXY_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("COVAUD_GEOCODER_URL", "http://127.0.0.1:9/search")
    monkeypatch.setenv("HTTP_PROXY", "http://proxy:3128")
    assert main(["extract", "--config", str(E2E / "config.ini"), "--out",
                 str(tmp_path / "out"), "--geocoder", "live"]) == 2
    assert "HTTP_PROXY is set" in capsys.readouterr().err


def test_a_proxied_live_run_fails_before_any_stage(monkeypatch, tmp_path, capsys):
    for var in PROXY_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("COVAUD_GEOCODER_URL", "http://127.0.0.1:9/search")
    monkeypatch.setenv("HTTP_PROXY", "http://proxy:3128")
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    config = inputs / "config.ini"
    config.write_text(config.read_text().replace("geocoder = replay:", "geocoder = live"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "HTTP_PROXY is set" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_long_answer_in_many_segments_is_read_whole(serve, registry):
    answers = [_answer(f"Place {i}, " + "x" * 100, "bo", i / 2000) for i in range(2000)]
    srv = serve({"Place": answers}, segment=1000)
    assert len(json.dumps(answers)) > 256 * 1024
    client = LiveGeocoderClient(srv.endpoint, min_delay_ms=0, registry=registry)
    results = client.geocode("Place")
    assert [r.display_name for r in results] == [a["display_name"] for a in answers]
    assert {r.iso3 for r in results} == {"BOL"}


@pytest.mark.parametrize("fault", ["short body", "no status line"])
def test_cut_answer_is_retried_counted_and_not_cached(serve, registry, kb,
                                                      tmp_path, fault):
    srv = serve({"Coon Valley": [_answer("Coon Valley, WI", "us")]}, fault=fault)
    client = LiveGeocoderClient(srv.endpoint, min_delay_ms=0, registry=registry)
    with pytest.raises(ConnectionError):
        remote_geocode("Coon Valley", client, retries=2, backoff=0.0,
                       registry=registry)
    assert srv.queries == ["Coon Valley"] * 3

    srv.queries.clear()
    cache_path = tmp_path / "geocache.jsonl"
    resolver = CascadeResolver(kb, client, registry, cache=GeoCache(cache_path))
    assert resolver.resolve("Coon Valley").resolver_stage is ResolverStage.UNRESOLVED
    assert srv.queries == ["Coon Valley"] * 3
    assert resolver.failures == 1
    assert not cache_path.exists()


def test_http_lookup_imports_no_http_stack(serve):
    """The memory an http run saves: no urllib.request, http.client, email
    or ssl is loaded, and the transport itself only by a live client."""
    srv = serve({"Coon Valley": [_answer("Coon Valley, WI", "us")]})
    script = f"""
import sys
import coverage_auditor.pipeline
from coverage_auditor.geocode import LiveGeocoderClient, remote_geocode
assert "coverage_auditor.httpget" not in sys.modules
client = LiveGeocoderClient({srv.endpoint!r}, min_delay_ms=0)
assert remote_geocode("Coon Valley", client).iso3 == "USA"
print(sorted(m for m in sys.modules if m in ("urllib.request", "http.client", "ssl")
             or m.split(".")[0] == "email"))
"""
    src = str(Path(coverage_auditor.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert srv.queries == ["Coon Valley"]


# Loaded only by the runs that use them: the live transport, the .bz2
# reader thread, the .gz reader, TLS and the prefetch pool.
LAZY_MODULES = ["coverage_auditor.httpget", "coverage_auditor.bz2reader", "socket",
                "ssl", "gzip", "concurrent.futures"]


def _loaded_after_run(config, out, env=None):
    """The LAZY_MODULES a fresh process holds after ``coverage-auditor run``."""
    script = f"""
import sys
from coverage_auditor.cli import main
assert main(["run", "--config", {str(config)!r}, "--out", {str(out)!r}]) == 0
print(sorted(m for m in {LAZY_MODULES!r} if m in sys.modules))
"""
    src = str(Path(coverage_auditor.__file__).parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_runs_import_only_what_they_use(serve, tmp_path):
    """A replay run of the e2e fixture loads none of the lazy modules; a
    live run against an http endpoint loads no TLS."""
    assert _loaded_after_run(E2E / "config.ini", tmp_path / "replay") == "[]"

    srv = serve(_e2e_answers())
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    config = inputs / "config.ini"
    config.write_text(config.read_text().replace(
        "geocoder = replay:", "geocoder = live\nmin_delay_ms = 0"))
    loaded = _loaded_after_run(config, tmp_path / "live",
                               env={"COVAUD_GEOCODER_URL": srv.endpoint})
    assert "ssl" not in loaded and "coverage_auditor.httpget" in loaded
    assert sorted(set(srv.queries)) == ["Coon Valley", "Kyushu"]


@pytest.fixture
def self_signed(tmp_path):
    """A throwaway certificate and key for IP:127.0.0.1, made by openssl."""
    if shutil.which("openssl") is None:
        pytest.skip("openssl is not on PATH")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "ec",
                    "-pkeyopt", "ec_paramgen_curve:prime256v1", "-nodes",
                    "-keyout", str(key), "-out", str(cert), "-days", "1",
                    "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
                   check=True, capture_output=True, timeout=60)
    return cert, key


def test_https_certificate_is_verified(serve, registry, kb, tmp_path,
                                       monkeypatch, self_signed):
    cert, key = self_signed
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(cert, key)
    srv = serve({"Coon Valley": [_answer("Coon Valley, WI", "us")]}, tls=tls)
    assert srv.endpoint.startswith("https://")
    client = LiveGeocoderClient(srv.endpoint, min_delay_ms=0, registry=registry)
    cache_path = tmp_path / "geocache.jsonl"

    # Untrusted: the handshake fails, the lookup is counted and not cached.
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    untrusted = CascadeResolver(kb, client, registry, cache=GeoCache(cache_path))
    assert untrusted.resolve("Coon Valley").resolver_stage is ResolverStage.UNRESOLVED
    assert untrusted.failures == 1
    assert not cache_path.exists()
    assert srv.queries == []

    # A client loads the trust store at its first https request.
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    client = LiveGeocoderClient(srv.endpoint, min_delay_ms=0, registry=registry)
    trusted = CascadeResolver(kb, client, registry, cache=GeoCache(cache_path))
    mention = trusted.resolve("Coon Valley")
    assert mention.resolved.iso3 == "USA"
    assert mention.resolver_stage is ResolverStage.REMOTE_GEOCODER
    assert trusted.failures == 0
    assert srv.queries == ["Coon Valley"]


def test_prefetch_keeps_max_inflight(serve, registry, kb):
    names = [f"Place {i}" for i in range(24)]
    srv = serve({n: [_answer(n, "bo")] for n in names}, delay=0.01)
    client = LiveGeocoderClient(srv.endpoint, min_delay_ms=0, max_inflight=2,
                                registry=registry)
    resolver = CascadeResolver(kb, client, registry)
    workers = 4 * (os.cpu_count() or 1)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=resolver.prefetch, args=(names, workers))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
    finally:
        sys.setswitchinterval(switch)

    assert srv.inflight_max == 2
    assert sorted(srv.queries) == sorted(names)
    for name in names:
        mention = resolver.resolve(name)
        assert mention.resolved.iso3 == "BOL"
        assert mention.resolver_stage is ResolverStage.REMOTE_GEOCODER
    assert len(srv.queries) == len(names)  # resolve used the prefetched answers


def test_prefetch_records_each_answer_on_the_caller_as_it_arrives(serve, registry, kb,
                                                                   tmp_path, monkeypatch):
    """The first name's answer is held back: every other name's row is in
    the cache file before it arrives, and no pool thread writes the cache."""
    names = ["First"] + [f"Place {i}" for i in range(6)]
    srv = serve({n: [_answer(n, "bo")] for n in names})
    srv.held["First"] = threading.Event()
    client = LiveGeocoderClient(srv.endpoint, min_delay_ms=0, max_inflight=2,
                                registry=registry)
    cache_path = tmp_path / "geocache.jsonl"
    writers = []
    put = GeoCache.put

    def recording_put(self, *args):
        writers.append(threading.current_thread())
        put(self, *args)
    monkeypatch.setattr(GeoCache, "put", recording_put)
    resolver = CascadeResolver(kb, client, registry, cache=GeoCache(cache_path))
    caller = threading.Thread(target=resolver.prefetch, args=(names, 2))
    caller.start()
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            rows = cache_path.read_text().splitlines() if cache_path.exists() else []
            if len(rows) == len(names) - 1:
                break
            time.sleep(0.01)
        assert sorted(json.loads(row)["query"] for row in rows) == sorted(
            normalize_name(n) for n in names[1:])
    finally:
        srv.held["First"].set()
        caller.join(timeout=30)
    assert not caller.is_alive()
    assert json.loads(cache_path.read_text().splitlines()[-1])["query"] == "first"
    assert writers == [caller] * len(names)


class _NoAnswers:
    max_inflight = 2

    def geocode(self, query):
        return []


def test_an_error_in_a_prefetch_lookup_reaches_the_caller(registry, kb, monkeypatch):
    def kb_lookup(key, kb):
        if key == "broken":
            raise RuntimeError("lookup broke")
        return None

    monkeypatch.setattr(geocode, "kb_lookup", kb_lookup)
    resolver = CascadeResolver(kb, _NoAnswers(), registry)
    with pytest.raises(RuntimeError, match="lookup broke"):
        resolver.prefetch(["Fine", "Broken", "Also fine"], 2)


def test_an_error_in_a_prefetch_lookup_cancels_the_queued_ones(registry, kb, monkeypatch):
    """Lookups queued behind a failed one are not run: their answers would
    be dropped with the error, and a live one costs a request."""
    requests = []

    class SlowClient:
        def geocode(self, query):
            requests.append(query)
            time.sleep(0.05)
            return []

    def kb_lookup(key, kb):
        if key == "broken":
            raise RuntimeError("lookup broke")
        return None

    monkeypatch.setattr(geocode, "kb_lookup", kb_lookup)
    workers = 2
    resolver = CascadeResolver(kb, SlowClient(), registry)
    with pytest.raises(RuntimeError, match="lookup broke"):
        resolver.prefetch(["Broken"] + [f"Place {i}" for i in range(40)], workers)
    assert len(requests) <= workers + 1


def _e2e_answers():
    """The e2e replay table, as a live geocoder would answer it."""
    answers = {}
    for line in (E2E / "replay.jsonl").read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        answers[obj["query"]] = [
            _answer(r["display_name"], "us" if r["iso3"] == "USA" else None,
                    r["importance"])
            for r in obj["results"]]
    return answers


def _run_extract(tmp_path: Path, name: str, **overrides) -> Path:
    cfg = PipelineConfig.from_ini(E2E / "config.ini")
    cfg.cache_dir = tmp_path / name / "cache"
    for key, value in overrides.items():
        setattr(cfg, key, value)
    out = tmp_path / name / "out"
    run_pipeline(cfg, out, stages=["scan", "extract"])
    return out


def test_extract_requests_each_distinct_miss_once(serve, monkeypatch, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(a) + "\n" for a in [
        {"article_id": "kyushu-2012", "title": "2012 Kyushu floods", "citations": [],
         "paragraphs": ["In July 2012, torrential rains caused floods in Kyushu.",
                        "On July 14, 2012, floods also reached Coon Valley and Paris.",
                        "Floods in KYUSHU and Coon Valley receded by July 20, 2012."]},
        {"article_id": "paris-2016", "title": "2016 Paris floods", "citations": [],
         "paragraphs": ["In June 2016, the Seine flooded Paris and Coon Valley."]},
    ]))
    srv = serve(_e2e_answers())
    monkeypatch.setenv("COVAUD_GEOCODER_URL", srv.endpoint)
    # With refresh, the cache cannot hide repeated requests.
    out = _run_extract(tmp_path, "live", corpus=corpus, geocoder="live",
                       min_delay_ms=0, max_inflight=4, refresh_cache=True)

    cache_path = geocache_path(tmp_path / "live" / "cache", srv.endpoint)
    cache_rows = [json.loads(line) for line in cache_path.read_text().splitlines()]
    requested = Counter(normalize_name(q) for q in srv.queries)
    assert set(requested) == {r["query"] for r in cache_rows}
    assert set(requested.values()) == {1}
    assert set(requested) == {"kyushu", "coon valley", "paris"}
    # Each miss is mentioned by more than one candidate, so the dedupe
    # was exercised.
    texts = [normalize_name(json.loads(line)["text"]) for line in
             (out / "candidates.jsonl").read_text().splitlines()]
    for name in requested:
        assert sum(name in text for text in texts) > 1


def test_resolved_is_identical_across_max_inflight(serve, monkeypatch, tmp_path):
    srv = serve(_e2e_answers(), delay=0.005)
    monkeypatch.setenv("COVAUD_GEOCODER_URL", srv.endpoint)
    outs = [_run_extract(tmp_path, f"inflight{n}", geocoder="live",
                         min_delay_ms=0, max_inflight=n) for n in (1, 4)]
    outs.append(_run_extract(tmp_path, "replay"))
    resolved = [(out / "resolved.jsonl").read_bytes() for out in outs]
    assert b'"place_stage":"REMOTE_GEOCODER"' in resolved[0]
    assert resolved[0] == resolved[1] == resolved[2]


def test_outage_is_counted_and_not_cached(serve, monkeypatch, tmp_path, capsys):
    srv = serve({}, status=503)
    monkeypatch.setenv("COVAUD_GEOCODER_URL", srv.endpoint)
    out = _run_extract(tmp_path, "live", geocoder="live", min_delay_ms=0,
                       max_inflight=4)
    cache_dir = tmp_path / "live" / "cache"
    assert list(cache_dir.iterdir()) == []
    assert sorted(set(srv.queries)) == ["Coon Valley", "Kyushu"]
    assert main(["report", "--out", str(out)]) == 0
    assert "geocoder_failures=2" in capsys.readouterr().out

    # The same endpoint comes back up: the next run asks again, and matches
    # a run that never saw the outage.
    srv.status = 200
    srv.answers = {normalize_name(k): v for k, v in _e2e_answers().items()}
    srv.queries.clear()
    out = _run_extract(tmp_path, "rerun", geocoder="live", min_delay_ms=0,
                       cache_dir=cache_dir)
    assert sorted(srv.queries) == ["Coon Valley", "Kyushu"]
    assert geocache_path(cache_dir, srv.endpoint).exists()
    assert ((out / "resolved.jsonl").read_bytes()
            == (_run_extract(tmp_path, "replay") / "resolved.jsonl").read_bytes())
