"""Local Nominatim-style geocoder for the geocode_cold workload.

Binds 127.0.0.1 only and answers ``GET /search?q=<name>`` with the JSON
list the generator recorded for that name (``[]`` for unknown names).
Each request takes a fixed service time, and at most ``nproc`` requests
are served at once, like a small self-hosted instance. The stub records
arrivals, the in-flight high-water mark and the busy intervals, so the
benchmark can tell whether the client overlapped its requests.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlsplit

from generate import normalize
from tracing import union_length

SERVICE_S = 0.002


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 (http.server naming)
        stub: GeocoderStub = self.server.stub
        start = stub.begin()
        try:
            query = parse_qs(urlsplit(self.path).query).get("q", [""])[0]
            body = json.dumps(stub.table.get(normalize(query), [])).encode("utf-8")
            remaining = start + SERVICE_S - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        finally:
            stub.end(start)

    def log_message(self, format, *args):
        pass


class _PoolServer(HTTPServer):
    """HTTPServer whose requests run on a fixed-size thread pool."""

    request_queue_size = 64

    def __init__(self, stub: "GeocoderStub"):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.stub = stub
        self.pool = ThreadPoolExecutor(max_workers=os.cpu_count() or 1)

    def process_request(self, request, client_address):
        self.pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


class GeocoderStub:
    def __init__(self, table: dict):
        self.table = table
        self._lock = threading.Lock()
        self._reset()
        self._server = _PoolServer(self)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/search"

    def __enter__(self) -> "GeocoderStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._server.pool.shutdown(wait=True)
        self._thread.join(timeout=10)

    def _reset(self) -> None:
        self.arrivals = 0
        self.inflight = 0
        self.inflight_max = 0
        self.busy: list[tuple[float, float]] = []

    def begin(self) -> float:
        with self._lock:
            self.arrivals += 1
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        return time.perf_counter()

    def end(self, start: float) -> None:
        end = time.perf_counter()
        with self._lock:
            self.inflight -= 1
            self.busy.append((start, end))

    def take_stats(self) -> dict:
        """Counters since the last call: arrivals, in-flight high-water
        mark, and seconds during which at least one request was in service."""
        with self._lock:
            stats = {"arrivals": self.arrivals, "inflight_max": self.inflight_max,
                     "busy_s": union_length(self.busy)}
            self._reset()
        return stats

