"""Span tracing around the pipeline's layers, from outside the program.

``instrument`` replaces the module and class attributes the pipeline looks
up at call time (``pipeline.find_dates``, ``pipeline._STAGE_FUNCS[...]``,
``corpus.segment_sentences``, ``geocode.remote_geocode``,
``GazetteerSpotter.__call__``, ...) with wrappers that record a span per
call: (id, name, start, end, parent, run id). Spans stay in memory until
the run ends. Counts are taken in the same wrappers, so every ratio is
measured where the work happens. A layer's self time is its spans'
duration minus the part of it their child spans cover.

Only the traced child process is instrumented; end-to-end numbers come
from untraced processes.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

STAGES = ["consolidate", "scan", "extract", "match", "analyze"]


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Total length covered by ``intervals``, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Sum of self time per span name; a span is (id, name, start, end,
    parent, run). Children may overlap (threads): covered time counts once."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        out[name] += (end - start) - union_length(children.get(sid, ()), start, end)
    return dict(out)


def stage_walls(spans) -> dict[str, float]:
    """Wall time of each pipeline stage, children included."""
    out = dict.fromkeys(STAGES, 0.0)
    for _, name, start, end, _, _ in spans:
        stage = name.removeprefix("pipeline.")
        if stage in out:
            out[stage] += end - start
    return out


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.latencies: list[float] = []
        self.titles: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), name, 0.0, 0.0, stack[-1] if stack else None, self.run_id]
        self.spans.append(span)
        stack.append(span[0])
        span[2] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack().pop()
        self.counts[span[1] + ".calls"] += 1

    def wrap(self, name: str, fn, hook=None):
        """Wrap a callable; ``hook(span, args, result)`` counts its outcome."""
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span)
                self.counts[name + ".errors"] += 1
                raise
            self._close(span)
            if hook is not None:
                hook(span, args, result)
            return result
        return traced

    def wrap_iter(self, name: str, fn, on_item=None, on_end=None):
        """Wrap a generator function: one span per item produced."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    self._close(span)
                    if on_end is not None:
                        on_end(args)
                    return
                self._close(span)
                if on_item is not None:
                    on_item(item)
                yield item
        return traced

    def patch(self, owner, attr: str, name: str, hook=None, iterator=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
        traced wrapper; ``iterator=(on_item, on_end)`` marks a generator
        function. A missing attribute is skipped: its metrics read 0."""
        is_dict = isinstance(owner, dict)
        if (attr not in owner) if is_dict else not hasattr(owner, attr):
            print(f"trace: {owner!r} has no {attr!r}; not traced", file=sys.stderr)
            return
        original = owner[attr] if is_dict else getattr(owner, attr)
        wrapped = (self.wrap_iter(name, original, *iterator) if iterator
                   else self.wrap(name, original, hook))
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def instrument(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are read from."""
    from coverage_auditor import corpus, countries, geocode, pipeline, places

    c = tracer.counts

    def count(key, fn):
        def hook(span, args, result):
            c[key] += fn(args, result)
        return hook

    def on_read(span, args, rows):
        c["pipeline.read_jsonl_rows"] += len(rows)
        if Path(args[0]).name == "candidates.jsonl":
            tracer.titles.update(r.get("title", "") for r in rows)
            c["candidate_articles"] = len({r.get("article_id") for r in rows})

    def on_infer(span, args, result):
        if args[0].year is None:
            c["dates.partial"] += 1
            c["dates.year_resolved"] += result.year is not None

    def on_spot(span, args, result):
        c["places.title_calls"] += args[-1] in tracer.titles
        c["places.spans"] += len(result)

    def on_request(span, args, result):
        tracer.latencies.append(span[3] - span[2])

    for stage in STAGES:
        tracer.patch(pipeline._STAGE_FUNCS, stage, f"pipeline.{stage}")
    tracer.patch(pipeline, "read_jsonl", "pipeline.read_jsonl", on_read)
    tracer.patch(pipeline, "write_jsonl", "pipeline.write_jsonl",
                 count("pipeline.write_jsonl_rows", lambda a, n: n))
    tracer.patch(pipeline, "file_digest", "pipeline.file_digest",
                 count("pipeline.file_digest_bytes", lambda a, r: os.path.getsize(a[0])))

    def on_article(item):
        c["corpus.articles"] += 1

    def on_ingest_end(args):
        c["corpus.article_rejects"] += len(args[2]) if len(args) > 2 else 0
    tracer.patch(pipeline, "ingest_articles", "corpus.ingest",
                 iterator=(on_article, on_ingest_end))
    tracer.patch(corpus, "strip_wikitext", "corpus.strip_wikitext")
    tracer.patch(corpus, "segment_sentences", "corpus.segment",
                 count("corpus.sentences", lambda a, r: len(r)))
    tracer.patch(corpus, "keyword_filter", "corpus.keyword",
                 count("corpus.keyword_hits", lambda a, r: bool(r)))
    tracer.patch(pipeline, "extract_candidates", "corpus.extract_candidates")

    def on_score(span, args, result):
        retained, dropped = result
        c["corpus.kept"] += len(retained)
        c["corpus.scored"] += len(retained) + dropped
    tracer.patch(pipeline, "filter_by_relevance", "corpus.score", on_score)

    tracer.patch(pipeline, "find_dates", "dates.find_dates",
                 count("dates.title_calls", lambda a, r: a[-1] in tracer.titles))
    tracer.patch(pipeline, "infer_year", "dates.infer_year", on_infer)
    tracer.patch(places.GazetteerSpotter, "__call__", "places.spotter", on_spot)
    tracer.patch(pipeline, "expand_candidates", "places.expand",
                 count("places.expanded", lambda a, r: bool(r)))

    def on_resolve(span, args, mention):
        c[f"geocode.stage.{mention.resolver_stage.value}"] += 1
    tracer.patch(geocode.CascadeResolver, "resolve", "geocode.resolve", on_resolve)
    tracer.patch(geocode.GeoCache, "put", "geocode.cache_put")
    tracer.patch(geocode, "kb_lookup", "geocode.kb")
    tracer.patch(geocode, "remote_geocode", "geocode.remote")
    tracer.patch(geocode, "context_infer", "geocode.context_infer")
    for cls in (geocode.LiveGeocoderClient, geocode.ReplayGeocoderClient, pipeline._EmptyClient):
        tracer.patch(cls, "geocode", "geocode.request", on_request)

    tracer.patch(countries, "normalize_name", "countries.normalize_name")
    tracer.patch(geocode, "normalize_name", "countries.normalize_name")

    tracer.patch(pipeline, "EventIndex", "matching.index")
    tracer.patch(pipeline, "match_all", "matching.match_all")
    tracer.patch(pipeline, "load_indicators", "analysis.load_indicators")
    tracer.patch(pipeline, "stratify", "analysis.stratify")
    tracer.patch(pipeline, "extract_reference_domains", "analysis.domains")
    tracer.patch(pipeline, "parse_source_records", "ground_truth.parse",
                 count("ground_truth.records", lambda a, r: len(r.records)))
    tracer.patch(pipeline, "consolidate", "ground_truth.consolidate",
                 count("ground_truth.events", lambda a, r: len(r)))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def artifact_counts(out_dir: Path) -> dict:
    """Candidate x same-country event comparisons and matches, counted
    from the run's artifacts."""
    def rows(name):
        path = out_dir / name
        if not path.exists():
            return []
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    per_country = Counter(e["country"] for e in rows("events.jsonl"))
    pairs = sum(per_country[r["iso3"]] for r in rows("resolved.jsonl"))
    return {"pairs": pairs, "matches": len(rows("matches.jsonl"))}


def layer_metrics(tracer: Tracer, out_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline invocation."""
    st = self_times(tracer.spans)
    c = tracer.counts
    t = lambda name: st.get(name, 0.0)
    n = lambda name: c.get(name, 0)
    articles = n("candidate_articles")
    resolves = n("geocode.resolve.calls")
    found = artifact_counts(out_dir)
    m = {f"pipeline.{s}_s": t(f"pipeline.{s}") for s in STAGES}
    m.update({
        "pipeline.read_jsonl_s": t("pipeline.read_jsonl"),
        "pipeline.read_jsonl_rows": n("pipeline.read_jsonl_rows"),
        "pipeline.write_jsonl_s": t("pipeline.write_jsonl"),
        "pipeline.write_jsonl_rows": n("pipeline.write_jsonl_rows"),
        "pipeline.file_digest_s": t("pipeline.file_digest"),
        "pipeline.file_digest_bytes": n("pipeline.file_digest_bytes"),
        "corpus.ingest_s": t("corpus.ingest"),
        "corpus.strip_wikitext_s": t("corpus.strip_wikitext"),
        "corpus.segment_s": t("corpus.segment"),
        "corpus.sentences": n("corpus.sentences"),
        "corpus.keyword_s": t("corpus.keyword"),
        "corpus.keyword_hit_ratio": _ratio(n("corpus.keyword_hits"), n("corpus.keyword.calls")),
        "corpus.extract_candidates_s": t("corpus.extract_candidates"),
        "corpus.score_s": t("corpus.score"),
        "corpus.keep_ratio": _ratio(n("corpus.kept"), n("corpus.scored")),
        "corpus.articles": n("corpus.articles"),
        "corpus.article_rejects": n("corpus.article_rejects"),
        "dates.find_dates_s": t("dates.find_dates"),
        "dates.find_dates_calls": n("dates.find_dates.calls"),
        "dates.title_calls_per_article": _ratio(n("dates.title_calls"), articles),
        "dates.infer_year_s": t("dates.infer_year"),
        "dates.year_resolved_ratio": _ratio(n("dates.year_resolved"), n("dates.partial")),
        "places.spotter_s": t("places.spotter"),
        "places.spotter_calls": n("places.spotter.calls"),
        "places.title_calls_per_article": _ratio(n("places.title_calls"), articles),
        "places.spans_per_call": _ratio(n("places.spans"), n("places.spotter.calls")),
        "places.expand_s": t("places.expand"),
        "places.extract_yield": _ratio(n("places.expanded"), n("places.expand.calls")),
        "geocode.resolve_s": t("geocode.resolve"),
        "geocode.resolve_calls": resolves,
        # Every resolve that misses the cache consults the kb first.
        "geocode.cache_hit_ratio": _ratio(resolves - n("geocode.kb.calls"), resolves),
        "geocode.cache_put_s": t("geocode.cache_put"),
        "geocode.kb_s": t("geocode.kb"),
        "geocode.remote_s": t("geocode.remote"),
        "geocode.remote_calls": n("geocode.remote.calls"),
        "geocode.context_infer_s": t("geocode.context_infer"),
        "geocode.context_infer_calls": n("geocode.context_infer.calls"),
        "geocode.share_kb": _ratio(n("geocode.stage.GAZETTEER"), resolves),
        "geocode.share_remote": _ratio(n("geocode.stage.REMOTE_GEOCODER"), resolves),
        "geocode.share_context": _ratio(n("geocode.stage.CONTEXT_INFERENCE"), resolves),
        "geocode.share_unresolved": _ratio(n("geocode.stage.UNRESOLVED"), resolves),
        "geocode.requests": n("geocode.request.calls"),
        "geocode.request_failures": n("geocode.request.errors"),
        "geocode.request_p50_ms": 1000 * _percentile(tracer.latencies, 0.5),
        "geocode.request_p90_ms": 1000 * _percentile(tracer.latencies, 0.9),
        "countries.normalize_name_calls": n("countries.normalize_name.calls"),
        "countries.normalize_name_s": t("countries.normalize_name"),
        "matching.index_s": t("matching.index"),
        "matching.match_all_s": t("matching.match_all"),
        "matching.pairs": found["pairs"],
        "matching.match_yield": _ratio(found["matches"], found["pairs"]),
        "analysis.load_indicators_s": t("analysis.load_indicators"),
        "analysis.stratify_s": t("analysis.stratify"),
        "analysis.domains_s": t("analysis.domains"),
        "ground_truth.parse_s": t("ground_truth.parse"),
        "ground_truth.consolidate_s": t("ground_truth.consolidate"),
        "ground_truth.records": n("ground_truth.records"),
        "ground_truth.events": n("ground_truth.events"),
    })
    return m
