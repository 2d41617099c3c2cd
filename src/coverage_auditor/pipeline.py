"""End-to-end pipeline: consolidate -> scan -> extract -> match -> analyze.

Every stage persists its output as JSON Lines in the run directory, so a
run can resume from intermediates: stages whose output file already exists
are skipped. With the replay geocoder the whole pipeline is deterministic,
and identical config + inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .analysis import AXES, extract_reference_domains, load_indicators, stratify
from .corpus import (CandidateSentence, builtin_scorer, constant_scorer,
                     extract_candidates, filter_by_relevance, ingest_articles)
from .countries import CountryRegistry
from .dates import find_dates, infer_year
from .geocode import (CascadeResolver, GeoCache, KnowledgeBase,
                      LiveGeocoderClient, ReplayGeocoderClient)
from .ground_truth import (ConsolidatedEvent, Source, consolidate,
                           filter_multi_source, impute_end_date,
                           parse_source_records, resolve_countries)
from .matching import EventIndex, Strategy, match_all
from .places import (Gazetteer, GazetteerSpotter, ResolvedCandidate,
                     expand_candidates, extract_placenames)

CACHE_DIR_ENV = "COVAUD_CACHE_DIR"

STAGES = ["consolidate", "scan", "extract", "match", "analyze"]

ARTIFACTS = {
    "consolidate": "events.jsonl",
    "scan": "candidates.jsonl",
    "extract": "resolved.jsonl",
    "match": "matches.jsonl",
    "analyze": "analysis.json",
}


class ConfigError(Exception):
    """Bad or incomplete configuration; nothing has run."""


class InputError(Exception):
    """An input file could not be parsed at all."""


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    floodlist: Path | None = None
    emdat: Path | None = None
    dfo: Path | None = None
    corpus: Path | None = None
    corpus_format: str = "jsonl"
    indicators: Path | None = None
    registry_path: Path | None = None
    alias_path: Path | None = None
    gazetteer_path: Path | None = None
    kb_path: Path | None = None
    min_sources: int = 2
    threshold: float = 0.40
    scorer: str = "builtin"
    keyword_substring: bool = False
    geocoder: str = "replay:"  # "live" or "replay:<path>"
    max_inflight: int = 2
    min_delay_ms: int = 1000
    cache_dir: Path | None = None
    refresh_cache: bool = False
    strategy: str = "ymd"
    window_days: int = 5
    axes: list[str] = field(default_factory=lambda: list(AXES))
    min_country_events: int = 5
    top_domains: int = 10
    fatalities_unknown: str = "zero"
    raw_text: str = ""  # original config file content, for hashing

    @classmethod
    def from_ini(cls, path: Path) -> "PipelineConfig":
        parser = configparser.ConfigParser()
        try:
            text = Path(path).read_text(encoding="utf-8")
            parser.read_string(text)
        except (OSError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

        base = Path(path).parent

        def _path(section, key):
            value = parser.get(section, key, fallback="").strip()
            if not value:
                return None
            p = Path(value)
            return p if p.is_absolute() else base / p

        cfg = cls(
            floodlist=_path("inputs", "floodlist"),
            emdat=_path("inputs", "emdat"),
            dfo=_path("inputs", "dfo"),
            corpus=_path("inputs", "corpus"),
            corpus_format=parser.get("inputs", "corpus_format", fallback="jsonl"),
            indicators=_path("inputs", "indicators"),
            registry_path=_path("inputs", "registry"),
            alias_path=_path("inputs", "aliases"),
            gazetteer_path=_path("extract", "gazetteer"),
            kb_path=_path("extract", "kb"),
            min_sources=parser.getint("consolidate", "min_sources", fallback=2),
            threshold=parser.getfloat("scan", "threshold", fallback=0.40),
            scorer=parser.get("scan", "scorer", fallback="builtin"),
            keyword_substring=parser.getboolean("scan", "substring", fallback=False),
            geocoder=parser.get("extract", "geocoder", fallback="replay:"),
            max_inflight=parser.getint("extract", "max_inflight", fallback=2),
            min_delay_ms=parser.getint("extract", "min_delay_ms", fallback=1000),
            cache_dir=_path("extract", "cache_dir"),
            strategy=parser.get("match", "strategy", fallback="ymd"),
            window_days=parser.getint("match", "window_days", fallback=5),
            min_country_events=parser.getint("analyze", "min_country_events", fallback=5),
            top_domains=parser.getint("analyze", "top_domains", fallback=10),
            fatalities_unknown=parser.get("analyze", "fatalities_unknown", fallback="zero"),
            raw_text=text,
        )
        axes_raw = parser.get("analyze", "axes", fallback="")
        if axes_raw.strip():
            cfg.axes = [a.strip() for a in axes_raw.split(",") if a.strip()]
        if cfg.geocoder == "replay:":
            replay = _path("extract", "replay")
            if replay is not None:
                cfg.geocoder = f"replay:{replay}"
        return cfg

    def validate(self, stages: list[str]) -> None:
        """Fail fast, before any stage executes."""
        if "consolidate" in stages:
            if not any([self.floodlist, self.emdat, self.dfo]):
                raise ConfigError("consolidate stage needs at least one source file")
            for name, p in [("floodlist", self.floodlist), ("emdat", self.emdat),
                            ("dfo", self.dfo)]:
                if p is not None and not p.exists():
                    raise ConfigError(f"{name} file not found: {p}")
        if "scan" in stages:
            if self.corpus is None or not self.corpus.exists():
                raise ConfigError(f"corpus file not found: {self.corpus}")
            if self.corpus_format not in ("jsonl", "xml"):
                raise ConfigError(f"unknown corpus format {self.corpus_format!r}")
            self.make_scorer()
        if "extract" in stages:
            if self.max_inflight < 1:
                raise ConfigError(f"max_inflight must be >= 1, got {self.max_inflight}")
            if self.min_delay_ms < 0:
                raise ConfigError(f"min_delay_ms must be >= 0, got {self.min_delay_ms}")
            if self.geocoder.startswith("replay:"):
                replay = self.geocoder[len("replay:"):]
                if replay and not Path(replay).exists():
                    raise ConfigError(f"replay file not found: {replay}")
            elif self.geocoder != "live":
                raise ConfigError(f"unknown geocoder {self.geocoder!r}")
        if "match" in stages and self.strategy not in ("ymd", "ym"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if "analyze" in stages:
            if self.indicators is None or not self.indicators.exists():
                raise ConfigError(f"indicators file not found: {self.indicators}")
            for axis in self.axes:
                if axis not in AXES:
                    raise ConfigError(f"unknown axis {axis!r}")
            if self.fatalities_unknown not in ("zero", "exclude"):
                raise ConfigError(
                    f"fatalities_unknown must be zero|exclude, got {self.fatalities_unknown!r}")

    def make_registry(self) -> CountryRegistry:
        return CountryRegistry.load(self.registry_path, self.alias_path)

    def make_scorer(self):
        if self.scorer == "builtin":
            return builtin_scorer
        if self.scorer.startswith("constant:"):
            try:
                return constant_scorer(float(self.scorer[len("constant:"):]))
            except ValueError as exc:
                raise ConfigError(f"bad scorer {self.scorer!r}: {exc}") from exc
        raise ConfigError(f"unknown scorer {self.scorer!r}")

    def make_geocoder_client(self, registry: CountryRegistry | None = None):
        if self.geocoder == "live":
            return LiveGeocoderClient(min_delay_ms=self.min_delay_ms,
                                      max_inflight=self.max_inflight,
                                      registry=registry)
        replay = self.geocoder[len("replay:"):]
        if not replay:
            return _EmptyClient()
        return ReplayGeocoderClient(Path(replay))


class _EmptyClient:
    def geocode(self, query: str):
        return []


# --- deterministic serialization ---------------------------------------------

def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_jsonl(path: Path, rows) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(dumps(row) + "\n")
            n += 1
    return n


def read_jsonl(path: Path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# --- stages --------------------------------------------------------------

def stage_consolidate(cfg: PipelineConfig, out_dir: Path) -> dict:
    registry = cfg.make_registry()
    records = []
    rejects = []
    excluded = []
    sources = [(Source.FLOODLIST, cfg.floodlist), (Source.EMDAT, cfg.emdat),
               (Source.DFO, cfg.dfo)]
    for source_id, path in sources:
        if path is None:
            continue
        try:
            with open(path, "rb") as fh:
                result = parse_source_records(fh, source_id)
        except IOError as exc:
            raise InputError(str(exc)) from exc
        records.extend(result.records)
        rejects.extend({"source": source_id.value, "line": r.line_no,
                        "reason": r.reason} for r in result.rejects)
        excluded.extend({"source": source_id.value, "line": r.line_no,
                         "reason": r.reason} for r in result.excluded)

    records = [impute_end_date(r) for r in records]
    resolved, unresolved = resolve_countries(records, registry)
    rejects.extend({"source": "normalize", "line": r.line_no, "reason": r.reason,
                    "record": r.raw} for r in unresolved)

    events = consolidate(resolved)
    kept = filter_multi_source(events, cfg.min_sources)

    write_jsonl(out_dir / "events.jsonl", (e.to_json_dict() for e in kept))
    write_jsonl(out_dir / "gt_rejects.jsonl", rejects + excluded)
    return {
        "records_parsed": len(records),
        "records_rejected": len(rejects),
        "records_excluded": len(excluded),
        "events_consolidated": len(events),
        "events_multi_source": len(kept),
    }


def stage_scan(cfg: PipelineConfig, out_dir: Path) -> dict:
    scorer = cfg.make_scorer()
    article_rejects = []
    candidates: list[CandidateSentence] = []
    n_articles = 0
    opener = _open_maybe_compressed
    with opener(cfg.corpus) as fh:
        for article in ingest_articles(fh, cfg.corpus_format, article_rejects):
            n_articles += 1
            candidates.extend(extract_candidates(article, cfg.keyword_substring))
    extracted = len(candidates)
    retained, dropped = filter_by_relevance(candidates, scorer, cfg.threshold)
    retained.sort(key=lambda c: (c.article_id, c.paragraph_index, c.sentence_index))
    write_jsonl(out_dir / "candidates.jsonl", (c.to_json_dict() for c in retained))
    return {
        "articles": n_articles,
        "article_rejects": len(article_rejects),
        "candidates_extracted": extracted,
        "candidates_scored": len(retained),
        "candidates_dropped": dropped,
    }


def _open_maybe_compressed(path: Path):
    suffix = path.suffix.lower()
    if suffix == ".bz2":
        import bz2
        return bz2.open(path, "rb")
    if suffix == ".gz":
        import gzip
        return gzip.open(path, "rb")
    return open(path, "rb")


def stage_extract(cfg: PipelineConfig, out_dir: Path) -> dict:
    registry = cfg.make_registry()
    gazetteer = Gazetteer.load(cfg.gazetteer_path, registry)
    spotter = GazetteerSpotter(gazetteer)
    kb = KnowledgeBase.load(registry, cfg.kb_path)
    cache_dir = cfg.cache_dir or _env_cache_dir()
    cache_path = None
    if cache_dir is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        cache_path = cache_dir / "geocache.jsonl"
    resolver = CascadeResolver(kb, cfg.make_geocoder_client(registry), registry,
                               cache=GeoCache(cache_path),
                               refresh=cfg.refresh_cache)

    rows = []
    resolved_candidates = 0
    discarded = 0
    candidates = [CandidateSentence.from_json_dict(d)
                  for d in read_jsonl(out_dir / "candidates.jsonl")]

    spotted = []
    for cand in candidates:
        mentions = find_dates(cand.text) + find_dates(cand.title)
        dates = [infer_year(m, cand.text, cand.paragraph_years, cand.title)
                 for m in mentions]
        places = extract_placenames(cand.text, spotter)
        places += [p for p in extract_placenames(cand.title, spotter)
                   if p.raw_span not in {q.raw_span for q in places}]
        spotted.append((cand, dates, places))

    # Remote lookups overlap here, up to max_inflight; everything that
    # writes (cache, rows) stays in candidate order below.
    resolver.prefetch((p.raw_span for _, _, places in spotted for p in places),
                      cfg.max_inflight)
    for cand, dates, places in spotted:
        resolved_places = [resolver.resolve(p.raw_span, cand.text, cand.title)
                           for p in places]
        expanded = expand_candidates(cand, dates, resolved_places)
        if expanded:
            resolved_candidates += 1
            rows.extend(rc.to_json_dict() for rc in expanded)
        else:
            discarded += 1

    write_jsonl(out_dir / "resolved.jsonl", rows)
    return {
        "candidates_in": len(candidates),
        "candidates_resolved": resolved_candidates,
        "candidates_discarded": discarded,
        "resolved_rows": len(rows),
    }


def _env_cache_dir() -> Path | None:
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(value) if value else None


def stage_match(cfg: PipelineConfig, out_dir: Path) -> dict:
    registry = cfg.make_registry()
    events = [ConsolidatedEvent.from_json_dict(d, registry)
              for d in read_jsonl(out_dir / "events.jsonl")]
    index = EventIndex(events)
    resolved = [ResolvedCandidate.from_json_dict(d, registry)
                for d in read_jsonl(out_dir / "resolved.jsonl")]
    strategy = Strategy(cfg.strategy)
    matches = match_all(resolved, index, strategy, cfg.window_days)
    rows = sorted((m.to_json_dict() for m in matches),
                  key=lambda d: (d["event_id"], d["article_id"],
                                 d["sentence_index"], d["matched_date"]))
    write_jsonl(out_dir / "matches.jsonl", rows)
    return {
        "matches": len(rows),
        "events_matched": len({r["event_id"] for r in rows}),
    }


def stage_analyze(cfg: PipelineConfig, out_dir: Path) -> dict:
    registry = cfg.make_registry()
    events = [ConsolidatedEvent.from_json_dict(d, registry)
              for d in read_jsonl(out_dir / "events.jsonl")]
    match_rows = read_jsonl(out_dir / "matches.jsonl")
    indicators = load_indicators(cfg.indicators)
    matched_ids = {r["event_id"] for r in match_rows}

    axes_out: dict[str, list[dict]] = {}
    for axis in cfg.axes:
        reports = stratify(events, matched_ids, indicators, axis,
                           min_country_events=cfg.min_country_events,
                           fatalities_unknown=cfg.fatalities_unknown)
        axes_out[axis] = [r.to_json_dict() for r in reports]
        _write_axis_csv(out_dir / f"analysis_{axis}.csv", axes_out[axis])

    matched_keys = {(r["article_id"], r["sentence_index"]) for r in match_rows}
    matched_candidates = [
        CandidateSentence.from_json_dict(d)
        for d in read_jsonl(out_dir / "candidates.jsonl")
        if (d["article_id"], d["sentence_index"]) in matched_keys
    ]
    domains, skipped = extract_reference_domains(matched_candidates,
                                                 cfg.top_domains)

    analysis = {
        "axes": axes_out,
        "domains": [[name, count] for name, count in domains],
        "domains_skipped_urls": skipped,
    }
    (out_dir / "analysis.json").write_text(
        json.dumps(analysis, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8")
    return {"axes": len(axes_out), "domains": len(domains)}


def _write_axis_csv(path: Path, rows: list[dict]) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "bucket_label", "ground_truth_count",
                         "matched_count", "hit_rate_pct"])
        for row in rows:
            writer.writerow([row["axis"], row["bucket_label"],
                             row["ground_truth_count"], row["matched_count"],
                             "" if row["hit_rate_pct"] is None else row["hit_rate_pct"]])


# --- driver --------------------------------------------------------------

_STAGE_FUNCS = {
    "consolidate": stage_consolidate,
    "scan": stage_scan,
    "extract": stage_extract,
    "match": stage_match,
    "analyze": stage_analyze,
}


def run_pipeline(cfg: PipelineConfig, out_dir: Path, resume: bool = True,
                 stages: list[str] | None = None) -> dict:
    """Execute the pipeline, returning the run manifest.

    With ``resume`` (the default), stages whose artifact already exists in
    ``out_dir`` are skipped. A stage failure stops the run; the manifest is
    still written with the failed stage marked.
    """
    stages = stages or list(STAGES)
    for stage in stages:
        if stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}")
    cfg.validate(stages)

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "tool_version": __version__,
        "config_hash": hashlib.sha256(cfg.raw_text.encode("utf-8")).hexdigest(),
        "input_digests": {},
        "stages": [],
    }
    for path in [cfg.floodlist, cfg.emdat, cfg.dfo, cfg.corpus, cfg.indicators]:
        if path is not None and path.exists():
            manifest["input_digests"][str(path)] = file_digest(path)

    failure: StageError | None = None
    for stage in STAGES:
        if stage not in stages:
            continue
        artifact = out_dir / ARTIFACTS[stage]
        if resume and artifact.exists():
            manifest["stages"].append({"name": stage, "status": "skipped",
                                       "seconds": 0.0, "counts": {}})
            continue
        started = time.perf_counter()
        try:
            counts = _STAGE_FUNCS[stage](cfg, out_dir)
        except (ConfigError, InputError):
            raise
        except Exception as exc:
            failure = StageError(stage, exc)
            manifest["stages"].append({
                "name": stage, "status": "failed",
                "seconds": round(time.perf_counter() - started, 3),
                "error": str(exc), "counts": {}})
            break
        manifest["stages"].append({
            "name": stage, "status": "ran",
            "seconds": round(time.perf_counter() - started, 3),
            "counts": counts})

    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if failure is not None:
        raise failure
    return manifest
