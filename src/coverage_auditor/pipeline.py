"""End-to-end pipeline: consolidate -> scan -> extract -> match -> analyze.

``STAGE_TABLE`` gives each stage one row: the artifact it writes, what it
reads (the country registry and upstream stages) and the row type (see
``rows``) its artifact's rows decode back into. Every stage persists its
output in the run directory, so a run can resume from intermediates: stages
whose artifact already exists are skipped. Within one process the driver
hands each stage's result to the stages after it, so an artifact is decoded
only when the stage that writes it did not run in this process. With the
replay geocoder the whole pipeline is deterministic, and identical config +
inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import logging
import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple
from xml.etree.ElementTree import ParseError

from . import __version__
from .analysis import (AXES, StratumReport, extract_reference_domains,
                       load_indicators, stratify)
from .corpus import (ArticleReject, CandidateSentence, builtin_scorer,
                     constant_scorer, extract_candidates, filter_by_relevance,
                     ingest_articles, sniff_format)
from .countries import CountryRegistry, text_lines
from .dates import find_dates, infer_year
from .geocode import (CascadeResolver, GeoCache, KnowledgeBase,
                      LiveGeocoderClient, ReplayGeocoderClient, geocache_path)
from .ground_truth import (ConsolidatedEvent, Source, consolidate,
                           filter_multi_source, normalize_records,
                           parse_source_records, venn_counts)
from .matching import EventIndex, MatchResult, Strategy, match_all
from .places import (Gazetteer, GazetteerSpotter, ResolvedCandidate,
                     expand_candidates)
from .rows import read_jsonl

CACHE_DIR_ENV = "COVAUD_CACHE_DIR"

log = logging.getLogger(__name__)


class Stage(NamedTuple):
    """A stage's artifact; what it reads, ``"registry"`` and upstream stage
    names, loaded in this order; and the row type of its result (None: unread)."""
    artifact: str
    reads: tuple[str, ...]
    decode: type | None


# The stages in run order.
STAGE_TABLE = {
    "consolidate": Stage("events.jsonl", ("registry",), ConsolidatedEvent),
    "scan": Stage("candidates.jsonl", (), CandidateSentence),
    "extract": Stage("resolved.jsonl", ("registry", "scan"), ResolvedCandidate),
    "match": Stage("matches.jsonl", ("registry", "consolidate", "extract"), MatchResult),
    "analyze": Stage("analysis.json", ("registry", "consolidate", "match", "scan"), None),
}
STAGES = list(STAGE_TABLE)
ARTIFACTS = {name: stage.artifact for name, stage in STAGE_TABLE.items()}


class ConfigError(Exception):
    """Bad or incomplete configuration; nothing has run."""


class InputError(Exception):
    """An input file could not be parsed at all."""


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _setting(default, ini: str | None, stage: str | None, flag: str | None = None,
             choices: tuple[str, ...] = ()):
    """A ``PipelineConfig`` field that declares its ``SETTINGS`` row (see
    ``Setting``); a list default is copied for each config."""
    row = {"setting": (ini, stage, flag, choices)}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=row)
    return field(default=default, metadata=row)


@dataclass
class PipelineConfig:
    """The settings of a run; each field declares its own ``SETTINGS`` row."""
    floodlist: Path | None = _setting(None, "inputs.floodlist", "consolidate", "--floodlist")
    emdat: Path | None = _setting(None, "inputs.emdat", "consolidate", "--emdat")
    dfo: Path | None = _setting(None, "inputs.dfo", "consolidate", "--dfo")
    min_sources: int = _setting(2, "consolidate.min_sources", "consolidate", "--min-sources")
    corpus: Path | None = _setting(None, "inputs.corpus", "scan", "--input")
    threshold: float = _setting(0.40, "scan.threshold", "scan", "--threshold")
    scorer: str = _setting("builtin", "scan.scorer", "scan", "--scorer")
    keyword_substring: bool = _setting(False, "scan.substring", "scan", "--substring")
    gazetteer_path: Path | None = _setting(None, "extract.gazetteer", "extract", "--gazetteer")
    kb_path: Path | None = _setting(None, "extract.kb", "extract", "--kb")
    # "live" or "replay:<path>"; an INI [extract] replay key sets the path.
    geocoder: str = _setting("replay:", "extract.geocoder", "extract", "--geocoder")
    max_inflight: int = _setting(2, "extract.max_inflight", "extract", "--max-inflight")
    min_delay_ms: int = _setting(1000, "extract.min_delay_ms", "extract", "--min-delay-ms")
    cache_dir: Path | None = _setting(None, "extract.cache_dir", "extract", "--cache-dir")
    refresh_cache: bool = _setting(False, None, "extract", "--refresh")
    strategy: str = _setting("ymd", "match.strategy", "match", "--strategy", ("ymd", "ym"))
    window_days: int = _setting(5, "match.window_days", "match", "--window-days")
    indicators: Path | None = _setting(None, "inputs.indicators", "analyze", "--indicators")
    axes: list[str] = _setting(list(AXES), "analyze.axes", "analyze", "--axes", tuple(AXES))
    min_country_events: int = _setting(5, "analyze.min_country_events", "analyze",
                                       "--min-country-events")
    top_domains: int = _setting(10, "analyze.top_domains", "analyze", "--top-domains")
    fatalities_unknown: str = _setting("zero", "analyze.fatalities_unknown", "analyze",
                                       "--fatalities-unknown", ("zero", "exclude"))
    registry_path: Path | None = _setting(None, "inputs.registry", None)
    alias_path: Path | None = _setting(None, "inputs.aliases", None)

    @classmethod
    def from_ini(cls, path: Path) -> "PipelineConfig":
        """The defaults, overridden by each ``SETTINGS`` key the file sets to a
        non-empty value; relative paths resolve against the file's directory.
        A section or key that names no setting is logged and ignored."""
        parser = configparser.ConfigParser()
        try:
            with open(path, "rb") as fh:
                parser.read_file(text_lines(fh, str(path), ConfigError), source=str(path))
        except (OSError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

        known = {s.ini for s in SETTINGS if s.ini} | {"extract.replay"}
        # A [DEFAULT] key is read in every section: it names a setting if it
        # names one in any section.
        defaults = parser.defaults()
        for key in defaults:
            if not any(name.endswith(f".{key}") for name in known):
                log.warning("%s: unknown key DEFAULT.%s ignored", path, key)
        sections = {name.partition(".")[0] for name in known}
        for section in parser.sections():
            if section not in sections:
                log.warning("%s: unknown section [%s] ignored", path, section)
                continue
            for key in parser.options(section):
                if f"{section}.{key}" not in known and key not in defaults:
                    log.warning("%s: unknown key %s.%s ignored", path, section, key)

        base = Path(path).resolve().parent
        cfg = cls()
        for s in SETTINGS:
            if s.ini is None:
                continue
            section, key = s.ini.split(".")
            try:
                text = parser.get(section, key, fallback="")
                if not text:
                    continue
                value = (parser.getboolean(section, key) if s.kind == "bool"
                         else PARSERS[s.kind](text))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"{s.ini}: {exc}") from exc
            setattr(cfg, s.field, base / value if isinstance(value, Path) else value)
        replay = parser.get("extract", "replay", fallback="")
        if replay and cfg.geocoder == "replay:":
            cfg.geocoder = f"replay:{base / replay}"
        return cfg

    def validate(self, stages: list[str]) -> None:
        """Fail fast, before any stage executes."""
        reads_registry = any("registry" in STAGE_TABLE[stage].reads for stage in stages)
        for s in SETTINGS:
            # The settings without a stage are the registry's files.
            if not (s.stage in stages if s.stage else reads_registry):
                continue
            value = getattr(self, s.field)
            # Scan and analyze have no default for their one input file.
            if value is None and s.field in ("corpus", "indicators"):
                raise ConfigError(f"{s.stage} needs {s.ini} ({s.flag})")
            # No count or delay is negative, and one request at least is in flight.
            low = 1 if s.field == "max_inflight" else 0
            if s.kind == "int" and value < low:
                raise ConfigError(f"{s.field} must be >= {low}, got {value}")
            if s.choices:
                for v in value if isinstance(value, list) else [value]:
                    if v not in s.choices:
                        raise ConfigError(f"{s.field} must be in {s.choices}, got {v!r}")
            # Every file setting but the cache directory, which a live
            # extract creates, names an input.
            if (s.kind == "Path | None" and s.field != "cache_dir"
                    and value is not None and not value.exists()):
                raise ConfigError(f"{s.ini.partition('.')[2]} file not found: {value}")
        if "consolidate" in stages and not any(getattr(self, source.value)
                                               for source in Source):
            raise ConfigError("consolidate stage needs at least one source file")
        if "scan" in stages:
            self.make_scorer()
        if "extract" in stages:
            if self.geocoder.startswith("replay:"):
                replay = self.geocoder[len("replay:"):]
                if replay and not Path(replay).exists():
                    raise ConfigError(f"replay file not found: {replay}")
            elif self.geocoder == "live":
                self.make_geocoder_client()  # refuses a proxied endpoint
            else:
                raise ConfigError(f"unknown geocoder {self.geocoder!r}")

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
            try:
                return LiveGeocoderClient(min_delay_ms=self.min_delay_ms,
                                          max_inflight=self.max_inflight,
                                          registry=registry)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        replay = self.geocoder[len("replay:"):]
        if not replay:
            return _EmptyClient()
        return ReplayGeocoderClient(Path(replay))


class Setting(NamedTuple):
    """A ``PipelineConfig`` field, its INI ``section.key``, the stage command and
    flag that override it, and the values it allows (empty: any)."""
    field: str
    ini: str | None
    stage: str | None
    flag: str | None
    choices: tuple[str, ...]
    kind: str  # the field's annotation: a key of ``PARSERS``, or ``bool``


def _comma_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


# How the text of an INI value or a flag becomes a field value. A ``bool``
# is an INI word that configparser accepts, or a flag given without a value.
PARSERS = {"Path | None": Path, "str": str, "int": int, "float": float,
           "list[str]": _comma_list}

# The one schema of the settings, read off the fields of ``PipelineConfig``.
SETTINGS = tuple(Setting(f.name, *f.metadata["setting"], f.type)
                 for f in fields(PipelineConfig))


# The client of a replay run without a replay file. The benchmark's tracer
# patches its ``geocode`` by this name, as it patches the other clients'
# (ROADMAP item 3): ``tests/test_trace_targets.py`` fails if it is inlined
# or renamed.
class _EmptyClient:
    max_inflight = 1

    def geocode(self, query: str):
        return []


# --- deterministic serialization ---------------------------------------------

# json.dumps with these keywords builds this same encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@contextmanager
def _replacing(path: Path, newline: str | None = None):
    """A file to write that is renamed over ``path`` once complete, or removed
    on error, so a resumed run never takes a partial artifact for a whole one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: Path, rows) -> int:
    """Write one compact, key-sorted JSON object per line: a row type's
    ``to_json_line()``, or a dict through ``_ENCODER``; return the count."""
    n = 0
    encode = _ENCODER.encode
    with _replacing(path) as fh:
        for row in rows:
            fh.write((encode(row) if type(row) is dict else row.to_json_line()) + "\n")
            n += 1
    return n


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# --- stages --------------------------------------------------------------

# Each stage takes ``held``, what its ``STAGE_TABLE`` row reads (the run's
# country registry and the results of upstream stages), by name, and
# returns its own result and its counts.

def stage_consolidate(cfg: PipelineConfig, out_dir: Path, held: dict) -> tuple[list, dict]:
    registry = held["registry"]
    records = []
    rejects = []
    excluded = []
    for source_id in Source:
        path = getattr(cfg, source_id.value)
        if path is None:
            continue
        try:
            with open(path, "rb") as fh:
                result = parse_source_records(fh, source_id)
        except IOError as exc:
            raise InputError(str(exc)) from exc
        records.extend(result.records)
        for into, rows in ((rejects, result.rejects), (excluded, result.excluded)):
            into.extend({"source": source_id.value, "line": r.line_no,
                         "reason": r.reason} for r in rows)

    normalized, rejected = normalize_records(records, registry)
    rejects.extend({"source": "normalize", "line": r.line_no, "reason": r.reason,
                    "record": r.raw} for r in rejected)

    events = consolidate(normalized)
    kept = filter_multi_source(events, cfg.min_sources)

    write_jsonl(out_dir / ARTIFACTS["consolidate"], kept)
    write_jsonl(out_dir / "gt_rejects.jsonl", rejects + excluded)
    counts = {
        "records_parsed": len(records),
        "records_rejected": len(rejects),
        "records_excluded": len(excluded),
        "events_consolidated": len(events),
        "events_multi_source": len(kept),
    }
    counts.update((f"venn_{key}", n) for key, n in venn_counts(events).items())
    return kept, counts


def stage_scan(cfg: PipelineConfig, out_dir: Path, held: dict) -> tuple[list, dict]:
    scorer = cfg.make_scorer()
    article_rejects = []
    redirects: list[str] = []
    candidates: list[CandidateSentence] = []
    occurrences: dict[str, int] = {}  # article_id -> articles that carry it
    try:
        with _open_maybe_compressed(cfg.corpus) as fh:
            for article in ingest_articles(fh, sniff_format(fh), article_rejects,
                                           redirects):
                occurrences[article.article_id] = occurrences.get(article.article_id, 0) + 1
                candidates.extend(extract_candidates(article, cfg.keyword_substring))
    except _CORPUS_READ_ERRORS as exc:
        raise ValueError(f"{cfg.corpus}: {exc}") from exc
    # Later stages join on (article_id, sentence_index), so a shared id would
    # merge two articles in an order the corpus decides: every copy is rejected.
    shared = {aid: n for aid, n in occurrences.items() if n > 1}
    if shared:
        candidates = [c for c in candidates if c.article_id not in shared]
        article_rejects += [ArticleReject(aid, "duplicate article_id")
                            for aid, n in shared.items() for _ in range(n)]
    extracted = len(candidates)
    scorer_failed: list[CandidateSentence] = []
    retained, dropped = filter_by_relevance(candidates, scorer, cfg.threshold,
                                            scorer_failed)
    # sentence_index counts over the whole article, so this key is unique.
    retained.sort(key=lambda c: (c.article_id, c.sentence_index))
    write_jsonl(out_dir / ARTIFACTS["scan"], retained)
    return retained, {
        "articles": len(occurrences) - len(shared),
        "articles_redirect": len(redirects),
        "article_rejects": len(article_rejects),
        "candidates_extracted": extracted,
        "candidates_scored": len(retained),
        "candidates_dropped": dropped,
        "candidates_scorer_failed": len(scorer_failed),
    }


# A corpus that cannot be decompressed (OSError, EOFError, zlib.error) or
# parsed (ParseError) fails scan under its name.
_CORPUS_READ_ERRORS = (OSError, EOFError, zlib.error, ParseError)

# Bytes of a .bz2 corpus that bz2reader's thread decompresses per read
# and hands to scan at once. One decompress call per 16 KiB read of the XML
# parser (bz2.open's way) made 108 calls on perfbench's wiki_sparse corpus
# (46 KB of bz2); whole pieces make a few, and the parser's reads are served
# from them. At most five pieces' worth (2.5 MiB) is held at once, however
# large the corpus: two queued, one being parsed, and the one being filled,
# which BZ2File holds twice while it copies its output in.
_BZ2_PIECE = 512 << 10


def _open_maybe_compressed(path: Path):
    """A binary stream of the corpus at ``path``, decompressed by its suffix;
    a ``.bz2`` one is decompressed ahead on a thread from this call on."""
    suffix = path.suffix.lower()
    if suffix == ".bz2":
        from .bz2reader import open_bz2
        return open_bz2(path, _BZ2_PIECE)
    if suffix == ".gz":
        import gzip
        return gzip.open(path, "rb")
    return open(path, "rb")


def stage_extract(cfg: PipelineConfig, out_dir: Path, held: dict) -> tuple[list, dict]:
    registry = held["registry"]
    gazetteer = Gazetteer.load(cfg.gazetteer_path, registry)
    spotter = GazetteerSpotter(gazetteer)
    kb = KnowledgeBase.load(registry, cfg.kb_path)
    client = cfg.make_geocoder_client(registry)
    # Only a live geocoder's answers cost a request: a replay run's stay in
    # memory, as the replay file already holds them.
    cache = None
    cache_dir = cfg.cache_dir or _env_cache_dir()
    if cfg.geocoder == "live" and cache_dir is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        cache = GeoCache(geocache_path(cache_dir, client.endpoint))
    resolver = CascadeResolver(kb, client, registry, cache=cache,
                               refresh=cfg.refresh_cache)

    candidates = held["scan"]
    titles: dict[str, tuple] = {}  # title -> its date mentions and place spans
    spotted = []
    for cand in candidates:
        if cand.title not in titles:
            titles[cand.title] = (find_dates(cand.title), spotter(cand.title))
        title_dates, title_spans = titles[cand.title]
        dates = [infer_year(m, cand.text, cand.paragraph_years, cand.title)
                 for m in find_dates(cand.text) + title_dates]
        # The sentence's spans, then the title's; each span once, first place kept.
        spans = list(dict.fromkeys(spotter(cand.text) + title_spans))
        spotted.append((cand, dates, spans))

    # Remote lookups overlap here, as far as the client allows; rows are
    # built in candidate order below.
    resolver.prefetch((span for _, _, spans in spotted for span in spans),
                      client.max_inflight)
    resolved = []
    resolved_candidates = 0
    discarded = dict.fromkeys(["no_date", "no_place", "no_date_no_place"], 0)
    for cand, dates, spans in spotted:
        resolved_places = [resolver.resolve(span, cand.text, cand.title)
                           for span in spans]
        expanded = expand_candidates(cand, dates, resolved_places)
        if expanded:
            resolved_candidates += 1
            resolved.extend(expanded)
            continue
        no_date = not any(d.is_matchable for d in dates)
        no_place = all(p.resolved is None for p in resolved_places)
        discarded["no_date_no_place" if no_date and no_place
                  else "no_date" if no_date else "no_place"] += 1

    write_jsonl(out_dir / ARTIFACTS["extract"], resolved)
    counts = {
        "candidates_in": len(candidates),
        "candidates_resolved": resolved_candidates,
        "resolved_rows": len(resolved),
        "geocoder_failures": resolver.failures,
    }
    counts.update((f"discarded_{reason}", n) for reason, n in discarded.items())
    return resolved, counts


def _env_cache_dir() -> Path | None:
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(value) if value else None


def stage_match(cfg: PipelineConfig, out_dir: Path, held: dict) -> tuple[list, dict]:
    index = EventIndex(held["consolidate"])
    strategy = Strategy(cfg.strategy)
    matches = sorted(match_all(held["extract"], index, strategy, cfg.window_days),
                     key=attrgetter("event_id", "article_id", "sentence_index",
                                    "matched_date"))
    write_jsonl(out_dir / ARTIFACTS["match"], matches)
    return matches, {
        "matches": len(matches),
        "events_matched": len({m.event_id for m in matches}),
    }


def stage_analyze(cfg: PipelineConfig, out_dir: Path, held: dict) -> tuple[dict, dict]:
    events, matches = held["consolidate"], held["match"]
    indicators = load_indicators(cfg.indicators)
    matched_ids = {m.event_id for m in matches}

    axes_out: dict[str, list[dict]] = {}
    for axis in cfg.axes:
        reports = stratify(events, matched_ids, indicators, axis,
                           min_country_events=cfg.min_country_events,
                           fatalities_unknown=cfg.fatalities_unknown)
        axes_out[axis] = [vars(r) for r in reports]  # its fields, named as its keys
        with _replacing(out_dir / f"analysis_{axis}.csv", newline="") as fh:
            writer = csv.writer(fh)  # None is an empty cell
            writer.writerow(StratumReport.json_keys)
            writer.writerows(row.values() for row in axes_out[axis])

    matched_keys = {(m.article_id, m.sentence_index) for m in matches}
    matched_candidates = [c for c in held["scan"]
                          if (c.article_id, c.sentence_index) in matched_keys]
    domains, skipped = extract_reference_domains(matched_candidates,
                                                 cfg.top_domains)

    analysis = {
        "axes": axes_out,
        "domains": [[name, count] for name, count in domains],
        "domains_skipped_urls": skipped,
    }
    with _replacing(out_dir / ARTIFACTS["analyze"]) as fh:
        fh.write(json.dumps(analysis, indent=2, sort_keys=True, ensure_ascii=False)
                 + "\n")
    return analysis, {"axes": len(axes_out), "domains": len(domains)}


# --- driver --------------------------------------------------------------

def load_result(out_dir: Path, name: str, registry: CountryRegistry | None = None) -> list:
    """Stage ``name``'s result, decoded from its artifact. A bad row is a RowError
    ``<artifact> line N: <field>: <problem>``."""
    artifact, _, row_type = STAGE_TABLE[name]
    return read_jsonl(out_dir / artifact,
                      lambda row: row_type.from_json_dict(row, registry))


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
    ``out_dir`` are skipped. Each stage that runs hands its result to the
    later stages of this run in memory; before a stage runs, the driver
    loads what it reads and is not held: the registry, and each upstream
    result decoded from its artifact. A stage failure stops the run; the
    manifest is still written with the failed stage marked.
    """
    stages = stages or list(STAGES)
    for stage in stages:
        if stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}")
    cfg.validate(stages)

    out_dir.mkdir(parents=True, exist_ok=True)
    # The settings this run uses, after any CLI overrides, with every path
    # absolute, so that how a path was spelled does not change the hash.
    settings = {name: value.resolve() if isinstance(value, Path) else value
                for name, value in vars(cfg).items()}
    replay = cfg.geocoder.removeprefix("replay:")
    if replay and replay != cfg.geocoder:
        settings["geocoder"] = f"replay:{Path(replay).resolve()}"
    manifest: dict = {
        "tool_version": __version__,
        "config_hash": hashlib.sha256(json.dumps(
            settings, sort_keys=True, default=str).encode("utf-8")).hexdigest(),
        "input_digests": {},
        "stages": [],
    }
    for name in ["floodlist", "emdat", "dfo", "corpus", "indicators"]:
        path = settings[name]
        if path is not None and path.exists():
            manifest["input_digests"][name] = file_digest(path)

    failure: Exception | None = None
    held: dict = {}  # stage results and the registry, handed downstream
    todo = [stage for stage in STAGES if stage in stages]
    for i, stage in enumerate(todo):
        # Drop each result once the last stage of this run that reads it is done.
        wanted = {name for later in todo[i:] for name in STAGE_TABLE[later].reads}
        held = {name: value for name, value in held.items() if name in wanted}
        entry = {"name": stage, "status": "skipped", "seconds": 0.0, "counts": {}}
        manifest["stages"].append(entry)
        if resume and (out_dir / ARTIFACTS[stage]).exists():
            continue
        started = time.perf_counter()
        try:
            reads = STAGE_TABLE[stage].reads
            for name in reads:
                if name not in held:
                    held[name] = (cfg.make_registry() if name == "registry"
                                  else load_result(out_dir, name, held.get("registry")))
            held[stage], entry["counts"] = _STAGE_FUNCS[stage](
                cfg, out_dir, {name: held[name] for name in reads})
            entry["status"] = "ran"
        except Exception as exc:
            # An input or config error keeps its exit code, raised after the manifest.
            failure = (exc if isinstance(exc, (ConfigError, InputError))
                       else StageError(stage, exc))
            entry.update(status="failed", error=str(exc))
        entry["seconds"] = round(time.perf_counter() - started, 3)
        if failure is not None:
            break

    with _replacing(out_dir / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if failure is not None:
        raise failure
    return manifest
