"""Subcommand CLI: coverage-auditor <consolidate|scan|extract|match|analyze|report|run>.

Exit codes: 0 success, 2 config error, 3 input parse failure, 4 stage
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .matching import evaluate
from .pipeline import (ARTIFACTS, STAGES, ConfigError, InputError,
                       PipelineConfig, StageError, read_jsonl, run_pipeline)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_STAGE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverage-auditor",
        description="Audit corpus coverage of consolidated flood events.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="INI config file")
        p.add_argument("--out", type=Path, default=Path("run"),
                       help="run directory for artifacts (default: run)")
        p.add_argument("--no-resume", action="store_true",
                       help="re-run stages even if their artifact exists")

    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        add_common(p)
        if stage == "consolidate":
            p.add_argument("--floodlist", type=Path)
            p.add_argument("--emdat", type=Path)
            p.add_argument("--dfo", type=Path)
            p.add_argument("--min-sources", type=int)
        if stage == "scan":
            p.add_argument("--input", type=Path, help="corpus file")
            p.add_argument("--format", choices=["jsonl", "xml"])
            p.add_argument("--threshold", type=float)
            p.add_argument("--scorer", help="builtin|constant:<p>")
            p.add_argument("--substring", action="store_true",
                           help="substring keyword matching instead of word-boundary")
        if stage == "extract":
            p.add_argument("--geocoder", help="live|replay:<path>")
            p.add_argument("--gazetteer", type=Path)
            p.add_argument("--kb", type=Path)
            p.add_argument("--max-inflight", type=int)
            p.add_argument("--min-delay-ms", type=int)
            p.add_argument("--cache-dir", type=Path)
            p.add_argument("--refresh", action="store_true",
                           help="bypass the geocoder cache")
        if stage == "match":
            p.add_argument("--strategy", choices=["ymd", "ym"])
            p.add_argument("--window-days", type=int)
        if stage == "analyze":
            p.add_argument("--indicators", type=Path)
            p.add_argument("--axes", help="comma-separated axis list")
            p.add_argument("--min-country-events", type=int)
            p.add_argument("--top-domains", type=int)
            p.add_argument("--fatalities-unknown", choices=["zero", "exclude"])

    p = sub.add_parser("run", help="run all stages")
    add_common(p)

    p = sub.add_parser("report", help="summarize a finished run")
    add_common(p)
    p.add_argument("--labels", type=Path,
                   help="CSV (article_id, sentence_index, relevant) for precision")
    return parser


def _apply_overrides(cfg: PipelineConfig, args: argparse.Namespace) -> None:
    mapping = {
        "floodlist": "floodlist", "emdat": "emdat", "dfo": "dfo",
        "min_sources": "min_sources",
        "input": "corpus", "format": "corpus_format",
        "threshold": "threshold", "scorer": "scorer",
        "geocoder": "geocoder", "gazetteer": "gazetteer_path", "kb": "kb_path",
        "max_inflight": "max_inflight", "min_delay_ms": "min_delay_ms",
        "cache_dir": "cache_dir",
        "strategy": "strategy", "window_days": "window_days",
        "indicators": "indicators",
        "min_country_events": "min_country_events",
        "top_domains": "top_domains", "fatalities_unknown": "fatalities_unknown",
    }
    for arg_name, cfg_name in mapping.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            setattr(cfg, cfg_name, value)
    if getattr(args, "substring", False):
        cfg.keyword_substring = True
    if getattr(args, "refresh", False):
        cfg.refresh_cache = True
    axes = getattr(args, "axes", None)
    if axes:
        cfg.axes = [a.strip() for a in axes.split(",") if a.strip()]


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    if args.config is not None:
        cfg = PipelineConfig.from_ini(args.config)
    else:
        cfg = PipelineConfig()
    _apply_overrides(cfg, args)
    return cfg


def cmd_report(args: argparse.Namespace) -> int:
    out_dir: Path = args.out
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"no manifest in {out_dir}", file=sys.stderr)
        return EXIT_CONFIG
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    print(f"coverage-auditor {manifest.get('tool_version', '?')} run report")
    for stage in manifest["stages"]:
        counts = " ".join(f"{k}={v}" for k, v in sorted(stage["counts"].items()))
        print(f"  {stage['name']:<12} {stage['status']:<8} {counts}")

    matches_path = out_dir / ARTIFACTS["match"]
    events_path = out_dir / ARTIFACTS["consolidate"]
    if matches_path.exists() and events_path.exists():
        labels = _read_labels(args.labels) if args.labels is not None else {}
        report = evaluate(read_jsonl(matches_path), labels,
                          len(read_jsonl(events_path)))
        hit, total = report.hits, report.ground_truth_total
        rate = f"{100.0 * hit / total:.2f}%" if total else "n/a"
        print(f"  hit rate: {hit}/{total} = {rate}")
        if args.labels is not None:
            relevant, matched = report.relevant_matched, report.matched_candidates
            if matched:
                print(f"  precision: {relevant}/{matched} = "
                      f"{100.0 * relevant / matched:.2f}%")
            else:
                print("  precision: undefined (no matched candidates)")
            print(f"  recall: {hit}/{total} = {rate}")
    return EXIT_OK


def _read_labels(path: Path) -> dict[tuple[str, int], bool]:
    labels: dict[tuple[str, int], bool] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["article_id"].strip(), int(row["sentence_index"]))
            labels[key] = row["relevant"].strip() == "1"
    return labels


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args)
        cfg = _load_config(args)
        if args.command == "run":
            stages = list(STAGES)
            resume = not args.no_resume
        else:
            # An explicitly requested stage always re-runs.
            stages = [args.command]
            resume = False
        manifest = run_pipeline(cfg, args.out, resume=resume, stages=stages)
        for stage in manifest["stages"]:
            counts = " ".join(f"{k}={v}" for k, v in sorted(stage["counts"].items()))
            print(f"{stage['name']}: {stage['status']} {counts}".rstrip())
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StageError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
