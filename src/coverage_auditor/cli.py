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
from .pipeline import (ARTIFACTS, PARSERS, SETTINGS, STAGES, ConfigError,
                       InputError, PipelineConfig, StageError, load_result,
                       read_jsonl, run_pipeline, text_lines)
from .rows import RowError

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

    commands = {stage: f"run the {stage} stage" for stage in STAGES}
    commands.update(run="run all stages", report="summarize a finished run")
    for command, doc in commands.items():
        p = sub.add_parser(command, help=doc)
        if command != "report":
            p.add_argument("--config", type=Path, help="INI config file")
        p.add_argument("--out", type=Path, default=Path("run"),
                       help="run directory for artifacts (default: run)")
        for s in SETTINGS:
            if s.stage == command:
                choices = f" ({'|'.join(s.choices)})" if s.choices else ""
                takes = ({"action": "store_const", "const": True} if s.kind == "bool"
                         else {"type": PARSERS[s.kind]})
                p.add_argument(s.flag, dest=s.field, **takes,
                               help=s.ini and f"overrides {s.ini}{choices}")
    sub.choices["run"].add_argument(
        "--no-resume", action="store_true",
        help="re-run stages even if their artifact exists")
    sub.choices["report"].add_argument(
        "--labels", type=Path,
        help="CSV (article_id, sentence_index, relevant) for precision")
    return parser


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = (PipelineConfig() if args.config is None
           else PipelineConfig.from_ini(args.config))
    for s in SETTINGS:
        value = getattr(args, s.field, None)
        if value is not None:
            setattr(cfg, s.field, value)
    return cfg


def cmd_report(args: argparse.Namespace) -> int:
    out_dir: Path = args.out
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"no manifest in {out_dir}", file=sys.stderr)
        return EXIT_CONFIG
    labels = _read_labels(args.labels) if args.labels is not None else {}
    version, stage_lines, failed = _parsed(
        manifest_path, lambda p: _manifest_lines(json.loads(p.read_text(encoding="utf-8"))))
    matches_path = out_dir / ARTIFACTS["match"]
    events_path = out_dir / ARTIFACTS["consolidate"]
    report = None
    # After a failed stage the artifacts on disk may be an earlier run's.
    if failed is None and matches_path.exists() and events_path.exists():
        matches = _parsed(matches_path, lambda p: load_result(out_dir, "match"))
        report = evaluate(matches, labels, len(_parsed(events_path, read_jsonl)))

    print(f"coverage-auditor {version} run report")
    for line in stage_lines:
        print(line)
    if failed is not None:
        print(f"  hit rate: n/a ({failed} failed)")
    elif report is not None:
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


def _counts(stage: dict) -> str:
    """A manifest stage's counts as ``key=value`` words, sorted by key."""
    return " ".join(f"{k}={v}" for k, v in sorted(stage["counts"].items()))


def _manifest_lines(manifest) -> tuple[str, list[str], str | None]:
    """The tool version, one report line per stage and the first failed
    stage's name, if any; a manifest of the wrong shape is a ValueError."""
    try:
        lines = [f"  {stage['name']:<12} {stage['status']:<8} {_counts(stage)}"
                 for stage in manifest["stages"]]
        failed = next((stage["name"] for stage in manifest["stages"]
                       if stage["status"] == "failed"), None)
        return manifest.get("tool_version", "?"), lines, failed
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"not a run manifest ({type(exc).__name__}: {exc})") from exc


def _parsed(path: Path, read):
    """``read(path)``; a file that does not parse (JSON or UTF-8), or a row
    that does not fit its row type, is an InputError naming the file."""
    try:
        return read(path)
    except RowError as exc:  # names the file and the line
        raise InputError(str(exc)) from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_labels(path: Path) -> dict[tuple[str, int], bool]:
    """Raises ConfigError if the file cannot be opened, InputError if it
    lacks a column or a ``sentence_index`` is not an integer."""
    labels: dict[tuple[str, int], bool] = {}
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read labels {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(text_lines(fh, f"labels {path}", InputError), restval="")
        try:
            missing = [c for c in ("article_id", "sentence_index", "relevant")
                       if c not in (reader.fieldnames or ())]
            if missing:
                raise InputError(f"labels {path}: no {', '.join(missing)} column")
            for row in reader:
                key = (row["article_id"].strip(), int(row["sentence_index"]))
                labels[key] = row["relevant"].strip() == "1"
        except (ValueError, csv.Error) as exc:
            raise InputError(f"labels {path} line {reader.line_num}: {exc}") from exc
    return labels


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args)
        # An explicitly requested stage always re-runs.
        run_all = args.command == "run"
        manifest = run_pipeline(_load_config(args), args.out,
                                resume=run_all and not args.no_resume,
                                stages=list(STAGES) if run_all else [args.command])
        for stage in manifest["stages"]:
            print(f"{stage['name']}: {stage['status']} {_counts(stage)}".rstrip())
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
