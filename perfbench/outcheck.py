"""Output checks behind ``failed``: planted events hit, decoys not hit,
and the same artifacts, byte for byte, on every repeat of a seed."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Holds run timings and absolute input paths, so it differs between repeats.
NOT_COMPARED = {"manifest.json"}


def check_matches(out_dir: Path, truth: dict) -> list[str]:
    """Problems with ``matches.jsonl``; empty when every planted event is
    hit and no decoy event is."""
    try:
        with open(out_dir / "matches.jsonl", encoding="utf-8") as fh:
            hit = {json.loads(line)["event_id"] for line in fh if line.strip()}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"matches.jsonl unreadable: {exc!r}"]
    problems = []
    missing = sorted(set(truth["planted"]) - hit)
    if missing:
        problems.append(f"{len(missing)} planted events not hit, e.g. {missing[:3]}")
    decoys = sorted(set(truth["decoys"]) & hit)
    if decoys:
        problems.append(f"{len(decoys)} decoy events hit, e.g. {decoys[:3]}")
    return problems


def artifact_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name not in NOT_COMPARED}


def compare_digests(first: dict[str, str], now: dict[str, str]) -> list[str]:
    differ = sorted(k for k in first.keys() | now.keys() if first.get(k) != now.get(k))
    return [f"artifacts differ from the first repeat: {differ}"] if differ else []
