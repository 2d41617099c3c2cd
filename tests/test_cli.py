import json
import shutil
from pathlib import Path

import pytest

from coverage_auditor.cli import main
from conftest import FIXTURES

E2E = FIXTURES / "e2e"

ARTIFACT_NAMES = ["events.jsonl", "candidates.jsonl", "resolved.jsonl",
                  "matches.jsonl", "analysis.json"]


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def finished_run(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--config", E2E / "config.ini", "--out", out) == 0
    return out


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_run_produces_all_artifacts_and_manifest(finished_run):
    for name in ARTIFACT_NAMES:
        assert (finished_run / name).exists()
    manifest = read_manifest(finished_run)
    assert [s["status"] for s in manifest["stages"]] == ["ran"] * 5
    assert manifest["tool_version"]
    assert manifest["config_hash"]
    assert len(manifest["input_digests"]) == 5


def test_rerun_is_byte_identical(finished_run, tmp_path):
    other = tmp_path / "run2"
    assert run_cli("run", "--config", E2E / "config.ini", "--out", other) == 0
    for name in ARTIFACT_NAMES:
        assert (finished_run / name).read_bytes() == (other / name).read_bytes(), name


def test_resume_skips_completed_stages(finished_run, capsys):
    capsys.readouterr()
    assert run_cli("run", "--config", E2E / "config.ini",
                   "--out", finished_run) == 0
    out = capsys.readouterr().out
    assert out.count("skipped") == 5


def test_deleting_one_artifact_reruns_only_that_stage(finished_run, capsys):
    before = {n: (finished_run / n).read_bytes() for n in ARTIFACT_NAMES}
    (finished_run / "matches.jsonl").unlink()
    capsys.readouterr()
    assert run_cli("run", "--config", E2E / "config.ini",
                   "--out", finished_run) == 0
    statuses = {line.split(":")[0]: line.split()[1]
                for line in capsys.readouterr().out.strip().splitlines()}
    assert statuses == {"consolidate": "skipped", "scan": "skipped",
                        "extract": "skipped", "match": "ran",
                        "analyze": "skipped"}
    assert (finished_run / "matches.jsonl").read_bytes() == before["matches.jsonl"]


def test_single_stage_command_always_reruns(finished_run, capsys):
    capsys.readouterr()
    assert run_cli("match", "--config", E2E / "config.ini",
                   "--out", finished_run) == 0
    assert "match: ran" in capsys.readouterr().out


def test_single_stage_flag_overrides_config(finished_run):
    before = (finished_run / "matches.jsonl").read_bytes()
    assert run_cli("match", "--config", E2E / "config.ini",
                   "--out", finished_run, "--strategy", "ym") == 0
    rows = [json.loads(l) for l in
            (finished_run / "matches.jsonl").read_text().splitlines()]
    assert all(r["strategy"] == "ym" for r in rows)
    assert (finished_run / "matches.jsonl").read_bytes() != before


def test_missing_indicators_fails_before_any_stage(tmp_path):
    broken = tmp_path / "broken.ini"
    text = (E2E / "config.ini").read_text().replace(
        "indicators = indicators.csv", "indicators = nope.csv")
    broken.write_text(text)
    for name in ("floodlist.csv", "emdat.csv", "dfo.csv", "corpus.jsonl",
                 "replay.jsonl"):
        shutil.copy(E2E / name, tmp_path / name)
    out = tmp_path / "run"
    assert run_cli("run", "--config", broken, "--out", out) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("setting", ["max_inflight = 0", "max_inflight = -1",
                                     "min_delay_ms = -1"])
def test_bad_geocoder_limits_fail_before_any_stage(tmp_path, setting):
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    config = inputs / "config.ini"
    config.write_text(config.read_text().replace("[extract]\n",
                                                 f"[extract]\n{setting}\n"))
    out = tmp_path / "run"
    assert run_cli("run", "--config", config, "--out", out) == 2
    assert not out.exists() or not any(out.iterdir())


def test_unknown_strategy_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text((E2E / "config.ini").read_text().replace(
        "strategy = ymd", "strategy = fuzzy"))
    assert run_cli("run", "--config", bad, "--out", tmp_path / "run") == 2


def test_unparsable_source_csv_is_an_input_error(tmp_path):
    for name in ("emdat.csv", "dfo.csv", "corpus.jsonl", "replay.jsonl",
                 "indicators.csv", "config.ini"):
        shutil.copy(E2E / name, tmp_path / name)
    (tmp_path / "floodlist.csv").write_text("totally,wrong,header\n1,2,3\n")
    assert run_cli("run", "--config", tmp_path / "config.ini",
                   "--out", tmp_path / "run") == 3


def test_artifacts_carry_keys_not_copies(finished_run):
    candidates = [json.loads(l) for l in
                  (finished_run / "candidates.jsonl").read_text().splitlines()]
    resolved = [json.loads(l) for l in
                (finished_run / "resolved.jsonl").read_text().splitlines()]
    assert candidates and resolved
    assert all("paragraph_years" in c and "paragraph" not in c for c in candidates)
    keys = {(c["article_id"], c["sentence_index"]) for c in candidates}
    for row in resolved:
        assert set(row) == {"article_id", "sentence_index", "iso3", "date",
                            "place_span", "place_stage"}
        assert (row["article_id"], row["sentence_index"]) in keys


def test_candidates_without_paragraph_years_fail_extract(finished_run):
    path = finished_run / "candidates.jsonl"
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    for row in rows:
        del row["paragraph_years"]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert run_cli("extract", "--config", E2E / "config.ini",
                   "--out", finished_run) == 4


def test_report_summarizes_run(finished_run, capsys):
    capsys.readouterr()
    assert run_cli("report", "--out", finished_run,
                   "--labels", E2E / "labels.csv") == 0
    out = capsys.readouterr().out
    assert "hit rate: 7/11 = 63.64%" in out
    assert "precision: 7/8 = 87.50%" in out


def test_report_without_manifest_fails(tmp_path):
    assert run_cli("report", "--out", tmp_path / "empty") == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
