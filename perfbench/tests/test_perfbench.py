"""Tests for the benchmark's own code: generator, tracing arithmetic,
output check, geocoder stub, speed rescaling, and BENCHMARK.json."""

from __future__ import annotations

import json
import sys
import urllib.request
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import catalog  # noqa: E402
import generate  # noqa: E402
import outcheck  # noqa: E402
import run  # noqa: E402
from geostub import SERVICE_S, GeocoderStub  # noqa: E402
from tracing import self_times, union_length  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", ["wiki_sparse", "news_dense", "geocode_cold"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    generate.generate(workload, 7, tmp_path / "a")
    generate.generate(workload, 7, tmp_path / "b")
    generate.generate(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    corpus = next(name for name in a if name.startswith("corpus"))
    assert a[corpus] != c[corpus]
    assert a["floodlist.csv"] != c["floodlist.csv"]


def test_self_time_subtracts_covered_child_time():
    spans = [
        (0, "root", 0.0, 10.0, None, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (2, "b", 3.0, 6.0, 0, 0),    # overlaps a (another thread): counted once
        (3, "c", 8.0, 11.0, 0, 0),   # ends after its parent: clipped at 10
        (4, "leaf", 2.0, 3.0, 1, 0),
        (5, "leaf", 4.5, 5.0, 2, 0),
    ]
    st = self_times(spans)
    assert st["root"] == pytest.approx(10 - (5 + 2))
    assert st["a"] == pytest.approx(3 - 1)
    assert st["b"] == pytest.approx(3 - 0.5)
    assert st["c"] == pytest.approx(3)
    assert st["leaf"] == pytest.approx(1 + 0.5)
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3)


@pytest.fixture(scope="module")
def checked_run(tmp_path_factory):
    """A real pipeline run over generated news_dense inputs."""
    from coverage_auditor.pipeline import PipelineConfig, run_pipeline

    base = tmp_path_factory.mktemp("news")
    truth = generate.generate("news_dense", 3, base / "inputs")
    cfg = PipelineConfig.from_ini(base / "inputs" / "config.ini")
    cfg.cache_dir = base / "cache"
    run_pipeline(cfg, base / "out", resume=False)
    return base / "out", truth


def test_output_check_accepts_a_correct_run(checked_run):
    out, truth = checked_run
    assert truth["planted"] and truth["decoys"]
    assert outcheck.check_matches(out, truth) == []


def test_output_check_rejects_corrupted_matches(checked_run, tmp_path):
    out, truth = checked_run
    text = (out / "matches.jsonl").read_text(encoding="utf-8")
    (tmp_path / "matches.jsonl").write_text(text[: len(text) // 2] + "\n{oops\n",
                                            encoding="utf-8")
    [problem] = outcheck.check_matches(tmp_path, truth)
    assert "unreadable" in problem


def test_output_check_rejects_missing_planted_and_hit_decoy(checked_run, tmp_path):
    out, truth = checked_run
    lost = truth["planted"][0]
    rows = [line for line in (out / "matches.jsonl").read_text(encoding="utf-8").splitlines()
            if json.loads(line)["event_id"] != lost]
    rows.append(json.dumps({"event_id": truth["decoys"][0]}))
    (tmp_path / "matches.jsonl").write_text("\n".join(rows) + "\n", encoding="utf-8")
    problems = outcheck.check_matches(tmp_path, truth)
    assert any("planted" in p and lost in p for p in problems)
    assert any("decoy" in p for p in problems)


def test_digest_comparison_flags_changed_artifacts(checked_run):
    out, _ = checked_run
    first = outcheck.artifact_digests(out)
    assert "manifest.json" not in first and "matches.jsonl" in first
    assert outcheck.compare_digests(first, dict(first)) == []
    changed = dict(first, **{"matches.jsonl": "0"})
    assert outcheck.compare_digests(first, changed)


def test_geocoder_stub_serves_table_on_loopback():
    table = {"port kelvara": [{"display_name": "Port Kelvara", "importance": 0.5,
                               "address": {"country_code": "ke"}}]}
    with GeocoderStub(table) as stub:
        assert stub.url.startswith("http://127.0.0.1:")
        with urllib.request.urlopen(stub.url + "?q=Port+Kelvara&format=jsonv2",
                                    timeout=5) as resp:
            assert json.loads(resp.read()) == table["port kelvara"]
        with urllib.request.urlopen(stub.url + "?q=Nowhere", timeout=5) as resp:
            assert json.loads(resp.read()) == []
        stats = stub.take_stats()
    assert stats["arrivals"] == 2 and stats["inflight_max"] == 1
    # Two requests, one after the other, each held for the service time.
    assert stats["busy_s"] >= 2 * SERVICE_S


def test_nominal_seconds_rescale_cpu_time_only():
    # A machine at half speed: the reference task takes twice REF_S.
    slow = 2 * run.REF_S
    assert run.nominal_s(2.0, 2.0, slow) == pytest.approx(1.0)
    # One of three seconds was spent waiting; it is not rescaled.
    assert run.nominal_s(3.0, 2.0, slow) == pytest.approx(2.0)
    assert run.nominal_s(1.5, 1.5, run.REF_S) == pytest.approx(1.5)


def test_every_per_layer_metric_says_what_it_should_move():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(catalog.MOVES)
