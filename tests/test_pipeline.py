"""run_pipeline: in-process handoff between stages, resume, manifest counts
and the per-geocoder cache file, on the hermetic e2e fixture."""

import bz2
import gzip
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverage_auditor import geocode, pipeline
from coverage_auditor.cli import main
from coverage_auditor.analysis import StratumReport
from coverage_auditor.countries import CountryRegistry
from coverage_auditor.dates import DateMention
from coverage_auditor.pipeline import (ARTIFACTS, STAGE_TABLE, STAGES, PipelineConfig,
                                       run_pipeline)
from coverage_auditor.places import GazetteerSpotter
from conftest import FIXTURES
from test_corpus import KERALA_REDIRECTS, MEDIAWIKI_XML
from test_live_geocoder import _answer, _e2e_answers, serve  # noqa: F401 (a fixture)

E2E = FIXTURES / "e2e"
README = Path(__file__).resolve().parents[1] / "README.md"
E2E_LINES = (E2E / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
# A second article under the id of the fixture's first, with other text; its
# flood sentence has the same (paragraph, sentence) position as one of the
# first's, so the two tie on every key later stages sort or join on.
DUPLICATE = json.dumps({
    "article_id": "hurricane-irma", "title": "Flooding in Havana",
    "paragraphs": ["Irma crossed Cuba in early September 2017.",
                   "On September 10, 2017, Hurricane Irma caused severe "
                   "flooding in Havana, Cuba."]})


@pytest.fixture(autouse=True)
def _no_env_cache(monkeypatch):
    monkeypatch.delenv(pipeline.CACHE_DIR_ENV, raising=False)


def _outputs(out):
    """Every file a run wrote except its manifest, by name."""
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


def _statuses(out):
    manifest = json.loads((out / "manifest.json").read_text())
    return [s["status"] for s in manifest["stages"]]


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("fresh") / "run"
    assert main(["run", "--config", str(E2E / "config.ini"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("k", range(len(STAGES)))
def test_resumed_run_equals_fresh_run(fresh, tmp_path, k):
    out = tmp_path / "run"
    shutil.copytree(fresh, out)
    for stage in STAGES[k:]:
        (out / ARTIFACTS[stage]).unlink()
    assert main(["run", "--config", str(E2E / "config.ini"), "--out", str(out)]) == 0
    assert _statuses(out) == ["skipped"] * k + ["ran"] * (len(STAGES) - k)
    assert _outputs(out) == _outputs(fresh)


@pytest.mark.parametrize("stage", STAGES)
def test_single_stage_command_equals_fresh_run(fresh, tmp_path, stage):
    out = tmp_path / "run"
    shutil.copytree(fresh, out)
    (out / ARTIFACTS[stage]).unlink()
    assert main([stage, "--config", str(E2E / "config.ini"), "--out", str(out)]) == 0
    assert _statuses(out) == ["ran"]
    assert _outputs(out) == _outputs(fresh)


def test_end_date_past_the_calendar_is_rejected(fresh, tmp_path):
    inputs = tmp_path / "in"
    shutil.copytree(E2E, inputs)
    with open(inputs / "floodlist.csv", "a", encoding="utf-8") as fh:
        fh.write("Pakistan,9999-12-30,,1,,floods,FL-901\n")
    out = tmp_path / "run"
    assert main(["run", "--config", str(inputs / "config.ini"), "--out", str(out)]) == 0
    rejects = [json.loads(line)
               for line in (out / "gt_rejects.jsonl").read_text().splitlines()]
    assert {"source": "normalize", "line": 0, "record": "floodlist:FL-901",
            "reason": "imputed end_date past 9999-12-31"} in rejects
    assert len(rejects) == len((fresh / "gt_rejects.jsonl").read_text().splitlines()) + 1
    for stage in STAGES:
        assert (out / ARTIFACTS[stage]).read_bytes() == (fresh / ARTIFACTS[stage]).read_bytes()


@pytest.mark.parametrize("stage", [s for s in STAGES if STAGE_TABLE[s].decode])
def test_stage_failing_mid_write_leaves_no_artifact(fresh, tmp_path, monkeypatch, stage):
    k, row_type = STAGES.index(stage), STAGE_TABLE[stage].decode
    to_json_line = row_type.to_json_line
    written = []

    def failing_after_three(self):
        if len(written) == 3:
            raise RuntimeError("disk gone")
        written.append(self)
        return to_json_line(self)
    out = tmp_path / "run"
    with monkeypatch.context() as m:
        m.setattr(row_type, "to_json_line", failing_after_three)
        assert main(["run", "--config", str(E2E / "config.ini"), "--out", str(out)]) == 4
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [ARTIFACTS[s] for s in STAGES[:k]] + ["gt_rejects.jsonl"] * (k > 0)
        + ["manifest.json"])

    assert main(["run", "--config", str(E2E / "config.ini"), "--out", str(out)]) == 0
    assert _statuses(out) == ["skipped"] * k + ["ran"] * (len(STAGES) - k)
    assert _outputs(out) == _outputs(fresh)


@pytest.mark.parametrize("n", [0, 1, 300])
def test_write_jsonl_writes_one_dumps_line_per_row(tmp_path, n):
    rows = [{"id": i, "text": "Überschwemmung in Köln — 洪水 \"ſ\"\n",
             "nested": {"b": [1.5, None, -0.1], "a": {"z": 1e-7, "y": True}},
             "ratio": i / 7, "missing": None} for i in range(n)]
    path = tmp_path / "rows.jsonl"
    assert pipeline.write_jsonl(path, (row for row in rows)) == n
    assert path.read_bytes() == "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
        for r in rows).encode("utf-8")


def test_run_loads_the_country_registry_once(monkeypatch, tmp_path):
    loads = []
    load = CountryRegistry.load
    monkeypatch.setattr(CountryRegistry, "load",
                        lambda *args: loads.append(args) or load(*args))
    cfg = PipelineConfig.from_ini(E2E / "config.ini")
    run_pipeline(cfg, tmp_path / "run")
    assert len(loads) == 1
    # a stage on its own loads its own
    run_pipeline(cfg, tmp_path / "run", resume=False, stages=["match"])
    assert len(loads) == 2


def test_open_ended_event_date_runs_under_both_strategies(tmp_path):
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    with open(inputs / "floodlist.csv", "a", encoding="utf-8") as fh:
        fh.write("Pakistan,2012-08-01,9999-12-31,1,,floods,FL-900\n")
    with open(inputs / "emdat.csv", "a", encoding="utf-8") as fh:
        fh.write("PAK,Pakistan,2012-08-02,9999-12-31,1,,Flood,EM-2012-0900\n")
    out = tmp_path / "run"
    assert main(["run", "--config", str(inputs / "config.ini"), "--out", str(out)]) == 0
    events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    assert any(e["end_date"] == "9999-12-31" for e in events)
    assert main(["match", "--config", str(inputs / "config.ini"), "--out", str(out),
                 "--strategy", "ym"]) == 0


@pytest.fixture()
def read_calls(monkeypatch):
    """File names pipeline.read_jsonl is called with, in call order."""
    calls = []
    read = pipeline.read_jsonl

    def recording(path, decode=None):
        calls.append(path.name)
        return read(path, decode)
    monkeypatch.setattr(pipeline, "read_jsonl", recording)
    return calls


def test_fresh_run_never_reads_an_artifact(read_calls, tmp_path):
    run_pipeline(PipelineConfig.from_ini(E2E / "config.ini"), tmp_path / "run")
    assert read_calls == []


def test_resume_decodes_each_missing_result_once(fresh, read_calls, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(fresh, out)
    for stage in ("match", "analyze"):
        (out / ARTIFACTS[stage]).unlink()
    run_pipeline(PipelineConfig.from_ini(E2E / "config.ini"), out)
    # events.jsonl serves match and analyze; matches.jsonl is never read.
    assert sorted(read_calls) == ["candidates.jsonl", "events.jsonl", "resolved.jsonl"]


@pytest.mark.parametrize("stage", STAGES)
def test_stage_reads_what_its_table_row_says(fresh, read_calls, monkeypatch,
                                             tmp_path, stage):
    upstream = [name for name in STAGE_TABLE[stage].reads if name != "registry"]
    out = tmp_path / "run"
    out.mkdir()
    for name in upstream:
        shutil.copy(fresh / ARTIFACTS[name], out)
    used = set()

    class Recording(dict):
        def __getitem__(self, name):
            used.add(name)
            return super().__getitem__(name)
    run_stage = pipeline._STAGE_FUNCS[stage]
    monkeypatch.setitem(pipeline._STAGE_FUNCS, stage,
                        lambda cfg, out_dir, held: run_stage(cfg, out_dir, Recording(held)))
    run_pipeline(PipelineConfig.from_ini(E2E / "config.ini"), out, resume=False,
                 stages=[stage])
    written = _outputs(out)
    assert ARTIFACTS[stage] in written
    assert written == {name: (fresh / name).read_bytes() for name in written}
    assert sorted(read_calls) == sorted(ARTIFACTS[name] for name in upstream)
    assert used >= set(upstream)  # the stage reads every upstream result it declares


def test_readme_stage_table_follows_the_stage_table():
    rows = [line.split(" | ") for line in README.read_text().splitlines()
            if line.startswith("| ")]
    for stage, (artifact, reads, _) in STAGE_TABLE.items():
        ((_, inputs, output),) = [r for r in rows if r[0] == f"| {stage}"]
        assert f"`{artifact}`" in output, stage
        for name in reads:
            if name != "registry":
                assert Path(ARTIFACTS[name]).stem in inputs, (stage, name)


def test_readme_lists_the_keys_of_every_row_type():
    cells = [line.split(" | ") for line in README.read_text().splitlines()]
    listed = {row[1]: row[2].removesuffix(" |") for row in cells if len(row) == 3}
    row_types = [stage.decode for stage in STAGE_TABLE.values() if stage.decode]
    for row_type in row_types + [DateMention, StratumReport]:
        name = f"`{row_type.__module__.rpartition('.')[2]}.{row_type.__name__}`"
        assert listed[name] == ", ".join(f"`{key}`" for key in row_type.json_keys), name


def test_extract_finds_dates_and_places_once_per_title(monkeypatch, tmp_path):
    dates, spots = Counter(), Counter()
    find_dates, spot = pipeline.find_dates, GazetteerSpotter.__call__

    def counting_find_dates(text):
        dates[text] += 1
        return find_dates(text)

    def counting_spot(self, text):
        spots[text] += 1
        return spot(self, text)
    monkeypatch.setattr(pipeline, "find_dates", counting_find_dates)
    monkeypatch.setattr(GazetteerSpotter, "__call__", counting_spot)
    out = tmp_path / "run"
    run_pipeline(PipelineConfig.from_ini(E2E / "config.ini"), out,
                 stages=["scan", "extract"])

    candidates = [json.loads(line) for line in
                  (out / "candidates.jsonl").read_text().splitlines()]
    titles = {c["title"] for c in candidates}
    assert len(titles) < len(candidates)  # some article has several candidates
    for counter in (dates, spots):
        assert sum(counter.values()) == len(candidates) + len(titles)
        assert all(counter[title] == 1 for title in titles)


def _counts(out, stage):
    manifest = json.loads((out / "manifest.json").read_text())
    return next(s["counts"] for s in manifest["stages"] if s["name"] == stage)


def test_consolidate_counts_source_overlap(fresh):
    counts = _counts(fresh, "consolidate")
    venn = {k: v for k, v in counts.items() if k.startswith("venn_")}
    assert set(venn) == {"venn_floodlist", "venn_emdat", "venn_dfo",
                         "venn_floodlist+emdat", "venn_floodlist+dfo",
                         "venn_emdat+dfo", "venn_floodlist+emdat+dfo"}
    assert sum(venn.values()) == counts["events_consolidated"]
    # min_sources = 2 keeps exactly the events of two or more sources.
    assert (sum(v for k, v in venn.items() if "+" in k)
            == counts["events_multi_source"])


def test_extract_counts_discards_by_reason(tmp_path):
    sentences = {
        "resolved": "Floods hit Japan on June 3, 2016.",
        "no_date": "Floods hit Japan again.",
        # Kyushu is spotted, but the replay file and the text give no country.
        "no_place": "Floods reached Kyushu on June 3, 2016.",
        "no_date_no_place": "Floods reached Kyushu again.",
    }
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"article_id": key, "title": "Floods", "paragraphs": [text]}) + "\n"
        for key, text in sentences.items()))
    cfg = PipelineConfig.from_ini(E2E / "config.ini")
    cfg.corpus, cfg.scorer = corpus, "constant:0.9"
    manifest = run_pipeline(cfg, tmp_path / "run", stages=["scan", "extract"])
    counts = manifest["stages"][1]["counts"]
    assert counts["candidates_in"] == 4
    assert counts["candidates_resolved"] == 1
    assert (counts["discarded_no_date"], counts["discarded_no_place"],
            counts["discarded_no_date_no_place"]) == (1, 1, 1)


def test_scan_counts_scorer_failures_among_dropped(monkeypatch, tmp_path):
    scores = {"kept": 0.9, "below": 0.1}

    def scorer(text):
        return scores[text.split()[1]]  # KeyError on "failed"
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"article_id": key, "title": "Floods",
                    "paragraphs": [f"Floods {key} here."]}) + "\n"
        for key in ("kept", "below", "failed")))
    monkeypatch.setattr(PipelineConfig, "make_scorer", lambda self: scorer)
    manifest = run_pipeline(PipelineConfig(corpus=corpus), tmp_path / "run",
                            stages=["scan"])
    assert manifest["stages"][0]["counts"] == {
        "articles": 3, "articles_redirect": 0, "article_rejects": 0,
        "candidates_extracted": 3,
        "candidates_scored": 1, "candidates_dropped": 2,
        "candidates_scorer_failed": 1}


def test_scan_drops_a_score_outside_the_unit_interval(monkeypatch, tmp_path, caplog):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"article_id": "a", "title": "Floods",
                                  "paragraphs": ["Floods rose here."]}) + "\n")
    monkeypatch.setattr(PipelineConfig, "make_scorer", lambda self: lambda text: 1.5)
    manifest = run_pipeline(PipelineConfig(corpus=corpus), tmp_path / "run",
                            stages=["scan"])
    counts = manifest["stages"][0]["counts"]
    assert (counts["candidates_scored"], counts["candidates_scorer_failed"]) == (0, 1)
    assert "scorer returned 1.5, outside [0, 1]" in caplog.text


def test_scan_counts_redirect_pages_apart_and_takes_no_candidate_from_them(tmp_path):
    def scan(name, pages):
        corpus = tmp_path / f"{name}.xml"
        corpus.write_text(MEDIAWIKI_XML.replace("</mediawiki>", "".join(pages) + "</mediawiki>"))
        manifest = run_pipeline(PipelineConfig(corpus=corpus), tmp_path / name,
                                stages=["scan"])
        return manifest["stages"][0]["counts"], (tmp_path / name / "candidates.jsonl").read_bytes()

    counts, candidates = scan("redirects", KERALA_REDIRECTS)
    plain_counts, plain = scan("plain", [])
    assert candidates == plain and b"REDIRECT" not in candidates
    assert counts == dict(plain_counts, articles_redirect=2)
    assert (counts["articles"], counts["article_rejects"]) == (1, 0)


def _resolved_row(out, span):
    rows = [json.loads(line) for line in (out / "resolved.jsonl").read_text().splitlines()]
    return {(r["iso3"], r["place_stage"]) for r in rows if r["place_span"] == span}


def test_geocache_answers_only_for_the_geocoder_that_wrote_it(serve, monkeypatch, tmp_path):
    cache = tmp_path / "cache"

    def run(name, cache_dir, srv):
        monkeypatch.setenv("COVAUD_GEOCODER_URL", srv.endpoint)
        cfg = PipelineConfig.from_ini(E2E / "config.ini")
        cfg.geocoder, cfg.min_delay_ms, cfg.cache_dir = "live", 0, cache_dir
        run_pipeline(cfg, tmp_path / name, stages=["scan", "extract"])
        return tmp_path / name

    first = serve(_e2e_answers())  # no answer for Kyushu
    run("first", cache, first)
    other = serve(dict(_e2e_answers(), Kyushu=[_answer("Kyushu, Japan", "jp", 0.6)]))
    warm, cold = run("warm", cache, other), run("cold", tmp_path / "cold-cache", other)
    assert _resolved_row(warm, "Kyushu") == {("JPN", "REMOTE_GEOCODER")}
    assert (warm / "resolved.jsonl").read_bytes() == (cold / "resolved.jsonl").read_bytes()
    assert len(list(cache.glob("geocache-*.jsonl"))) == 2  # one per endpoint


def test_replay_extract_opens_no_geocache(monkeypatch, tmp_path):
    """A replay run's answers are the replay file's: its resolver holds them
    for the run, and no cache is made, even one held in memory."""
    opened = []
    init = geocode.GeoCache.__init__
    monkeypatch.setattr(geocode.GeoCache, "__init__",
                        lambda self, *args: opened.append(args) or init(self, *args))
    monkeypatch.setenv(pipeline.CACHE_DIR_ENV, str(tmp_path / "cache"))
    cfg = PipelineConfig.from_ini(E2E / "config.ini")
    run_pipeline(cfg, tmp_path / "run", stages=["scan", "extract"])
    assert opened == []


def _run_on_corpus(lines, out):
    """Run the e2e config on a corpus of these JSONL lines, written next to ``out``."""
    cfg = PipelineConfig.from_ini(E2E / "config.ini")
    cfg.corpus = out.with_name(out.name + ".jsonl")
    cfg.corpus.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return run_pipeline(cfg, out)


def test_duplicated_article_id_rejects_every_copy(tmp_path):
    before = _run_on_corpus([DUPLICATE] + E2E_LINES, tmp_path / "before")
    after = _run_on_corpus(E2E_LINES + [DUPLICATE], tmp_path / "after")
    assert _outputs(tmp_path / "before") == _outputs(tmp_path / "after")
    assert b'"hurricane-irma"' not in (tmp_path / "after" / "candidates.jsonl").read_bytes()
    for manifest in before, after:
        scan = manifest["stages"][1]["counts"]
        assert (scan["articles"], scan["article_rejects"]) == (len(E2E_LINES) - 1, 2)


@pytest.fixture(scope="module")
def unshuffled(tmp_path_factory):
    out = tmp_path_factory.mktemp("unshuffled") / "run"
    _run_on_corpus(E2E_LINES + [DUPLICATE], out)
    return _outputs(out)


@settings(max_examples=10, deadline=None)
@given(lines=st.permutations(E2E_LINES + [DUPLICATE]))
def test_shuffled_corpus_changes_no_artifact(unshuffled, tmp_path_factory, lines):
    out = tmp_path_factory.mktemp("shuffled") / "run"
    _run_on_corpus(lines, out)
    assert _outputs(out) == unshuffled


def _two_streams(data):
    """Two bz2 streams back to back, as pbzip2 and multistream dumps are written."""
    half = len(data) // 2
    return bz2.compress(data[:half]) + bz2.compress(data[half:])


@pytest.mark.parametrize("name, pack, plain", [
    ("dump.bz2", bz2.compress, MEDIAWIKI_XML.encode()),
    ("dump.xml.bz2", _two_streams, MEDIAWIKI_XML.encode()),
    ("dump.xml", lambda data: b"\xef\xbb\xbf" + data, MEDIAWIKI_XML.encode()),
    ("corpus.jsonl.gz", gzip.compress, (E2E / "corpus.jsonl").read_bytes()),
    ("corpus.jsonl.bz2", bz2.compress, (E2E / "corpus.jsonl").read_bytes()),
    ("corpus.jsonl", lambda data: b"\xef\xbb\xbf" + data,
     (E2E / "corpus.jsonl").read_bytes()),
], ids=["xml-bz2", "xml-bz2-two-streams", "xml-bom", "jsonl-gz", "jsonl-bz2", "jsonl-bom"])
def test_corpus_format_is_read_from_the_corpus(tmp_path, name, pack, plain):
    """A dump however named, in one bz2 stream or two, a dump or JSONL
    corpus with a byte-order mark, or a compressed JSONL corpus scans as its
    plain, uncompressed form does: the same candidates and counts."""
    scans = []
    for corpus, data in ((tmp_path / "plain", plain), (tmp_path / name, pack(plain))):
        corpus.write_bytes(data)
        out = tmp_path / f"run-{corpus.name}"
        manifest = run_pipeline(PipelineConfig(corpus=corpus), out, stages=["scan"])
        scans.append(((out / ARTIFACTS["scan"]).read_bytes(), manifest["stages"][0]["counts"]))
    assert scans[0][0] and scans[1] == scans[0]


@pytest.mark.parametrize("name, pack", [("corpus.jsonl", bytes),
                                        ("corpus.jsonl.bz2", bz2.compress)],
                         ids=["jsonl", "jsonl-bz2"])
def test_jsonl_line_that_is_not_utf8_is_a_reject(tmp_path, name, pack):
    """It is a reject of its own, as any other bad line is, not scan's failure."""
    lines = (E2E / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    candidates = []
    for corpus, data in ((tmp_path / name, b"\xff" + b"".join(lines)),
                         (tmp_path / f"rest-{name}", b"".join(lines[1:]))):
        corpus.write_bytes(pack(data))
        out = tmp_path / f"run-{corpus.name}"
        manifest = run_pipeline(PipelineConfig(corpus=corpus), out, stages=["scan"])
        candidates.append((out / ARTIFACTS["scan"]).read_bytes())
        counts = manifest["stages"][0]["counts"]
        assert (counts["articles"], counts["article_rejects"]) == (
            len(lines) - 1, 1 if corpus.name == name else 0)
    assert candidates[0] and candidates[0] == candidates[1]


def test_bz2_corpus_is_decompressed_in_whole_pieces(tmp_path, monkeypatch):
    """The parser's 16 KiB reads are served from whole pieces, not one
    decompress call each: on a corpus that compresses well, at most one
    call per piece and one more per stream."""
    calls = []
    decompressor = bz2.BZ2Decompressor

    class Counting:
        def __init__(self):
            self._decompressor = decompressor()

        def decompress(self, data, max_length=-1):
            calls.append(max_length)
            return self._decompressor.decompress(data, max_length)

        def __getattr__(self, name):
            return getattr(self._decompressor, name)
    monkeypatch.setattr(bz2, "BZ2Decompressor", Counting)
    page = MEDIAWIKI_XML.encode()
    plain = page * (3 * pipeline._BZ2_PIECE // len(page) + 1)
    path = tmp_path / "dump.xml.bz2"
    path.write_bytes(_two_streams(plain))
    with pipeline._open_maybe_compressed(path) as fh:
        assert b"".join(iter(lambda: fh.read(16384), b"")) == plain
    pieces = -(-len(plain) // pipeline._BZ2_PIECE)
    assert pieces == 4 and len(calls) <= pieces + 2
