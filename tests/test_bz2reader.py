"""The reader thread of a .bz2 corpus: its bytes and errors are those of
reading ``BufferedReader(BZ2File(path))`` in pieces, and no run leaves the
thread behind."""

import bz2
import io
import random
import shutil
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverage_auditor import bz2reader, pipeline
from coverage_auditor.pipeline import InputError, PipelineConfig, StageError, run_pipeline
from conftest import FIXTURES
from test_corpus import MEDIAWIKI_XML

E2E = FIXTURES / "e2e"


@st.composite
def payloads(draw) -> bytes:
    """Short arbitrary bytes, or a bulk of random bytes (whose stream crosses
    BZ2File's 8 KiB reads of compressed input) or of text (which compresses well)."""
    kind = draw(st.sampled_from(["bytes", "random", "text"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    rng = random.Random(draw(st.integers(0, 2**32)))
    size = draw(st.integers(0, 30000))
    if kind == "random":
        return rng.randbytes(size)
    return " ".join(rng.choice(["flood", "river", "rain", "1998", "\n"])
                    for _ in range(size // 5)).encode()


@st.composite
def bz2_files(draw) -> bytes:
    """1-3 streams, maybe trailing data, maybe cut short or with one byte
    changed; a cut at 0 is the empty file."""
    data = b"".join(bz2.compress(draw(payloads()), draw(st.integers(1, 9)))
                    for _ in range(draw(st.integers(1, 3))))
    data += draw(st.one_of(
        st.just(b""),
        st.binary(min_size=1, max_size=40),  # garbage
        st.binary(max_size=40).map(lambda tail: b"BZh9" + tail),  # a header, then garbage
        payloads().map(bz2.compress),  # another stream, maybe cut or changed below
    ))
    change = draw(st.sampled_from(["none", "cut", "flip"]))
    if change == "cut":
        data = data[:draw(st.integers(0, len(data)))]
    elif change == "flip" and data:
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data


def _outcome(read):
    try:
        return read()
    except Exception as exc:
        return type(exc), str(exc)


def _read_all(fh, size: int) -> bytes:
    with fh:
        return b"".join(iter(lambda: fh.read(size), b""))


@settings(max_examples=200, deadline=None)
@given(data=bz2_files(), piece=st.integers(1, 5000), fraction=st.floats(0, 1))
def test_reader_matches_a_buffered_bz2file(tmp_path_factory, data, piece, fraction):
    """Against the serial ``BufferedReader(BZ2File(path), buffer_size=piece)``,
    read as the parser reads, in reads of at most a piece; with small pieces,
    so that a file takes many."""
    path = tmp_path_factory.mktemp("bz2") / "corpus.bz2"
    path.write_bytes(data)
    size = max(1, round(piece * fraction))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_BZ2_PIECE", piece)
        threaded = _outcome(lambda: _read_all(pipeline._open_maybe_compressed(path), size))
    serial = _outcome(lambda: _read_all(
        io.BufferedReader(bz2.BZ2File(path), buffer_size=piece), size))
    assert threaded == serial


def test_a_corrupt_later_stream_fails_as_the_serial_reader_does(tmp_path):
    """A second stream whose corruption shows only after more than a piece
    of its output fails the read; it is not ignored as trailing data. The
    stream is a few hundred bytes, so the first decompress call gets all of
    it, and only that call's output bound keeps the error out of it."""
    second = bz2.compress(b"flood river rain\n" * (3 * pipeline._BZ2_PIECE // 17))
    at = len(second) - 2  # in the stream's CRC
    data = bz2.compress(b"first stream\n") + second[:at] + bytes([second[at] ^ 0xFF]) + second[at + 1:]
    path = tmp_path / "corpus.bz2"
    path.write_bytes(data)
    serial = _outcome(lambda: _read_all(
        io.BufferedReader(bz2.BZ2File(path), buffer_size=pipeline._BZ2_PIECE), 16384))
    assert serial[0] is OSError
    assert _outcome(lambda: _read_all(pipeline._open_maybe_compressed(path), 16384)) == serial


def _many_pieces(tmp_path: Path, monkeypatch, plain: bytes) -> Path:
    """``plain`` as a .bz2 file of many more pieces than the queue holds."""
    monkeypatch.setattr(pipeline, "_BZ2_PIECE", 256)
    assert len(plain) > 20 * 256
    path = tmp_path / "corpus.bz2"
    path.write_bytes(bz2.compress(plain))
    return path


def _wait_for_full_queue(stream) -> None:
    """Until the thread has filled the queue and is held at its next put."""
    deadline = time.monotonic() + 10
    while not stream.raw._queue.full():
        assert time.monotonic() < deadline, "the reader never filled its queue"
        time.sleep(0.001)


def test_close_returns_while_the_thread_waits_on_a_full_queue(tmp_path, monkeypatch):
    path = _many_pieces(tmp_path, monkeypatch, MEDIAWIKI_XML.encode() * 20)
    before = threading.enumerate()
    fh = pipeline._open_maybe_compressed(path)
    assert fh.read(10) == MEDIAWIKI_XML.encode()[:10]
    _wait_for_full_queue(fh)
    closing = threading.Thread(target=fh.close)
    closing.start()
    closing.join(timeout=1)
    assert not closing.is_alive() and fh.closed
    assert threading.enumerate() == before


@pytest.fixture()
def blocked_reader(monkeypatch):
    """A corpus's stream reaches scan once its reader thread is held at a
    full queue; the seconds each close of a reader took are recorded."""
    closes = []
    open_bz2, close = bz2reader.open_bz2, bz2reader._Pieces.close

    def waiting_open(path, piece):
        stream = open_bz2(path, piece)
        _wait_for_full_queue(stream)
        return stream

    def timed_close(raw):
        started = time.monotonic()
        close(raw)
        closes.append(time.monotonic() - started)
    monkeypatch.setattr(bz2reader, "open_bz2", waiting_open)
    monkeypatch.setattr(bz2reader._Pieces, "close", timed_close)
    return closes


def _inputs(tmp_path: Path, corpus: Path) -> PipelineConfig:
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    cfg = PipelineConfig.from_ini(inputs / "config.ini")
    cfg.corpus = corpus
    return cfg


def test_no_thread_outlives_a_run_that_fails_before_scan(tmp_path, monkeypatch,
                                                         blocked_reader):
    corpus = _many_pieces(tmp_path, monkeypatch, (E2E / "corpus.jsonl").read_bytes())
    cfg = _inputs(tmp_path, corpus)
    cfg.floodlist.write_text("totally,wrong,header\n1,2,3\n")
    before = threading.enumerate()
    with pytest.raises(InputError, match="header"):
        run_pipeline(cfg, tmp_path / "run")
    assert threading.enumerate() == before
    assert blocked_reader == []  # scan, which opens the corpus, never ran


def test_no_thread_outlives_a_scan_that_fails_with_pieces_queued(tmp_path, monkeypatch,
                                                                blocked_reader):
    xml = MEDIAWIKI_XML.replace("<title>", "<<title>", 1)
    corpus = _many_pieces(tmp_path, monkeypatch, xml.encode() + b" " * 20000)
    cfg = _inputs(tmp_path, corpus)
    before = threading.enumerate()
    with pytest.raises(StageError, match="not well-formed"):
        run_pipeline(cfg, tmp_path / "run")
    assert threading.enumerate() == before
    assert len(blocked_reader) == 1 and blocked_reader[0] < 1


def test_no_thread_outlives_a_run(tmp_path, monkeypatch):
    corpus = _many_pieces(tmp_path, monkeypatch, (E2E / "corpus.jsonl").read_bytes())
    cfg = _inputs(tmp_path, corpus)
    before = threading.enumerate()
    manifest = run_pipeline(cfg, tmp_path / "run")
    assert threading.enumerate() == before
    assert [s["status"] for s in manifest["stages"]] == ["ran"] * 5
