"""A ``.bz2`` file decompressed ahead of its reader, on one thread.

``open_bz2(path, piece)`` starts the thread and returns a buffered binary
stream of the decompressed bytes. The thread reads the file through
``bz2.BZ2File`` in pieces of ``piece`` bytes, the reads a
``BufferedReader(BZ2File(path), buffer_size=piece)`` makes, so the bytes
and the errors are that reader's; libbz2 runs without the interpreter
lock, beside the caller. At most ``_DEPTH`` pieces wait in the queue, so
the pieces held at once are those plus the one the thread is filling and
the one being read. Only a ``.bz2`` corpus imports this module, so other
runs neither compile nor hold it.
"""

from __future__ import annotations

import io
import queue
import threading
from bz2 import BZ2File

_DEPTH = 2  # pieces decompressed ahead of the reader


def _fill(fh, piece: int, out: queue.Queue, stop: threading.Event) -> None:
    """Put each piece of ``fh`` on ``out``, then ``b""``, or the exception
    that ended it. ``stop`` is checked before each piece and before the
    end is put, and ``close`` sets it before it empties ``out``, so at most
    one put follows, into a queue with room."""
    try:
        with BZ2File(fh) as bz:
            while not stop.is_set():
                buf = bytearray(piece)
                n = bz.readinto(buf)
                if not n:
                    break
                out.put(memoryview(buf)[:n])
        end = b""
    except Exception as exc:  # raised to the reader, on its thread
        end = exc
    if not stop.is_set():
        out.put(end)


class _Pieces(io.RawIOBase):
    """The reader's side of the queue; ``close`` stops and joins the thread."""

    def __init__(self, fh, piece: int):
        self._fh = fh
        self._queue: queue.Queue = queue.Queue(_DEPTH)
        self._stop = threading.Event()
        self._view = memoryview(b"")  # the unread part of the current piece
        self._end: bytes | Exception | None = None  # what ended the stream
        # The thread holds no reference to this object, so an unclosed
        # stream is still collected, and closed, as a file would be.
        self._thread = threading.Thread(
            target=_fill, args=(fh, piece, self._queue, self._stop),
            name="bz2-reader", daemon=True)
        self._thread.start()

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        if not self._view:
            item = self._queue.get() if self._end is None else self._end
            if isinstance(item, Exception):
                self._end = item
                raise item
            if not item:
                self._end = item
                return 0
            self._view = item
        n = min(len(b), len(self._view))
        b[:n] = self._view[:n]
        self._view = self._view[n:]
        return n

    def close(self) -> None:
        if not self.closed:
            self._stop.set()
            while True:  # frees a put the thread is blocked in
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    break
            self._thread.join()
            self._fh.close()
        super().close()


def open_bz2(path, piece: int) -> io.BufferedReader:
    """A binary stream of the decompressed bytes of the ``.bz2`` file at
    ``path``, decompressed ahead in pieces of ``piece`` bytes."""
    return io.BufferedReader(_Pieces(open(path, "rb"), piece))
