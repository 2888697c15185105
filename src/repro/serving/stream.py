"""Streaming trace output: CSV rows written in chunks as records finish.

The in-memory path renders the per-request trace *after* a run from the
full record list (:meth:`repro.serving.metrics.ServingReport.to_csv`).
For million-request runs that list — not the event loop — dominates
memory, so :func:`repro.serving.simulator.simulate` and
:func:`repro.fleet.simulator.simulate_fleet` instead accept a
``trace_sink`` (a file-like object or a path) and stream the rows out as
records finish, optionally dropping each record once its row is rendered
(``keep_records=False``), leaving only O(in-flight batch) record state
alive.  Rendered rows go to the sink in chunks of :data:`CHUNK_ROWS`
rows (one ``write`` per chunk, not per row); the last partial chunk is
drained at close — and on release, so a run that raises mid-way still
leaves every row rendered before the error in the sink.

Streaming only writes rows; the aggregates never go through here.
Whether or not a sink is attached, the event loop folds each record into
its device's :class:`repro.serving.metrics.StreamedMetrics` store at the
moment it resolves, so a dropped-record run reports from the same store
a kept run's report folds from its record list.

Byte-identity is the contract: the sink receives exactly the bytes
``to_csv()`` would have produced.  Since requests *finish* out of arrival
order under continuous batching while the trace is written in arrival
order, the :class:`TraceStreamer` keeps a small reorder buffer and
renders a record only once every earlier-arriving record has rendered —
the buffer holds at most the records currently in flight plus those
queued behind them, which is the same O(batch + queue) state the event
loop already carries.
"""

from __future__ import annotations

import csv
import io
import os
from collections import deque
from typing import Callable, Deque, Dict, IO, List, Optional, Sequence, Tuple, Union

from repro.serving.request import RequestRecord

#: What the loops accept as a trace sink: an open text-mode file-like
#: object (anything with ``write``) or a filesystem path to create.
TraceSink = Union[str, "os.PathLike[str]", IO[str]]

#: Rendered rows buffered in memory per ``write`` to the sink.
CHUNK_ROWS = 256


def open_trace_sink(sink: TraceSink) -> Tuple[IO[str], bool]:
    """Resolve ``sink`` to ``(handle, owns_handle)``.

    Paths are opened for writing with ``newline=""`` (the csv module's
    requirement); file-like objects are used as-is and never closed here.
    """
    if hasattr(sink, "write"):
        return sink, False
    return open(os.fspath(sink), "w", newline=""), True


class TraceStreamer:
    """Order-preserving trace writer of the event loop.

    ``register`` is called once per record in arrival order (assigning the
    record its trace-row index); ``finish`` when the record's last stamp
    lands.  Rows are rendered in registration order, each as soon as all
    its predecessors have finished, and pushed to the sink every
    :data:`CHUNK_ROWS` rows.  ``close`` drains whatever never finished
    (partially-stamped rows from an ``early_exit`` run) plus an optional
    tail of records that never even entered the loop, so the written
    trace covers exactly the rows the in-memory report would have
    rendered.
    """

    def __init__(
        self,
        sink: TraceSink,
        header: Sequence[str],
        row_of: Callable[[RequestRecord, int], List[object]],
    ) -> None:
        self._row_of = row_of
        handle, self._owns_handle = open_trace_sink(sink)
        self._handle: Optional[IO[str]] = handle
        #: Rows rendered since the last push to the sink.
        self._chunk = io.StringIO()
        self._writer = csv.writer(self._chunk, lineterminator="\n")
        self._writer.writerow(header)
        self._pending = 0
        #: [record, arrival index, finished] cells of the registered but
        #: unwritten records, in arrival order.
        self._queue: Deque[list] = deque()
        #: id(record) -> its cell, for records not yet finished.
        self._cell_of: Dict[int, list] = {}
        self._count = 0
        #: High-water mark of the reorder buffer — how far completion
        #: order actually diverged from arrival order (a debug metric:
        #: bounds the streamer's extra memory at O(max_buffered) records).
        self.max_buffered = 0

    # -- event-loop interface ------------------------------------------------
    def register(self, record: RequestRecord) -> None:
        """Admit ``record`` to the trace in arrival order."""
        cell = [record, self._count, False]
        self._count += 1
        queue = self._queue
        queue.append(cell)
        self._cell_of[id(record)] = cell
        if len(queue) > self.max_buffered:
            self.max_buffered = len(queue)

    def finish(self, record: RequestRecord) -> None:
        """Mark ``record`` fully stamped; render the ready prefix."""
        self._cell_of.pop(id(record))[2] = True
        queue = self._queue
        row_of = self._row_of
        while queue and queue[0][2]:
            record, index, _ = queue.popleft()
            self._emit(row_of(record, index))

    def _emit(self, row: List[object]) -> None:
        self._writer.writerow(row)
        self._pending += 1
        if self._pending == CHUNK_ROWS:
            self._push()

    def _push(self) -> None:
        """Write the rendered chunk to the sink and start a new one."""
        chunk = self._chunk
        text = chunk.getvalue()
        if text:
            self._handle.write(text)
            chunk.seek(0)
            chunk.truncate()
        self._pending = 0

    # -- teardown ------------------------------------------------------------
    def close(self, tail: Sequence[RequestRecord] = ()) -> None:
        """Drain unfinished records in order, emit ``tail``, release the sink.

        ``tail`` carries the records an early-exited run never delivered
        to a scheduler (they were never registered); their rows render
        with blank lifecycle cells, exactly as ``to_csv`` would.
        """
        for record, index, _ in self._queue:
            self._emit(self._row_of(record, index))
        self._queue.clear()
        self._cell_of.clear()
        for record in tail:
            self._emit(self._row_of(record, self._count))
            self._count += 1
        self.release()

    def release(self) -> None:
        """Push the pending chunk, then close the sink handle if this
        streamer opened it (idempotent)."""
        self._push()
        if self._owns_handle and self._handle is not None:
            self._handle.close()
            self._handle = None


class DigestSink(io.TextIOBase):
    """A write-only sink hashing everything written to it (O(1) memory).

    Comparing two million-row traces byte for byte without holding either
    in memory: stream both runs through a ``DigestSink`` and compare
    :meth:`hexdigest`.  Used by the perf suite's byte-identity checks.
    """

    def __init__(self, algorithm: str = "sha256") -> None:
        import hashlib

        self._hash = hashlib.new(algorithm)
        self.bytes_written = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self._hash.update(data)
        self.bytes_written += len(data)
        return len(text)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
