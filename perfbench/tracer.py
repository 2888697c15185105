"""Host-time span tracer wrapped around the public calls into each layer.

The benchmark measures the simulator from outside: :class:`Tracer`
replaces selected functions and methods of ``repro`` with thin wrappers
for the duration of a traced phase and puts the originals back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

Every wrapped call becomes a span ``(name, start, end, parent)``.  The
tracer folds each finished span into per-layer aggregates on the fly --
calls, total time and *self* time (the span's duration minus the time
covered by its child spans) -- and keeps the raw spans of selected
phases in compact in-memory columns, written out once at the end by
:meth:`Tracer.write`.  Read them back with :func:`load_spans`.

The stack of open spans is shared by all threads, so a span started on
a worker thread hangs off the span its blocked caller has open.  Two
threads inside traced code at once would interleave spans and make self
time meaningless; :meth:`Tracer._exit` detects that and raises.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: File signature of the binary span dump (see :meth:`Tracer.write`).
SPAN_MAGIC = b"PERFBENCH-SPANS-1\n"


class _Layer:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Installs span wrappers and aggregates their self time per name."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: One stack of open spans, shared by all threads:
        #: [name_id, start, child_s, span_id, parent_id].
        self._stack: List[list] = []
        self._next_id = 0
        self._layers: Dict[int, _Layer] = {}
        self.keep_spans = False
        self._span_name = array("H")
        self._span_id = array("q")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._origin = _clock()
        self.last_duration = 0.0

    # -- installing wrappers ---------------------------------------------------
    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return ident

    def wrap(self, owner: type, attr: str, name: str, on_return: Optional[Callable] = None) -> None:
        """Replace the method or property ``owner.attr`` (defined on
        ``owner`` itself) with a span-emitting wrapper named ``name``;
        ``on_return`` sees every return value."""
        original = owner.__dict__[attr]
        ident = self._name_id(name)
        if isinstance(original, property):
            replacement = property(self._wrapper(original.fget, ident, on_return))
        else:
            replacement = self._wrapper(original, ident, on_return)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn: Callable, ident: int, on_return: Optional[Callable]) -> Callable:
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(ident)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    # -- spans -----------------------------------------------------------------
    def _enter(self, ident: int) -> list:
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [ident, 0.0, 0.0, span_id, stack[-1][3] if stack else -1]
        stack.append(frame)
        frame[1] = _clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError("overlapping spans: traced code ran concurrently")
        stack.pop()
        ident, start, child_s, span_id, parent = frame
        duration = end - start
        self.last_duration = duration
        layer = self._layers.get(ident)
        if layer is None:
            layer = self._layers[ident] = _Layer()
        layer.calls += 1
        layer.total_s += duration
        layer.self_s += duration - child_s
        if stack:
            stack[-1][2] += duration
        if self.keep_spans:
            self._span_name.append(ident)
            self._span_id.append(span_id)
            self._span_parent.append(parent)
            self._span_start.append(start - self._origin)
            self._span_end.append(end - self._origin)

    def root(self, name: str) -> "_RootSpan":
        """A context manager opening a top-level span (a run phase)."""
        return _RootSpan(self, self._name_id(name))

    # -- results ---------------------------------------------------------------
    def take(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregates since the last call, then reset them."""
        out = {
            self._names[ident]: {
                "calls": layer.calls,
                "total_s": layer.total_s,
                "self_s": layer.self_s,
            }
            for ident, layer in self._layers.items()
        }
        self._layers = {}
        return out

    def _columns(self):
        return (
            self._span_name,
            self._span_id,
            self._span_parent,
            self._span_start,
            self._span_end,
        )

    @property
    def span_count(self) -> int:
        return len(self._span_name)

    def write(self, path: str, meta: dict) -> None:
        """Dump the kept spans: magic, one JSON header line, raw columns."""
        header = dict(meta)
        header["names"] = self._names
        header["count"] = self.span_count
        header["columns"] = [
            ["name", "H"],
            ["id", "q"],
            ["parent", "q"],
            ["start_s", "d"],
            ["end_s", "d"],
        ]
        with open(path, "wb") as handle:
            handle.write(SPAN_MAGIC)
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for column in self._columns():
                column.tofile(handle)


class _RootSpan:
    __slots__ = ("tracer", "ident", "frame", "seconds")

    def __init__(self, tracer: Tracer, ident: int) -> None:
        self.tracer = tracer
        self.ident = ident
        self.seconds = 0.0

    def __enter__(self) -> "_RootSpan":
        if self.tracer._stack:
            raise RuntimeError("a root span must open with no span in flight")
        self.frame = self.tracer._enter(self.ident)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.frame)
        self.seconds = self.tracer.last_duration


def load_spans(path: str) -> Tuple[dict, List[Tuple[int, str, int, float, float]]]:
    """Read a span dump back as ``(header, [(id, name, parent, start, end)])``.

    Spans are listed in the order they ended; ``parent`` is the id of the
    enclosing span, or -1 for a root span.  Times are seconds since the
    tracer was created.
    """
    with open(path, "rb") as handle:
        if handle.readline() != SPAN_MAGIC:
            raise ValueError(f"{path} is not a perfbench span dump")
        header = json.loads(handle.readline())
        count = header["count"]
        columns = []
        for _, code in header["columns"]:
            column = array(code)
            column.fromfile(handle, count)
            columns.append(column)
    names = header["names"]
    spans = [
        (columns[1][i], names[columns[0][i]], columns[2][i], columns[3][i], columns[4][i])
        for i in range(count)
    ]
    return header, spans
