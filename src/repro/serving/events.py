"""The event heap and the event definition of the one event loop.

Every simulation — :func:`repro.serving.simulator.simulate` (one device),
:func:`repro.fleet.simulator.simulate_fleet` (N devices), with or without
faults — runs the same loop (:mod:`repro.faults.engine`), and that loop
pops its timed events from the :class:`EventQueue` here: a ``heapq`` of
``(time, kind, index, seq)`` entries, so finding the next event costs
O(log n) pushes/pops instead of an O(devices) scan.  The heap holds the
in-flight occupancy completions — at most one per busy device — plus, on
fault-injected runs, at most one upcoming fault transition per device.
Arrivals stay outside the heap (workload generators emit them already
sorted; the loop merges the stream head against
:attr:`EventQueue.head_time`), and so do client retries (a retry heap
merged the same way).

What an event is
----------------

An *event* is one pass of the loop, and ``num_events`` on every report
counts passes.  A pass starts at a simulated instant, delivers the
arrivals (and client retries) due then, lets every device whose state
changed plan its next occupancy, and ends by advancing the clock to the
next instant at which some device can act: the next completion, fault
transition or retry, or the next arrival routed to an idle device.
Arrivals routed to a busy (or crashed) device on the way are delivered
in passing, without an event of their own, because no device can act on
them before its own next event.  Completions and faults due at the new
instant are stamped and applied as the pass ends; the instant that
resolves the last open request ends the run and is not an event.  The
first pass starts at t = 0.

Because all shapes share the loop, the same arrival schedule yields the
same ``num_events`` from ``simulate()``, from a 1-replica
``simulate_fleet()`` and from either under a fault spec that never
fires, so events/s and ``events_ratio`` compare across shapes.

The event-ordering contract
---------------------------

Determinism — byte-identical trace CSVs under a fixed seed, coalesced or
not — rests on a total order over simultaneous events, and the entry
tuples encode it:

1. ``time``: virtual seconds; earlier events first.
2. ``kind``: at equal times, :data:`COMPLETION` (0) sorts before
   :data:`FAULT` (1) sorts before :data:`ARRIVAL` (2) sorts before
   :data:`PLANNING` (3).  Completions due *now* are stamped before a
   simultaneous fault transition applies (an occupancy ending at the
   crash instant still counts — its tokens were produced), faults apply
   before new arrivals are routed (an arrival at the crash instant
   already sees the device down, so health-aware routing steers around
   it), and arrivals are delivered before idle devices plan.
3. ``index``: at equal (time, kind), the smaller device index wins.
4. ``seq``: a monotonic push counter, making the sort total (and stable
   for repeated pushes of the same (time, kind, index)) without ever
   comparing payloads.

Consumers must preserve the contract when batching: popping everything
due at one instant via :meth:`EventQueue.pop_due` yields the entries
already in this order, and planning passes run over the touched-device
set in ascending index order.  An arrival routed in passing is strictly
earlier than the next heap entry and the next retry or hedge timer (one
armed by an arrival routed earlier in the same advance included), so it
never overtakes any of them.  Client retries re-enter through the
*arrival* stage (source arrivals first at equal timestamps), so a retry
landing on an existing event time slots into the same total order as
any other arrival.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

#: Event kinds, in tie-break order (see the module docstring).
COMPLETION = 0
FAULT = 1
ARRIVAL = 2
PLANNING = 3

#: One scheduled event: (time, kind, index, seq).
Event = Tuple[float, int, int, int]


class EventQueue:
    """A deterministic min-heap of simulation events.

    ``push`` and ``pop`` are O(log n); the next event's time is the
    plain attribute :attr:`head_time` (the loop reads it once per event,
    like the arrival sources' ``head_time``).  The queue never compares
    payload objects — ordering is fully decided by the
    ``(time, kind, index, seq)`` tuple — so any event mix is totally
    ordered and a run replays identically however the heap internally
    arranges equal-priority siblings.
    """

    __slots__ = ("_heap", "_seq", "_pops", "_max_depth", "head_time")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._pops = 0
        self._max_depth = 0
        #: Time of the next event, or None when the queue is empty.
        self.head_time: Optional[float] = None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, kind: int = COMPLETION, index: int = 0) -> None:
        """Schedule an event at ``time`` (device/stream ``index``)."""
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (time, kind, index, self._seq))
        self.head_time = heap[0][0]
        if len(heap) > self._max_depth:
            self._max_depth = len(heap)

    def peek_time(self) -> Optional[float]:
        """Time of the next event, or None when the queue is empty."""
        return self.head_time

    def pop(self) -> Event:
        """Remove and return the next event (raises IndexError when empty)."""
        heap = self._heap
        entry = heapq.heappop(heap)
        self._pops += 1
        self.head_time = heap[0][0] if heap else None
        return entry

    def pop_due(self, now: float) -> List[Event]:
        """All events with ``time <= now``, in the contract's order."""
        due: List[Event] = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap))
        self._pops += len(due)
        self.head_time = heap[0][0] if heap else None
        return due

    def stats(self) -> Dict[str, int]:
        """Lifetime ``{"pushes", "pops", "max_depth"}`` for report debug
        metrics: pure functions of the event sequence, so deterministic."""
        return {
            "pushes": self._seq,
            "pops": self._pops,
            "max_depth": self._max_depth,
        }
