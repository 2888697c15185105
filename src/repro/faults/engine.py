"""The one event loop: every serving, fleet and chaos run executes here.

:func:`repro.serving.simulator.simulate` and
:func:`repro.fleet.simulator.simulate_fleet` validate their own inputs,
build a device list and hand it to :class:`_Engine`, the single
discrete-event loop of the package.  The two *shapes* differ only in
what surrounds the loop:

* the **serving shape** runs one :class:`repro.fleet.device.Device` with
  no router (every request goes to device 0) and returns a
  :class:`repro.serving.metrics.ServingReport`;
* the **fleet shape** runs N devices behind a
  :class:`repro.fleet.router.Router` and returns a
  :class:`repro.fleet.report.FleetReport` (trace rows carry the routed
  device, metrics are kept per device as well as fleet-wide).

The loop itself is identical for both.  Each pass is one *event* — the
definition, and the total order of simultaneous events the
byte-identical-trace guarantee rests on, live in
:mod:`repro.serving.events`: deliver the arrivals due now, plan every
touched idle device (:meth:`_Engine._plan` through
:meth:`repro.fleet.device.Device.maybe_start`), then advance the clock,
routing in passing every arrival that lands on a device unable to act on
it yet, and stamp the completions and apply the fault transitions due at
the next instant.

Fault handlers
--------------

Resilience plugs into the loop's boundaries as handlers, each inert
when its spec is None:

* **completion** — flaky verdicts (client retry or ``failed``),
  deadline time-outs and hedge wins (:meth:`_Engine._member_done`);
* **fault** — crash, recover and slowdown transitions drawn lazily from
  a :class:`repro.faults.FaultInjector` as
  :data:`repro.serving.events.FAULT` events (:meth:`_Engine._fault`);
* **delivery** — client retries and hedge timers re-enter through the
  arrival stage from a retry heap, source arrivals first at equal
  timestamps (:meth:`_Engine._deliver_retries`);
* **planning** — a per-device :class:`FaultGate` lets the scheduler shed
  expired requests, reprice slowed steps and cap coalescing at fault
  boundaries and deadline expiries.

With ``faults``, ``retry`` and ``deadline_s`` all None no gate is
attached and no handler runs, so fault-free traces stay byte-identical
to the golden hashes pinned before the fault subsystem existed.

Determinism under coalescing
----------------------------

A fault transition is an *interesting boundary*: each device's scheduler
is handed the time of its next scheduled fault through the attached
:class:`FaultGate`, and a coalesced decode window never extends a step
across it (see :mod:`repro.serving.scheduler`).  The straddling step is
planned as its own single-step occupancy in coalesced and step-by-step
runs alike, and planning only ever happens on idle devices — at instants
both runs share — so crash aborts, slowdown repricing and retries land
on identical state either way.  Deadline expiry is interesting too: a
coalesced window ends at the first step boundary at which a queued (or
still arriving) request could be shed, so shedding — and the queue
lengths routers read — happen at the same instants as in the
``max_steps=1`` reference.

Crash semantics
---------------

A crash aborts the in-flight occupancy (the executed head of its busy
time is kept, the unexecuted tail refunded), evicts every batch member
and queued request through ``Scheduler.evict_all`` — releasing any KV
residency a :mod:`repro.memory` model holds, so a re-queued request
pays a fresh re-prefill (and re-spill) wherever it lands — and re-routes
the survivors immediately at the crash instant against the live device
states.  Health-aware policies (``get_router("failover")``, or any
router built with ``exclude_unhealthy=True``) steer them around the
dead replica; recovery re-admits it.  A serving-shape crash has nowhere
to fail over to: evicted requests re-queue on the same device and wait
out the recovery.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Iterable, List, Optional

from repro.api.request import InferenceRequest
from repro.fleet.device import Device
from repro.fleet.report import FLEET_TRACE_CSV_FIELDS, fleet_trace_values
from repro.fleet.router import Router
from repro.obs.recorder import record_request_phases
from repro.serving.events import COMPLETION, FAULT, EventQueue
from repro.serving.metrics import (
    SLOSpec,
    StreamedMetrics,
    TRACE_CSV_FIELDS,
    _QueueDepthStats,
    trace_values,
)
from repro.serving.request import RequestRecord, ServingRequest
from repro.serving.simulator import _ordered_requests
from repro.serving.stream import TraceSink, TraceStreamer

from repro.faults.report import FaultReport
from repro.faults.spec import (
    CRASH,
    RECOVER,
    SLOW_END,
    SLOW_START,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
)

__all__ = ["FaultGate"]

#: Retry-heap actions: a scheduled client retry, and a hedge timer.
_RETRY = 0
_HEDGE = 1

#: Consecutive fault events with no completion and no delivery in
#: between before the loop declares itself wedged.  Random fault
#: schedules are infinite, so a run that can no longer make progress
#: would otherwise spin through crash/recover cycles forever.
_MAX_IDLE_FAULTS = 10_000


class _ArrivalSource:
    """Arrival cursor over the request stream, in (arrival, id) order.

    ``head_time`` — the next undelivered arrival's time, or None — is a
    plain attribute kept current by :meth:`pop`, so the event loop reads
    it without a method call (it is consulted several times per event).
    A list or tuple (or any stream when ``keep_records``) is sorted up
    front and its size is known.  Any other iterable with
    ``keep_records=False`` is consumed lazily with a one-request
    lookahead, so an O(batch)-memory run never materializes the arrival
    list either (pair with a generator workload); it must already be
    sorted — out-of-order arrivals raise — and its total is unknown,
    which is why ``fail_fast`` (whose attainment arithmetic needs the
    total) rejects lazy streams.  Each :class:`RequestRecord` is built on
    delivery; with ``keep_records`` it is also kept, in arrival order, in
    :attr:`records`.
    """

    __slots__ = ("_iter", "_head", "head_time", "total", "first_request", "records")

    def __init__(self, requests: Iterable[ServingRequest], keep_records: bool):
        self.total: Optional[int] = None
        if keep_records or isinstance(requests, (list, tuple)):
            requests = _ordered_requests(requests)
            self.total = len(requests)
        self.records: Optional[List[RequestRecord]] = [] if keep_records else None
        self._iter = iter(requests)
        self._head: Optional[ServingRequest] = next(self._iter, None)
        self.head_time: Optional[float] = None
        #: The first arrival's payload (None for an empty stream).
        self.first_request: Optional[InferenceRequest] = None
        if self._head is not None:
            self.head_time = self._head.arrival_s
            self.first_request = self._head.request

    def pop(self) -> RequestRecord:
        head = self._head
        self._head = nxt = next(self._iter, None)
        if nxt is None:
            self.head_time = None
        else:
            self.head_time = when = nxt.arrival_s
            # Explicit (arrival, id) comparison: the dataclass `<` builds
            # two tuples per call, and this runs once per request.
            if when < head.arrival_s or (
                when == head.arrival_s and nxt.request_id < head.request_id
            ):
                raise ValueError(
                    "a lazily-streamed request iterable must arrive pre-sorted "
                    f"(saw {when:g}s after {head.arrival_s:g}s); "
                    "pass a list to let the simulator sort it"
                )
        record = RequestRecord(head)
        if self.records is not None:
            self.records.append(record)
        return record

    def tail(self) -> List[RequestRecord]:
        """Records for the arrivals never delivered (an early exit)."""
        tail = []
        if self._head is not None:
            tail.append(RequestRecord(self._head))
            tail.extend(RequestRecord(request) for request in self._iter)
            self._head = self.head_time = None
        if self.records is not None:
            self.records.extend(tail)
        return tail


class FaultGate:
    """Per-device fault state shared between the loop and the scheduler.

    One gate is attached per device (``Scheduler.faults`` and
    ``Device.gate``) for the duration of a resilient run.  The
    scheduler reads ``slow_factor`` (latency multiplier), ``boundary_s``
    (next scheduled fault transition — the coalescing cap) and
    ``deadline_s`` (the shedding threshold), and reports queue drops
    back through the ``shed``/``drop`` callbacks; the loop sets ``dirty``
    when a cancellation leaves a queued record to purge.
    """

    __slots__ = (
        "slow_factor",
        "boundary_s",
        "deadline_s",
        "dirty",
        "shed",
        "drop",
    )

    def __init__(self) -> None:
        #: Latency multiplier while a slowdown window is open (1.0 = none).
        self.slow_factor = 1.0
        #: Time of this device's next fault transition (None = no more).
        self.boundary_s: Optional[float] = None
        #: Per-request deadline for load shedding (None = no shedding).
        self.deadline_s: Optional[float] = None
        #: Set when a waiting record was cancelled elsewhere (hedge win)
        #: and the queue needs a purge scan at the next planning call.
        self.dirty = False
        #: Loop callbacks (bound per device): ``shed(record, now)`` for a
        #: deadline-expired queue member, ``drop(record)`` for a
        #: cancelled one.
        self.shed = None
        self.drop = None


class _Engine:
    """One run of the event loop over a device list.

    ``router`` None selects the serving shape (one device, every request
    to device 0); a router selects the fleet shape.  Construction
    validates the shared keyword surface and claims the router, so a
    rejected call never poisons a router that routed nothing.
    """

    __slots__ = (
        # the run: inputs, clock, counters
        "source", "devices", "router", "slo", "max_steps", "fail_fast",
        "total", "queue", "now", "num_events", "missed", "early_exit",
        "open_requests", "touched", "assignments",
        # resilience (inert unless a spec is given)
        "resilient", "retry", "deadline_s", "hedge_after_s", "injector",
        "report", "arrival_pos", "owner", "hedge_primary", "hedge_attempt",
        "retry_heap", "retry_seq", "down_since", "_min_retry_delay", "cursors",
        "_fault_head",
        # observability and output
        "rec", "prof_add", "prof_clock", "fleet_metrics", "device_metrics",
        "device_fold", "live", "streamer",
    )

    def __init__(
        self,
        requests,
        devices: List[Device],
        router: Optional[Router],
        *,
        faults: Optional[FaultSpec],
        retry: Optional[RetryPolicy],
        deadline_s: Optional[float],
        slo: Optional[SLOSpec],
        max_steps: Optional[int],
        fail_fast: bool,
        trace_sink: Optional[TraceSink],
        keep_records: bool,
        recorder,
        profiler,
    ) -> None:
        if faults is not None and not isinstance(faults, FaultSpec):
            raise TypeError(f"faults must be a FaultSpec, got {type(faults).__name__}")
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise TypeError(f"retry must be a RetryPolicy, got {type(retry).__name__}")
        if deadline_s is not None and not (math.isfinite(deadline_s) and deadline_s > 0):
            raise ValueError(f"deadline_s must be finite and positive, got {deadline_s!r}")
        if max_steps is not None and max_steps < 1:
            raise ValueError("max_steps must be at least 1 when given")
        if fail_fast and slo is None:
            raise ValueError("fail_fast needs an SLOSpec to judge misses against")
        source = _ArrivalSource(requests, keep_records)
        if source.head_time is None:
            raise ValueError("cannot simulate an empty request stream")
        if fail_fast and source.total is None:
            raise ValueError(
                "fail_fast needs the total request count; pass a list instead of "
                "a lazy stream (or keep_records=True to materialize it)"
            )
        self.source = source
        self.devices = devices
        self.router = router
        fleet = router is not None
        if fleet:
            router.used = True
            router.attach(devices)
        self.slo = slo
        self.max_steps = max_steps
        self.fail_fast = fail_fast
        self.total = source.total
        self.queue = EventQueue()
        self.now = 0.0
        self.num_events = 0
        self.missed = 0
        self.early_exit = False
        #: Requests delivered but not yet terminally resolved.
        self.open_requests = 0
        #: Devices whose state changed since they last planned; everyone
        #: plans at t=0.
        self.touched = set(range(len(devices)))
        #: Routed device per source arrival, in arrival order (fleet shape).
        self.assignments: Optional[List[int]] = [] if fleet else None
        track_work = fleet and router.needs_work_estimates
        for device in devices:
            device.track_work = track_work
            if not keep_records:
                device.queue_stats = _QueueDepthStats()

        # -- resilience state (inert unless a spec is given) ------------------
        resilient = faults is not None or retry is not None or deadline_s is not None
        self.resilient = resilient
        self.retry = retry
        self.deadline_s = deadline_s
        self.hedge_after_s = retry.hedge_after_s if retry is not None else None
        self.injector = (
            FaultInjector(faults, len(devices)) if faults is not None else None
        )
        self.report = FaultReport(num_devices=len(devices)) if resilient else None
        #: id(record) -> index into ``assignments``, written at a primary's
        #: arrival and read only while it is open (never for a hedge
        #: attempt), so id reuse cannot corrupt it.
        self.arrival_pos: dict = {}
        #: id(record) -> device index currently owning the record.
        self.owner: dict = {}
        #: Hedge pairing maps; entries pin both records alive, so the
        #: id keys stay unambiguous for the pairing's lifetime.
        self.hedge_primary: dict = {}
        self.hedge_attempt: dict = {}
        #: Retry/hedge-timer heap of (time, seq, action, record).
        self.retry_heap: list = []
        self.retry_seq = 0
        self.down_since: List[Optional[float]] = [None] * len(devices)
        # Dynamically-scheduled deliveries (flaky retries, crash re-queues)
        # are not in the planning horizon the way source arrivals are, so
        # free-slot coalescing could extend an occupancy past an admission
        # the step-by-step reference would open.  Two caps restore the
        # equivalence: no occupancy extends past the next fault event on
        # ANY device (a crash there can re-queue work onto this one), and
        # with flaky retries armed, none extends more than the minimum
        # possible client backoff past its planning instant (a failure
        # after `now` cannot schedule a retry any sooner than that).
        self._min_retry_delay: Optional[float] = None
        if (
            retry is not None
            and retry.max_attempts > 1
            and faults is not None
            and faults.flaky_prob > 0.0
        ):
            shortest = min(
                retry.multiplier ** attempt
                for attempt in range(retry.max_attempts - 1)
            )
            self._min_retry_delay = (
                retry.backoff_s * shortest * (1.0 - retry.jitter)
            )
        self.cursors: list = [None] * len(devices)
        for index, device in enumerate(devices):
            gate = None
            if resilient:
                gate = FaultGate()
                gate.deadline_s = deadline_s
                gate.shed = functools.partial(self._shed, index)
                gate.drop = functools.partial(self._drop, index)
                if self.injector is not None:
                    cursor = self.cursors[index] = self.injector.cursor(index)
                    if cursor.head_time is not None:
                        gate.boundary_s = cursor.head_time
                        self.queue.push(cursor.head_time, FAULT, index)
            device.gate = gate
            device.scheduler.faults = gate
        self._fault_head: Optional[float] = None
        self._refresh_fault_head()

        # -- observability ----------------------------------------------------
        # A disabled recorder (None or NullRecorder) leaves ``rec`` None, so
        # every emission site is a single identity check.  The fleet shape
        # names one track per replica so Perfetto renders one lane each.
        rec = recorder if recorder is not None and recorder.enabled else None
        self.rec = rec
        if rec is not None:
            if fleet:
                router.recorder = rec
            for index, device in enumerate(devices):
                scheduler = device.scheduler
                scheduler.recorder = rec
                memory_model = device.memory
                if memory_model is not None:
                    memory_model.recorder = rec
                if fleet:
                    scheduler.track = f"device{index}"
                    if memory_model is not None:
                        memory_model.track = f"memory{index}"
        # The profiler supplies its own clock: the simulation packages never
        # import one (the no-wall-clock guard tests keep them honest).
        self.prof_add = profiler.add if profiler is not None else None
        self.prof_clock = profiler.clock if profiler is not None else None

        # -- metrics and trace --------------------------------------------------
        # The loop folds each record into the store of the device that
        # resolves it when the report cannot fold the records afterwards
        # (they are dropped) or the loop needs each verdict (fail_fast).
        self.fleet_metrics: Optional[StreamedMetrics] = None
        self.device_metrics: Optional[List[StreamedMetrics]] = None
        self.device_fold = None
        if not keep_records or fail_fast:
            slo_met = 0 if slo is not None else None
            self.device_metrics = [StreamedMetrics(slo_met=slo_met) for _ in devices]
            # The serving shape's one device store is the run's.
            self.fleet_metrics = (
                StreamedMetrics(slo_met=slo_met) if fleet else self.device_metrics[0]
            )
            self.device_fold = [metrics.fold for metrics in self.device_metrics]
        #: id(record) -> [record, device] for delivered-but-unresolved
        #: records, so an early exit folds its leftovers on their devices.
        self.live: Optional[dict] = {} if fail_fast else None
        self.streamer: Optional[TraceStreamer] = None
        if trace_sink is not None:
            if fleet:
                assignments = self.assignments

                def row_of(record, index):
                    return fleet_trace_values(record, slo, assignments, index)

                header = FLEET_TRACE_CSV_FIELDS
            else:

                def row_of(record, index):
                    return trace_values(record, slo)

                header = TRACE_CSV_FIELDS
            self.streamer = TraceStreamer(trace_sink, header, row_of)

    # -- gate callbacks -------------------------------------------------------
    def _forget(self, index: int, record: RequestRecord) -> None:
        """A record left device ``index`` without completing there."""
        device = self.devices[index]
        device.outstanding -= 1
        if device.track_work:
            device.outstanding_work_s -= device.job_seconds(record)
        self.owner.pop(id(record), None)
        if self.router is not None:
            # Keep incremental router indexes coherent with the drop.
            self.router.on_completed(index, device)

    def _shed(self, index: int, record: RequestRecord, now: float) -> None:
        """Gate callback: a queued record's deadline expired."""
        self._forget(index, record)
        if record.hedge:
            self._drop_hedge(record)
            return
        record.outcome = "shed"
        self.report.shed += 1
        if self.rec is not None:
            self.rec.instant(
                "faults",
                "shed",
                now,
                {"request_id": record.request_id, "device": index},
            )
        self._finish_terminal(record, index)

    def _drop(self, index: int, record: RequestRecord) -> None:
        """Gate callback: a cancelled record left the queue — a losing
        hedge attempt, or a primary already finalized by its hedge."""
        self._forget(index, record)
        if record.hedge:
            self._drop_hedge(record)

    def _drop_hedge(self, attempt: RequestRecord) -> Optional[RequestRecord]:
        """Unlink a hedge attempt from its pairing maps; returns its
        primary (None once the pairing is gone)."""
        primary = self.hedge_primary.pop(id(attempt), None)
        if primary is not None and self.hedge_attempt.get(id(primary)) is attempt:
            del self.hedge_attempt[id(primary)]
        return primary

    # -- terminal resolution --------------------------------------------------
    def _finish_terminal(self, record: RequestRecord, index: int) -> None:
        """Close out a primary record (success or terminal outcome): its
        trace row may flush, and this is where the loop folds a record
        into the store of the device that resolved it."""
        self.open_requests -= 1
        if self.streamer is not None:
            self.streamer.finish(record)
        if self.device_fold is not None:
            met = self.device_fold[index](record, self.slo)
            if self.live is not None:
                del self.live[id(record)]
                if not met:
                    self.missed += 1

    def _record_phases(self, record: RequestRecord, index: int) -> None:
        """QUEUE/PREFILL/DECODE spans of a finished request (tagged with
        the routed device in the fleet shape)."""
        extra = {"device": index} if self.router is not None else None
        record_request_phases(self.rec, "requests", record, extra)

    def _cancel_sibling_hedge(self, record: RequestRecord) -> None:
        """A primary resolved: cancel its in-flight hedge attempt, if any."""
        sibling = self.hedge_attempt.pop(id(record), None)
        if sibling is None:
            return
        self.hedge_primary.pop(id(sibling), None)
        sibling.cancelled = True
        dev = self.owner.get(id(sibling))
        if dev is not None:
            # Queued: purged at the device's next planning call.  Active:
            # its occupancy runs to an ignored completion (non-preemptive).
            self.devices[dev].gate.dirty = True
            self.touched.add(dev)

    # -- delivery -------------------------------------------------------------
    def _deliver(self, record: RequestRecord, now: float, arrival: bool = True) -> int:
        """Route ``record``, enqueue it on the chosen device, return the index.

        A source ``arrival`` opens a request, takes the next trace row (and
        assignment) and arms its hedge timer.  A re-dispatch (client retry,
        crash re-queue) moves an open request's assignment to its new
        device; a hedge attempt has no row of its own.
        """
        record.attempts += 1
        devices = self.devices
        router = self.router
        if router is None:
            index = 0
        else:
            index = router.route(record, devices, now)
            if not 0 <= index < len(devices):
                raise ValueError(
                    f"router {router.name!r} routed to device {index} "
                    f"of a {len(devices)}-device fleet"
                )
        devices[index].enqueue(record, now)
        self.touched.add(index)
        if self.resilient:
            if record.attempt_s is None:
                record.attempt_s = []
            record.attempt_s.append(now)
            self.owner[id(record)] = index
        assignments = self.assignments
        if arrival:
            self.open_requests += 1
            if assignments is not None:
                if self.resilient:
                    self.arrival_pos[id(record)] = len(assignments)
                assignments.append(index)
            if self.streamer is not None:
                self.streamer.register(record)
            if self.live is not None:
                self.live[id(record)] = [record, index]
            if self.hedge_after_s is not None:
                self._push_retry(record.arrival_s + self.hedge_after_s, _HEDGE, record)
        elif assignments is not None and not record.hedge:
            # A hedge attempt has no row; its id may even reuse a dropped
            # record's, so it must never read ``arrival_pos``.
            assignments[self.arrival_pos[id(record)]] = index
            if self.live is not None:
                self.live[id(record)][1] = index
        return index

    def _push_retry(self, time_s: float, action: int, record: RequestRecord) -> None:
        self.retry_seq += 1
        heapq.heappush(self.retry_heap, (time_s, self.retry_seq, action, record))

    def _deliver_retries(self, now: float) -> None:
        """Client retries and hedge timers due at ``now`` (after every
        source arrival due at the same instant)."""
        retry_heap = self.retry_heap
        rec = self.rec
        while retry_heap and retry_heap[0][0] <= now:
            _, _, action, record = heapq.heappop(retry_heap)
            if (
                record.outcome is not None
                or record.finish_s is not None
                or record.cancelled
            ):
                continue  # resolved while the timer was pending
            if action == _RETRY:
                record.retries += 1
                self.report.retries += 1
                if rec is not None:
                    rec.instant(
                        "faults",
                        "retry",
                        now,
                        {
                            "request_id": record.request_id,
                            "attempt": record.attempts + 1,
                        },
                    )
                self._deliver(record, now, arrival=False)
            elif record.first_token_s is None and id(record) not in self.hedge_attempt:
                # A hedge timer for a primary that has not started yet.
                attempt = RequestRecord(record.source, hedge=True)
                self.hedge_primary[id(attempt)] = record
                self.hedge_attempt[id(record)] = attempt
                self.report.hedges += 1
                if rec is not None:
                    rec.instant(
                        "faults", "hedge", now, {"request_id": record.request_id}
                    )
                self._deliver(attempt, now, arrival=False)

    # -- completion handling --------------------------------------------------
    def _member_done(self, index: int, record: RequestRecord, time_s: float) -> None:
        """Resolve one batch member of a finished occupancy (every run
        completes through here; without a spec only the stamp and the
        fold remain)."""
        self.owner.pop(id(record), None)
        if record.cancelled:
            return  # resolved elsewhere (hedge), run to an ignored end
        if record.hedge:
            self._hedge_done(index, record, time_s)
            return
        if record.finish_s is not None or record.outcome is not None:
            return  # superseded: finalized by a winning hedge
        rec = self.rec
        injector = self.injector
        if injector is not None and injector.attempt_fails(
            record.request_id, record.attempts
        ):
            # Flaky failure: the attempt's output is unusable.
            record.first_token_s = None
            retry = self.retry
            if retry is not None and record.attempts < retry.max_attempts:
                record.prefill_start_s = None
                delay = retry.delay_s(record.attempts, record.request_id)
                self._push_retry(time_s + delay, _RETRY, record)
                return
            record.outcome = "failed"
            self.report.failed += 1
            if rec is not None:
                rec.instant(
                    "faults",
                    "failed",
                    time_s,
                    {"request_id": record.request_id, "attempts": record.attempts},
                )
        else:
            record.finish_s = time_s
            deadline = self.deadline_s
            if deadline is not None and time_s - record.arrival_s > deadline:
                record.outcome = "timed_out"
                self.report.timed_out += 1
                if rec is not None:
                    rec.instant(
                        "faults", "timeout", time_s, {"request_id": record.request_id}
                    )
            if rec is not None:
                self._record_phases(record, index)
        self._cancel_sibling_hedge(record)
        self._finish_terminal(record, index)

    def _hedge_done(self, index: int, attempt: RequestRecord, time_s: float) -> None:
        """A hedge attempt finished: adopt its stamps if the primary is
        still unresolved (and the attempt itself was not flaky)."""
        primary = self._drop_hedge(attempt)
        if primary is None:
            return
        attempt.finish_s = time_s
        if primary.finish_s is not None or primary.outcome is not None:
            return
        injector = self.injector
        if injector is not None and injector.attempt_fails(
            primary.request_id, primary.attempts, "hedge"
        ):
            return  # the hedge itself flaked; the primary continues alone
        primary.prefill_start_s = attempt.prefill_start_s
        primary.first_token_s = attempt.first_token_s
        primary.finish_s = time_s
        pos = self.arrival_pos.get(id(primary))
        if pos is not None:
            self.assignments[pos] = index
        prev = self.owner.get(id(primary))
        if prev is not None:
            # The primary's own attempt loses: silently cancel it.
            primary.cancelled = True
            self.devices[prev].gate.dirty = True
            self.touched.add(prev)
        deadline = self.deadline_s
        if deadline is not None and time_s - primary.arrival_s > deadline:
            primary.outcome = "timed_out"
            self.report.timed_out += 1
        else:
            self.report.hedge_wins += 1
        rec = self.rec
        if rec is not None:
            rec.instant(
                "faults",
                "hedge_win",
                time_s,
                {"request_id": primary.request_id, "device": index},
            )
            self._record_phases(primary, index)
        self._finish_terminal(primary, index)

    # -- fault handling -------------------------------------------------------
    def _fault(self, index: int, time_s: float) -> None:
        """Apply the device's next fault transition."""
        cursor = self.cursors[index]
        event = cursor.pop()
        device = self.devices[index]
        gate = device.gate
        rec = self.rec
        action = event.action
        if action == CRASH:
            if device.up:
                device.up = False
                self.report.crashes += 1
                self.down_since[index] = time_s
                if rec is not None:
                    rec.instant("faults", "crash", time_s, {"device": index})
                self._abort_device(index, device, time_s)
        elif action == RECOVER:
            if not device.up:
                device.up = True
                self.report.recoveries += 1
                ttr = time_s - self.down_since[index]
                self.report.downtime_s += ttr
                self.report.time_to_recover_s = self.report.time_to_recover_s + (ttr,)
                self.down_since[index] = None
                self.touched.add(index)
                if rec is not None:
                    rec.instant(
                        "faults", "recover", time_s, {"device": index, "ttr_s": ttr}
                    )
        elif action == SLOW_START:
            gate.slow_factor = event.factor
            self.report.slow_windows += 1
            if rec is not None:
                rec.instant(
                    "faults",
                    "slow_start",
                    time_s,
                    {"device": index, "factor": event.factor},
                )
        elif action == SLOW_END:
            gate.slow_factor = 1.0
            if rec is not None:
                rec.instant("faults", "slow_end", time_s, {"device": index})
        head = cursor.head_time
        gate.boundary_s = head
        if head is not None:
            self.queue.push(head, FAULT, index)
        self._refresh_fault_head()

    def _abort_device(self, index: int, device: Device, time_s: float) -> None:
        """Crash support: abort the in-flight occupancy, evict and
        re-route everything the device owed work to."""
        lost: List[RequestRecord] = []
        occupancy = device._occupancy
        if occupancy is not None:
            # Keep the executed head of the busy window, refund the tail.
            device.busy_s -= device.busy_until - time_s
            device.busy_until = None
            device._occupancy = None
            lost = list(occupancy.completed)
        evicted = lost + device.scheduler.evict_all()
        requeue: List[RequestRecord] = []
        rec = self.rec
        for record in evicted:
            self._forget(index, record)
            if record.hedge:
                self._drop_hedge(record)  # the attempt dies with the device
                continue
            if (
                record.cancelled
                or record.outcome is not None
                or record.finish_s is not None
            ):
                continue
            # The computed KV is lost with the device: wipe the stamps and
            # re-queue; the re-prefill (and any re-spill) is priced fresh
            # wherever the request lands.
            record.prefill_start_s = None
            record.first_token_s = None
            record.finish_s = None
            self.report.requeued += 1
            if rec is not None:
                rec.instant(
                    "faults",
                    "requeue",
                    time_s,
                    {"request_id": record.request_id, "from": index},
                )
            requeue.append(record)
        for record in requeue:
            # Re-route at the crash instant against live health state.
            self._deliver(record, time_s, arrival=False)

    # -- planning -------------------------------------------------------------
    def _refresh_fault_head(self) -> None:
        """Re-derive the earliest pending fault instant across all devices."""
        head: Optional[float] = None
        for cursor in self.cursors:
            if cursor is None:
                continue
            time_s = cursor.head_time
            if time_s is not None and (head is None or time_s < head):
                head = time_s
        self._fault_head = head

    def _horizon(self, now: float) -> Optional[float]:
        """The next arrival-like instant schedulers must not coalesce past
        with a free slot: the next source arrival, and on resilient runs
        the next retry or hedge timer.  Dynamic deliveries the heaps
        cannot know yet are covered by two caps (see ``__init__``): a
        crash re-queue lands no sooner than the next fault anywhere, a
        flaky retry no sooner than the shortest backoff after ``now``."""
        horizon = self.source.head_time
        if not self.resilient:
            return horizon
        for cap in (
            self.retry_heap[0][0] if self.retry_heap else None,
            self._fault_head,
            now + self._min_retry_delay if self._min_retry_delay is not None else None,
        ):
            if cap is not None and (horizon is None or cap < horizon):
                horizon = cap
        return horizon

    def _plan(self, now: float, horizon: Optional[float]) -> None:
        """Plan every touched device in index order; idle, up devices
        start their next occupancy (see :meth:`Device.maybe_start`)."""
        touched = self.touched
        if len(touched) == 1:
            order = (touched.pop(),)
        else:
            order = sorted(touched)
            touched.clear()
        devices = self.devices
        for index in order:
            end = devices[index].maybe_start(now, horizon, self.max_steps)
            if end is not None:
                self.queue.push(end, COMPLETION, index)

    def _decided(self) -> bool:
        """Whether attainment can no longer reach the SLO threshold even
        if everything still in flight meets it (the fail-fast verdict)."""
        missed = self.missed
        total = self.total
        return bool(missed) and (total - missed) / total < self.slo.min_attainment

    # -- the loop -------------------------------------------------------------
    def run(self) -> None:
        source = self.source
        devices = self.devices
        queue = self.queue
        touched = self.touched
        retry_heap = self.retry_heap
        router = self.router
        deliver = self._deliver
        plan = self._plan
        member_done = self._member_done
        horizon = self._horizon
        fail_fast = self.fail_fast
        prof_add = self.prof_add
        prof_clock = self.prof_clock
        now = 0.0
        num_events = 0
        idle_faults = 0
        try:
            while True:
                num_events += 1
                # 1. Deliver the arrivals due now, then due retries and
                # hedge timers (source arrivals first at equal times).
                if prof_add is not None:
                    t0 = prof_clock()
                head = source.head_time
                while head is not None and head <= now:
                    deliver(source.pop(), now)
                    head = source.head_time
                if retry_heap and retry_heap[0][0] <= now:
                    self._deliver_retries(now)
                    idle_faults = 0
                if prof_add is not None:
                    t1 = prof_clock()
                    prof_add("dispatch", t1 - t0)
                # 2. Touched devices plan.  Untouched ones saw no arrival, no
                # completion and no fault, so planning could only repeat its
                # previous answer (skipping it drops only redundant
                # same-depth queue samples).
                if touched:
                    plan(now, horizon(now))
                    if prof_add is not None:
                        prof_add("planning", prof_clock() - t1)
                    if fail_fast and self._decided():
                        self.early_exit = True
                        break
                if head is None and not self.open_requests:
                    break
                # 3. Advance to the next completion, fault or retry.  An
                # arrival before it routes in passing; it becomes the next
                # event only if its device can act on it (idle and up) —
                # otherwise nothing changes until that device's own event.
                if prof_add is not None:
                    t0 = prof_clock()
                nxt = queue.head_time
                if retry_heap and (nxt is None or retry_heap[0][0] < nxt):
                    nxt = retry_heap[0][0]
                woken = None
                while head is not None and (nxt is None or head < nxt):
                    device = devices[deliver(source.pop(), head)]
                    if device.busy_until is None and device.up:
                        woken = head
                        break
                    if retry_heap and (nxt is None or retry_heap[0][0] < nxt):
                        nxt = retry_heap[0][0]  # the hedge timer just armed
                    head = source.head_time
                if prof_add is not None:
                    t1 = prof_clock()
                    prof_add("dispatch", t1 - t0)
                if woken is not None:
                    now = woken
                    idle_faults = 0
                    continue
                if nxt is None:
                    stuck = sum(device.scheduler.pending for device in devices)
                    raise RuntimeError(
                        f"{stuck} pending requests ({self.open_requests} open) "
                        "but no event is scheduled to make progress"
                    )
                now = nxt
                # 4. Stamp the completions, then apply the fault transitions,
                # due at the new instant (pop_due yields them in that order).
                # A crash may have aborted an occupancy after its completion
                # was scheduled: ``Device.complete`` answers None for that
                # stale entry.
                for time_s, kind, index, _ in queue.pop_due(now):
                    if kind == COMPLETION:
                        device = devices[index]
                        completed = device.complete(time_s)
                        if completed is None:
                            continue
                        idle_faults = 0
                        for record in completed:
                            member_done(index, record, time_s)
                        if router is not None:
                            router.on_completed(index, device)
                        touched.add(index)
                    else:
                        self._fault(index, time_s)
                        idle_faults += 1
                        if idle_faults > _MAX_IDLE_FAULTS:
                            raise RuntimeError(
                                "fault events keep advancing the clock but no "
                                f"request progressed in {_MAX_IDLE_FAULTS} "
                                "consecutive events"
                            )
                if prof_add is not None:
                    prof_add("fold", prof_clock() - t1)
                if fail_fast and self._decided():
                    self.early_exit = True
                    break
                # The instant that resolves the last request ends the run;
                # it is not an event of its own.
                if source.head_time is None and not self.open_requests:
                    break
            self.num_events = num_events
            self._close(now)
        finally:
            if self.streamer is not None:
                self.streamer.release()

    # -- close-out ------------------------------------------------------------
    def _close(self, now: float) -> None:
        self.now = now
        for device in self.devices:
            device.finalize(now)
            if device.backend_name is None:
                # A replica that received no traffic still resolves its
                # display name (and the OOM check) against the first payload.
                first = self.source.first_request
                device.backend_name = device.cost.profile(first).backend_name
        if self.report is not None:
            # A crash still open at the end of the run contributes downtime
            # truncated at the makespan, but no recovery sample.
            for since in self.down_since:
                if since is not None:
                    self.report.downtime_s += now - since
            self.report.makespan_s = now
        tail = self.source.tail()
        if self.streamer is not None:
            self.streamer.close(tail=tail)
        if self.source.records is not None and self.router is not None:
            # A kept record belongs to the device its trace row names.
            for record, index in zip(self.source.records, self.assignments):
                self.devices[index].records.append(record)
        if self.device_metrics is not None:
            # Fold whatever an early exit left unresolved on its device,
            # merge the per-device stores into the fleet-wide one, and add
            # the undelivered tail, which has no device.
            slo = self.slo
            if self.live:
                for record, index in self.live.values():
                    self.device_fold[index](record, slo)
            if self.router is not None:
                for part in self.device_metrics:
                    self.fleet_metrics.merge_from(part)
            for record in tail:
                self.fleet_metrics.fold(record, slo)
            for device, metrics in zip(self.devices, self.device_metrics):
                stats = device.queue_stats
                metrics.set_queue_depth(
                    stats if stats is not None else _QueueDepthStats(device.queue_depth)
                )
