"""The single-device serving shape and the backend cost oracle.

:func:`simulate` runs the package's one discrete-event loop
(:mod:`repro.faults.engine`, shared with
:func:`repro.fleet.simulator.simulate_fleet`) over a single device: the
virtual clock advances over request arrivals and device-occupancy
completions, with the scheduler deciding what the device does next.
Time comes exclusively from the workload's arrival stamps and the
backend's analytical latencies; nothing here reads the wall clock, so a
run is a pure function of ``(requests, scheduler, backend)`` and is
exactly reproducible.  The event definition and the total order of
simultaneous events behind the byte-identical-trace guarantee are
documented in :mod:`repro.serving.events`; ``trace_sink`` streams the
trace rows out in chunks as requests are fully stamped, and
``keep_records=False`` drops each record once the loop has folded it
into the run's metric store, so a million-request run holds O(in-flight
batch) record state.

The :class:`BackendCostModel` turns any registered
:class:`repro.api.backend.Backend` into the device model: it profiles
each distinct request shape once through a memoizing
:class:`repro.api.runner.ExperimentRunner` and serves every simulated
occupancy from that cache, so a 10 000-request simulation typically costs
only a handful of backend evaluations (one per distinct shape x batch
width).  On top of the profile cache it keeps one latency table keyed by
payload value, and :meth:`BackendCostModel.canonical` hands schedulers
the first-seen payload of each value: the event loop's inner per-step
queries on that object are plain identity lookups that never re-hash an
:class:`InferenceRequest`.

Fast-forward coalescing (the invariant)
---------------------------------------

The loop passes the next arrival time (the *horizon*) to the scheduler,
which may answer with a single occupancy covering ``k`` decode steps
instead of ``k`` one-step occupancies.  This is an equivalence, not an
approximation, because nothing observable can happen strictly inside the
coalesced interval: the batch composition is frozen until the next
in-batch completion, and any admission opportunity created by an arrival
is aligned to a step boundary the scheduler refuses to coalesce past.
Coalescing schedulers accumulate the interval's end one step-duration at
a time (never as one ``k * step`` product), so the clock visits exactly
the same floats as the step-by-step loop and the per-request trace CSV is
byte-identical between ``max_steps=None`` (coalesced, the default) and
``max_steps=1`` (uncoalesced) runs.  Queue-depth sampling stays
per-event-boundary: every per-request stamp (and hence every CSV cell and
SLO metric) is exact, while the (time, depth) sample stream is simply
resolved at occupancy granularity — arrivals that queue behind a full
batch are counted when the clock reaches the interval's end, which is
also the first moment the uncoalesced loop could have *acted* on them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.backend import Backend
from repro.api.request import InferenceRequest
from repro.api.result import RunResult
from repro.api.runner import ExperimentRunner
from repro.serving.metrics import ServingReport, SLOSpec
from repro.serving.request import ServingRequest
from repro.serving.scheduler import FCFSScheduler, Scheduler
from repro.serving.stream import TraceSink

BackendLike = Union[str, Backend]

#: Cache-miss sentinel distinguishing "absent" from a legitimate 0.0 latency.
_MISSING = object()


class BackendCostModel:
    """Per-phase latency oracle over one backend, memoized across queries."""

    def __init__(self, backend: BackendLike, runner: Optional[ExperimentRunner] = None):
        self._backend = backend
        self._runner = runner if runner is not None else ExperimentRunner()
        #: payload value -> (canonical payload, {(batch width, field) ->
        #: seconds}): one entry per distinct request shape, however many
        #: equal payload objects a workload builds.
        self._table: Dict[InferenceRequest, Tuple[InferenceRequest, dict]] = {}
        #: id(canonical payload) -> its ``_table`` entry, the hot path: a
        #: lookup by object identity never hashes the dataclass.  It never
        #: evicts — ``_table`` pins every canonical object, so no id here
        #: can be reused by another object.
        self._by_id: Dict[int, Tuple[InferenceRequest, dict]] = {}
        self._hits = 0
        self._misses = 0

    @property
    def backend_name(self) -> str:
        if isinstance(self._backend, str):
            return self._backend
        return self._backend.name

    def _entry(self, request: InferenceRequest) -> Tuple[InferenceRequest, dict]:
        """The table entry of ``request``'s value, created on first sight."""
        entry = self._table.get(request)
        if entry is None:
            entry = (request, {})
            self._table[request] = entry
            self._by_id[id(request)] = entry
        return entry

    def canonical(self, request: InferenceRequest) -> InferenceRequest:
        """The first-seen payload equal to ``request`` (hashes it once).

        Schedulers price the canonical object, so every later latency
        lookup on it resolves by identity, and equal payloads in a batch
        are one object.
        """
        return self._entry(request)[0]

    def _latency(
        self, request: InferenceRequest, batch_size: Optional[int], field: str
    ) -> float:
        """One scalar latency, memoized locally so the event loop's inner
        per-step queries skip the request rebuild and the runner's lock."""
        batch = batch_size if batch_size is not None else request.batch_size
        entry = self._by_id.get(id(request))
        if entry is None:
            entry = self._entry(request)
        table = entry[1]
        slot = (batch, field)
        value = table.get(slot, _MISSING)
        if value is not _MISSING:
            self._hits += 1
            return value
        self._misses += 1
        value = getattr(self.profile(request, batch_size), field)
        table[slot] = value
        return value

    def profile(
        self, request: InferenceRequest, batch_size: Optional[int] = None
    ) -> RunResult:
        """The backend's :class:`RunResult` for ``request`` (cached).

        ``batch_size`` overrides the request's own batch width — that is
        how schedulers price batched prefills and decode steps.  A request
        the backend cannot hold is a configuration error for a serving
        study, so OOM raises instead of silently skewing the metrics.
        """
        if batch_size is not None and batch_size != request.batch_size:
            request = request.with_overrides(batch_size=batch_size)
        result = self._runner.run(self._backend, request)
        if result.out_of_memory:
            raise ValueError(
                f"{request.model_name} does not fit on {result.backend_name}; "
                f"a serving workload must use requests the backend can hold "
                f"({result.error})"
            )
        return result

    def ttft(self, request: InferenceRequest, batch_size: Optional[int] = None) -> float:
        """Prefill occupancy: seconds until the first token is available."""
        return self._latency(request, batch_size, "time_to_first_token_s")

    def decode_step(
        self, request: InferenceRequest, batch_size: Optional[int] = None
    ) -> float:
        """One decode step at the given batch width (the step clock)."""
        return self._latency(request, batch_size, "decode_step_seconds")

    def total_seconds(self, request: InferenceRequest) -> float:
        """The whole job run alone: prefill plus every decode step."""
        return self._latency(request, None, "total_seconds")

    def cache_info(self) -> Dict[str, int]:
        """Latency-lookup and backend-profile cache counters.

        ``latency_*`` counts this model's scalar lookups (a miss is a
        lookup that had to consult :meth:`profile`); ``latency_size`` is
        the number of (payload value, batch width, field) latencies held;
        ``latency_evictions`` is always 0 (the table is keyed by payload
        value, so it grows with distinct request shapes, never with
        payload objects, and nothing is evicted); ``profile_*`` is the
        shared :class:`ExperimentRunner`'s view, which spans every cost
        model attached to that runner.
        """
        profile = self._runner.cache_info()
        return {
            "latency_hits": self._hits,
            "latency_misses": self._misses,
            "latency_size": sum(len(entry[1]) for entry in self._table.values()),
            "latency_evictions": 0,
            "profile_hits": profile["hits"],
            "profile_misses": profile["misses"],
            "profile_size": profile["size"],
        }


#: What ``simulate`` accepts as the device model: a registered backend
#: name, a backend object, or an already-built (possibly shared) cost model.
CostLike = Union[BackendLike, BackendCostModel]


def _is_sorted(requests: Sequence[ServingRequest]) -> bool:
    """Whether the stream is already in (arrival time, request id) order."""
    for index in range(len(requests) - 1):
        if requests[index + 1] < requests[index]:
            return False
    return True


def _ordered_requests(requests: Iterable[ServingRequest]) -> List[ServingRequest]:
    """The stream as a sorted list, skipping the sort for pre-sorted lists.

    Workload generators and trace replays already emit sorted lists, so
    the common case is a single O(n) monotonicity scan; anything else
    (unsorted lists, generators) keeps the defensive sort.
    """
    if isinstance(requests, list) and _is_sorted(requests):
        return requests
    return sorted(requests)


def simulate(
    requests: Iterable[ServingRequest],
    backend: CostLike,
    scheduler: Optional[Scheduler] = None,
    *,
    slo: Optional[SLOSpec] = None,
    runner: Optional[ExperimentRunner] = None,
    max_steps: Optional[int] = None,
    fail_fast: bool = False,
    trace_sink: Optional[TraceSink] = None,
    keep_records: bool = True,
    recorder=None,
    profiler=None,
    faults=None,
    retry=None,
    deadline_s: Optional[float] = None,
) -> ServingReport:
    """Run the arrival stream to completion and return the report.

    Semantics:

    * arrivals are delivered to the scheduler the moment the simulated
      clock reaches them (at event boundaries — the device is
      non-preemptive, so an occupancy in flight finishes first);
    * when the scheduler has nothing to run, the clock jumps straight to
      the next arrival (idle time costs nothing to simulate);
    * the queue depth is sampled at every event boundary, giving the
      exact step function of waiting requests over time.

    ``scheduler`` defaults to a fresh :class:`FCFSScheduler`.  ``backend``
    may be a pre-built :class:`BackendCostModel` to share latency caches
    across runs; otherwise pass a shared ``runner`` to reuse backend
    profiles (the capacity search does both across its whole bisection).

    ``max_steps`` caps fast-forward coalescing per occupancy (None, the
    default, lets schedulers coalesce freely; 1 forces the step-by-step
    loop — see the module docstring for why both produce byte-identical
    traces).  With ``fail_fast`` (requires ``slo``) the loop aborts as
    soon as enough requests have definitively missed the SLO that
    attainment can no longer reach ``slo.min_attainment``; the returned
    report then carries partially-stamped records, still fails
    :meth:`ServingReport.meets_slo`, and sets ``early_exit``.

    Streaming output: ``trace_sink`` (a path or a file-like object)
    receives the trace-CSV rows in chunks as requests are fully stamped
    (the last chunk at the end of the run, or when it raises) —
    byte-identical to :meth:`ServingReport.to_csv`, rows in arrival
    order.  ``keep_records=False`` drops each record once the loop
    has folded it into the run's
    :class:`repro.serving.metrics.StreamedMetrics` store (sink or not), so
    a million-request run holds O(in-flight batch) record state: the
    report then carries empty ``records`` and answers every aggregate
    (percentiles, attainment, goodput, queue depth) from that store, the
    same one a kept report folds from its records.  With
    ``keep_records=False`` a non-list ``requests`` iterable is consumed
    lazily (it must already be sorted), so even the arrival stream never
    materializes; lazy streams cannot be combined with ``fail_fast`` (its
    attainment arithmetic needs the total request count up front).

    Observability: ``recorder`` (a :class:`repro.obs.Recorder`) receives
    sim-time spans and instants — one span per device occupancy, one
    QUEUE/PREFILL/DECODE span set per finished request, plus the
    scheduler's and memory model's decision instants.  Every emission is
    a read-only observation, so attaching a recorder never changes the
    trace, the report, or the makespan; a disabled recorder (None or
    ``NullRecorder``) costs nothing per event.  ``profiler`` (a
    :class:`repro.obs.PhaseProfiler`) accumulates *wall-clock* seconds
    around the loop's dispatch/planning/fold phases — explicitly outside
    the determinism guarantee (it changes nothing but how fast the loop
    runs).

    Resilience: ``faults`` (a :class:`repro.faults.FaultSpec`), ``retry``
    (a :class:`repro.faults.RetryPolicy`) and ``deadline_s`` (per-request
    deadline, seconds) switch on the loop's fault handlers, and the
    report gains a :class:`repro.faults.FaultReport`.  A crash has nowhere
    to fail over to: evicted requests re-queue on this device and wait
    out the recovery.  With all three at their None defaults the handlers
    are inert and traces stay byte-identical to earlier versions.
    """
    from repro.faults.engine import _Engine
    from repro.fleet.device import Device

    scheduler = scheduler if scheduler is not None else FCFSScheduler()
    if scheduler.pending:
        raise ValueError("scheduler already has pending requests; use a fresh one")
    cost = backend if isinstance(backend, BackendCostModel) else None
    # A cost model taken from a sharded fleet device keeps its sharding.
    sharding = getattr(cost, "_fleet_sharding", None)
    device = Device(backend, scheduler, sharding=sharding, runner=runner, cost=cost)
    engine = _Engine(
        requests,
        [device],
        None,
        faults=faults,
        retry=retry,
        deadline_s=deadline_s,
        slo=slo,
        max_steps=max_steps,
        fail_fast=fail_fast,
        trace_sink=trace_sink,
        keep_records=keep_records,
        recorder=recorder,
        profiler=profiler,
    )
    engine.run()
    # A time-resolved recorder closes its windows on the makespan and may
    # hand back an AlertLog; plain recorders return None.
    rec = engine.rec
    alerts = rec.finalize_run(engine.now) if rec is not None else None
    memory = device.memory
    return ServingReport(
        backend_name=device.backend_name,
        scheduler_name=scheduler.name,
        records=engine.source.records if keep_records else [],
        makespan_s=engine.now,
        busy_s=device.busy_s,
        queue_depth=device.queue_depth,
        slo=slo,
        num_events=engine.num_events,
        early_exit=engine.early_exit,
        streamed=engine.fleet_metrics,
        memory=memory.report() if memory is not None else None,
        event_queue=engine.queue.stats(),
        alerts=alerts,
        faults=engine.report,
    )
