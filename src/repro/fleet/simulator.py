"""Fleets: many devices, one deterministic clock.

:func:`simulate_fleet` runs the package's one event loop
(:mod:`repro.faults.engine`) over N devices behind a router;
:func:`repro.serving.simulator.simulate` runs the same loop over one.
The clock advances over request arrivals (routed to a device the moment
they happen), per-device occupancy completions and the planning
opportunities both create, and every device replays exactly the
semantics of the single-device run on its own slice of the timeline:

* completions due at the current time are stamped *before* new arrivals
  are delivered, and arrivals are delivered *before* idle devices plan
  (the total order of :mod:`repro.serving.events`);
* a device samples its queue depth at every planning attempt (and once at
  the end), so a 1-replica fleet reproduces ``simulate()``'s report —
  records, busy seconds, queue-depth samples and event count — exactly;
* routing happens at arrival time against the live device states, and
  every policy is deterministic, so a fixed workload seed fixes the device
  assignment (and the trace CSV) byte for byte.

All devices may share one :class:`repro.api.runner.ExperimentRunner`:
a 16-device, 10k-request simulation still costs a handful of backend
evaluations because every replica of the same backend hits the same
memoized profiles.  With ``trace_sink``/``keep_records=False`` each
request's trace row streams out the moment it is stamped and each
record is folded into the metric store of the device that resolved it,
so a million-request, hundred-device day runs in seconds holding
O(in-flight) record state.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from repro.api.backend import Backend
from repro.api.runner import ExperimentRunner
from repro.fleet.device import Device
from repro.fleet.report import FleetReport
from repro.fleet.router import JoinShortestQueueRouter, Router
from repro.fleet.sharding import ShardingSpec
from repro.serving.metrics import ServingReport, SLOSpec
from repro.serving.request import ServingRequest
from repro.serving.scheduler import FCFSScheduler
from repro.serving.stream import TraceSink

BackendLike = Union[str, Backend]


def build_fleet(
    backends: Sequence[BackendLike],
    *,
    scheduler_factory=FCFSScheduler,
    sharding: Optional[ShardingSpec] = None,
    runner: Optional[ExperimentRunner] = None,
    cost_cache: Optional[dict] = None,
) -> List[Device]:
    """One :class:`Device` per backend entry, all sharing ``runner``.

    ``backends`` may repeat a backend (or its registry name) to build N
    replicas, or mix different systems for a heterogeneous fleet.  Each
    device gets a *fresh* scheduler from ``scheduler_factory`` and, when
    ``sharding`` is given, the same sharding transform.  When no runner
    is passed the fleet still shares one, so N replicas of the same
    backend profile each request shape once, not N times.

    Replicas of the same (backend, sharding) also share one
    :class:`repro.serving.simulator.BackendCostModel`, so interned
    per-shape latencies are resolved once per fleet rather than once per
    device.  Pass a mutable ``cost_cache`` dict to extend that sharing
    across *many* fleets (the sizing search reuses one across every
    replica-count probe).
    """
    if not backends:
        raise ValueError("a fleet needs at least one backend")
    runner = runner if runner is not None else ExperimentRunner()
    shared = cost_cache if cost_cache is not None else {}
    devices = []
    for backend in backends:
        key = (backend if isinstance(backend, str) else id(backend), sharding)
        device = Device(
            backend,
            scheduler_factory(),
            sharding=sharding,
            runner=runner,
            cost=shared.get(key),
        )
        shared.setdefault(key, device.cost)
        devices.append(device)
    return devices


def simulate_fleet(
    requests: Iterable[ServingRequest],
    devices: Sequence[Device],
    router: Optional[Router] = None,
    *,
    slo: Optional[SLOSpec] = None,
    max_steps: Optional[int] = None,
    fail_fast: bool = False,
    trace_sink: Optional[TraceSink] = None,
    keep_records: bool = True,
    recorder=None,
    profiler=None,
    faults=None,
    retry=None,
    deadline_s: Optional[float] = None,
) -> FleetReport:
    """Run the arrival stream across the fleet and merge the timelines.

    ``max_steps`` caps each device's fast-forward coalescing exactly as in
    :func:`repro.serving.simulator.simulate` (None = coalesce freely,
    1 = step-by-step; both yield byte-identical trace CSVs).  With
    ``fail_fast`` (requires ``slo``) the loop aborts once attainment can
    no longer reach the threshold, which makes failing sizing probes cheap.

    ``trace_sink``/``keep_records`` stream the fleet trace exactly as in
    :func:`repro.serving.simulator.simulate`: rows (including the routed
    device column) are written in arrival order the moment each request is
    fully stamped, byte-identical to :meth:`FleetReport.to_csv`.  With
    ``keep_records=False`` the loop folds each record into the metric
    store of the device that resolved it (the device its trace row
    names), sink or not, and the fleet-wide store merges them; the run
    holds O(in-flight) record state and the report answers every
    aggregate, fleet-wide and per device, from the same stores a kept
    report folds from its records.  Lazy (non-list) streams combined with
    ``keep_records=False`` are consumed incrementally and cannot be used
    with ``fail_fast``.

    Observability mirrors :func:`repro.serving.simulator.simulate`:
    ``recorder`` receives per-replica occupancy spans (tracks
    ``device0..N``), per-request phase spans (track ``requests``, tagged
    with the routed device), router decision instants with per-candidate
    scores (track ``router``), and per-replica memory instants (tracks
    ``memory0..N``); ``profiler`` times the loop's dispatch/planning/fold
    phases on the wall clock.  Neither changes a single simulated float.

    Resilience: ``faults`` (a :class:`repro.faults.FaultSpec`), ``retry``
    (a :class:`repro.faults.RetryPolicy`) and ``deadline_s`` (per-request
    deadline, seconds) switch on the loop's fault handlers, and the
    report gains a :class:`repro.faults.FaultReport`.  Crashed replicas
    abort and re-route their work at the crash instant; pair with
    ``get_router("failover")`` (or any router built with
    ``exclude_unhealthy=True``) to steer new arrivals around them until
    recovery.  With all three at their None defaults the handlers are
    inert and traces stay byte-identical to earlier versions.
    """
    from repro.faults.engine import _Engine

    router = router if router is not None else JoinShortestQueueRouter()
    if getattr(router, "used", False):
        raise ValueError(
            "router already drove a simulation; use a fresh one "
            "(routers may carry state across route() calls)"
        )
    devices = list(devices)
    if not devices:
        raise ValueError("cannot simulate an empty fleet")
    for device in devices:
        if device.records or not device.idle:
            raise ValueError("devices already carry state; build a fresh fleet")
    engine = _Engine(
        requests,
        devices,
        router,
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
    rec = engine.rec
    alerts = rec.finalize_run(engine.now) if rec is not None else None
    device_reports = []
    device_metrics = engine.device_metrics or [None] * len(devices)
    for device, streamed in zip(devices, device_metrics):
        memory = device.memory
        device_reports.append(
            ServingReport(
                backend_name=device.backend_name,
                scheduler_name=device.scheduler.name,
                records=device.records,
                makespan_s=engine.now,
                busy_s=device.busy_s,
                queue_depth=device.queue_depth,
                slo=slo,
                streamed=streamed,
                memory=memory.report() if memory is not None else None,
            )
        )
    return FleetReport(
        router_name=router.name,
        device_reports=device_reports,
        records=engine.source.records if keep_records else [],
        assignments=engine.assignments,
        makespan_s=engine.now,
        slo=slo,
        num_events=engine.num_events,
        early_exit=engine.early_exit,
        streamed=engine.fleet_metrics,
        event_queue=engine.queue.stats(),
        alerts=alerts,
        faults=engine.report,
    )
