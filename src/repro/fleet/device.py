"""One fleet replica: a backend-priced device with its own scheduler.

A :class:`Device` bundles a scheduler, a
:class:`repro.serving.simulator.BackendCostModel`, the busy/idle state and
the per-device timeline (busy seconds, queue-depth samples), so the one
event loop (:mod:`repro.faults.engine`) can interleave many of them on one
clock.  ``simulate()`` runs that loop over a single device and
``simulate_fleet()`` over N, which is why a 1-replica, unsharded fleet
reproduces ``simulate()`` record for record.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.api.backend import Backend
from repro.api.runner import ExperimentRunner
from repro.fleet.sharding import ShardedBackend, ShardingSpec
from repro.serving.request import RequestRecord
from repro.serving.scheduler import FCFSScheduler, Occupancy, Scheduler
from repro.serving.simulator import BackendCostModel


class Device:
    """One replica of the fleet: scheduler + cost model + timeline state."""

    __slots__ = (
        "scheduler",
        "cost",
        "backend_name",
        "records",
        "busy_until",
        "busy_s",
        "queue_depth",
        "_occupancy",
        "outstanding",
        "outstanding_work_s",
        "track_work",
        "queue_stats",
        "up",
        "gate",
    )

    def __init__(
        self,
        backend: Union[str, Backend],
        scheduler: Optional[Scheduler] = None,
        *,
        sharding: Optional[ShardingSpec] = None,
        runner: Optional[ExperimentRunner] = None,
        cost: Optional[BackendCostModel] = None,
    ):
        self.scheduler = scheduler if scheduler is not None else FCFSScheduler()
        if self.scheduler.pending:
            raise ValueError(
                "device scheduler already has pending requests; use a fresh one"
            )
        spec = None if sharding is None or sharding.is_trivial else sharding
        if cost is not None:
            # A shared cost model (same backend + sharding) from a sibling
            # replica: identical latencies, one set of interned caches.
            # It must have been built under the same sharding, or the
            # device would silently price a differently-shaped replica.
            if getattr(cost, "_fleet_sharding", None) != spec:
                raise ValueError(
                    "the shared cost model was built for a different sharding; "
                    "pass the cost of a device with the same spec (or none)"
                )
            self.cost = cost
        else:
            if spec is not None:
                backend = ShardedBackend(backend, spec)
            self.cost = BackendCostModel(backend, runner=runner)
            self.cost._fleet_sharding = spec
        #: Display name of the backend, resolved on the first profile (the
        #: event loop resolves idle devices against the stream's first
        #: payload before reporting).
        self.backend_name: Optional[str] = None

        # -- timeline state ---------------------------------------------------
        #: A kept fleet run's records whose trace row names this device
        #: (filled by the event loop when the run ends).
        self.records: List[RequestRecord] = []
        self.busy_until: Optional[float] = None
        self.busy_s = 0.0
        self.queue_depth: List[Tuple[float, int]] = []
        self._occupancy: Optional[Occupancy] = None
        #: Requests assigned but not finished (the router's queue signal).
        self.outstanding = 0
        #: Estimated seconds of solo work assigned but not finished.
        self.outstanding_work_s = 0.0
        #: When False the loop's router never reads
        #: :attr:`outstanding_work_s`, so enqueue/complete skip the
        #: per-record cost lookups that feed it (set per run by
        #: the event loop from ``Router.needs_work_estimates``).
        self.track_work = True
        #: Streaming replacement for :attr:`queue_depth` (set by
        #: ``keep_records=False`` runs).
        self.queue_stats = None

        # -- health state (fault-injected runs only) --------------------------
        #: False while a crash window is open.  Plain runs never clear it,
        #: so health-aware routing guards are no-ops without faults.
        self.up = True
        #: The per-device :class:`repro.faults.engine.FaultGate` attached
        #: by the event loop on resilient runs (None otherwise); routers read
        #: it for the "slowed" health signal.
        self.gate = None

    # -- routing signals -----------------------------------------------------
    def job_seconds(self, record: RequestRecord) -> float:
        """The record's solo runtime on *this* device (routers compare these)."""
        return self.cost.total_seconds(record.request)

    @property
    def idle(self) -> bool:
        return self.busy_until is None

    @property
    def memory(self):
        """This replica's KV memory model (None without one).

        The scheduler owns the model; the device only surfaces it so
        routers can steer by free DRAM and the event loop can snapshot
        per-device :class:`repro.memory.MemoryReport` counters.
        """
        return getattr(self.scheduler, "memory", None)

    @property
    def free_dram_bytes(self) -> int:
        """Free KV DRAM on this replica (0 without a memory model)."""
        memory = self.memory
        return 0 if memory is None else memory.pool.free_bytes

    # -- event-loop interface ------------------------------------------------
    # The one event loop (:mod:`repro.faults.engine`) drives every device
    # through these three methods, single-device runs included.
    def enqueue(self, record: RequestRecord, now: float) -> None:
        """A request routed here joins this device's waiting queue."""
        if self.backend_name is None:
            # Resolve the display name (and fail fast on an OOM payload) on
            # the first request this device receives.
            self.backend_name = self.cost.profile(record.request).backend_name
        self.outstanding += 1
        if self.track_work:
            self.outstanding_work_s += self.job_seconds(record)
        self.scheduler.enqueue(record, now)

    def maybe_start(
        self,
        now: float,
        horizon: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> Optional[float]:
        """Plan the next occupancy if idle and up; returns its end time.

        The queue depth is sampled after every planning attempt, so a
        request just placed on the device no longer counts as waiting.
        A device with nothing pending and no arrival still to come skips
        the attempt (and the sample).  ``horizon``/``max_steps`` pass
        straight to the scheduler's fast-forward coalescing.
        """
        if self.busy_until is not None or not self.up:
            return None
        scheduler = self.scheduler
        if horizon is None and not scheduler.pending:
            return None
        occupancy = scheduler.next_occupancy(now, self.cost, horizon, max_steps)
        if self.queue_stats is not None:
            self.queue_stats.add(now, scheduler.waiting)
        else:
            self.queue_depth.append((now, scheduler.waiting))
        if occupancy is None:
            return None
        seconds = occupancy.seconds
        if seconds < 0:
            raise ValueError("occupancy duration must be non-negative")
        end = occupancy.end_time(now)
        self.busy_until = end
        self.busy_s += seconds
        self._occupancy = occupancy
        recorder = scheduler.recorder
        if recorder is not None:
            recorder.span(
                scheduler.track,
                occupancy.kind,
                now,
                end,
                {"steps": occupancy.steps, "completed": len(occupancy.completed)},
            )
        return end

    def complete(self, now: float) -> Optional[List[RequestRecord]]:
        """Release the occupancy ending at ``now``; returns the records it
        completed (the loop stamps them), or None when a crash already
        aborted that occupancy and the completion is stale."""
        occupancy = self._occupancy
        if occupancy is None or self.busy_until != now:
            return None
        self.busy_until = None
        self._occupancy = None
        completed = occupancy.completed
        if completed:
            self.outstanding -= len(completed)
            if self.track_work:
                for record in completed:
                    self.outstanding_work_s -= self.job_seconds(record)
        return completed

    def finalize(self, makespan_s: float) -> None:
        """Append the closing queue-depth sample, skipping a sample the
        last planning attempt already stamped."""
        sample = (makespan_s, self.scheduler.waiting)
        if self.queue_stats is not None:
            # Duplicate or zero-width samples leave the streamed area/max
            # untouched, so no dedup check is needed here.
            self.queue_stats.add(*sample)
        elif not self.queue_depth or self.queue_depth[-1] != sample:
            self.queue_depth.append(sample)
