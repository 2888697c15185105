"""Pluggable serving schedulers: how waiting requests get device time.

A scheduler owns the waiting queue and, when the event loop asks, plans
the next *occupancy* — one non-preemptive stretch of device time (a whole
job, a batched job, one prefill, or one decode step).  The event loop in
:mod:`repro.faults.engine` (behind ``simulate`` and ``simulate_fleet``)
advances the clock by the occupancy's duration and stamps the finish
time on every record the occupancy completes.

Three policies are built in:

* :class:`FCFSScheduler` — one request at a time, run to completion; the
  classic single-stream baseline.  A single request arriving at an idle
  device finishes after exactly the backend's ``RunResult.total_seconds``.
* :class:`StaticBatchScheduler` — groups up to ``max_batch`` waiting
  requests into one batch that prefills together, decodes together and
  releases together; stragglers hold the whole batch.
* :class:`ContinuousBatchScheduler` — step-level batching: each decode
  step serves every active sequence, and waiting prefills are admitted
  between steps whenever a batch slot is free (prefill-prioritized,
  vLLM-style).  Requests leave the batch the step their generation ends.

Costing uses the backend's per-phase latencies through the
:class:`repro.serving.simulator.BackendCostModel`: ``time_to_first_token_s``
prices a prefill occupancy and ``decode_step_seconds`` prices one decode
step at the current batch width.  Every latency comes straight from the
cost model, whose own tables memoize it.

Fast-forward coalescing
-----------------------

``next_occupancy`` takes an optional arrival ``horizon`` (the absolute
time of the next arrival still in flight towards the device) and an
optional ``max_steps`` cap.  When the batch composition provably cannot
change before the next interesting boundary — the next in-batch
completion, or the first step boundary at which a waiting arrival could
be admitted — the continuous scheduler coalesces ``k`` decode steps into
a *single* occupancy instead of ``k`` separate events.  The occupancy's
end time is computed by adding the step duration ``k`` times (never by
one ``k * step`` multiplication), so every record timestamp is bit-equal
to the step-by-step loop's and the per-request trace CSV stays
byte-identical.  ``max_steps=1`` reproduces the uncoalesced loop exactly;
FCFS and static batching already emit whole-job occupancies, so both
accept (and ignore) the new arguments.

The memory model
----------------

``ContinuousBatchScheduler(memory=MemorySpec(...))`` switches admission
from slot counting to modeled KV footprints (:mod:`repro.memory`):
a request is admitted when its prompt's KV bytes fit in free DRAM (or
in DRAM plus flash spill space, paying the spill write on the prefill
occupancy), decode steps grow residency per step, and a step whose
growth no longer fits spills to flash and reads the flash-resident KV
back through the channels every step.  Freed DRAM pulls spilled bytes
home as explicit ``refill`` occupancies.  Every spill/refill is a new
interesting boundary: coalescing is additionally capped at the step
where DRAM would fill (regime A), and a spilling batch plans strictly
one step per occupancy (regime B).  A window also stops at the arrival
horizon even when the batch is full, because routers read the booked
KV residency as DRAM headroom.  So coalesced and ``max_steps=1`` runs
stay byte-identical with the model enabled too.  Admission and release
are the same two steps with or without a model; ``memory=None`` (the
default) only skips the byte ledgers.

Faults
------

On runs with a fault spec, retry policy or deadline, the event loop
(:mod:`repro.faults.engine`) attaches a per-device ``FaultGate`` to
:attr:`Scheduler.faults`.  The gate adds three behaviours, all inert when
the attribute is None (so plain runs pay a single identity check):

* **Load shedding** — at every planning call the waiting queue drops
  requests whose deadline already expired (projected queue wait is
  lower-bounded by the wait *already* incurred, so an expired request
  provably cannot meet its deadline whatever the scheduler does) and
  silently discards cancelled hedge attempts.  The gate's callbacks do
  the loop-side bookkeeping.
* **Slowdown pricing** — prefill and decode-step latencies are
  multiplied by ``gate.slow_factor`` while a slowdown window is open.
  The multiplier applies at planning time to the cost model's unscaled
  latency: a non-preemptive occupancy planned before the window opened
  runs at its planned speed.
* **Fault boundaries cap coalescing** — a fault transition is a new
  *interesting boundary*: a coalesced decode window never extends a step
  past ``gate.boundary_s`` (the device's next scheduled fault), so the
  straddling step — the one the crash aborts or the slowdown reprices —
  is planned as its own single-step occupancy in coalesced and
  step-by-step runs alike, keeping them byte-identical under faults.
  Deadline expiry caps coalescing the same way: a decode window stops at
  the first step boundary reaching the earliest instant a queued or
  arriving request could be shed, so shedding — and the queue lengths
  routers read — land on the step boundaries the step-by-step loop uses.

``evict_all`` supports crash aborts: it drains every request the
scheduler still owes work to (in-flight batch members first, then the
queue, both in deterministic order), releasing any KV residency the
memory model holds for them — the re-queued requests pay a fresh
re-prefill (and re-spill) when they are admitted elsewhere.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.serving.request import RequestRecord

#: Occupancy kinds, also used as event labels in reports and tests.
JOB = "job"
BATCH = "batch"
PREFILL = "prefill"
DECODE = "decode"
#: Spilled KV streaming back from flash to freed DRAM (memory model only).
REFILL = "refill"


@dataclass(slots=True)
class Occupancy:
    """One non-preemptive stretch of device time planned by a scheduler."""

    kind: str
    seconds: float
    #: Records whose last token is produced when this occupancy ends; the
    #: event loop stamps their ``finish_s``.
    completed: List[RequestRecord] = field(default_factory=list)
    #: Decode steps coalesced into this occupancy (1 = a single event).
    steps: int = 1
    #: Absolute end time, set by schedulers that coalesce: the step clock
    #: accumulated from the planning time one step at a time, so the event
    #: loop lands on exactly the same float the step-by-step loop reaches.
    end_s: Optional[float] = None

    def end_time(self, now: float) -> float:
        """When this occupancy finishes, starting at ``now``."""
        return self.end_s if self.end_s is not None else now + self.seconds


def _cap_reason(
    steps: int, limit: int, max_steps: Optional[int]
) -> str:
    """Why a coalesced decode occupancy stopped at ``steps``.

    Only evaluated on recorder-attached runs (inside the emission guard):
    ``horizon`` — an admissible arrival's step boundary was reached;
    ``max_steps`` — the caller's coalescing cap; ``completion`` — the
    next in-batch completion (the natural boundary).
    """
    if steps < limit:
        return "horizon"
    if max_steps is not None and steps == max_steps:
        return "max_steps"
    return "completion"


def _window(
    now: float, step: float, limit: int, cap: float, boundary: Optional[float]
) -> Tuple[int, float]:
    """Coalesce up to ``limit`` decode steps from ``now``: ``(steps, end)``.

    The end is accumulated one step at a time, so it walks the exact float
    sequence the step-by-step loop produces.  The window stops at the
    first step boundary reaching ``cap`` (see
    ``ContinuousBatchScheduler.next_occupancy``) and never adds a step that
    crosses the fault ``boundary``: the straddling step — the one a crash
    aborts or a slowdown reprices — is planned alone, exactly as the
    step-by-step loop plans it.
    """
    steps, end = 1, now + step
    if boundary is None:
        while steps < limit and end < cap:
            steps += 1
            end += step
    else:
        while steps < limit and end < cap:
            nxt = end + step
            if nxt > boundary:
                break
            steps += 1
            end = nxt
    return steps, end


class Scheduler:
    """Base policy: a FIFO waiting queue plus the planning hook."""

    name = "scheduler"
    #: Observability hook (:class:`repro.obs.Recorder`): the event loops
    #: attach an *enabled* recorder here before a run; None (the class
    #: default) keeps every emission site a single identity check.
    #: Emissions are read-only observations of decisions already made, so
    #: attaching one never changes what the scheduler plans.
    recorder = None
    #: Recorder track this scheduler's decision instants land on; fleet
    #: runs rename it per replica (``device0``, ``device1``, ...).
    track = "device"
    #: Per-run fault gate (:class:`repro.faults.engine.FaultGate`),
    #: attached on resilient runs; None (the default) keeps every fault
    #: consultation on plain runs a single identity check.
    faults = None

    def __init__(self) -> None:
        self._waiting: Deque[RequestRecord] = deque()

    # -- event-loop interface ------------------------------------------------
    def enqueue(self, record: RequestRecord, now: float) -> None:
        """An arrival at simulated time ``now`` joins the waiting queue."""
        self._waiting.append(record)

    @property
    def waiting(self) -> int:
        """Requests queued but not yet on the device (the queue depth)."""
        return len(self._waiting)

    @property
    def pending(self) -> int:
        """Requests the scheduler still owes work to (waiting + in flight)."""
        return len(self._waiting)

    def next_occupancy(
        self,
        now: float,
        cost,
        horizon: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> Optional[Occupancy]:
        """Plan the next device occupancy starting at ``now`` (None = idle).

        ``horizon`` is the absolute arrival time of the next request still
        in flight (None when the stream is exhausted); ``max_steps`` caps
        how many decode steps a coalescing scheduler may fast-forward in
        one occupancy (None = unlimited, 1 = the uncoalesced loop).
        """
        raise NotImplementedError

    # -- fault support -------------------------------------------------------
    def _shed_expired(self, now: float) -> None:
        """Drop unservable queue members at the admission boundary.

        Sheds requests whose deadline has already expired (they provably
        cannot meet it — the wait still ahead of them is non-negative)
        and silently discards cancelled hedge attempts, notifying the
        event loop through the gate's callbacks.  Queue order of the
        survivors is preserved, so the drop is deterministic.
        """
        gate = self.faults
        deadline = gate.deadline_s
        if deadline is None and not gate.dirty:
            return
        gate.dirty = False
        waiting = self._waiting
        doomed = False
        for record in waiting:
            if record.cancelled or (
                deadline is not None and now > record.arrival_s + deadline
            ):
                doomed = True
                break
        if not doomed:
            return
        kept: Deque[RequestRecord] = deque()
        for record in waiting:
            if record.cancelled:
                gate.drop(record)
            elif deadline is not None and now > record.arrival_s + deadline:
                gate.shed(record, now)
            else:
                kept.append(record)
        self._waiting = kept

    def evict_all(self) -> List[RequestRecord]:
        """Crash support: drain every request this scheduler owes work to.

        Returns in-flight batch members first (in batch order), then the
        waiting queue (in queue order) — a deterministic drain the fault
        engine resets and re-routes.  The base scheduler holds no batch
        state, so only the queue drains here.
        """
        evicted = list(self._waiting)
        self._waiting.clear()
        return evicted


class FCFSScheduler(Scheduler):
    """First-come-first-served, one request on the device at a time.

    A job is already one whole occupancy, so there is nothing further to
    coalesce: ``horizon`` and ``max_steps`` are accepted and ignored.
    """

    name = "fcfs"

    def next_occupancy(
        self,
        now: float,
        cost,
        horizon: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> Optional[Occupancy]:
        gate = self.faults
        if gate is not None and self._waiting:
            self._shed_expired(now)
        if not self._waiting:
            return None
        record = self._waiting.popleft()
        ttft = cost.ttft(record.request)
        total = cost.total_seconds(record.request)
        if gate is not None and gate.slow_factor != 1.0:
            ttft *= gate.slow_factor
            total *= gate.slow_factor
        record.prefill_start_s = now
        record.first_token_s = now + ttft
        return Occupancy(JOB, total, [record])


class StaticBatchScheduler(Scheduler):
    """Batch whatever is waiting (up to ``max_batch``) and run it as a unit.

    The batch prefills together (the slowest member's batched prefill
    bounds the phase), decodes in lockstep at the batch-wide step cost,
    and only releases when the member with the most tokens finishes —
    the classic static-batching straggler penalty.

    The batch runs as one occupancy already (the maximally coalesced
    form), so ``horizon`` and ``max_steps`` are accepted and ignored.
    """

    name = "static"

    def __init__(self, max_batch: int = 8):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        super().__init__()
        self.max_batch = max_batch

    def next_occupancy(
        self,
        now: float,
        cost,
        horizon: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> Optional[Occupancy]:
        gate = self.faults
        if gate is not None and self._waiting:
            self._shed_expired(now)
        if not self._waiting:
            return None
        count = min(self.max_batch, len(self._waiting))
        batch = [self._waiting.popleft() for _ in range(count)]
        lanes = sum(record.request.batch_size for record in batch)
        prefill = max(
            cost.ttft(record.request, batch_size=lanes) for record in batch
        )
        steps = max(record.request.gen_tokens for record in batch)
        step = max(
            cost.decode_step(record.request, batch_size=lanes) for record in batch
        )
        if gate is not None and gate.slow_factor != 1.0:
            prefill *= gate.slow_factor
            step *= gate.slow_factor
        for record in batch:
            record.prefill_start_s = now
            record.first_token_s = now + prefill
        return Occupancy(BATCH, prefill + steps * step, batch)


class ContinuousBatchScheduler(Scheduler):
    """Step-level batching with prefill admission between decode steps.

    Every occupancy runs through two shared steps, with or without a
    memory model: :meth:`_admit` takes the head-of-line request into the
    batch, and :meth:`_retire` advances the batch by a decode window and
    releases the members it finished.  The memory model only adds its own
    parts on top: the KV-fit verdict inside :meth:`_admit`, the regime
    A/B window sizing of :meth:`_memory_steps` and the
    :meth:`_plan_refill` occupancy.
    """

    name = "continuous"

    def __init__(self, max_batch: int = 8, memory=None):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        super().__init__()
        self.max_batch = max_batch
        #: The flash-backed KV memory model (None = slot-count admission).
        #: A MemorySpec is wrapped into a fresh stateful model, which —
        #: like the scheduler itself — serves exactly one run.
        if memory is not None:
            from repro.memory import KVMemoryModel, MemorySpec

            if isinstance(memory, MemorySpec):
                memory = KVMemoryModel(memory)
        self.memory = memory
        #: Active sequences as [record, remaining decode steps, payload,
        #: resident DRAM bytes, spilled flash bytes, KV growth bytes per
        #: step] (the payload is the cost model's canonical object for the
        #: record's request, so per-step lookups resolve by identity; the
        #: three byte slots stay 0 without a memory model).
        self._active: List[List] = []
        #: Batch-membership aggregates maintained incrementally on
        #: admission/release, so the per-step path never recomputes them:
        #: total lanes, and id(payload) -> [payload, member count] (the
        #: stored payload reference pins the id while counted).
        self._lanes = 0
        self._payloads: dict = {}

    @property
    def pending(self) -> int:
        return len(self._waiting) + len(self._active)

    @property
    def active(self) -> int:
        """Sequences currently in the decode batch."""
        return len(self._active)

    def next_occupancy(
        self,
        now: float,
        cost,
        horizon: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> Optional[Occupancy]:
        gate = self.faults
        if gate is not None and self._waiting:
            self._shed_expired(now)
        memory = self.memory
        rec = self.recorder
        if rec is not None and memory is not None:
            # The memory model's own spill/refill/GC instants need the
            # simulated clock; it has no other view of it, so the planner
            # syncs it once per planning call (recorder-attached runs only
            # — the model's ledgers never read it).
            memory.now_s = now
        # Admission first: fill free batch slots with waiting prefills so
        # new requests reach their first token as early as possible.  A
        # head-of-line request waiting on DRAM/flash space falls through
        # so in-flight decodes can free some.
        if self._waiting and len(self._active) < self.max_batch:
            occupancy = self._admit(now, cost)
            if occupancy is not None:
                return occupancy
        active = self._active
        if not active:
            return None
        # Freed DRAM pulls spilled KV home before the next decode step:
        # an explicit refill occupancy, and an interesting boundary.
        if memory is not None and memory.spilled_bytes:
            refill = self._plan_refill()
            if refill is not None:
                return refill
        # The batch aggregates — total lanes and the distinct canonical
        # payloads — are maintained incrementally on admission/release, so
        # the per-step pass only finds the earliest in-batch completion.
        # Pricing each distinct payload once collapses the per-member
        # decode_step queries: max over distinct payloads equals max over
        # all members because the cost model is a pure function of the
        # payload.
        lanes = self._lanes
        limit = None
        for entry in active:
            remaining = entry[1]
            if limit is None or remaining < limit:
                limit = remaining
        step = max(
            cost.decode_step(request, batch_size=lanes)
            for request, _ in self._payloads.values()
        )
        if gate is not None and gate.slow_factor != 1.0:
            step *= gate.slow_factor
        # Fast-forward: the batch composition is frozen until the next
        # in-batch completion, so up to `limit` steps are one occupancy.
        if max_steps is not None and max_steps < limit:
            limit = max_steps
        boundary = gate.boundary_s if gate is not None else None
        # With a free slot, a future arrival is admissible at any step
        # boundary, so the window stops at the first boundary reaching the
        # horizon.  With a full batch, arrivals can only queue — unless a
        # memory model books KV growth, which routers read as DRAM
        # headroom: a window booked past the horizon would show an arrival
        # growth the step-by-step loop has not booked yet.  Under a
        # deadline the window also stops at the first boundary reaching
        # the earliest instant a queued or still-arriving request could be
        # shed, so the queue a router reads drops it where the step-by-step
        # loop does.
        cap = math.inf
        if horizon is not None and (
            len(active) < self.max_batch or memory is not None
        ):
            cap = horizon
        if gate is not None and gate.deadline_s is not None:
            first = horizon
            for record in self._waiting:
                if first is None or record.arrival_s < first:
                    first = record.arrival_s
            if first is not None and first + gate.deadline_s < cap:
                cap = first + gate.deadline_s
        if memory is None:
            steps, end = _window(now, step, limit, cap, boundary)
            seconds = step if steps == 1 else end - now
            reason = None
        else:
            steps, end, seconds, reason = self._memory_steps(
                now, step, limit, cap, boundary
            )
        finished = self._retire(steps)
        if rec is not None:
            rec.instant(
                self.track,
                "coalesce",
                now,
                {
                    "steps": steps,
                    "reason": reason or _cap_reason(steps, limit, max_steps),
                    "batch": len(active) + len(finished),
                    "completed": len(finished),
                },
            )
            if memory is not None:
                # The DRAM level after this step's growth and the finished
                # members' releases — the timeline's KV-occupancy series.
                rec.instant(
                    memory.track, "dram", now, {"used_bytes": memory.pool.used_bytes}
                )
        return Occupancy(
            DECODE,
            seconds,
            [entry[0] for entry in finished],
            steps=steps,
            end_s=end,
        )

    def evict_all(self) -> List[RequestRecord]:
        """Crash support: drain the active batch, then the waiting queue.

        Active members release their KV residency (DRAM and spilled flash
        bytes) before the queue drains — the computed KV is lost with the
        device, and a re-queued request pays a fresh re-prefill (and
        re-spill) through :meth:`_admit` wherever it lands next.
        """
        active = self._active
        evicted = [entry[0] for entry in active]
        memory = self.memory
        for entry in active:
            if entry[3]:
                memory.pool.release(entry[3])
            if entry[4]:
                memory.discard(entry[4])
        active.clear()
        self._lanes = 0
        self._payloads.clear()
        return evicted + super().evict_all()

    # -- the shared admit/retire steps ----------------------------------------
    def _admit(self, now: float, cost) -> Optional[Occupancy]:
        """Take the head-of-line request into the batch as a prefill.

        Without a memory model a free slot is enough.  With one, the
        prompt's KV bytes must fit in free DRAM, or in DRAM plus free
        flash (paying the spill write on the prefill occupancy); otherwise
        this returns None and the request waits for in-flight decodes to
        release residency.  An empty batch with no residency to free means
        the config can never hold the request: that is a true OOM, raised
        so sharding (which scales the spec) can rescue it.
        """
        record = self._waiting[0]
        request = record.source.request
        memory = self.memory
        rec = self.recorder
        resident = spilled = growth = 0
        if memory is not None:
            footprint = memory.footprint(request)
            prompt = footprint.prompt_bytes
            free = memory.pool.free_bytes
            if prompt <= free:
                resident = prompt
            elif prompt <= free + memory.flash_free_bytes:
                resident, spilled = free, prompt - free
            elif not self._active:
                raise ValueError(
                    f"prompt KV footprint ({prompt} bytes) does not fit in DRAM "
                    f"({memory.pool.capacity_bytes} bytes) plus flash spill space "
                    f"({memory.spill_capacity_bytes} bytes); the request can never "
                    "be admitted — shard the replica or scale the MemorySpec"
                )
            else:
                if rec is not None:
                    rec.instant(
                        self.track,
                        "admit_blocked",
                        now,
                        {
                            "request_id": record.request_id,
                            "prompt_bytes": prompt,
                            "free_dram_bytes": free,
                            "free_flash_bytes": memory.flash_free_bytes,
                        },
                    )
                return None
            growth = footprint.step_bytes
        self._waiting.popleft()
        # From here on the batch holds the cost model's canonical payload:
        # every later lookup on it resolves by identity, and equal payloads
        # count as one distinct payload in the per-step pricing.
        request = cost.canonical(request)
        ttft = cost.ttft(request)
        gate = self.faults
        if gate is not None and gate.slow_factor != 1.0:
            # Slowdowns model compute, so only the prefill is repriced;
            # a spill write below still pays modeled flash time.
            ttft *= gate.slow_factor
        seconds = ttft
        if resident:
            memory.pool.admit(resident)
        if spilled:
            # The spill write rides on the prefill occupancy; first_token_s
            # stays at now + ttft (the token exists before the cold KV moves).
            seconds = ttft + memory.spill(spilled)
        record.prefill_start_s = now
        record.first_token_s = now + ttft
        active = self._active
        active.append([record, request.gen_tokens, request, resident, spilled, growth])
        self._lanes += request.batch_size
        ident = id(request)
        payloads = self._payloads
        counted = payloads.get(ident)
        if counted is None:
            payloads[ident] = [request, 1]
        else:
            counted[1] += 1
        if rec is not None:
            if memory is None:
                args = {"request_id": record.request_id, "verdict": "slot"}
            else:
                args = {
                    "request_id": record.request_id,
                    "verdict": "dram" if not spilled else "dram+spill",
                    "resident_bytes": resident,
                    "spilled_bytes": spilled,
                }
            args["batch"] = len(active)
            rec.instant(self.track, "admit", now, args)
            if memory is not None:
                rec.instant(
                    memory.track, "dram", now, {"used_bytes": memory.pool.used_bytes}
                )
        return Occupancy(PREFILL, seconds)

    def _retire(self, steps: int) -> List[List]:
        """Advance every batch member by ``steps`` decode steps.

        Members whose generation ends release their lanes, their payload
        count and any KV residency (DRAM and spilled flash bytes); their
        entries are returned in batch order.
        """
        active = self._active
        finished = []
        for entry in active:
            entry[1] -= steps
            if entry[1] == 0:
                finished.append(entry)
        payloads = self._payloads
        for entry in finished:
            active.remove(entry)
            request = entry[2]
            self._lanes -= request.batch_size
            counted = payloads[id(request)]
            if counted[1] == 1:
                del payloads[id(request)]
            else:
                counted[1] -= 1
            if entry[3]:
                self.memory.pool.release(entry[3])
            if entry[4]:
                self.memory.discard(entry[4])
        return finished

    # -- the memory model's own parts -----------------------------------------
    def _plan_refill(self) -> Optional[Occupancy]:
        """Move spilled KV back into free DRAM, oldest batch member first."""
        memory = self.memory
        free = memory.pool.free_bytes
        if free <= 0:
            return None
        moved = 0
        for entry in self._active:
            spilled = entry[4]
            if not spilled:
                continue
            take = spilled if spilled <= free else free
            entry[4] -= take
            entry[3] += take
            free -= take
            moved += take
            if free == 0:
                break
        if not moved:
            return None
        memory.pool.admit(moved)
        occupancy = Occupancy(REFILL, memory.refill(moved))
        rec = self.recorder
        if rec is not None:
            # memory.now_s was synced by the planning call that got here.
            rec.instant(
                memory.track,
                "dram",
                memory.now_s,
                {"used_bytes": memory.pool.used_bytes},
            )
        return occupancy

    def _memory_steps(
        self,
        now: float,
        step: float,
        limit: int,
        cap: float,
        boundary: Optional[float],
    ) -> Tuple[int, float, float, Optional[str]]:
        """Size a decode window under the memory model and book its KV.

        Regime A (nothing spilled, the whole batch's per-step KV growth
        fits in DRAM): coalescing stays legal, additionally capped at the
        step where DRAM would fill — that boundary is interesting.
        Regime B (something is spilled, or this step must spill): plan
        strictly one step, paying the flash read-through of the resident
        spill plus the spill write of whatever no longer fits.  Both
        regimes make the same integer ledger updates per step whether
        steps are coalesced or not, so ``max_steps=1`` and coalesced runs
        stay byte-identical.

        Returns ``(steps, end, seconds, reason)``; ``reason`` names the
        memory boundary that stopped the window (``dram_fill`` or
        ``spill``), or is None when the window stopped where a memory-less
        one would.
        """
        memory = self.memory
        active = self._active
        pool = memory.pool
        growth = 0
        for entry in active:
            growth += entry[5]
        if memory.spilled_bytes == 0 and growth <= pool.free_bytes:
            # Regime A — the DRAM-fill boundary caps the fast-forward.
            dram_capped = False
            if growth:
                fill = pool.free_bytes // growth
                if fill < limit:
                    limit = fill
                    dram_capped = True
            steps, end = _window(now, step, limit, cap, boundary)
            if growth:
                pool.admit(steps * growth)
                for entry in active:
                    entry[3] += steps * entry[5]
            reason = "dram_fill" if dram_capped and steps == limit else None
            return steps, end, step if steps == 1 else end - now, reason
        # Regime B — every step spills or touches flash; one step only.
        io_seconds = memory.readthrough_seconds()
        free = pool.free_bytes
        admitted = 0
        spill_total = 0
        for entry in active:
            grow = entry[5]
            take = grow if grow <= free else free
            if take:
                entry[3] += take
                free -= take
                admitted += take
            rest = grow - take
            if rest:
                entry[4] += rest
                spill_total += rest
        if admitted:
            pool.admit(admitted)
        if spill_total:
            if spill_total > memory.flash_free_bytes:
                raise ValueError(
                    f"decode-step KV growth ({spill_total} bytes) does not "
                    "fit in the remaining flash spill space "
                    f"({memory.flash_free_bytes} bytes); the batch has "
                    "outgrown DRAM plus flash"
                )
            io_seconds += memory.spill(spill_total)
        seconds = step + io_seconds
        return 1, now + seconds, seconds, "spill"
