"""One event loop behind every shape: generated cross-shape invariants.

``simulate()``, a 1-replica ``simulate_fleet()`` and either one under a
fault spec that never fires all run the same loop, so on the same
schedule they must agree on every trace row, every queue-depth sample,
the busy seconds and the event count.  Multi-device fleets with a
deadline must stay byte-identical between coalesced and ``max_steps=1``
runs, device assignment included, with or without a KV memory model on
continuous-batching replicas.  Both are checked over generated schedules
(seed x scheduler x batch width x output mode) with a derandomized,
CI-sized hypothesis profile, plus pinned fleet recipes whose coalesced
windows straddle deadline expiries or mid-window arrivals routed by DRAM
headroom.
"""

import hashlib
import io
import random

from hypothesis import given, settings, strategies as st

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import ROUTERS, ShardingSpec, build_fleet, get_router, simulate_fleet
from repro.memory import MemorySpec
from repro.serving import (
    ContinuousBatchScheduler,
    DigestSink,
    FCFSScheduler,
    PoissonWorkload,
    SLOSpec,
    StaticBatchScheduler,
    simulate,
)
from repro.units import MiB

#: Derandomized and CI-sized: every run draws the same examples.
CI_PROFILE = settings(max_examples=50, derandomize=True, deadline=None)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=8.0, e2e_s=30.0)

SCHEDULERS = {
    "fcfs": lambda max_batch: FCFSScheduler(),
    "static": lambda max_batch: StaticBatchScheduler(max_batch=max_batch),
    "continuous": lambda max_batch: ContinuousBatchScheduler(max_batch=max_batch),
}

#: KV memory models a continuous-batching replica may carry: none, one
#: that never fills, and one tight enough that admissions spill.
MEMORY = {
    "none": None,
    "roomy": MemorySpec(dram_bytes=64 * 1024 * MiB),
    "tight": MemorySpec(dram_bytes=384 * MiB),
}

#: How a run hands its records back: kept in memory, kept and streamed,
#: streamed only, or folded into metrics only.
OUTPUTS = {
    "records": (True, False),
    "records+sink": (True, True),
    "sink": (False, True),
    "metrics": (False, False),
}


def _mixed_payload(rng: random.Random, index: int) -> InferenceRequest:
    return PAYLOAD.with_overrides(gen_tokens=rng.choice([1, 7, 24, 64]))


def _arrivals(seed, rate, count=60):
    return PoissonWorkload(rate, _mixed_payload, seed=seed).generate(count)


def _run(shape, arrivals, scheduler, max_batch, output, **kwargs):
    """One run of ``shape``; returns ``(report, streamed CSV or None)``."""
    keep_records, with_sink = OUTPUTS[output]
    sink = io.StringIO() if with_sink else None
    make = lambda: SCHEDULERS[scheduler](max_batch)  # noqa: E731
    if shape == "fleet":
        report = simulate_fleet(
            arrivals,
            build_fleet([ToyBackend()], scheduler_factory=make),
            slo=SLO,
            trace_sink=sink,
            keep_records=keep_records,
            **kwargs,
        )
    else:
        report = simulate(
            arrivals,
            ToyBackend(),
            make(),
            slo=SLO,
            trace_sink=sink,
            keep_records=keep_records,
            **kwargs,
        )
    return report, sink.getvalue() if sink is not None else None


def _drop_device_column(csv_text):
    return "".join(
        ",".join(cells[:1] + cells[2:])
        for cells in (line.split(",") for line in csv_text.splitlines(True))
    )


@CI_PROFILE
@given(
    seed=st.integers(0, 10_000),
    rate=st.sampled_from([0.5, 2.0, 6.0]),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    max_batch=st.integers(1, 6),
    output=st.sampled_from(sorted(OUTPUTS)),
)
def test_serve_fleet_of_one_and_benign_faults_agree(
    seed, rate, scheduler, max_batch, output
):
    arrivals = _arrivals(seed, rate)
    serve, serve_csv = _run("serve", arrivals, scheduler, max_batch, output)
    fleet, fleet_csv = _run("fleet", arrivals, scheduler, max_batch, output)
    benign, benign_csv = _run(
        "serve", arrivals, scheduler, max_batch, output, faults=FaultSpec()
    )
    keep_records = OUTPUTS[output][0]
    device = fleet.device_reports[0]
    for other in (device, benign):
        assert other.busy_s == serve.busy_s
        assert other.queue_depth == serve.queue_depth
        assert other.mean_queue_depth == serve.mean_queue_depth
        assert other.max_queue_depth == serve.max_queue_depth
        if keep_records:
            assert other.to_csv() == serve.to_csv()
        assert other.percentiles("e2e") == serve.percentiles("e2e")
        assert other.slo_attainment() == serve.slo_attainment()
    assert fleet.num_events == benign.num_events == serve.num_events
    assert fleet.makespan_s == benign.makespan_s == serve.makespan_s
    if serve_csv is not None:
        assert benign_csv == serve_csv
        assert _drop_device_column(fleet_csv) == serve_csv
    assert benign.faults is not None and benign.faults.availability == 1.0


@CI_PROFILE
@given(
    seed=st.integers(0, 10_000),
    rate=st.sampled_from([2.0, 5.0, 9.0]),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    max_batch=st.integers(1, 4),
    output=st.sampled_from(sorted(OUTPUTS)),
    num_devices=st.integers(2, 4),
    router=st.sampled_from(sorted(ROUTERS)),
    deadline_s=st.sampled_from([1.5, 3.0, 5.0, 12.0]),
    memory=st.sampled_from(sorted(MEMORY)),
)
def test_deadline_fleets_are_byte_identical_coalesced_and_stepwise(
    seed, rate, scheduler, max_batch, output, num_devices, router, deadline_s, memory
):
    arrivals = _arrivals(seed, rate, count=80)
    keep_records, with_sink = OUTPUTS[output]
    if scheduler == "continuous":
        make = lambda: ContinuousBatchScheduler(  # noqa: E731
            max_batch=max_batch, memory=MEMORY[memory]
        )
    else:
        make = lambda: SCHEDULERS[scheduler](max_batch)  # noqa: E731

    def run(max_steps):
        sink = io.StringIO() if with_sink else None
        report = simulate_fleet(
            arrivals,
            build_fleet(
                [ToyBackend(ttft=1.0, step=0.1)] * num_devices,
                scheduler_factory=make,
            ),
            get_router(router),
            slo=SLO,
            deadline_s=deadline_s,
            max_steps=max_steps,
            trace_sink=sink,
            keep_records=keep_records,
        )
        return report, sink.getvalue() if sink is not None else None

    coalesced, coalesced_csv = run(None)
    stepwise, stepwise_csv = run(1)
    assert coalesced.assignments == stepwise.assignments
    if keep_records:
        assert coalesced.to_csv() == stepwise.to_csv()
    assert coalesced_csv == stepwise_csv
    assert coalesced.percentiles("e2e") == stepwise.percentiles("e2e")
    assert coalesced.faults == stepwise.faults
    assert coalesced.makespan_s == stepwise.makespan_s


def _divergence_recipe(max_steps):
    """A 2-device JSQ fleet whose coalesced decode windows straddle
    deadline expiries: rows 44-48, 51 and 78 route differently unless
    shedding lands on the step-by-step run's step boundaries."""

    def payload(rng, index):
        return PAYLOAD.with_overrides(gen_tokens=rng.choice([64, 7, 24]))

    return simulate_fleet(
        PoissonWorkload(5.0, payload, seed=19).generate(80),
        build_fleet(
            ["cambricon"] * 2,
            scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=2),
        ),
        get_router("jsq"),
        deadline_s=5.0,
        max_steps=max_steps,
    )


def test_fleet_deadline_recipe_matches_the_stepwise_reference():
    coalesced = _divergence_recipe(None)
    stepwise = _divergence_recipe(1)
    assert coalesced.assignments == stepwise.assignments
    assert coalesced.to_csv() == stepwise.to_csv()
    assert coalesced.faults.shed == stepwise.faults.shed > 0


def _headroom_recipe(max_steps):
    """Two single-slot replicas with roomy DRAM behind the headroom router:
    a coalesced decode window books KV growth that an arrival landing
    mid-window reads as DRAM headroom, so 33 of the 80 assignments differ
    unless full-batch memory windows stop at the horizon."""
    return simulate_fleet(
        PoissonWorkload(9.0, _mixed_payload, seed=596).generate(80),
        build_fleet(
            [ToyBackend(ttft=1.0, step=0.1)] * 2,
            scheduler_factory=lambda: ContinuousBatchScheduler(
                max_batch=1, memory=MEMORY["roomy"]
            ),
        ),
        get_router("headroom"),
        slo=SLOSpec(ttft_s=10.0, e2e_s=60.0),
        max_steps=max_steps,
    )


def test_headroom_memory_recipe_matches_the_stepwise_reference():
    coalesced = _headroom_recipe(None)
    stepwise = _headroom_recipe(1)
    assert coalesced.assignments == stepwise.assignments
    assert coalesced.to_csv() == stepwise.to_csv()
    assert coalesced.num_events < stepwise.num_events


def test_lazy_streams_run_every_resilience_handler():
    """A generator with ``keep_records=False`` streams the same trace as
    the list input under a deadline, faults or retries."""
    arrivals = _arrivals(seed=5, rate=3.0, count=60)
    for kwargs in (
        {"deadline_s": 6.0},
        {"faults": FaultSpec(crash_windows=((0, 4.0, 3.0),), flaky_prob=0.1, seed=2)},
        {"retry": RetryPolicy(max_attempts=2, backoff_s=0.5)},
    ):
        digests = []
        for stream in (iter(arrivals), arrivals):
            sink = DigestSink()
            simulate(
                stream,
                ToyBackend(),
                ContinuousBatchScheduler(max_batch=4),
                slo=SLO,
                trace_sink=sink,
                keep_records=False,
                **kwargs,
            )
            digests.append(sink.hexdigest())
        assert digests[0] == digests[1], kwargs


#: Trace sha256 and hedge counts of the hedged fleet below, coalesced and
#: step by step alike.
HEDGED_FLEET_GOLDEN = {
    "round-robin": (
        "4c8e717802735212d2d3fb58c50e6f6366eb140af28e5b3e4256380be5f54c92", 58, 20
    ),
    "jsq": ("6f79b102d21c73717def6626b032781664789d841a517dc93ef8a4343d2acca4", 58, 21),
}


def test_hedge_timers_fire_between_arrivals_routed_in_passing():
    """Device 0 is slowed 20x, so arrivals queue behind busy replicas and
    are routed during the clock advance; each hedge timer armed there
    must still fire at its own instant, ahead of later arrivals."""
    for router, (digest, hedges, wins) in HEDGED_FLEET_GOLDEN.items():
        for max_steps in (None, 1):
            report = simulate_fleet(
                PoissonWorkload(3.0, _mixed_payload, seed=13).generate(60),
                build_fleet(
                    [ToyBackend()] * 2,
                    scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=2),
                ),
                get_router(router),
                slo=SLO,
                faults=FaultSpec(slow_windows=((0, 0.0, 1e6, 20.0),)),
                retry=RetryPolicy(max_attempts=1, hedge_after_s=0.5),
                max_steps=max_steps,
            )
            assert hashlib.sha256(report.to_csv().encode()).hexdigest() == digest
            assert (report.faults.hedges, report.faults.hedge_wins) == (hedges, wins)


def test_simulate_accepts_a_sharded_devices_cost_model():
    device = build_fleet(["cambricon"], sharding=ShardingSpec(tensor_parallel=2))[0]
    arrivals = PoissonWorkload(2.0, lambda rng, i: PAYLOAD, seed=3).generate(20)
    report = simulate(arrivals, device.cost, ContinuousBatchScheduler(max_batch=4))
    fleet = simulate_fleet(
        arrivals,
        build_fleet(
            ["cambricon"],
            scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
            sharding=ShardingSpec(tensor_parallel=2),
        ),
    )
    assert report.backend_name == fleet.device_reports[0].backend_name
    assert report.to_csv() == fleet.device_reports[0].to_csv()
