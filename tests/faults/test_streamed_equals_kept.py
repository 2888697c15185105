"""Streamed == kept: one metric store behind every output mode.

A run that keeps its records, one that drops them and streams the trace
to a sink, and one that drops them with no sink at all must report the
same aggregates, fleet-wide and per device: the loop folds a dropped
run's records through the same ``StreamedMetrics.fold`` a kept report
applies to its record list.  Checked over generated schedules (seed x
scheduler x shape x router x faults/retry/deadline x fail_fast) with a
derandomized, CI-sized hypothesis profile, plus a pinned failover fleet
whose early exit leaves retried and re-queued requests in flight.
"""

import io
import random

from hypothesis import given, settings, strategies as st

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import ROUTERS, build_fleet, get_router, simulate_fleet
from repro.serving import (
    ContinuousBatchScheduler,
    FCFSScheduler,
    PoissonWorkload,
    SLOSpec,
    StaticBatchScheduler,
    simulate,
)

#: Derandomized and CI-sized: every run draws the same examples.
CI_PROFILE = settings(max_examples=60, derandomize=True, deadline=None)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=4.0, e2e_s=12.0, min_attainment=0.9)

SCHEDULERS = {
    "fcfs": lambda: FCFSScheduler(),
    "static": lambda: StaticBatchScheduler(max_batch=3),
    "continuous": lambda: ContinuousBatchScheduler(max_batch=3),
}

#: Output modes: (keep_records, with a trace sink).
MODES = {"kept": (True, False), "sink": (False, True), "metrics": (False, False)}

#: Resilience settings: fault spec, retry policy and deadline (any may
#: be off).
CHAOS = {
    "plain": (None, None, None),
    "crashes": (FaultSpec(crash_mtbf_s=6.0, crash_mttr_s=3.0), None, None),
    "crashes+deadline": (FaultSpec(crash_mtbf_s=8.0, crash_mttr_s=4.0), None, 6.0),
    "flaky+retry": (
        FaultSpec(flaky_prob=0.25),
        RetryPolicy(max_attempts=3, backoff_s=0.4),
        None,
    ),
    "chaos+retry": (
        FaultSpec(
            crash_mtbf_s=8.0,
            crash_mttr_s=4.0,
            slow_mtbf_s=6.0,
            slow_duration_s=3.0,
            flaky_prob=0.2,
        ),
        RetryPolicy(max_attempts=3, backoff_s=0.5, jitter=0.2),
        None,
    ),
    "chaos+hedge": (
        FaultSpec(crash_mtbf_s=8.0, crash_mttr_s=4.0, flaky_prob=0.15),
        RetryPolicy(max_attempts=2, backoff_s=0.3, hedge_after_s=1.5),
        6.0,
    ),
}


def _payload(rng: random.Random, index: int) -> InferenceRequest:
    return PAYLOAD.with_overrides(gen_tokens=rng.choice([1, 7, 24, 64]))


def _aggregates(report):
    """Every aggregate a serving (or per-device) report answers."""
    return {
        "requests": report.num_requests,
        "completed": report.num_completed,
        "tokens": report.total_output_tokens,
        "ttfts": sorted(report.ttfts),
        "tpots": sorted(report.tpots),
        "e2es": sorted(report.e2es),
        "queue_waits": sorted(report.queue_waits),
        "percentiles": [
            report.percentiles(metric) for metric in ("ttft", "tpot", "e2e", "queue_wait")
        ],
        "throughput": (report.throughput_rps, report.tokens_per_second),
        "slo": (report.slo_attainment(), report.goodput_rps(), report.meets_slo()),
        "queue_depth": (report.mean_queue_depth, report.max_queue_depth),
        "busy": (report.busy_s, report.makespan_s, report.utilization),
    }


def _fleet_aggregates(report):
    return {
        "requests": report.num_requests,
        "completed": report.num_completed,
        "percentiles": [
            report.percentiles(metric) for metric in ("ttft", "tpot", "e2e", "queue_wait")
        ],
        "throughput": (report.throughput_rps, report.tokens_per_second),
        "slo": (report.slo_attainment(), report.goodput_rps(), report.meets_slo()),
        "balance": (report.requests_per_device, report.utilizations),
        "devices": [_aggregates(device) for device in report.device_reports],
    }


def _run(mode, arrivals, scheduler, num_devices, router, chaos, fail_fast):
    """One run; returns ``(report, aggregates, trace CSV)``."""
    keep_records, with_sink = MODES[mode]
    faults, retry, deadline_s = CHAOS[chaos]
    sink = io.StringIO() if with_sink else None
    kwargs = dict(
        slo=SLO,
        fail_fast=fail_fast,
        trace_sink=sink,
        keep_records=keep_records,
        faults=faults,
        retry=retry,
        deadline_s=deadline_s,
    )
    if num_devices is None:
        report = simulate(arrivals, ToyBackend(), SCHEDULERS[scheduler](), **kwargs)
        aggregates = _aggregates(report)
    else:
        report = simulate_fleet(
            arrivals,
            build_fleet(
                [ToyBackend()] * num_devices, scheduler_factory=SCHEDULERS[scheduler]
            ),
            get_router(router),
            **kwargs,
        )
        aggregates = _fleet_aggregates(report)
    csv_text = report.to_csv() if keep_records else None
    return report, aggregates, sink.getvalue() if sink is not None else csv_text


@CI_PROFILE
@given(
    seed=st.integers(0, 10_000),
    rate=st.sampled_from([1.0, 3.0, 6.0]),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    num_devices=st.sampled_from([None, 2, 3, 4]),
    router=st.sampled_from(sorted(ROUTERS)),
    chaos=st.sampled_from(sorted(CHAOS)),
    fail_fast=st.booleans(),
)
def test_kept_streamed_and_sunk_runs_report_the_same_aggregates(
    seed, rate, scheduler, num_devices, router, chaos, fail_fast
):
    arrivals = PoissonWorkload(rate, _payload, seed=seed).generate(60)
    kept, kept_aggregates, kept_csv = _run(
        "kept", arrivals, scheduler, num_devices, router, chaos, fail_fast
    )
    for mode in ("sink", "metrics"):
        report, aggregates, csv_text = _run(
            mode, arrivals, scheduler, num_devices, router, chaos, fail_fast
        )
        assert aggregates == kept_aggregates, mode
        assert report.early_exit == kept.early_exit
        assert report.num_events == kept.num_events
        assert report.faults == kept.faults
        if csv_text is not None:
            assert csv_text == kept_csv


def _pinned(seed, keep_records, sink):
    """Three failover replicas under crashes, flaky attempts and client
    retries; ``fail_fast`` aborts with retried and re-queued requests
    still open, which the metrics-only run once folded onto their
    arrival device instead of the device they moved to."""
    payload = InferenceRequest(model="opt-6.7b", config="L", seq_len=500, gen_tokens=64)
    return simulate_fleet(
        PoissonWorkload(6.0, payload, seed=seed).generate(120),
        build_fleet(
            ["cambricon"] * 3,
            scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
        ),
        get_router("failover"),
        slo=SLOSpec(e2e_s=20, min_attainment=0.9),
        fail_fast=True,
        faults=FaultSpec(seed=seed, crash_mtbf_s=8, crash_mttr_s=5, flaky_prob=0.2),
        retry=RetryPolicy(max_attempts=3, backoff_s=0.5),
        keep_records=keep_records,
        trace_sink=io.StringIO() if sink else None,
    )


def test_pinned_failover_early_exit_counts_requests_on_their_last_device():
    reports = [
        _pinned(0, keep_records, sink)
        for keep_records, sink in ((True, False), (False, True), (False, False))
    ]
    for report in reports:
        assert report.early_exit
        assert report.requests_per_device == [4, 36, 80]
    kept = _fleet_aggregates(reports[0])
    assert _fleet_aggregates(reports[1]) == kept
    assert _fleet_aggregates(reports[2]) == kept
