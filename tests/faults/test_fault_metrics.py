"""Fault outcomes are SLO misses everywhere metrics are counted.

A record carrying a terminal ``outcome`` ("shed", "timed_out", "failed")
must drag down attainment and goodput and trip ``fail_fast`` — even when
its surviving latency stamps look fast — and the streamed-metrics path
must agree with the in-memory path bit for bit.
"""

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.serving import (
    ContinuousBatchScheduler,
    FCFSScheduler,
    PoissonWorkload,
    SLOSpec,
    simulate,
)
from repro.serving.metrics import StreamedMetrics
from repro.serving.request import RequestRecord, ServingRequest

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
#: Generous thresholds: only a terminal outcome can miss this SLO.
LOOSE = SLOSpec(ttft_s=1e6, e2e_s=1e6)


def _record(outcome=None, stamped=True):
    record = RequestRecord(ServingRequest(0.0, 0, PAYLOAD))
    if stamped:
        record.prefill_start_s = 0.1
        record.first_token_s = 0.2
        record.finish_s = 0.5
    record.outcome = outcome
    return record


def _arrivals(n=60, rate=30.0):
    return PoissonWorkload(rate, PAYLOAD, seed=5).generate(n)


# -- unit: met_by / StreamedMetrics.fold ---------------------------------------

@pytest.mark.parametrize("outcome", ["shed", "timed_out", "failed"])
def test_met_by_rejects_every_terminal_outcome(outcome):
    assert LOOSE.met_by(_record(outcome=None))
    assert not LOOSE.met_by(_record(outcome=outcome))


@pytest.mark.parametrize("outcome", ["shed", "timed_out", "failed"])
def test_metric_sample_marks_outcomes_unmet_despite_fast_stamps(outcome):
    store = StreamedMetrics()
    assert store.fold(_record(outcome=outcome), LOOSE) is False
    assert store.fold(_record(outcome=None), LOOSE) is True
    assert store.slo_met == 1


def test_metric_sample_without_slo_reports_no_verdict():
    store = StreamedMetrics()
    assert store.fold(_record(outcome="failed"), None) is None
    assert store.slo_met is None


# -- integration: attainment and goodput --------------------------------------

def test_attainment_counts_shed_and_timed_out_as_misses():
    report = simulate(
        _arrivals(),
        ToyBackend(),
        FCFSScheduler(),
        slo=LOOSE,
        faults=FaultSpec(crash_windows=((0, 1e9, 1.0),)),
        deadline_s=5.0,
    )
    faults = report.faults
    assert faults.shed > 0 and faults.timed_out > 0
    ok = sum(1 for r in report.records if r.outcome is None)
    assert report.slo_attainment() == ok / report.num_requests
    assert report.slo_attainment() < 1.0
    assert report.goodput_rps() == ok / report.makespan_s
    # Misses are the outcomes, exactly: nothing else can miss LOOSE.
    assert report.num_requests - ok == faults.shed + faults.timed_out + faults.failed


def test_streamed_metrics_agree_with_kept_records_under_faults():
    kwargs = dict(
        slo=LOOSE,
        faults=FaultSpec(crash_windows=((0, 1.0, 2.0),)),
        retry=RetryPolicy(max_attempts=2, backoff_s=0.5),
        deadline_s=6.0,
    )
    kept = simulate(_arrivals(), ToyBackend(), ContinuousBatchScheduler(max_batch=4), **kwargs)
    streamed = simulate(
        _arrivals(),
        ToyBackend(),
        ContinuousBatchScheduler(max_batch=4),
        keep_records=False,
        **kwargs,
    )
    assert streamed.records == []
    assert streamed.num_requests == kept.num_requests
    assert streamed.slo_attainment() == kept.slo_attainment()
    assert streamed.goodput_rps() == kept.goodput_rps()
    assert streamed.faults == kept.faults


# -- fail_fast ----------------------------------------------------------------

def test_fail_fast_aborts_once_outcomes_sink_the_slo():
    """Every request permanently fails; fail_fast must not wait for all."""
    report = simulate(
        _arrivals(n=100, rate=5.0),
        ToyBackend(),
        FCFSScheduler(),
        slo=SLOSpec(e2e_s=1e6, min_attainment=0.95),
        faults=FaultSpec(flaky_prob=1.0),
        fail_fast=True,
    )
    assert report.early_exit
    assert not report.meets_slo()
    # Aborted well before the whole workload was pushed through.
    assert report.faults.failed < 100
    assert report.faults.failed >= 6  # enough misses to sink 95% of 100


def test_fail_fast_stays_quiet_when_outcomes_stay_rare():
    report = simulate(
        _arrivals(n=40, rate=2.0),
        ToyBackend(),
        FCFSScheduler(),
        slo=SLOSpec(e2e_s=1e6, min_attainment=0.5),
        faults=FaultSpec(crash_windows=((0, 1e9, 1.0),)),
        fail_fast=True,
    )
    assert not report.early_exit
    assert report.meets_slo()
    assert report.slo_attainment() == 1.0
