"""Chunked trace sinks and the value-keyed latency table.

The trace streamer renders rows into an in-memory chunk and pushes it to
the sink every ``CHUNK_ROWS`` rows, and at close or release.  The bytes
must still equal ``to_csv()`` on either side of every chunk boundary, on
the single-device, fleet and ``fail_fast`` early-exit paths, and a run
that raises must leave every row it rendered before the error in the
sink.  The cost model prices each continuous-batching member through its
canonical payload, so per-step lookups resolve by identity and equal
payloads in a batch are priced once.
"""

import dataclasses
import io
import random

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.fleet import build_fleet, get_router, simulate_fleet
from repro.serving import (
    BackendCostModel,
    ContinuousBatchScheduler,
    FCFSScheduler,
    PoissonWorkload,
    SLOSpec,
    TraceStreamer,
    simulate,
)
from repro.serving.metrics import TRACE_CSV_FIELDS, trace_values, write_trace_csv
from repro.serving.stream import CHUNK_ROWS

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=10.0, e2e_s=60.0)
SIZES = [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 600]


def _fresh_payload(rng: random.Random, index: int) -> InferenceRequest:
    """A new payload object per request, drawn from six shapes."""
    return InferenceRequest(
        model="opt-6.7b",
        seq_len=rng.choice([500, 1000]),
        gen_tokens=rng.choice([1, 7, 24]),
    )


def _arrivals(count, rate=6.0, seed=11):
    return PoissonWorkload(rate, _fresh_payload, seed=seed).generate(count)


def _continuous():
    return ContinuousBatchScheduler(max_batch=4)


def test_an_empty_streamer_writes_exactly_the_header():
    sink = io.StringIO()
    TraceStreamer(sink, TRACE_CSV_FIELDS, trace_values).close()
    assert sink.getvalue() == write_trace_csv(TRACE_CSV_FIELDS, [], None)


def test_an_empty_stream_raises_before_touching_the_sink(tmp_path):
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="empty request stream"):
        simulate([], ToyBackend(), _continuous(), trace_sink=str(path))
    assert not path.exists()


@pytest.mark.parametrize("count", SIZES)
def test_streamed_file_equals_to_csv_across_chunk_boundaries(count, tmp_path):
    arrivals = _arrivals(count)
    reference = simulate(arrivals, ToyBackend(), _continuous(), slo=SLO)
    path = tmp_path / "trace.csv"
    simulate(
        arrivals,
        ToyBackend(),
        _continuous(),
        slo=SLO,
        trace_sink=str(path),
        keep_records=False,
    )
    assert path.read_text() == reference.to_csv()
    assert reference.to_csv().count("\n") == count + 1


@pytest.mark.parametrize("count", SIZES)
def test_fleet_streamed_file_equals_to_csv_across_chunk_boundaries(count, tmp_path):
    arrivals = _arrivals(count, rate=15.0)

    def run(**kwargs):
        fleet = build_fleet(
            [ToyBackend(ttft=1.0, step=0.1)] * 3, scheduler_factory=_continuous
        )
        return simulate_fleet(arrivals, fleet, get_router("jsq"), slo=SLO, **kwargs)

    reference = run()
    path = tmp_path / "trace.csv"
    run(trace_sink=str(path), keep_records=False)
    assert path.read_text() == reference.to_csv()


@pytest.mark.parametrize("count", SIZES)
def test_early_exit_file_equals_to_csv_across_chunk_boundaries(count, tmp_path):
    slo = SLOSpec(e2e_s=2.0, min_attainment=0.99)
    arrivals = _arrivals(count, rate=40.0, seed=3)
    reference = simulate(
        arrivals, ToyBackend(), _continuous(), slo=slo, fail_fast=True
    )
    path = tmp_path / "trace.csv"
    simulate(
        arrivals,
        ToyBackend(),
        _continuous(),
        slo=slo,
        fail_fast=True,
        trace_sink=str(path),
    )
    assert path.read_text() == reference.to_csv()
    assert reference.to_csv().count("\n") == count + 1
    if count > 1:
        assert reference.early_exit


class _OOMAtSeqLen(ToyBackend):
    """A toy that cannot hold one prompt length."""

    name = "toy-oom"

    def __init__(self, seq_len):
        super().__init__()
        self.oom_seq_len = seq_len

    @property
    def cache_key(self):
        return f"toy-oom[{self.oom_seq_len}]"

    def run(self, request):
        result = super().run(request)
        if request.seq_len == self.oom_seq_len:
            return dataclasses.replace(
                result, out_of_memory=True, error="toy prompt limit"
            )
        return result


def test_a_run_that_raises_keeps_every_row_rendered_before_the_error(tmp_path):
    """FCFS serves in arrival order, so when the late request's pricing
    raises, every earlier request has finished and its row was rendered:
    the file holds the header and exactly those rows, more than one chunk
    of them, as when rows went to the sink one at a time."""
    late = 2 * CHUNK_ROWS + 40
    arrivals = PoissonWorkload(1.0, PAYLOAD, seed=5).generate(late + 20)
    oom_len = 777
    poisoned = list(arrivals)
    poisoned[late] = dataclasses.replace(
        arrivals[late], request=PAYLOAD.with_overrides(seq_len=oom_len)
    )
    reference = simulate(poisoned, ToyBackend(), FCFSScheduler(), slo=SLO).to_csv()
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="does not fit"):
        simulate(
            poisoned,
            _OOMAtSeqLen(oom_len),
            FCFSScheduler(),
            slo=SLO,
            trace_sink=str(path),
            keep_records=False,
        )
    expected = "".join(reference.splitlines(keepends=True)[: late + 1])
    assert path.read_text() == expected


# -- the value-keyed latency table ---------------------------------------------

def test_continuous_batching_counters_are_pinned():
    """Fresh payload objects per request, six shapes, widths 1..4: the
    table holds at most shapes x widths x fields latencies, never evicts,
    and each decode step prices every distinct canonical payload once
    (pricing per batch member, or per payload object, raises the count)."""
    cost = BackendCostModel(ToyBackend())
    report = simulate(_arrivals(300), cost, _continuous(), slo=SLO)
    assert report.num_completed == 300
    info = cost.cache_info()
    assert info["latency_evictions"] == 0
    assert info["latency_size"] <= 6 * 4 * 2
    # 300 ttft lookups plus one decode_step per distinct canonical payload
    # per decode occupancy; pricing each payload object gives 1,294.
    assert info["latency_hits"] + info["latency_misses"] == 1013
