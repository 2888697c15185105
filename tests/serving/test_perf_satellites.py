"""Satellites of the perf PR: cache counters and cheap capacity probes."""

from serving_toys import ToyBackend

from repro.api import ExperimentRunner, InferenceRequest
from repro.serving import (
    BackendCostModel,
    FCFSScheduler,
    PoissonWorkload,
    SLOSpec,
    find_max_qps,
    simulate,
)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=10)
SLO = SLOSpec(e2e_s=10.0, min_attainment=0.9)


# -- BackendCostModel.cache_info ----------------------------------------------

def test_cost_model_cache_info_counts_latency_and_profile_traffic():
    backend = ToyBackend()
    cost = BackendCostModel(backend)
    info = cost.cache_info()
    assert info["latency_hits"] == info["latency_misses"] == 0
    cost.ttft(PAYLOAD)
    cost.ttft(PAYLOAD)
    cost.decode_step(PAYLOAD, batch_size=4)
    info = cost.cache_info()
    assert info["latency_misses"] == 2
    assert info["latency_hits"] == 1
    assert info["latency_size"] == 2
    assert info["profile_misses"] == backend.calls == 2
    assert info["profile_size"] == 2


def test_cost_model_interns_identical_payload_objects():
    """Repeated queries on one payload object are pure dict hits."""
    cost = BackendCostModel(ToyBackend())
    for _ in range(50):
        cost.decode_step(PAYLOAD, batch_size=2)
    info = cost.cache_info()
    assert info["latency_misses"] == 1
    assert info["latency_hits"] == 49


def test_cost_model_shares_results_across_equal_but_distinct_payloads():
    """The latency table is keyed by payload value: equal payload objects
    built separately share one entry, and each (shape, width, field) is
    profiled once."""
    backend = ToyBackend()
    cost = BackendCostModel(backend)
    twins = [
        InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=10)
        for _ in range(5)
    ]
    assert twins[0] == PAYLOAD and twins[0] is not PAYLOAD
    assert cost.ttft(PAYLOAD) == cost.ttft(twins[0])
    assert backend.calls == 1
    other = PAYLOAD.with_overrides(seq_len=200)
    for payload in twins + [other]:
        cost.ttft(payload)
        cost.decode_step(payload, batch_size=2)
        cost.decode_step(payload, batch_size=3)
    info = cost.cache_info()
    assert info["latency_size"] == 2 * 3
    assert info["latency_misses"] == 2 * 3
    assert info["latency_evictions"] == 0
    assert backend.calls == 2 * 3


def test_runner_stats_matches_cache_info_plus_in_flight():
    runner = ExperimentRunner()
    runner.run(ToyBackend(), PAYLOAD)
    stats = runner.stats()
    assert stats["misses"] == 1 and stats["size"] == 1
    assert stats["in_flight"] == 0
    assert {k: stats[k] for k in ("hits", "misses", "size")} == runner.cache_info()


def test_simulate_accepts_a_prebuilt_cost_model():
    cost = BackendCostModel(ToyBackend())
    arrivals = PoissonWorkload(1.0, PAYLOAD, seed=0).generate(20)
    a = simulate(arrivals, cost, FCFSScheduler())
    b = simulate(arrivals, cost, FCFSScheduler())
    assert a.to_csv() == b.to_csv()
    # The second run resolved every latency from the shared caches.
    assert cost.cache_info()["profile_misses"] == 1


# -- find_max_qps satellites --------------------------------------------------

def test_default_capacity_search_stays_within_a_small_eval_budget():
    """Regression: the whole default search costs O(1) backend evaluations
    (memoization makes probes shape-bound, not request-bound)."""
    backend = ToyBackend(ttft=0.5, step=0.1)
    capacity = find_max_qps(backend, PAYLOAD, SLO, num_requests=200, seed=3)
    assert len(capacity.probes) >= 3
    assert backend.calls <= 2


def test_immediate_bisection_termination_reuses_the_bracket_report():
    """A huge rel_tol ends the search right after bracketing: exactly the
    bracket's two probes, no re-simulation of the returned rate."""
    backend = ToyBackend(ttft=0.5, step=0.1)
    capacity = find_max_qps(
        backend, PAYLOAD, SLO, num_requests=100, seed=3, rel_tol=10.0
    )
    assert len(capacity.probes) == 2
    assert [met for _, met in capacity.probes] == [True, False]
    assert capacity.max_qps == capacity.probes[0][0]
    assert capacity.report.meets_slo()


def test_fail_fast_search_finds_the_same_rate_as_the_full_search():
    kwargs = dict(num_requests=150, seed=7)
    full = find_max_qps(ToyBackend(), PAYLOAD, SLO, fail_fast=False, **kwargs)
    fast = find_max_qps(ToyBackend(), PAYLOAD, SLO, fail_fast=True, **kwargs)
    assert fast.max_qps == full.max_qps
    assert fast.probes == full.probes
    assert fast.report.to_csv() == full.report.to_csv()
    assert not fast.report.early_exit  # the winning probe ran to completion


def test_search_shares_one_cost_model_across_probes():
    cost = BackendCostModel(ToyBackend(ttft=0.5, step=0.1))
    capacity = find_max_qps(
        "unused", PAYLOAD, SLO, num_requests=100, seed=3, cost=cost
    )
    assert capacity.report.meets_slo()
    info = cost.cache_info()
    assert info["latency_misses"] <= 3
    assert info["latency_hits"] > info["latency_misses"]


def test_canonical_returns_the_first_seen_object():
    cost = BackendCostModel(ToyBackend())
    first = PAYLOAD.with_overrides(seq_len=100)
    twin = PAYLOAD.with_overrides(seq_len=100)
    assert twin == first and twin is not first
    assert cost.canonical(first) is first
    assert cost.canonical(twin) is first
    # A payload first seen through a latency lookup becomes canonical too.
    cost.ttft(PAYLOAD)
    assert cost.canonical(
        InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=10)
    ) is PAYLOAD
    # Canonicalizing profiles nothing.
    assert cost.cache_info()["profile_misses"] == 1


def test_percentiles_sort_each_metric_exactly_once(monkeypatch):
    """p50/p95/p99 — and any repeat query — share one sort per metric."""
    import repro.serving.metrics as metrics_mod

    arrivals = PoissonWorkload(3.0, PAYLOAD, seed=1).generate(60)
    report = simulate(arrivals, ToyBackend(), FCFSScheduler(), slo=SLO)
    sort_calls = []
    real_sorted = sorted

    def counting_sorted(values, *args, **kwargs):
        sort_calls.append(1)
        return real_sorted(values, *args, **kwargs)

    monkeypatch.setattr(metrics_mod, "sorted", counting_sorted, raising=False)
    report.percentiles("ttft")
    report.percentiles("ttft")
    assert len(sort_calls) == 1
    for metric in ("tpot", "e2e", "queue_wait"):
        report.percentiles(metric)
        report.percentiles(metric)
    assert len(sort_calls) == 4
