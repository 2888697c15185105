"""Which public calls the traced run wraps, and the per-layer metrics.

Span names are the layer names of the metrics (``core.tiling``,
``cost.lookup`` ...).  Per-layer metrics of the traced run cover the
set-up plus one job repetition -- what one CLI invocation pays -- with
two exceptions, which cover the repetition only: the warm-cache ratios
(``cost.hit_ratio``, ``cost.evictions``, ``serving.scheduler.
steps_per_occupancy``) and the modelled counts taken from the run's
report (events, memory, faults, fleet, alerts, stream bytes).
"""

from __future__ import annotations

from typing import Dict

#: Every per-layer metric, in print order, with its unit.
PER_LAYER = [
    ("core.tiling.candidate_tiles.calls", "count"),
    ("core.tiling.self_s", "s"),
    ("api.adapters.cambricon_run.calls", "count"),
    ("api.adapters.cambricon_run.self_s", "s"),
    ("api.adapters.offloading_run.calls", "count"),
    ("api.adapters.offloading_run.self_s", "s"),
    ("llm.workload.self_s", "s"),
    ("energy.self_s", "s"),
    ("api.runner.misses", "count"),
    ("api.runner.hits", "count"),
    ("api.runner.miss_mean_s", "s"),
    ("serving.workload.generate_s", "s"),
    ("cost.lookups", "count"),
    ("cost.hit_ratio", "ratio"),
    ("cost.evictions", "count"),
    ("cost.self_s", "s"),
    ("serving.scheduler.next_occupancy.calls", "count"),
    ("serving.scheduler.next_occupancy.self_s", "s"),
    ("serving.scheduler.steps_per_occupancy", "ratio"),
    ("loop.events", "count"),
    ("loop.self_s", "s"),
    ("loop.us_per_event", "us"),
    ("serving.events.pushes", "count"),
    ("serving.events.pops", "count"),
    ("serving.events.max_depth", "count"),
    ("memory.spill.calls", "count"),
    ("memory.spill.self_s", "s"),
    ("memory.refill.calls", "count"),
    ("memory.refill.self_s", "s"),
    ("memory.flash_pages_written", "count"),
    ("memory.flash_pages_read", "count"),
    ("memory.erases", "count"),
    ("memory.gc_page_copies", "count"),
    ("memory.refill_to_spill_ratio", "ratio"),
    ("fleet.router.route.calls", "count"),
    ("fleet.router.route.self_s", "s"),
    ("fleet.device.maybe_start.self_s", "s"),
    ("fleet.imbalance", "ratio"),
    ("faults.attempt_fails.self_s", "s"),
    ("faults.retries", "count"),
    ("faults.requeued", "count"),
    ("faults.shed", "count"),
    ("faults.timed_out", "count"),
    ("faults.attempts_per_request", "ratio"),
    ("obs.timeline.emissions", "count"),
    ("obs.timeline.self_s", "s"),
    ("obs.alerts.fired", "count"),
    ("serving.stream.bytes", "B"),
    ("serving.stream.self_s", "s"),
    ("serving.metrics.fold.self_s", "s"),
] + [
    (f"model.{config}.{part}", "ratio")
    for config in ("S", "M", "L")
    for part in (
        "weight_delivery_frac",
        "kv_exposed_frac",
        "sfu_frac",
        "sync_frac",
        "lm_head_frac",
        "alpha",
    )
] + [
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

#: Root spans: their self time is the event loops' own code plus glue.
ROOTS = ("setup", "job")


class StepCounter:
    """Counts planned occupancies and their decode steps (job only)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.decode_occupancies = 0
        self.decode_steps = 0

    def __call__(self, occupancy) -> None:
        if occupancy is not None and occupancy.kind == "decode":
            self.decode_occupancies += 1
            self.decode_steps += occupancy.steps


def install(tracer, steps: StepCounter) -> None:
    """Wrap the public entry points of every layer the benchmark splits."""
    from repro.api.adapters import CambriconBackend, OffloadingBackend
    from repro.api.runner import ExperimentRunner
    from repro.core.tiling import TilingStrategy
    from repro.energy.model import CambriconEnergyModel, FlexGenSSDEnergyModel
    from repro.faults.engine import _Engine
    from repro.faults.spec import FaultInjector
    from repro.fleet.device import Device
    from repro.fleet.router import ROUTERS
    from repro.llm.workload import DecodeWorkload, PrefillWorkload
    from repro.memory.model import KVMemoryModel
    from repro.obs.timeline import TimelineCollector
    from repro.serving.metrics import StreamedMetrics
    from repro.serving.scheduler import ContinuousBatchScheduler
    from repro.serving.simulator import BackendCostModel
    from repro.serving.stream import DigestSink, TraceStreamer
    from repro.serving.workload import WorkloadGenerator

    wrap = tracer.wrap
    wrap(TilingStrategy, "candidate_tiles", "core.tiling.candidate_tiles")
    for attr in (
        "optimal_tile",
        "best_tile_for_matrix",
        "grid_for_matrix",
        "matrix_efficiency",
        "tile_transfer_bytes",
    ):
        wrap(TilingStrategy, attr, "core.tiling")
    wrap(CambriconBackend, "run", "api.adapters.cambricon_run")
    wrap(OffloadingBackend, "run", "api.adapters.offloading_run")
    for attr in (
        "__post_init__",
        "gemv_weight_bytes",
        "gemv_weight_elements",
        "kv_cache_bytes",
        "activation_bytes",
        "total_ops",
        "per_layer_gemv_shapes",
    ):
        wrap(DecodeWorkload, attr, "llm.workload")
    for attr in ("__post_init__", "total_ops"):
        wrap(PrefillWorkload, attr, "llm.workload")
    wrap(CambriconEnergyModel, "report", "energy")
    wrap(CambriconEnergyModel, "report_for_decode", "energy")
    wrap(FlexGenSSDEnergyModel, "report", "energy")
    wrap(ExperimentRunner, "run", "api.runner")
    wrap(WorkloadGenerator, "generate", "serving.workload")
    for attr in ("ttft", "decode_step", "total_seconds"):
        wrap(BackendCostModel, attr, "cost.lookup")
    wrap(BackendCostModel, "profile", "cost.profile")
    wrap(
        ContinuousBatchScheduler,
        "next_occupancy",
        "serving.scheduler.next_occupancy",
        on_return=steps,
    )
    wrap(KVMemoryModel, "spill", "memory.spill")
    wrap(KVMemoryModel, "refill", "memory.refill")
    for router in ROUTERS.values():
        if "route" in router.__dict__:
            wrap(router, "route", "fleet.router.route")
    # The fault engine plans idle replicas inline in ``_Engine._plan``
    # instead of calling ``Device.maybe_start``; both are the same layer.
    wrap(Device, "maybe_start", "fleet.device.maybe_start")
    wrap(_Engine, "_plan", "fleet.device.maybe_start")
    wrap(FaultInjector, "attempt_fails", "faults.attempt_fails")
    wrap(TimelineCollector, "span", "obs.timeline.emit")
    wrap(TimelineCollector, "instant", "obs.timeline.emit")
    wrap(TimelineCollector, "finalize_run", "obs.timeline.finalize")
    for attr in ("register", "finish", "close"):
        wrap(TraceStreamer, attr, "serving.stream")
    wrap(DigestSink, "write", "serving.stream")
    for attr in ("fold", "add", "add_sample", "merge_from"):
        wrap(StreamedMetrics, attr, "serving.metrics.fold")


def _merge(*phases: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for phase in phases:
        for name, agg in phase.items():
            into = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]
    return out


def per_layer_metrics(
    setup: Dict[str, Dict[str, float]],
    job: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    steps: StepCounter,
    splits: Dict[str, Dict[str, float]],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one set-up and one repetition."""
    spans = _merge(setup, job)

    def calls(*names: str) -> int:
        return sum(spans.get(name, {}).get("calls", 0) for name in names)

    def self_s(*names: str) -> float:
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    def total_s(*names: str) -> float:
        return sum(spans.get(name, {}).get("total_s", 0.0) for name in names)

    misses = counts.get("api.runner.misses", 0)
    events = counts.get("loop.events", 0)
    job_loop_s = job.get("job", {}).get("self_s", 0.0)
    metrics = {name: 0 for name, _ in PER_LAYER}
    metrics.update(counts)
    metrics.update(
        {
            "core.tiling.candidate_tiles.calls": calls("core.tiling.candidate_tiles"),
            "core.tiling.self_s": self_s("core.tiling.candidate_tiles", "core.tiling"),
            "api.adapters.cambricon_run.calls": calls("api.adapters.cambricon_run"),
            "api.adapters.cambricon_run.self_s": self_s("api.adapters.cambricon_run"),
            "api.adapters.offloading_run.calls": calls("api.adapters.offloading_run"),
            "api.adapters.offloading_run.self_s": self_s("api.adapters.offloading_run"),
            "llm.workload.self_s": self_s("llm.workload"),
            "energy.self_s": self_s("energy"),
            "api.runner.miss_mean_s": (
                total_s("api.adapters.cambricon_run", "api.adapters.offloading_run") / misses
                if misses
                else 0.0
            ),
            "serving.workload.generate_s": total_s("serving.workload"),
            "cost.lookups": calls("cost.lookup"),
            "cost.self_s": self_s("cost.lookup", "cost.profile"),
            "serving.scheduler.next_occupancy.calls": calls("serving.scheduler.next_occupancy"),
            "serving.scheduler.next_occupancy.self_s": self_s("serving.scheduler.next_occupancy"),
            "serving.scheduler.steps_per_occupancy": (
                steps.decode_steps / steps.decode_occupancies
                if steps.decode_occupancies
                else 0.0
            ),
            "loop.self_s": self_s(*ROOTS),
            "loop.us_per_event": job_loop_s / events * 1e6 if events else 0.0,
            "memory.spill.calls": calls("memory.spill"),
            "memory.spill.self_s": self_s("memory.spill"),
            "memory.refill.calls": calls("memory.refill"),
            "memory.refill.self_s": self_s("memory.refill"),
            "fleet.router.route.calls": calls("fleet.router.route"),
            "fleet.router.route.self_s": self_s("fleet.router.route"),
            "fleet.device.maybe_start.self_s": self_s("fleet.device.maybe_start"),
            "faults.attempt_fails.self_s": self_s("faults.attempt_fails"),
            "obs.timeline.emissions": calls("obs.timeline.emit"),
            "obs.timeline.self_s": self_s("obs.timeline.emit", "obs.timeline.finalize"),
            "serving.stream.self_s": self_s("serving.stream"),
            "serving.metrics.fold.self_s": self_s("serving.metrics.fold"),
            "trace.wall_s": total_s(*ROOTS),
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    for config, split in splits.items():
        for part in ("weight_delivery", "kv_exposed", "sfu", "sync", "lm_head"):
            metrics[f"model.{config}.{part}_frac"] = split[part]
        metrics[f"model.{config}.alpha"] = split["alpha"]
    return metrics


def accounting_gap(setup, job) -> float:
    """|sum of every span's self time - traced wall time|, in seconds.

    Zero up to float rounding by construction; the traced run checks it
    so a wrapper that loses time (or counts it twice) shows up."""
    spans = _merge(setup, job)
    wall = sum(spans.get(name, {}).get("total_s", 0.0) for name in ROOTS)
    return abs(sum(agg["self_s"] for agg in spans.values()) - wall)
