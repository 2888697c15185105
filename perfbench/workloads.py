"""The four benchmark workloads.

Each workload is an open loop on the simulated clock: the arrival
schedule (or the grid) is generated up front from the workload seed and
never reacts to how fast the host runs.  A workload object has three
phases:

* ``prepare()`` -- set-up: input generation plus cold backend profiling
  of every (request shape x batch width) the run will price.  Its end is
  the "first simulated event" that ``setup_s`` is measured to.
* ``timed(watch)`` -- one repetition of the batch job, its parts timed
  by a :class:`calibration.Stopwatch`; ``verify(output)`` then applies
  the output checks off the clock and returns a :class:`JobResult`.
* ``reference()`` -- off the clock, once per invocation: the job again
  under ``max_steps=1`` (step-by-step, no coalescing), whose trace digest
  must equal the coalesced one.

Arrivals are always materialized lists.  Feeding a lazy generator to a
fault/retry/deadline run with ``keep_records=False`` raises
``AttributeError`` at close, because the fault engine reads
``source.first_request`` after the stream has drained; the workloads
avoid that known defect rather than trip over it on every repetition.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api import ExperimentRunner, InferenceRequest
from repro.serving import (
    BackendCostModel,
    ContinuousBatchScheduler,
    DigestSink,
    PoissonWorkload,
    ServingRequest,
    SLOSpec,
    simulate,
)

BACKEND = "cambricon"
MODEL = "llama2-7b"
CONFIG = "L"
MAX_BATCH = 8
#: Requests in the burst whose drain rate is a device's measured saturation.
SATURATION_PROBE = 400
#: ``busy <= makespan x devices`` allows for float summation order only.
BUSY_SLACK = 1e-9
#: Timed parts one grid repetition is split into (see calibration.py).
GRID_PARTS = 4


@dataclass
class JobResult:
    """One repetition: its output, the checks it failed, its statistics."""

    #: Requests that reached a terminal state (serving) or grid requests
    #: answered (paper_grid) -- the numerator of ``sim_req_per_s``.
    terminal: int
    #: Distinct backend evaluations made by this repetition.
    evaluations: int
    #: sha256 of the streamed trace CSV (or of the grid's results).
    digest: str
    failures: List[str] = field(default_factory=list)
    #: Modelled statistics: outputs of the model, recorded, not gated.
    stats: Dict[str, object] = field(default_factory=dict)
    #: Modelled per-layer counts for the traced run.
    counts: Dict[str, float] = field(default_factory=dict)


def _shape_payload(prompts, outputs):
    """A seeded payload factory drawing each request's prompt and output
    length; every request gets its own ``InferenceRequest`` object, as a
    trace replay or a generated stream would."""

    def payload(rng: random.Random, index: int) -> InferenceRequest:
        return InferenceRequest(
            model=MODEL,
            config=CONFIG,
            seq_len=rng.choice(prompts),
            gen_tokens=rng.choice(outputs),
        )

    return payload


class _Serving:
    """Shared machinery of the three serving workloads."""

    name = ""
    prompts: tuple = ()
    outputs: tuple = ()
    num_requests = 0
    devices = 1
    slo = SLOSpec(ttft_s=60.0, e2e_s=300.0)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.runner = ExperimentRunner(max_workers=1)
        self.cost = BackendCostModel(BACKEND, runner=self.runner)
        self.payload = _shape_payload(self.prompts, self.outputs)
        self.digest: Optional[str] = None

    # -- set-up ----------------------------------------------------------------
    def shapes(self) -> List[InferenceRequest]:
        return [
            InferenceRequest(model=MODEL, config=CONFIG, seq_len=prompt, gen_tokens=output)
            for prompt in self.prompts
            for output in self.outputs
        ]

    @staticmethod
    def warm_shape(cost, request: InferenceRequest) -> None:
        """Price one shape at every batch width the schedulers use."""
        cost.ttft(request)
        cost.total_seconds(request)
        for width in range(1, MAX_BATCH + 1):
            cost.decode_step(request, batch_size=width)

    def warm(self) -> None:
        """Cold-profile every shape the run will price."""
        for request in self.shapes():
            self.warm_shape(self.cost, request)

    def profile_rate(self, watch) -> float:
        """Backend evaluations per second of a cold re-profiling of the
        set-up's shapes (fresh runner and cost model), one shape per
        timed part; called off the clock, after the timed phase."""
        runner = ExperimentRunner(max_workers=1)
        cost = BackendCostModel(BACKEND, runner=runner)
        for request in self.shapes():
            watch.part(self.warm_shape, cost, request)
        return runner.cache_info()["misses"] / watch.reference_s

    def saturation_qps(self, memory=None) -> float:
        """Requests/s one device drains from a burst queued at time zero.

        The burst is drawn from a fixed seed, not the workload seed, so
        every seed offers the same rate and only its arrivals differ."""
        rng = random.Random("saturation")
        burst = [
            ServingRequest(0.0, index, self.payload(rng, index))
            for index in range(SATURATION_PROBE)
        ]
        report = simulate(
            burst,
            self.cost,
            ContinuousBatchScheduler(max_batch=MAX_BATCH, memory=memory),
            keep_records=False,
        )
        return report.num_completed / report.makespan_s

    def prepare(self) -> None:
        self.warm()
        self.arrivals = self.generate()

    def generate(self) -> List[ServingRequest]:
        raise NotImplementedError

    # -- one repetition --------------------------------------------------------
    def run(self, max_steps: Optional[int] = None):
        """One simulation of the arrivals; returns ``(report, sink)``."""
        raise NotImplementedError

    def timed(self, watch):
        """One repetition: one simulation, timed as one part."""
        before = (self.runner.cache_info(), self.cost.cache_info())
        report, sink = watch.part(self.run)
        return before, report, sink

    def verify(self, output) -> JobResult:
        (runner, info), report, sink = output
        result = self.check(report, sink)
        runner_after = self.runner.cache_info()
        result.evaluations = runner_after["misses"] - runner["misses"]
        result.counts["api.runner.misses"] = result.evaluations
        result.counts["api.runner.hits"] = runner_after["hits"] - runner["hits"]
        if result.evaluations:
            result.failures.append(
                f"{result.evaluations} cold backend evaluations in the timed "
                "phase: set-up missed a shape or batch width"
            )
        after = self.cost.cache_info()
        hits = after["latency_hits"] - info["latency_hits"]
        lookups = hits + after["latency_misses"] - info["latency_misses"]
        result.counts["cost.hit_ratio"] = hits / lookups if lookups else 1.0
        result.counts["cost.evictions"] = after["latency_evictions"] - info["latency_evictions"]
        return result

    def check(self, report, sink: DigestSink) -> JobResult:
        """Apply the per-repetition output checks to one run."""
        faults = report.faults
        shed = faults.shed if faults is not None else 0
        timed_out = faults.timed_out if faults is not None else 0
        failed = faults.failed if faults is not None else 0
        completed = report.num_completed - timed_out
        arrivals = len(self.arrivals)
        digest = sink.hexdigest()
        failures = []
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failures.append("trace sha256 differs from the first repetition")
        if report.num_requests != arrivals:
            failures.append(f"{report.num_requests} requests reported, {arrivals} arrived")
        if completed + shed + timed_out + failed != arrivals:
            failures.append(
                f"conservation: {arrivals} arrivals != {completed} completed + "
                f"{shed} shed + {timed_out} timed out + {failed} failed"
            )
        busy = self.busy_s(report)
        if busy > report.makespan_s * self.devices * (1.0 + BUSY_SLACK):
            failures.append(
                f"busy {busy!r} s > makespan {report.makespan_s!r} s x {self.devices}"
            )
        ttft = report.percentiles("ttft")
        tpot = report.percentiles("tpot")
        memory = self.memory_report(report)
        stats = {
            "ttft_p50_s": ttft["p50"],
            "ttft_p99_s": ttft["p99"],
            "tpot_p50_s": tpot["p50"],
            "tpot_p99_s": tpot["p99"],
            "slo_attainment": report.slo_attainment(),
            "makespan_s": report.makespan_s,
            "busy_s": busy,
            "availability": faults.availability if faults is not None else 1.0,
            "spill_bytes": memory.spill_bytes if memory is not None else 0,
            "completed": completed,
            "shed": shed,
            "timed_out": timed_out,
            "failed": failed,
            "events": report.num_events,
            "trace_sha256": digest,
        }
        queue = report.event_queue
        counts = {
            "loop.events": report.num_events,
            "serving.events.pushes": queue["pushes"],
            "serving.events.pops": queue["pops"],
            "serving.events.max_depth": queue["max_depth"],
            "serving.stream.bytes": sink.bytes_written,
        }
        if memory is not None:
            counts.update(
                {
                    "memory.flash_pages_written": memory.flash_pages_written,
                    "memory.flash_pages_read": memory.flash_pages_read,
                    "memory.erases": memory.erases,
                    "memory.gc_page_copies": memory.gc_page_copies,
                    "memory.refill_to_spill_ratio": (
                        memory.refill_bytes / memory.spill_bytes if memory.spill_bytes else 0.0
                    ),
                }
            )
        return JobResult(
            terminal=completed + shed + timed_out + failed,
            evaluations=0,
            digest=digest,
            failures=failures,
            stats=stats,
            counts=counts,
        )

    def busy_s(self, report) -> float:
        return report.busy_s

    def memory_report(self, report):
        return report.memory

    def reference(self) -> List[str]:
        """Coalesced == step-by-step: the trace digests must match."""
        report, sink = self.run(max_steps=1)
        if sink.hexdigest() != self.digest:
            return [
                "coalesced trace sha256 differs from the max_steps=1 reference "
                f"({self.digest[:12]} vs {sink.hexdigest()[:12]})"
            ]
        return []


class ServeDecode(_Serving):
    """One Cambricon-LLM-L device, continuous batching, long decodes."""

    name = "serve_decode"
    prompts = (256, 1024, 2048)
    outputs = (16, 128, 512)
    num_requests = 10000
    load = 0.7

    def generate(self) -> List[ServingRequest]:
        rate = self.load * self.saturation_qps()
        return PoissonWorkload(rate, self.payload, seed=self.seed).generate(
            self.num_requests
        )

    def run(self, max_steps=None):
        sink = DigestSink()
        report = simulate(
            self.arrivals,
            self.cost,
            ContinuousBatchScheduler(max_batch=MAX_BATCH),
            slo=self.slo,
            max_steps=max_steps,
            trace_sink=sink,
            keep_records=False,
        )
        return report, sink


class ServeKVSpill(_Serving):
    """The same device with the paper's 2 GiB LPDDR budget for KV."""

    name = "serve_kv_spill"
    prompts = (128, 512, 1024)
    outputs = (16, 64, 256)
    num_requests = 24000
    load = 0.7
    #: KV spill area in flash, as the CLI's ``--flash GB`` sets it: small
    #: enough that the FTL wraps and GC erases blocks within one run.
    spill_gib = 16

    def generate(self) -> List[ServingRequest]:
        from repro.memory import MemorySpec
        from repro.units import GiB

        self.spec = MemorySpec(spill_capacity_bytes=self.spill_gib * GiB)
        rate = self.load * self.saturation_qps(memory=self.spec)
        return PoissonWorkload(rate, self.payload, seed=self.seed).generate(
            self.num_requests
        )

    def run(self, max_steps=None):
        sink = DigestSink()
        report = simulate(
            self.arrivals,
            self.cost,
            ContinuousBatchScheduler(max_batch=MAX_BATCH, memory=self.spec),
            slo=self.slo,
            max_steps=max_steps,
            trace_sink=sink,
            keep_records=False,
        )
        return report, sink


class FleetChaos(_Serving):
    """16 replicas behind the failover router, with seeded chaos."""

    name = "fleet_chaos"
    prompts = (256, 512, 1024)
    outputs = (32, 128)
    num_requests = 6000
    devices = 16
    load = 0.6
    #: Per replica: mean time between crashes (and between slowdowns),
    #: and how long a crash (or a slowdown) lasts.  Many short faults
    #: rather than a few long ones, so the chaos a seed draws averages
    #: out within one run.
    mtbf_s = 500.0
    mttr_s = 30.0
    deadline_s = 30.0
    window_s = 60.0
    slo = SLOSpec(ttft_s=30.0, e2e_s=30.0)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cost_cache: dict = {}

    def fleet(self):
        from repro.fleet import build_fleet

        devices = build_fleet(
            [BACKEND] * self.devices,
            scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=MAX_BATCH),
            runner=self.runner,
            cost_cache=self.cost_cache,
        )
        return devices

    def prepare(self) -> None:
        self.cost = self.fleet()[0].cost
        super().prepare()

    def generate(self) -> List[ServingRequest]:
        from repro.faults import FaultSpec, RetryPolicy

        self.faults = FaultSpec(
            seed=self.seed,
            crash_mtbf_s=self.mtbf_s,
            crash_mttr_s=self.mttr_s,
            slow_mtbf_s=self.mtbf_s,
            slow_duration_s=self.mttr_s,
            slow_factor=2.0,
            flaky_prob=0.01,
        )
        self.retry = RetryPolicy(max_attempts=3, backoff_s=1.0, jitter=0.2, seed=self.seed)
        rate = self.load * self.devices * self.saturation_qps()
        return PoissonWorkload(rate, self.payload, seed=self.seed).generate(
            self.num_requests
        )

    def run(self, max_steps=None):
        from repro.fleet import get_router, simulate_fleet
        from repro.obs import TimelineCollector, burn_rate_pack

        sink = DigestSink()
        self.timeline = TimelineCollector(
            window_s=self.window_s,
            slo=self.slo,
            rules=burn_rate_pack(self.slo.min_attainment, self.window_s),
        )
        report = simulate_fleet(
            self.arrivals,
            self.fleet(),
            get_router("failover"),
            slo=self.slo,
            max_steps=max_steps,
            trace_sink=sink,
            keep_records=False,
            recorder=self.timeline,
            faults=self.faults,
            retry=self.retry,
            deadline_s=self.deadline_s,
        )
        return report, sink

    def busy_s(self, report) -> float:
        return sum(device.busy_s for device in report.device_reports)

    def memory_report(self, report):
        return None

    def check(self, report, sink) -> JobResult:
        result = super().check(report, sink)
        faults = report.faults
        alerts = report.alerts.events if report.alerts is not None else []
        arrivals = len(self.arrivals)
        result.stats.update(
            {
                "crashes": faults.crashes,
                "retries": faults.retries,
                "requeued": faults.requeued,
                "alerts_fired": sum(1 for event in alerts if event.kind == "fire"),
            }
        )
        result.counts.update(
            {
                "fleet.imbalance": report.imbalance,
                "faults.retries": faults.retries,
                "faults.requeued": faults.requeued,
                "faults.shed": faults.shed,
                "faults.timed_out": faults.timed_out,
                "faults.attempts_per_request": (arrivals + faults.retries + faults.hedges)
                / arrivals,
                "obs.alerts.fired": result.stats["alerts_fired"],
            }
        )
        return result


FIG9_BACKENDS = ("cambricon", "flexgen-ssd", "flexgen-dram", "mlc-llm")
OPT_MODELS = ("opt-6.7b", "opt-13b", "opt-30b", "opt-66b")
LLAMA2_MODELS = ("llama2-7b", "llama2-13b", "llama2-70b")


class PaperGrid:
    """A cold ``ExperimentRunner`` over the Fig. 9 grid (no event loop)."""

    name = "paper_grid"
    backends = FIG9_BACKENDS
    models = OPT_MODELS + LLAMA2_MODELS
    configs = ("S", "M", "L")
    #: The Fig. 9 operating point (1000, 1) plus a long context and a
    #: multi-token generation.
    seq_lens = (1000, 4096)
    gen_tokens = (1, 128)
    #: (backend, model) points the paper reports as out of memory.
    paper_oom = {("mlc-llm", "llama2-13b"), ("mlc-llm", "llama2-70b")}
    #: Points Fig. 9 reports a speed for, which must therefore fit.
    paper_fits = (
        {("cambricon", model) for model in OPT_MODELS + LLAMA2_MODELS}
        | {(name, model) for name in ("flexgen-ssd", "flexgen-dram") for model in OPT_MODELS}
        | {("mlc-llm", "llama2-7b")}
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.digest: Optional[str] = None

    def prepare(self) -> None:
        """Input generation: the fixed grid in a seeded evaluation order.

        The grid is the same for every seed, so every seed does the same
        work; the seed shuffles the order in which the cold runner meets
        its points."""
        self.requests = [
            InferenceRequest(model=model, config=config, seq_len=seq_len, gen_tokens=gen)
            for model in self.models
            for config in self.configs
            for seq_len in self.seq_lens
            for gen in self.gen_tokens
        ]
        self.points = [
            (backend, request) for backend in self.backends for request in self.requests
        ]
        random.Random(f"{self.seed}/grid").shuffle(self.points)

    def timed(self, watch):
        """One cold runner over the whole grid, point by point, timed in
        ``GRID_PARTS`` parts of about a second each."""
        runner = ExperimentRunner(max_workers=1)
        size = -(-len(self.points) // GRID_PARTS)
        for first in range(0, len(self.points), size):
            watch.part(self._run_points, runner, self.points[first : first + size])
        return runner

    @staticmethod
    def _run_points(runner, points) -> None:
        for backend, request in points:
            runner.run(backend, request)

    def verify(self, runner) -> JobResult:
        info = runner.cache_info()
        failures: List[str] = []
        lines = []
        self.results = {}
        for backend in self.backends:
            for request in self.requests:
                result = runner.run(backend, request)
                self.results[(backend, request)] = result
                lines.append(
                    repr(
                        (backend, request.model_name, request.config, request.seq_len,
                         request.gen_tokens, result.tokens_per_second,
                         result.time_to_first_token_s, result.total_seconds,
                         result.out_of_memory)
                    )
                )
                key = (backend, request.model_name)
                if result.out_of_memory:
                    if key in self.paper_fits:
                        failures.append(f"{backend} {key[1]}: OOM, but the paper runs it")
                    continue
                if key in self.paper_oom:
                    failures.append(f"{backend} {key[1]}: fits, but the paper reports OOM")
                values = (result.tokens_per_second, result.time_to_first_token_s,
                          result.decode_step_seconds, result.total_seconds)
                if not all(math.isfinite(value) and value > 0 for value in values):
                    failures.append(f"{backend} {key[1]}: non-finite or non-positive result")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failures.append("grid results differ from the first repetition")
        return JobResult(
            terminal=len(self.backends) * len(self.requests),
            evaluations=info["misses"],
            digest=digest,
            failures=failures,
            stats={"evaluations": info["misses"], "grid_sha256": digest},
            counts={"api.runner.hits": info["hits"], "api.runner.misses": info["misses"]},
        )

    def reference(self) -> List[str]:
        """The grid's Fig. 9 points equal the figure suite's model numbers
        exactly (the grid's (1000, 1) point is the Fig. 9 operating point)."""
        from fidelity import fig9_cells

        cells, _ = fig9_cells()
        failures = []
        for cell in cells:
            system = cell["system"]
            if system.startswith("Cam-"):
                backend, config = "cambricon", system[-1]
            else:
                backend, config = system, "S"
            request = InferenceRequest(
                model=cell["model"], config=config, seq_len=1000, gen_tokens=1
            )
            result = self.results.get((backend, request))
            # Compare the native report's speed, which the figure's shims
            # return; RunResult re-derives it from the phase split.
            if result is None or result.detail.tokens_per_second != cell["model_tok_s"]:
                failures.append(f"grid point {system} {cell['model']} != its Fig. 9 value")
        return failures


WORKLOADS = {
    workload.name: workload
    for workload in (PaperGrid, ServeDecode, ServeKVSpill, FleetChaos)
}
