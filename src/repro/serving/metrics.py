"""SLO specifications and the serving report.

The :class:`ServingReport` is to the serving simulator what
:class:`repro.api.result.RunResult` is to a single job: the one container
every consumer (CLI, capacity search, tests, notebooks) reads.  It holds
the per-request records (unless the run dropped them) plus the device
timeline, and answers latency percentiles (TTFT, time-per-output-token,
end-to-end), queue depth, utilization, throughput and — against an
:class:`SLOSpec` — attainment and goodput from one
:class:`StreamedMetrics` store.  :meth:`StreamedMetrics.fold` is the
only code that turns a record into metrics: the event loop folds into
the store as records resolve, or the report folds its own records, so
a streamed run and a kept run agree by construction.

Everything is a pure function of the records, so a report is exactly as
deterministic as the simulation that produced it: the same seed yields a
byte-identical :meth:`ServingReport.to_csv`.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, MutableSequence, Optional, Sequence, Tuple

from repro.serving.request import RequestRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.faults.report import FaultReport
    from repro.memory import MemoryReport
    from repro.obs.alerts import AlertLog

#: Percentiles reported for every latency metric.
REPORT_PERCENTILES = (50.0, 95.0, 99.0)

#: Latency metric name -> its :class:`StreamedMetrics` reservoir.
_METRIC_RESERVOIRS = {
    "ttft": "ttfts",
    "tpot": "tpots",
    "e2e": "e2es",
    "queue_wait": "queue_waits",
}

#: Per-request trace columns written by :meth:`ServingReport.to_csv`.
TRACE_CSV_FIELDS = [
    "request_id",
    "arrival_s",
    "model",
    "config",
    "seq_len",
    "gen_tokens",
    "batch_size",
    "prefill_start_s",
    "first_token_s",
    "finish_s",
    "queue_wait_s",
    "ttft_s",
    "tpot_s",
    "e2e_s",
    "slo_met",
]


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Deterministic and dependency-free (no numpy); returns None on empty
    input so report tables can render a "-" instead of a misleading 0.
    """
    if not values:
        return None
    return percentile_of_sorted(sorted(values), q)


def percentile_of_sorted(ordered: Sequence[float], q: float) -> Optional[float]:
    """:func:`percentile` over an already-sorted sequence (no re-sort).

    :class:`ServingReport` sorts each metric's values once and answers
    every p50/p95/p99 query from the same sorted list through this helper.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be between 0 and 100")
    if not ordered:
        return None
    if len(ordered) == 1:
        return ordered[0]
    position = (q / 100.0) * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


@dataclass
class StreamedMetrics:
    """Exact metric reservoirs: the one store every report answers from.

    :meth:`fold` is the only code that turns a record into metrics.  A
    run that drops its records (``keep_records=False``) or judges
    ``fail_fast`` folds each record into its device's store the moment
    the record resolves; a :class:`ServingReport` built without a store
    folds its own ``records`` on the first metric read.  The reservoirs
    hold the exact stamped floats, nothing approximated or binned, so a
    streamed run and a kept run report the same aggregates by
    construction; only the per-request trace rows are gone (or, with a
    ``trace_sink``, on disk).
    """

    #: Attached SLO-met counter; None when the run carried no SLOSpec.
    slo_met: Optional[int] = None
    num_requests: int = 0
    num_completed: int = 0
    total_output_tokens: int = 0
    #: The reservoirs are compact C-double arrays: one million samples
    #: cost 8 MB instead of ~32 MB of boxed floats, and ``array('d')``
    #: stores the exact same IEEE doubles the record properties compute.
    ttfts: MutableSequence[float] = field(default_factory=lambda: array("d"))
    tpots: MutableSequence[float] = field(default_factory=lambda: array("d"))
    e2es: MutableSequence[float] = field(default_factory=lambda: array("d"))
    queue_waits: MutableSequence[float] = field(default_factory=lambda: array("d"))
    #: Time-weighted integral of the waiting-queue depth (for the mean)
    #: and its maximum (see :class:`_QueueDepthStats`).
    queue_depth_area: float = 0.0
    max_queue_depth: int = 0

    def fold(self, record: RequestRecord, slo: Optional["SLOSpec"]) -> Optional[bool]:
        """Fold one (possibly partially-stamped) record into the reservoirs.

        Each metric counts only the stamps the record actually has, so
        partially-stamped records from an ``early_exit`` run contribute to
        exactly the metrics they can.  Returns whether the record met
        ``slo`` (None without one): a terminal fault ``outcome`` (shed,
        timed out, failed) is a miss even when the record carries full
        latency stamps, and so is a record that never finished.
        """
        source = record.source
        arrival = source.arrival_s
        first = record.first_token_s
        finish = record.finish_s
        self.num_requests += 1
        prefill = record.prefill_start_s
        if prefill is not None:
            self.queue_waits.append(prefill - arrival)
        ttft = None
        if first is not None:
            ttft = first - arrival
            self.ttfts.append(ttft)
        if finish is not None:
            e2e = finish - arrival
            self.e2es.append(e2e)
            self.num_completed += 1
            request = source.request
            self.total_output_tokens += request.total_generated_tokens
            if first is not None:
                tpot = (finish - first) / request.gen_tokens
                self.tpots.append(tpot)
                if slo is None:
                    return None
                if record.outcome is None and not (
                    (slo.ttft_s is not None and ttft > slo.ttft_s)
                    or (slo.tpot_s is not None and tpot > slo.tpot_s)
                    or (slo.e2e_s is not None and e2e > slo.e2e_s)
                ):
                    met = self.slo_met
                    self.slo_met = 1 if met is None else met + 1
                    return True
                if self.slo_met is None:
                    self.slo_met = 0
                return False
        if slo is None:
            return None
        if self.slo_met is None:
            self.slo_met = 0
        return False

    #: The historical name of :meth:`fold`.
    add = fold

    def add_sample(
        self,
        sample: "Tuple[Optional[float], Optional[float], Optional[float], Optional[float], int, Optional[bool]]",
    ) -> None:
        """Fold one precomputed ``(queue_wait, ttft, tpot, e2e, tokens,
        met)`` tuple (``None`` marks a missing stamp or verdict).

        For callers that derive a record's values themselves; the loop
        and the reports only ever :meth:`fold` records.
        """
        queue_wait, ttft, tpot, e2e, tokens, met = sample
        self.num_requests += 1
        if queue_wait is not None:
            self.queue_waits.append(queue_wait)
        if ttft is not None:
            self.ttfts.append(ttft)
            if tpot is not None:
                self.tpots.append(tpot)
        if e2e is not None:
            self.e2es.append(e2e)
            self.num_completed += 1
            self.total_output_tokens += tokens
        if met is not None:
            if self.slo_met is None:
                self.slo_met = 0
            if met:
                self.slo_met += 1

    def merge_from(self, other: "StreamedMetrics") -> None:
        """Fold another reservoir set into this one (counts add, values
        concatenate).

        The loop folds each record once into its device's store and
        builds the fleet-wide view by merging at the end: the multiset of
        values is identical to folding every record twice, so every
        percentile/attainment/goodput answer is too.  Queue-depth
        aggregates are deliberately not merged: they are per-device
        quantities (the fleet report never sums them).
        """
        self.num_requests += other.num_requests
        self.num_completed += other.num_completed
        self.total_output_tokens += other.total_output_tokens
        self.ttfts.extend(other.ttfts)
        self.tpots.extend(other.tpots)
        self.e2es.extend(other.e2es)
        self.queue_waits.extend(other.queue_waits)
        if other.slo_met is not None:
            self.slo_met = (self.slo_met or 0) + other.slo_met

    def set_queue_depth(self, stats: "_QueueDepthStats") -> None:
        """Adopt one device's queue-depth aggregates."""
        self.queue_depth_area = stats.area
        self.max_queue_depth = stats.max_depth


class _QueueDepthStats:
    """Streaming replacement for the (time, depth) sample list.

    Accumulates the two aggregates a report reads from the step function
    of waiting-queue depth: the time-weighted area (for the mean) and the
    maximum.  A ``keep_records=False`` run feeds it per planning attempt
    and so holds O(1) sample state; a report with a sample list feeds it
    the list.
    """

    __slots__ = ("area", "max_depth", "_last_t", "_last_depth")

    def __init__(self, samples: Sequence[Tuple[float, int]] = ()) -> None:
        self.area = 0.0
        self.max_depth = 0
        self._last_t: Optional[float] = None
        self._last_depth = 0
        for now, depth in samples:
            self.add(now, depth)

    def add(self, now: float, depth: int) -> None:
        if self._last_t is not None:
            self.area += self._last_depth * (now - self._last_t)
        self._last_t = now
        self._last_depth = depth
        if depth > self.max_depth:
            self.max_depth = depth


@dataclass(frozen=True)
class SLOSpec:
    """Per-request latency objectives plus the required attainment.

    A request *meets* the SLO when every non-None threshold holds for it;
    a run meets the SLO when at least ``min_attainment`` of its requests
    do.  Goodput counts only the meeting requests.
    """

    ttft_s: Optional[float] = None
    tpot_s: Optional[float] = None
    e2e_s: Optional[float] = None
    min_attainment: float = 0.95

    def __post_init__(self) -> None:
        if self.ttft_s is None and self.tpot_s is None and self.e2e_s is None:
            raise ValueError("an SLO needs at least one latency threshold")
        for name in ("ttft_s", "tpot_s", "e2e_s"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be finite and positive when given, got {value!r}"
                )
        if not 0.0 < self.min_attainment <= 1.0:
            raise ValueError("min_attainment must be in (0, 1]")

    def met_by(self, record: RequestRecord) -> bool:
        """Whether one completed request satisfies every threshold.

        A request that never produced its first token or never finished
        cannot have met a latency objective, whatever the thresholds;
        the stamps it does have are judged by :meth:`meets`.
        """
        first = record.first_token_s
        finish = record.finish_s
        if first is None or finish is None:
            return False
        arrival = record.arrival_s
        return self.meets(
            first - arrival,
            (finish - first) / record.request.gen_tokens,
            finish - arrival,
            record.outcome,
        )

    def meets(
        self,
        ttft: float,
        tpot: Optional[float],
        e2e: float,
        outcome: Optional[str] = None,
    ) -> bool:
        """The per-request verdict on one finished request's latencies.

        A request a fault-injected run marked with a terminal ``outcome``
        (shed, timed out, or permanently failed) is a miss, however fast
        its surviving stamps look.  A ``tpot`` of None (no known token
        count) skips the per-token threshold.
        """
        if outcome is not None:
            return False
        if self.ttft_s is not None and ttft > self.ttft_s:
            return False
        if self.tpot_s is not None and tpot is not None and tpot > self.tpot_s:
            return False
        if self.e2e_s is not None and e2e > self.e2e_s:
            return False
        return True


@dataclass
class ServingReport:
    """Everything one simulation run produced.

    Every aggregate reads the one metric store: the loop's (``streamed``)
    or, when the run handed none over, one folded from ``records`` and
    ``queue_depth`` on the first read.  Only the trace and SLO queries
    other than the run's own need the records themselves.
    """

    backend_name: str
    scheduler_name: str
    records: List[RequestRecord]
    #: Simulated time when the last occupancy ended.
    makespan_s: float
    #: Total device-busy seconds (sum of occupancy durations).
    busy_s: float
    #: (time, waiting-queue depth) samples at every event boundary.
    queue_depth: List[Tuple[float, int]]
    slo: Optional[SLOSpec] = None
    #: Event-loop iterations the simulation processed (None when the
    #: report was built outside the event loop); with fast-forward
    #: coalescing this is far below the number of decode steps simulated.
    num_events: Optional[int] = None
    #: True when a ``fail_fast`` run aborted early because SLO attainment
    #: could no longer reach the threshold (records are partially stamped).
    early_exit: bool = False
    #: The run's metric store, folded by the event loop (a
    #: ``keep_records=False`` or ``fail_fast`` run); None builds it from
    #: ``records`` and ``queue_depth`` on the first metric read.  Every
    #: aggregate below reads from this one store.
    streamed: Optional[StreamedMetrics] = None
    #: Snapshot of the flash-backed KV memory counters
    #: (:class:`repro.memory.MemoryReport`); None when the scheduler ran
    #: without a memory model.
    memory: Optional["MemoryReport"] = None
    #: Event-heap debug counters (``{"pushes", "pops", "max_depth"}`` from
    #: :meth:`repro.serving.events.EventQueue.stats`); None when the
    #: report was built outside the event loop.  Deterministic — a pure
    #: function of the event sequence — and absorbed by the
    #: :mod:`repro.obs.metrics` registry.
    event_queue: Optional[Dict[str, int]] = None
    #: :class:`repro.obs.alerts.AlertLog` from an attached
    #: :class:`~repro.obs.timeline.TimelineCollector` with alert rules;
    #: None when the run carried no alerting observer.  Pure metadata —
    #: never consulted by any metric on this report.
    alerts: Optional["AlertLog"] = None
    #: Resilience counters (:class:`repro.faults.FaultReport`) from a
    #: fault-injected run; None on plain runs.
    faults: Optional["FaultReport"] = None

    def __post_init__(self) -> None:
        #: metric name -> sorted values, so repeated percentile queries
        #: sort each metric once.
        self._sorted_metrics: Dict[str, List[float]] = {}

    @cached_property
    def _metrics(self) -> StreamedMetrics:
        """The store every aggregate reads, folded from ``records`` and
        ``queue_depth`` on first use when the run handed none over
        (records are not expected to mutate after the report is built)."""
        store = self.streamed
        if store is None:
            store = StreamedMetrics(slo_met=0 if self.slo is not None else None)
            for record in self.records:
                store.fold(record, self.slo)
            store.set_queue_depth(_QueueDepthStats(self.queue_depth))
        return store

    def _kept_records(self) -> List[RequestRecord]:
        """``records``, for the queries the metric store cannot answer;
        raises when the run dropped them (``keep_records=False``)."""
        if len(self.records) < self._metrics.num_requests:
            raise ValueError(
                "this report was built with keep_records=False, so it has no "
                "per-request trace and answers SLO queries only for the run's "
                "own SLOSpec; pass trace_sink= to stream the trace instead"
            )
        return self.records

    # -- basic counts --------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return self._metrics.num_requests

    @property
    def completed_records(self) -> List[RequestRecord]:
        """Records that ran to their last token (all of them, normally)."""
        return [record for record in self.records if record.completed]

    @property
    def num_completed(self) -> int:
        return self._metrics.num_completed

    @property
    def total_output_tokens(self) -> int:
        return self._metrics.total_output_tokens

    # -- latency metrics -----------------------------------------------------
    # Each list holds only the lifecycle stamps records actually have, so
    # a run where nothing (or not everything) completed still reports: the
    # percentiles simply cover fewer requests, or are None when empty.
    @property
    def ttfts(self) -> List[float]:
        return list(self._metrics.ttfts)

    @property
    def tpots(self) -> List[float]:
        return list(self._metrics.tpots)

    @property
    def e2es(self) -> List[float]:
        return list(self._metrics.e2es)

    @property
    def queue_waits(self) -> List[float]:
        return list(self._metrics.queue_waits)

    def _sorted_metric(self, metric: str) -> List[float]:
        """One metric's values, sorted once and cached across queries."""
        values = self._sorted_metrics.get(metric)
        if values is None:
            values = sorted(getattr(self._metrics, _METRIC_RESERVOIRS[metric]))
            self._sorted_metrics[metric] = values
        return values

    def percentiles(self, metric: str = "ttft") -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for one latency metric.

        ``metric`` is ``"ttft"``, ``"tpot"``, ``"e2e"`` or ``"queue_wait"``.
        The metric's values are sorted once on the first query and reused
        for every percentile thereafter.
        """
        values = self._sorted_metric(metric)
        return {f"p{q:g}": percentile_of_sorted(values, q) for q in REPORT_PERCENTILES}

    # -- rates and occupancy -------------------------------------------------
    @property
    def utilization(self) -> float:
        """Fraction of the makespan the device spent busy."""
        return self.busy_s / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        return self.num_completed / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def tokens_per_second(self) -> float:
        """Generated tokens per simulated second across the whole run."""
        return (
            self.total_output_tokens / self.makespan_s if self.makespan_s > 0 else 0.0
        )

    @property
    def max_queue_depth(self) -> int:
        return self._metrics.max_queue_depth

    @property
    def mean_queue_depth(self) -> float:
        """Time-weighted mean waiting-queue depth over the makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self._metrics.queue_depth_area / self.makespan_s

    # -- SLO -----------------------------------------------------------------
    def _slo(self, slo: Optional[SLOSpec]) -> SLOSpec:
        spec = slo if slo is not None else self.slo
        if spec is None:
            raise ValueError("no SLOSpec attached to this report or given")
        return spec

    def _met_count(self, spec: SLOSpec) -> int:
        """Requests meeting ``spec``: the store's counter for the run's own
        SLO, a count over the kept records for any other."""
        if spec == self.slo:
            return self._metrics.slo_met
        return sum(1 for record in self._kept_records() if spec.met_by(record))

    def slo_attainment(self, slo: Optional[SLOSpec] = None) -> float:
        """Fraction of requests individually meeting the SLO."""
        spec = self._slo(slo)
        if not self.num_requests:
            return 0.0
        return self._met_count(spec) / self.num_requests

    def goodput_rps(self, slo: Optional[SLOSpec] = None) -> float:
        """SLO-meeting requests per simulated second.

        Counted directly (not attainment x throughput): attainment is a
        fraction of *all* requests while throughput counts *completed*
        ones, and the two denominators differ when a run leaves requests
        unfinished.
        """
        spec = self._slo(slo)
        if self.makespan_s <= 0:
            return 0.0
        return self._met_count(spec) / self.makespan_s

    def meets_slo(self, slo: Optional[SLOSpec] = None) -> bool:
        """Whether attainment reaches the SLO's ``min_attainment``."""
        spec = self._slo(slo)
        return self.slo_attainment(spec) >= spec.min_attainment

    # -- export --------------------------------------------------------------
    def summary_rows(self) -> Tuple[List[str], List[List[object]]]:
        """(headers, rows) for :func:`repro.reporting.print_table`."""
        rows: List[List[object]] = [
            ["backend", self.backend_name],
            ["scheduler", self.scheduler_name],
            ["requests", self.num_requests],
            ["makespan (s)", self.makespan_s],
            ["throughput (req/s)", self.throughput_rps],
            ["throughput (token/s)", self.tokens_per_second],
            ["device utilization (%)", 100.0 * self.utilization],
            *self._latency_rows(),
            ["queue depth mean/max", f"{self.mean_queue_depth:.2f}/{self.max_queue_depth}"],
            *self._detail_rows(),
        ]
        return ["metric", "value"], rows

    def _latency_rows(self) -> List[List[object]]:
        """The TTFT/TPOT/e2e percentile rows of a summary table."""
        return [
            ["TTFT p50/p95/p99 (s)", percentile_triplet(self.percentiles("ttft"))],
            [
                "TPOT p50/p95/p99 (ms)",
                percentile_triplet(self.percentiles("tpot"), scale=1e3),
            ],
            ["e2e p50/p95/p99 (s)", percentile_triplet(self.percentiles("e2e"))],
        ]

    def _detail_rows(self) -> List[List[object]]:
        """The optional rows of a summary table: event heap, memory,
        faults, SLO verdicts and alerts, each only when present."""
        rows: List[List[object]] = []
        if self.event_queue is not None:
            heap = self.event_queue
            rows.append(
                [
                    "event heap push/pop/depth",
                    f"{heap['pushes']}/{heap['pops']}/{heap['max_depth']}",
                ]
            )
        if self.memory is not None:
            rows.extend([label, value] for label, value in self.memory.rows())
        if self.faults is not None:
            rows.extend([label, value] for label, value in self.faults.rows())
        if self.slo is not None:
            rows.extend(
                [
                    ["SLO attainment (%)", 100.0 * self.slo_attainment()],
                    ["goodput (req/s)", self.goodput_rps()],
                    ["meets SLO", self.meets_slo()],
                ]
            )
        if self.alerts is not None:
            rows.append(
                [
                    "alerts (fired/resolved)",
                    f"{len(self.alerts.fires())}/{len(self.alerts.resolves())}",
                ]
            )
        return rows

    def to_markdown(self) -> str:
        """The summary table as GitHub-flavoured markdown."""
        from repro.reporting import format_markdown_table

        headers, rows = self.summary_rows()
        return format_markdown_table(headers, rows)

    def to_csv(self, path: Optional[str] = None) -> str:
        """The per-request trace as CSV; byte-identical under a fixed seed."""
        rows = (
            trace_values(record, self.slo)
            for record in self._kept_records()
        )
        return write_trace_csv(TRACE_CSV_FIELDS, rows, path)


def write_trace_csv(
    header: Sequence[str], rows: Iterable[List[object]], path: Optional[str]
) -> str:
    """Render trace rows as CSV text (and write it to ``path`` if given)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    return text


def trace_values(record: RequestRecord, slo: Optional[SLOSpec]) -> List[object]:
    """One record's cells in :data:`TRACE_CSV_FIELDS` order; blank cells
    for unstamped times.

    Shared by :meth:`ServingReport.to_csv`, the fleet trace export and
    the streaming trace sinks, so every trace CSV in the repo renders a
    record identically (``csv.writer`` formats each value exactly as the
    former ``DictWriter`` did — same ``str()`` float rendering, same
    quoting rules — keeping streamed and post-hoc traces byte-identical).
    """
    source = record.source
    request = source.request
    arrival = source.arrival_s
    start = record.prefill_start_s
    first = record.first_token_s
    finish = record.finish_s
    return [
        source.request_id,
        arrival,
        request.model_name,
        request.config or "",
        request.seq_len,
        request.gen_tokens,
        request.batch_size,
        "" if start is None else start,
        "" if first is None else first,
        "" if finish is None else finish,
        "" if start is None else start - arrival,
        "" if first is None else first - arrival,
        "" if first is None or finish is None else (finish - first) / request.gen_tokens,
        "" if finish is None else finish - arrival,
        "" if slo is None else slo.met_by(record),
    ]


def percentile_triplet(values: Dict[str, Optional[float]], scale: float = 1.0) -> str:
    cells = []
    for key in ("p50", "p95", "p99"):
        value = values[key]
        cells.append("-" if value is None else f"{scale * value:.3f}")
    return "/".join(cells)
