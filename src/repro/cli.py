"""Command-line interface.

Installed as ``python -m repro``; every subcommand drives the unified
:mod:`repro.api` Backend/Request/Result layer:

* ``decode``  — decode-speed report for one model on one configuration,
* ``compare`` — Cambricon-LLM-S/M/L versus the FlexGen / MLC-LLM baselines,
* ``sweep``   — channel/chip scalability sweep for one model (Fig. 15 style),
* ``grid``    — cartesian (backend x model x config x seq_len x batch)
  experiment grid with memoized concurrent execution and CSV/markdown export,
* ``serve``   — discrete-event multi-request serving simulation (workload ->
  scheduler -> backend) with SLO percentiles, goodput and capacity search,
* ``fleet``   — multi-device fleet simulation (routing, sharding, mixed
  backends) and ``size_fleet`` capacity planning (``--size-for-qps``).
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.api import (
    CambriconBackend,
    ExperimentRunner,
    InferenceRequest,
    list_backends,
)
from repro.core import get_config
from repro.fleet import (
    ROUTERS,
    ShardingSpec,
    build_fleet,
    get_router,
    simulate_fleet,
    size_fleet,
)
from repro.llm.models import list_models
from repro.reporting import print_table
from repro.serving import (
    BackendCostModel,
    ConstantRateWorkload,
    ContinuousBatchScheduler,
    FCFSScheduler,
    OnOffWorkload,
    PoissonWorkload,
    SLOSpec,
    StaticBatchScheduler,
    TraceWorkload,
    find_max_qps,
    list_bundled_traces,
    load_bundled_trace,
    simulate,
)

_CAMBRICON_CONFIGS = ("S", "M", "L")
_BASELINE_BACKENDS = ("flexgen-ssd", "flexgen-dram", "mlc-llm")
_SCHEDULERS = {
    "fcfs": lambda args, memory=None: FCFSScheduler(),
    "static": lambda args, memory=None: StaticBatchScheduler(max_batch=args.max_batch),
    "continuous": lambda args, memory=None: ContinuousBatchScheduler(
        max_batch=args.max_batch, memory=memory
    ),
}


def _add_model_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "model",
        choices=list_models(),
        help="model to evaluate (paper zoo: OPT and Llama2 families)",
    )


def _speed_cell(result) -> object:
    return "OOM" if result.out_of_memory else result.tokens_per_second


def _decode_command(args: argparse.Namespace) -> int:
    backend = CambriconBackend(config=get_config(args.config))
    result = backend.run(InferenceRequest(model=args.model, seq_len=args.seq_len))
    if result.out_of_memory:
        print(f"{args.model} does not fit on {result.backend_name}: {result.error}")
        return 1
    report = result.detail
    print_table(
        f"Decode report — {report.model_name} on {report.config_name}",
        ["metric", "value"],
        [
            ["decode speed (token/s)", report.tokens_per_second],
            ["latency per token (ms)", 1e3 * report.token_seconds],
            ["time to first token (ms)", 1e3 * result.time_to_first_token_s],
            ["flash share alpha", report.alpha],
            ["tile", report.tile],
            ["channel utilisation (%)", 100 * report.channel_utilization],
            ["external traffic per token (GB)", report.traffic.external_bytes / 1e9],
            ["energy per token (J)", result.energy_joules_per_token],
            ["bottleneck", result.bottleneck],
        ],
    )
    return 0


def _compare_command(args: argparse.Namespace) -> int:
    runner = ExperimentRunner()
    rows = []
    for config in _CAMBRICON_CONFIGS:
        result = runner.run(
            "cambricon",
            InferenceRequest(model=args.model, config=config, seq_len=args.seq_len),
        )
        rows.append([result.backend_name, _speed_cell(result)])
    for backend in _BASELINE_BACKENDS:
        result = runner.run(
            backend, InferenceRequest(model=args.model, seq_len=args.seq_len)
        )
        rows.append([result.backend_name, _speed_cell(result)])
    print_table(
        f"Decode speed comparison — {args.model} at seq_len {args.seq_len} (token/s)",
        ["system", "token/s"],
        rows,
    )
    return 0


def _sweep_command(args: argparse.Namespace) -> int:
    base = get_config(args.config)
    request = InferenceRequest(model=args.model, seq_len=args.seq_len)
    rows = []
    for chips in args.chips:
        backend = CambriconBackend(
            config=base.with_flash_scale(chips_per_channel=chips), energy=False
        )
        result = backend.run(request)
        rows.append(
            [
                backend.config.flash.channels,
                chips,
                "OOM" if result.out_of_memory else result.tokens_per_second,
                (
                    100 * result.notes["channel_utilization"]
                    if result.supported
                    else "-"
                ),
            ]
        )
    print_table(
        f"Chip-count sweep — {args.model} on {base.name}",
        ["channels", "chips/channel", "token/s", "channel usage (%)"],
        rows,
    )
    return 0


def _grid_command(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(max_workers=args.workers)
    results = runner.run_grid(
        backends=args.backends or list_backends(),
        models=args.models,
        configs=args.configs,
        seq_lens=args.seq_lens,
        batch_sizes=args.batch_sizes,
        gen_tokens=args.gen_tokens,
    )
    headers, rows = results.to_rows()
    if args.markdown:
        print(results.to_markdown())
    else:
        print_table("Experiment grid", headers, rows)
    if args.csv is not None:
        results.to_csv(args.csv)
        print(f"\nWrote {len(results)} rows to {args.csv}")
    info = runner.cache_info()
    print(f"\n{len(results)} results ({info['misses']} runs, {info['hits']} cache hits)")
    if args.show_cache_stats:
        stats = runner.stats()
        rows = [
            ["profile hits", stats["hits"]],
            ["profile misses", stats["misses"]],
            ["backend evaluations", stats["misses"]],
            ["profile entries", stats["size"]],
            ["in flight", stats["in_flight"]],
        ]
        if args.markdown:
            from repro.reporting import format_markdown_table

            print()
            print(format_markdown_table(["counter", "value"], rows))
        else:
            print_table("Cache stats", ["counter", "value"], rows)
    return 0


def _serving_slo(args: argparse.Namespace) -> Optional[SLOSpec]:
    if args.slo_ttft is None and args.slo_tpot is None and args.slo_e2e is None:
        return None
    return SLOSpec(
        ttft_s=args.slo_ttft,
        tpot_s=args.slo_tpot,
        e2e_s=args.slo_e2e,
        min_attainment=args.slo_attainment,
    )


def _serving_memory(args: argparse.Namespace):
    """The per-device :class:`repro.memory.MemorySpec` the flags ask for.

    ``--dram-gb`` / ``--flash`` carve a KV memory model out of the
    ``--config`` hardware description; only the continuous scheduler
    admits by footprint, so other schedulers reject the flags instead of
    silently ignoring them.
    """
    if args.dram_gb is None and args.flash_gb is None:
        return None
    if args.scheduler != "continuous":
        raise SystemExit(
            "--dram-gb/--flash model KV admission for the continuous "
            "scheduler; pass --scheduler continuous"
        )
    if args.dram_gb is not None and args.dram_gb <= 0:
        raise SystemExit("--dram-gb must be positive")
    if args.flash_gb is not None and args.flash_gb < 0:
        raise SystemExit("--flash must be non-negative")
    from repro.memory import MemorySpec

    overrides = {}
    if args.dram_gb is not None:
        overrides["dram_bytes"] = int(args.dram_gb * (1 << 30))
    if args.flash_gb is not None:
        overrides["spill_capacity_bytes"] = int(args.flash_gb * (1 << 30))
    return MemorySpec.from_config(get_config(args.config), **overrides)


def _parse_faults(spec: Optional[str]):
    """``--faults`` key=value entries as a :class:`repro.faults.FaultSpec`.

    Comma-separated ``key=value`` pairs; ``crash-window=DEV:START:DUR``
    and ``slow-window=DEV:START:DUR[:FACTOR]`` may repeat to stack
    explicit windows.  Example::

        --faults crash-mtbf=300,mttr=20,flaky=0.01,seed=7
        --faults crash-window=1:30:10,slow-window=0:60:30:2.5
    """
    if spec is None:
        return None
    from repro.faults import FaultSpec

    scalar = {
        "seed": ("seed", int),
        "crash-mtbf": ("crash_mtbf_s", float),
        "mttr": ("crash_mttr_s", float),
        "slow-mtbf": ("slow_mtbf_s", float),
        "slow-duration": ("slow_duration_s", float),
        "slow-factor": ("slow_factor", float),
        "flaky": ("flaky_prob", float),
    }
    kwargs: dict = {}
    crash_windows: List[tuple] = []
    slow_windows: List[tuple] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        key, equals, value = entry.partition("=")
        key = key.strip().lower()
        if not equals:
            raise SystemExit(f"--faults: expected key=value, got {entry!r}")
        try:
            if key == "crash-window":
                device, start, duration = value.split(":")
                crash_windows.append((int(device), float(start), float(duration)))
            elif key == "slow-window":
                parts = value.split(":")
                if len(parts) not in (3, 4):
                    raise ValueError(value)
                slow_windows.append(
                    (int(parts[0]),) + tuple(float(part) for part in parts[1:])
                )
            elif key in scalar:
                field, cast = scalar[key]
                kwargs[field] = cast(value)
            else:
                raise SystemExit(
                    f"--faults: unknown key {key!r}; known: "
                    f"{', '.join(sorted(scalar))}, crash-window, slow-window"
                )
        except (TypeError, ValueError):
            raise SystemExit(f"--faults: bad value in {entry!r}")
    if crash_windows:
        kwargs["crash_windows"] = tuple(crash_windows)
    if slow_windows:
        kwargs["slow_windows"] = tuple(slow_windows)
    try:
        faults = FaultSpec(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"--faults: {exc}")
    if not faults.any_faults:
        raise SystemExit(
            "--faults: the spec injects nothing; give it an MTBF, a window "
            "or a flaky probability"
        )
    return faults


def _parse_retry(spec: Optional[str]):
    """``--retry`` key=value entries as a :class:`repro.faults.RetryPolicy`.

    Example: ``--retry attempts=3,backoff=0.5,multiplier=2,jitter=0.1``;
    ``hedge-after=S`` arms a hedged second attempt for slow requests.
    """
    if spec is None:
        return None
    from repro.faults import RetryPolicy

    scalar = {
        "attempts": ("max_attempts", int),
        "backoff": ("backoff_s", float),
        "multiplier": ("multiplier", float),
        "jitter": ("jitter", float),
        "seed": ("seed", int),
        "hedge-after": ("hedge_after_s", float),
    }
    kwargs: dict = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        key, equals, value = entry.partition("=")
        key = key.strip().lower()
        if not equals:
            raise SystemExit(f"--retry: expected key=value, got {entry!r}")
        if key not in scalar:
            raise SystemExit(
                f"--retry: unknown key {key!r}; known: {', '.join(sorted(scalar))}"
            )
        field, cast = scalar[key]
        try:
            kwargs[field] = cast(value)
        except (TypeError, ValueError):
            raise SystemExit(f"--retry: bad value in {entry!r}")
    try:
        return RetryPolicy(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"--retry: {exc}")


def _resilience_kwargs(args: argparse.Namespace, searching: bool) -> dict:
    """The ``faults=/retry=/deadline_s=`` kwargs the chaos flags ask for.

    A capacity/sizing search probes many simulations against the *clean*
    SLO question, so the chaos flags are rejected there rather than
    silently chaos-testing every probe.
    """
    if (
        args.faults is None
        and args.retry is None
        and args.deadline_s is None
    ):
        return {}
    if searching:
        raise SystemExit(
            "--faults/--retry/--deadline-s chaos-test one simulation; they "
            "cannot follow a capacity/sizing search"
        )
    if args.deadline_s is not None and args.deadline_s <= 0:
        raise SystemExit("--deadline-s must be positive")
    return {
        "faults": _parse_faults(args.faults),
        "retry": _parse_retry(args.retry),
        "deadline_s": args.deadline_s,
    }


def _validate_trace_flags(args: argparse.Namespace) -> None:
    """Reject trace flags that would be silently dropped.

    Called at the top of both command handlers so the capacity/sizing
    branches (which never build a workload) validate them too.
    """
    if args.trace is not None and args.bundled_trace is not None:
        raise SystemExit("pass either --trace or --bundled-trace, not both")
    if args.workload != "trace" and (
        args.trace is not None or args.bundled_trace is not None
    ):
        raise SystemExit(
            f"--trace/--bundled-trace replay a recorded trace; they do nothing "
            f"for a {args.workload!r} workload (use --workload trace)"
        )


def _serving_workload(args: argparse.Namespace, payload: InferenceRequest):
    _validate_trace_flags(args)
    if args.workload == "poisson":
        return PoissonWorkload(args.qps, payload, seed=args.seed)
    if args.workload == "constant":
        return ConstantRateWorkload(args.qps, payload, seed=args.seed)
    if args.workload == "onoff":
        return OnOffWorkload(
            args.qps,
            payload,
            on_seconds=args.on_seconds,
            off_seconds=args.off_seconds,
            seed=args.seed,
        )
    if args.trace is not None:
        return TraceWorkload.from_csv(args.trace)
    if args.bundled_trace is not None:
        try:
            return load_bundled_trace(args.bundled_trace)
        except KeyError as exc:
            raise SystemExit(f"--bundled-trace: {exc.args[0]}")
    raise SystemExit("--workload trace requires --trace PATH or --bundled-trace NAME")


def _workload_arrivals(args: argparse.Namespace, payload: InferenceRequest):
    workload = _serving_workload(args, payload)
    if args.workload == "trace":
        # Default to replaying the whole trace; --num-requests truncates.
        return workload.generate(args.num_requests)
    return workload.generate(100 if args.num_requests is None else args.num_requests)


def _print_probe_trail(args: argparse.Namespace, headers, rows) -> None:
    """The audit trail of a capacity/sizing search, one row per probe."""
    if args.markdown:
        from repro.reporting import format_markdown_table

        print()
        print(format_markdown_table(headers, rows))
    else:
        print_table("Probe trail", headers, rows)


def _emit_report(
    args: argparse.Namespace,
    title: str,
    headers,
    rows,
    report,
    probe_rows=None,
    extra_tables=(),
) -> int:
    """Render a report (plus optional extra tables and probe trail) and
    write the trace CSV — the shared epilogue of ``serve`` and ``fleet``."""
    if args.markdown:
        from repro.reporting import format_markdown_table

        print(format_markdown_table(headers, rows))
        for _, extra_headers, extra_rows in extra_tables:
            print()
            print(format_markdown_table(extra_headers, extra_rows))
    else:
        print_table(title, headers, rows)
        for extra_title, extra_headers, extra_rows in extra_tables:
            print_table(extra_title, extra_headers, extra_rows)
    if probe_rows is not None:
        _print_probe_trail(args, *probe_rows)
    if args.csv is not None:
        report.to_csv(args.csv)
        print(f"\nWrote {len(report.records)} request records to {args.csv}")
    return 0


def _emit_observability(args: argparse.Namespace, recorder, snapshot_fn) -> None:
    """Write ``--trace-out`` / ``--metrics-out`` artifacts, if asked for.

    ``snapshot_fn`` is a thunk building the :class:`repro.obs.MetricsSnapshot`
    (deferred so runs without ``--metrics-out`` never pay for one).
    """
    if recorder is not None:
        recorder.to_perfetto(args.trace_out)
        print(
            f"\nWrote {len(recorder.events)} trace events "
            f"(Perfetto JSON) to {args.trace_out}"
        )
    if args.metrics_out is not None:
        snapshot = snapshot_fn()
        snapshot.to_prometheus(args.metrics_out)
        print(
            f"Wrote {len(snapshot.samples)} metric samples "
            f"(Prometheus text) to {args.metrics_out}"
        )


def _serving_observers(args: argparse.Namespace, searching: bool):
    """Build the run's observers: ``(recorder, span_recorder, timeline)``.

    ``recorder`` is what the simulation gets (a single observer, a
    ``TeeRecorder`` composing both, or None); ``span_recorder`` feeds
    ``--trace-out`` / ``--attribution`` and ``timeline`` feeds
    ``--timeline-out`` / ``--alerts``.  A capacity/sizing search runs
    many simulations; a single trace or timeline of "the search" would
    interleave them meaninglessly, so every observer flag is rejected
    there rather than silently recording the last probe.
    """
    wants_spans = args.trace_out is not None or args.attribution
    wants_timeline = args.timeline_out is not None or args.alerts
    if not wants_spans and not wants_timeline:
        return None, None, None
    if searching:
        raise SystemExit(
            "--trace-out/--attribution/--timeline-out/--alerts observe one "
            "simulation; they cannot follow a capacity/sizing search"
        )
    span_recorder = timeline = None
    if wants_spans:
        from repro.obs import SpanRecorder

        span_recorder = SpanRecorder()
    if wants_timeline:
        from repro.obs import TimelineCollector, burn_rate_pack

        slo = _serving_slo(args)
        rules = ()
        if args.alerts:
            if slo is None:
                raise SystemExit(
                    "--alerts evaluates SLO burn-rate rules; give it an SLO "
                    "(--slo-ttft/--slo-tpot/--slo-e2e)"
                )
            rules = burn_rate_pack(slo.min_attainment, args.timeline_window)
        timeline = TimelineCollector(
            window_s=args.timeline_window, slo=slo, rules=rules
        )
    if span_recorder is not None and timeline is not None:
        from repro.obs import TeeRecorder

        return TeeRecorder(span_recorder, timeline), span_recorder, timeline
    # NB: not ``span_recorder or timeline`` — an empty SpanRecorder is falsy.
    single = span_recorder if span_recorder is not None else timeline
    return single, span_recorder, timeline


def _emit_timeline(args: argparse.Namespace, timeline, report) -> None:
    """Write ``--timeline-out`` and print the ``--alerts`` log."""
    if timeline is None:
        return
    if args.timeline_out is not None:
        timeline.to_csv(args.timeline_out)
        print(
            f"Wrote {len(timeline.to_rows())} timeline windows "
            f"({timeline.window_s:g}s wide) to {args.timeline_out}"
        )
    if args.alerts:
        log = report.alerts
        headers, rows = log.summary_rows()
        if not rows:
            print("\nAlerts: none fired")
        elif args.markdown:
            from repro.reporting import format_markdown_table

            print()
            print(format_markdown_table(headers, rows))
        else:
            print_table("Alerts (simulated clock)", headers, rows)


def _emit_attribution(args: argparse.Namespace, span_recorder) -> None:
    """Print the ``--attribution`` critical-path tables."""
    if not args.attribution:
        return
    from repro.obs import critical_path

    analysis = critical_path(span_recorder)
    tables = [
        ("Critical-path attribution", analysis.attribution_rows()),
        ("Makespan chains", analysis.chain_rows()),
    ]
    for title, (headers, rows) in tables:
        if args.markdown:
            from repro.reporting import format_markdown_table

            print()
            print(format_markdown_table(headers, rows))
        else:
            print_table(title, headers, rows)


def _cache_stats_table(cost_models, runner: ExperimentRunner):
    """One (title, headers, rows) extra table for ``--show-cache-stats``.

    ``latency *`` counters aggregate the distinct cost models' scalar
    lookups (``latency entries`` counts their value-keyed (payload, batch
    width, field) latencies); ``profile *`` is the shared runner's
    backend-eval view.
    """
    seen = set()
    latency = {"hits": 0, "misses": 0, "size": 0}
    for cost in cost_models:
        if id(cost) in seen:
            continue
        seen.add(id(cost))
        info = cost.cache_info()
        latency["hits"] += info["latency_hits"]
        latency["misses"] += info["latency_misses"]
        latency["size"] += info["latency_size"]
    profile = runner.stats()
    rows = [
        ["cost models", len(seen)],
        ["latency hits", latency["hits"]],
        ["latency misses", latency["misses"]],
        ["latency entries", latency["size"]],
        ["profile hits", profile["hits"]],
        ["profile misses", profile["misses"]],
        ["backend evaluations", profile["misses"]],
        ["profile entries", profile["size"]],
    ]
    return ("Cache stats", ["counter", "value"], rows)


def _serve_command(args: argparse.Namespace) -> int:
    payload = InferenceRequest(
        model=args.model,
        config=args.config,
        seq_len=args.seq_len,
        gen_tokens=args.gen_tokens,
    )
    _validate_trace_flags(args)
    if args.show_probes and not args.find_max_qps:
        raise SystemExit("--show-probes requires --find-max-qps")
    if args.stream_trace is not None:
        if args.csv is not None:
            raise SystemExit("pass either --stream-trace or --csv, not both")
        if args.find_max_qps:
            raise SystemExit(
                "--stream-trace streams one simulation's trace; it cannot "
                "follow a capacity search"
            )
    if args.parallel < 1:
        raise SystemExit("--parallel must be at least 1")
    if args.parallel != 1 and not args.find_max_qps:
        raise SystemExit("--parallel parallelizes --find-max-qps probes")
    slo = _serving_slo(args)
    memory = _serving_memory(args)
    resilience = _resilience_kwargs(args, searching=args.find_max_qps)
    scheduler_factory = _SCHEDULERS[args.scheduler]
    runner = ExperimentRunner()
    cost = BackendCostModel(args.backend, runner=runner)
    probe_rows = None
    recorder, span_recorder, timeline = _serving_observers(
        args, searching=args.find_max_qps
    )

    if args.find_max_qps:
        if slo is None:
            raise SystemExit("--find-max-qps needs an SLO (--slo-ttft/tpot/e2e)")
        if args.workload != "poisson":
            raise SystemExit(
                "--find-max-qps bisects the rate of a Poisson arrival process; "
                f"it cannot search a {args.workload!r} workload"
            )
        capacity = find_max_qps(
            args.backend,
            payload,
            slo,
            scheduler_factory=lambda: scheduler_factory(args, memory),
            num_requests=100 if args.num_requests is None else args.num_requests,
            seed=args.seed,
            runner=runner,
            cost=cost,
            parallel=args.parallel,
        )
        report = capacity.report
        headers, rows = report.summary_rows()
        rows = [["max sustainable qps", capacity.max_qps],
                ["capacity probes", len(capacity.probes)]] + rows
        title = (
            f"Capacity search — {args.model} on {report.backend_name} "
            f"({report.scheduler_name} scheduler)"
        )
        if args.show_probes:
            probe_rows = (
                ["probe", "rate (qps)", "SLO met"],
                [
                    [index + 1, rate, met]
                    for index, (rate, met) in enumerate(capacity.probes)
                ],
            )
    else:
        arrivals = _workload_arrivals(args, payload)
        report = simulate(
            arrivals,
            cost,
            scheduler_factory(args, memory),
            slo=slo,
            trace_sink=args.stream_trace,
            keep_records=args.stream_trace is None,
            recorder=recorder,
            **resilience,
        )
        headers, rows = report.summary_rows()
        title = (
            f"Serving simulation — {len(arrivals)} x {args.model} "
            f"({args.workload} workload, {report.scheduler_name} scheduler)"
        )

    extra_tables = []
    if args.show_cache_stats:
        extra_tables.append(_cache_stats_table([cost], runner))
    code = _emit_report(
        args, title, headers, rows, report, probe_rows, extra_tables=extra_tables
    )
    if args.stream_trace is not None:
        print(f"\nStreamed {report.num_requests} request rows to {args.stream_trace}")
    def _snapshot():
        from repro.obs import serving_snapshot

        return serving_snapshot(report, cost_model=cost)

    _emit_observability(
        args, span_recorder if args.trace_out is not None else None, _snapshot
    )
    _emit_timeline(args, timeline, report)
    _emit_attribution(args, span_recorder)
    return code


def _parse_mix(spec: str) -> List[object]:
    """``--mix`` entries ("name=count", comma-separated) as backend objects.

    A name is a registered backend, or ``cambricon-<cfg>`` sugar pinning a
    Table-II configuration per device (``cambricon-s=4,flexgen-ssd=2``).
    """
    backends: List[object] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, equals, count_text = entry.partition("=")
        name = name.strip().lower()
        try:
            count = int(count_text) if equals else 1
        except ValueError:
            raise SystemExit(f"--mix: bad count in {entry!r}")
        if count < 1:
            raise SystemExit(f"--mix: count must be >= 1 in {entry!r}")
        if name in list_backends():
            backends.extend([name] * count)
            continue
        base, dash, config = name.rpartition("-")
        if dash and base == "cambricon":
            try:
                pinned = get_config(config.upper())
            except (KeyError, ValueError):
                raise SystemExit(f"--mix: unknown backend or config {name!r}")
            backends.extend(
                CambriconBackend(config=pinned) for _ in range(count)
            )
            continue
        raise SystemExit(
            f"--mix: unknown backend {name!r}; available: "
            f"{', '.join(list_backends())} (or cambricon-s/m/l)"
        )
    if not backends:
        raise SystemExit("--mix produced an empty fleet")
    return backends


def _fleet_command(args: argparse.Namespace) -> int:
    payload = InferenceRequest(
        model=args.model,
        config=args.config,
        seq_len=args.seq_len,
        gen_tokens=args.gen_tokens,
    )
    _validate_trace_flags(args)
    if args.show_probes and args.size_for_qps is None:
        raise SystemExit("--show-probes requires --size-for-qps")
    if args.size_for_qps is not None and args.num_devices is not None:
        raise SystemExit(
            "--size-for-qps searches the replica count itself; "
            "it cannot honour --num-devices (cap it with --max-replicas)"
        )
    if args.stream_trace is not None:
        if args.csv is not None:
            raise SystemExit("pass either --stream-trace or --csv, not both")
        if args.size_for_qps is not None:
            raise SystemExit(
                "--stream-trace streams one simulation's trace; it cannot "
                "follow a sizing search"
            )
    if args.parallel < 1:
        raise SystemExit("--parallel must be at least 1")
    if args.parallel != 1 and args.size_for_qps is None:
        raise SystemExit("--parallel parallelizes --size-for-qps probes")
    slo = _serving_slo(args)
    memory = _serving_memory(args)
    resilience = _resilience_kwargs(args, searching=args.size_for_qps is not None)
    runner = ExperimentRunner()
    sharding = ShardingSpec(tensor_parallel=args.tp, pipeline_parallel=args.pp)
    # Each replica owns the DRAM/flash of all its chips (tp x pp of them);
    # ``size_fleet`` re-derives the scaling itself per sharding candidate.
    device_memory = None if memory is None else memory.scaled(sharding.num_devices)

    def scheduler_factory(memory=device_memory):
        return _SCHEDULERS[args.scheduler](args, memory)

    probe_rows = None
    cost_models: List[object] = []
    recorder, span_recorder, timeline = _serving_observers(
        args, searching=args.size_for_qps is not None
    )

    if args.size_for_qps is not None:
        if slo is None:
            raise SystemExit("--size-for-qps needs an SLO (--slo-ttft/tpot/e2e)")
        if args.mix is not None:
            raise SystemExit(
                "--size-for-qps sizes a homogeneous fleet; it cannot search --mix"
            )
        if args.workload != "poisson":
            raise SystemExit(
                "--size-for-qps sizes against a Poisson arrival process; "
                f"it cannot search a {args.workload!r} workload"
            )
        cost_cache: dict = {}
        sizing = size_fleet(
            args.backend,
            payload,
            slo,
            args.size_for_qps,
            shardings=[sharding],
            scheduler_factory=scheduler_factory,
            router_factory=lambda: get_router(args.router),
            memory=memory,
            num_requests=100 if args.num_requests is None else args.num_requests,
            seed=args.seed,
            max_replicas=args.max_replicas,
            runner=runner,
            cost_cache=cost_cache,
            parallel=args.parallel,
        )
        cost_models = list(cost_cache.values())
        report = sizing.report
        headers, rows = report.summary_rows()
        won = sizing.sharding
        rows = [
            ["replicas needed", sizing.num_replicas],
            [
                "sharding (tp x pp)",
                f"{won.tensor_parallel} x {won.pipeline_parallel}",
            ],
            ["total chips", sizing.num_chips],
            ["sizing probes", len(sizing.probes)],
        ] + rows
        title = (
            f"Fleet sizing — {args.size_for_qps:g} qps of {args.model} "
            f"on {args.backend} ({args.router} router)"
        )
        if args.show_probes:
            probe_rows = (
                ["probe", "replicas", "tp", "pp", "SLO met"],
                [
                    [
                        index + 1,
                        probe.replicas,
                        probe.sharding.tensor_parallel,
                        probe.sharding.pipeline_parallel,
                        probe.met,
                    ]
                    for index, probe in enumerate(sizing.probes)
                ],
            )
    else:
        if args.mix is not None:
            backends = _parse_mix(args.mix)
        else:
            backends = [args.backend] * (
                2 if args.num_devices is None else args.num_devices
            )
        fleet = build_fleet(
            backends,
            scheduler_factory=scheduler_factory,
            sharding=sharding,
            runner=runner,
        )
        arrivals = _workload_arrivals(args, payload)
        report = simulate_fleet(
            arrivals,
            fleet,
            get_router(args.router),
            slo=slo,
            trace_sink=args.stream_trace,
            keep_records=args.stream_trace is None,
            recorder=recorder,
            **resilience,
        )
        cost_models = [device.cost for device in fleet]
        headers, rows = report.summary_rows()
        title = (
            f"Fleet simulation — {len(arrivals)} x {args.model} on "
            f"{len(fleet)} devices ({args.workload} workload, {args.router} router)"
        )

    device_headers, device_rows = report.per_device_rows()
    extra_tables = [("Per-device breakdown", device_headers, device_rows)]
    if args.show_cache_stats:
        extra_tables.append(_cache_stats_table(cost_models, runner))
    code = _emit_report(
        args,
        title,
        headers,
        rows,
        report,
        probe_rows,
        extra_tables=extra_tables,
    )
    if args.stream_trace is not None:
        print(f"\nStreamed {report.num_requests} request rows to {args.stream_trace}")
    def _snapshot():
        from repro.obs import fleet_snapshot

        return fleet_snapshot(report, cost_models=cost_models)

    _emit_observability(
        args, span_recorder if args.trace_out is not None else None, _snapshot
    )
    _emit_timeline(args, timeline, report)
    _emit_attribution(args, span_recorder)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cambricon-LLM reproduction: decode-speed and scalability models",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    decode = subparsers.add_parser("decode", help="decode-speed report for one model")
    _add_model_argument(decode)
    decode.add_argument("--config", default="L", help="S, M or L (default L)")
    decode.add_argument("--seq-len", type=int, default=1000, help="cached context length")
    decode.set_defaults(handler=_decode_command)

    compare = subparsers.add_parser("compare", help="compare against the paper's baselines")
    _add_model_argument(compare)
    compare.add_argument("--seq-len", type=int, default=1000)
    compare.set_defaults(handler=_compare_command)

    sweep = subparsers.add_parser("sweep", help="chips-per-channel scalability sweep")
    _add_model_argument(sweep)
    sweep.add_argument("--config", default="S")
    sweep.add_argument("--seq-len", type=int, default=1000)
    sweep.add_argument(
        "--chips", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32],
        help="chips-per-channel values to sweep",
    )
    sweep.set_defaults(handler=_sweep_command)

    grid = subparsers.add_parser(
        "grid", help="run a backend x model x config x seq_len experiment grid"
    )
    grid.add_argument(
        "models", nargs="+", choices=list_models(), help="models to evaluate"
    )
    grid.add_argument(
        "--backends", nargs="+", default=None, metavar="NAME",
        help=f"registered backends (default: all — {', '.join(list_backends())})",
    )
    grid.add_argument(
        "--configs", nargs="+", default=["L"], metavar="CFG",
        help="hardware configuration keys for backends that accept them (default L)",
    )
    grid.add_argument("--seq-lens", type=int, nargs="+", default=[1000])
    grid.add_argument("--batch-sizes", type=int, nargs="+", default=[1])
    grid.add_argument("--gen-tokens", type=int, nargs="+", default=[1])
    grid.add_argument("--csv", default=None, metavar="PATH", help="also write CSV here")
    grid.add_argument(
        "--markdown", action="store_true", help="print a markdown table instead"
    )
    grid.add_argument("--workers", type=int, default=None, help="thread-pool width")
    grid.add_argument(
        "--show-cache-stats", action="store_true",
        help="print the shared ExperimentRunner's profile-cache counters "
             "(matches the serve/fleet flag)",
    )
    grid.set_defaults(handler=_grid_command)

    serve = subparsers.add_parser(
        "serve",
        help="simulate a multi-request serving workload with SLO metrics",
    )
    _add_serving_arguments(serve)
    serve.add_argument(
        "--find-max-qps", action="store_true",
        help="bisect for the highest Poisson rate that meets the SLO",
    )
    serve.set_defaults(handler=_serve_command)

    fleet = subparsers.add_parser(
        "fleet",
        help="simulate a multi-device fleet (routing, sharding, fleet sizing)",
    )
    _add_serving_arguments(fleet)
    fleet.add_argument(
        "--num-devices", type=int, default=None,
        help="replica count for a homogeneous fleet (default 2; "
             "incompatible with --size-for-qps, which searches the count)",
    )
    fleet.add_argument(
        "--router", choices=sorted(ROUTERS), default="jsq",
        help="routing policy (default jsq)",
    )
    fleet.add_argument(
        "--tp", type=int, default=1,
        help="tensor-parallel degree of every replica (default 1)",
    )
    fleet.add_argument(
        "--pp", type=int, default=1,
        help="pipeline-parallel degree of every replica (default 1)",
    )
    fleet.add_argument(
        "--mix", default=None, metavar="SPEC",
        help="heterogeneous fleet, e.g. 'cambricon-s=4,flexgen-ssd=2' "
             "(overrides --num-devices/--backend)",
    )
    fleet.add_argument(
        "--size-for-qps", type=float, default=None, metavar="QPS",
        help="search the smallest replica count sustaining this rate under the SLO",
    )
    fleet.add_argument(
        "--max-replicas", type=int, default=64,
        help="replica-search ceiling for --size-for-qps (default 64)",
    )
    fleet.set_defaults(handler=_fleet_command)
    return parser


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    """Payload, workload, scheduler, SLO and output flags shared by
    ``serve`` and ``fleet``."""
    _add_model_argument(parser)
    parser.add_argument(
        "--backend", default="cambricon",
        help=f"registered backend (default cambricon; {', '.join(list_backends())})",
    )
    parser.add_argument("--config", default="L", help="hardware config key (default L)")
    parser.add_argument("--seq-len", type=int, default=1000, help="prompt length")
    parser.add_argument(
        "--gen-tokens", type=int, default=16, help="tokens generated per request"
    )
    parser.add_argument(
        "--workload", choices=("poisson", "constant", "onoff", "trace"),
        default="poisson", help="arrival process (default poisson)",
    )
    parser.add_argument(
        "--qps", type=float, default=1.0,
        help="mean arrival rate (burst rate for onoff; default 1.0)",
    )
    parser.add_argument(
        "--num-requests", type=int, default=None,
        help="arrivals to simulate (default 100; trace: the whole trace)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    parser.add_argument(
        "--on-seconds", type=float, default=1.0, help="onoff: burst window length"
    )
    parser.add_argument(
        "--off-seconds", type=float, default=1.0, help="onoff: silence window length"
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="trace CSV to replay (with --workload trace)",
    )
    parser.add_argument(
        "--bundled-trace", default=None, metavar="NAME",
        help="bundled trace fixture to replay with --workload trace "
             f"({', '.join(list_bundled_traces()) or 'none shipped'})",
    )
    parser.add_argument(
        "--scheduler", choices=sorted(_SCHEDULERS), default="fcfs",
        help="request scheduler (default fcfs)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=8,
        help="batch slots for static/continuous scheduling (default 8)",
    )
    parser.add_argument(
        "--dram-gb", type=float, default=None, metavar="GIB",
        help="model KV memory: per-chip DRAM budget in GiB (continuous "
             "scheduler only; admission blocks and cold KV spills to flash "
             "when it runs out)",
    )
    parser.add_argument(
        "--flash-gb", "--flash", type=float, default=None, metavar="GIB",
        dest="flash_gb",
        help="model KV memory: cap the per-chip flash spill area at this "
             "many GiB (default: whatever the --config flash array holds)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject seeded faults (repro.faults): comma-separated "
             "key=value pairs among seed, crash-mtbf, mttr, slow-mtbf, "
             "slow-duration, slow-factor, flaky, crash-window=DEV:START:DUR, "
             "slow-window=DEV:START:DUR[:FACTOR]; e.g. "
             "'crash-mtbf=300,mttr=20,flaky=0.01'",
    )
    parser.add_argument(
        "--retry", default=None, metavar="SPEC",
        help="client retry policy: key=value pairs among attempts, backoff, "
             "multiplier, jitter, seed, hedge-after; e.g. "
             "'attempts=3,backoff=0.5,multiplier=2'",
    )
    parser.add_argument(
        "--deadline-s", type=float, default=None, metavar="SEC",
        help="per-request deadline on the simulated clock: queued work past "
             "it is shed, finished work past it counts as timed out",
    )
    parser.add_argument("--slo-ttft", type=float, default=None, help="TTFT SLO (s)")
    parser.add_argument(
        "--slo-tpot", type=float, default=None, help="time-per-output-token SLO (s)"
    )
    parser.add_argument("--slo-e2e", type=float, default=None, help="end-to-end SLO (s)")
    parser.add_argument(
        "--slo-attainment", type=float, default=0.95,
        help="fraction of requests that must meet the SLO (default 0.95)",
    )
    parser.add_argument(
        "--show-probes", action="store_true",
        help="print the probe trail of a capacity/sizing search",
    )
    parser.add_argument(
        "--show-cache-stats", action="store_true",
        help="print cost-model latency and backend-profile cache counters",
    )
    parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the per-request trace as CSV",
    )
    parser.add_argument(
        "--stream-trace", default=None, metavar="PATH",
        help="stream the per-request trace to PATH as requests finish "
             "(byte-identical to --csv but with O(in-flight) memory; "
             "incompatible with --csv and with the capacity/sizing searches)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record the simulation with a repro.obs SpanRecorder and write "
             "a Perfetto/Chrome trace-event JSON here (keyed on simulated "
             "time; never changes the simulation's results)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final report as a Prometheus text-format metrics "
             "snapshot (repro.obs.MetricsSnapshot exposition)",
    )
    parser.add_argument(
        "--timeline-out", default=None, metavar="PATH",
        help="fold the run into fixed-width metric windows on the simulated "
             "clock (repro.obs.TimelineCollector) and write them here as CSV "
             "(never changes the simulation's results)",
    )
    parser.add_argument(
        "--timeline-window", type=float, default=60.0, metavar="SEC",
        help="window width in simulated seconds for --timeline-out/--alerts "
             "(default 60)",
    )
    parser.add_argument(
        "--alerts", action="store_true",
        help="evaluate the default SLO burn-rate alert pack (fast + slow "
             "multiwindow rules) as timeline windows close and print the "
             "fire/resolve log; needs an SLO",
    )
    parser.add_argument(
        "--attribution", action="store_true",
        help="record the run's spans and print a critical-path attribution "
             "table (queue/prefill/decode shares, flash I/O, per-device "
             "makespan chains)",
    )
    parser.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="speculative probe threads for --find-max-qps/--size-for-qps "
             "(capped at the CPU count; the probe trail and the result are "
             "identical to the serial search)",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="print a markdown table instead"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
