"""The repository benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload serve_decode --seed 1 --seconds 10 --trace 0

Workloads: ``paper_grid``, ``serve_decode``, ``serve_kv_spill`` and
``fleet_chaos`` (see ``perfbench/README.md``).  ``--trace 0`` prints the
end-to-end metrics, measured with tracing off; ``--trace 1`` runs the
separate traced run and prints the per-layer metrics.  Each phase runs
in a fresh interpreter (``perfbench/child.py``), one at a time.

Human-readable tables go first; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  The
full record (host fingerprint, per-repetition medians and quartiles,
modelled statistics, Fig. 9 table) is also appended to
``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibration import kernel_seconds, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("paper_grid", "serve_decode", "serve_kv_spill", "fleet_chaos")
#: Fresh interpreters whose set-up time makes up the ``setup_s`` median.
SETUP_SAMPLES = 3
#: Wall-clock budget of one invocation, in seconds.
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "sim_req_per_s": "1/s",
    "grid_points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fig9_mape_pct": "%",
    "fig9_max_err_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _median(values):
    return statistics.median(values)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def host_fingerprint() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "cpu_model": model,
        "platform": platform.platform(),
    }


def _child(mode: str, args, deadline: float) -> dict:
    """Run one child interpreter; returns its JSON plus ``spawn_t`` and
    the calibration kernel's time just before the spawn."""
    command = [
        sys.executable,
        CHILD,
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--out-dir",
        OUT_DIR,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the run finished")
    kernel_before_s = kernel_seconds()
    spawn_t = time.monotonic()
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {args.workload} exceeded the time budget")
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise BenchError(f"{mode} run of {args.workload} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["spawn_t"] = spawn_t
    result["kernel_before_s"] = kernel_before_s
    return result


def _precompile(deadline: float) -> None:
    """Byte-compile once, so set-up samples time imports, not compilation."""
    try:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()),
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("byte-compiling the sources exceeded the time budget")


def _print_table(title: str, headers, rows) -> None:
    print(f"\n{title}")
    widths = [max(len(str(cell)) for cell in column) for column in zip(headers, *rows)]
    for row in [headers] + rows:
        print("  " + "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def end_to_end(args, deadline: float) -> dict:
    setups = [_child("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = _child("measure", args, deadline)
    setups.append(main)
    timed = main["timed_reps"]
    if not timed:
        main["metrics"] = {}
        return main
    # Host times are in reference seconds (see calibration.py).
    sim_req = [rep["terminal"] / rep["reference_s"] for rep in timed]
    if args.workload == "paper_grid":
        grid_points = [rep["evaluations"] / rep["reference_s"] for rep in timed]
    else:
        # Serving workloads evaluate the backend only while profiling
        # cold shapes; the measuring child re-profiles them off the clock.
        grid_points = [main["profile_rate"]]
    samples = {
        "setup_s": [
            reference_seconds(run["t_first"] - run["spawn_t"], (run["kernel_before_s"], run["kernel_s"]))
            for run in setups
        ],
        "sim_req_per_s": sim_req,
        "grid_points_per_s": grid_points,
        "peak_rss_mb": [main["peak_rss_mb"]],
        "fig9_mape_pct": [main["fidelity"]["errors"]["fig9_mape_pct"]],
        "fig9_max_err_pct": [main["fidelity"]["errors"]["fig9_max_err_pct"]],
    }
    main["samples"] = samples
    main["attempted"] += len(setups) - 1
    metrics = {}
    rows = []
    for name, unit in END_TO_END.items():
        values = samples[name]
        q1, q3 = _quartiles(values)
        metrics[name] = {"value": _median(values), "unit": unit}
        rows.append([name, unit, _fmt(_median(values)), _fmt(q1), _fmt(q3), len(values)])
    _print_table(
        f"End-to-end metrics: {args.workload}, seed {args.seed} (reference seconds)",
        ["metric", "unit", "median", "q1", "q3", "samples"],
        rows,
    )
    speeds = [rep["reference_s"] / rep["host_s"] for rep in timed]
    print(
        f"\nHost speed vs the reference host over the repetitions: median "
        f"{_median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}; "
        f"uncalibrated sim_req_per_s median "
        f"{_fmt(_median([rep['terminal'] / rep['host_s'] for rep in timed]))}"
    )
    _print_stats(main)
    _print_fidelity(main, full=args.workload == "paper_grid")
    main["metrics"] = metrics
    return main


def per_layer(args, deadline: float) -> dict:
    main = _child("trace", args, deadline)
    per_layer_values = main.get("per_layer", {})
    from layers import PER_LAYER

    metrics = {}
    rows = []
    for name, unit in PER_LAYER:
        if name in per_layer_values:
            value = per_layer_values[name]
            metrics[name] = {"value": value, "unit": unit}
            rows.append([name, unit, _fmt(value)])
    _print_table(
        f"Per-layer metrics (traced run): {args.workload}, seed {args.seed}",
        ["metric", "unit", "value"],
        rows,
    )
    if "spans_path" in main:
        print(
            f"\nTraced {main['traced_reps']} repetitions after {main['untraced_reps']} "
            f"untraced ones; {main['spans_kept']} spans of the set-up and the first "
            f"traced repetition written to {main['spans_path']}"
        )
    main["metrics"] = metrics
    return main


def _print_stats(main: dict) -> None:
    stats = main.get("stats", {})
    if stats:
        _print_table(
            "Modelled statistics (outputs of the model, not gated)",
            ["statistic", "value"],
            [[name, _fmt(value)] for name, value in stats.items()],
        )


def _print_fidelity(main: dict, full: bool) -> None:
    fidelity = main["fidelity"]
    if full:
        rows = [
            [cell["system"], cell["model"], _fmt(cell["model_tok_s"]),
             _fmt(cell["paper_tok_s"]), f"{cell['ratio']:.3f}"]
            for cell in fidelity["cells"]
        ]
        rows += [
            [cell["system"], cell["model"], "OOM" if cell["model_oom"] else "fits", "OOM", "-"]
            for cell in fidelity["oom"]
            if cell["paper_oom"]
        ]
        _print_table(
            "Fig. 9 fidelity: decode tokens/s, model vs paper",
            ["system", "model", "model", "paper", "ratio"],
            rows,
        )
        _print_table(
            "Modelled decode-step phase split per config (mean over the Fig. 9 models)",
            ["config", "weight delivery", "KV exposed", "SFU", "sync", "lm_head", "alpha"],
            [
                [config] + [f"{split[key]:.4f}" for key in
                            ("weight_delivery", "kv_exposed", "sfu", "sync", "lm_head", "alpha")]
                for config, split in fidelity["splits"].items()
            ],
        )
    errors = fidelity["errors"]
    print(
        f"\nFig. 9 fidelity over {len(fidelity['cells'])} cells: "
        f"MAPE {errors['fig9_mape_pct']:.3f}%, worst {errors['fig9_max_err_pct']:.3f}%"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        _precompile(deadline)
        main_run = per_layer(args, deadline) if args.trace else end_to_end(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = main_run["failures"]
    if failures:
        _print_table("Failed checks", ["check"], [[line.strip().splitlines()[-1]] for line in failures])
        for line in failures:
            print(line, file=sys.stderr)
    result = {
        "correct": not failures and main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": main_run["metrics"],
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "result": result,
        "samples": main_run.get("samples"),
        "stats": main_run.get("stats"),
        "failures": failures,
        "fig9": main_run["fidelity"]["cells"],
    }
    host = record["host"]
    print(
        f"\nHost: Python {host['python']}, nproc {host['nproc']}, {host['cpu_model']}"
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
