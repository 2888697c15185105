"""One workload run in a fresh interpreter (started by ``run.py``).

Modes:

* ``setup`` -- set up the workload (import, input generation, cold
  backend profiling) and report when the first simulated event would
  start; ``run.py`` starts several of these to take a median ``setup_s``.
* ``measure`` -- set up, then repeat the timed job for ``--seconds``
  with tracing off, check every repetition, run the ``max_steps=1``
  reference once, and report.
* ``trace`` -- set up with the layer wrappers on, time untraced
  repetitions, then traced ones, and report the per-layer metrics of
  the median traced repetition.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from calibration import Stopwatch, kernel_seconds  # noqa: E402

#: Repetitions every measuring phase makes, however long each takes.
MIN_REPS = 3
#: Share of a traced run's seconds spent on untraced repetitions.
UNTRACED_SHARE = 0.4


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repeat(workload, seconds: float, min_reps: int) -> tuple:
    """Timed repetitions until ``seconds`` pass: ``(reps, failures)``.

    Each repetition's parts are timed by a calibrating
    :class:`~calibration.Stopwatch`, and its output is checked off the
    clock; a repetition that raises is recorded as failed and ends the
    phase."""
    reps, failures = [], []
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        gc.collect()
        watch = Stopwatch()
        try:
            output = workload.timed(watch)
            result = workload.verify(output)
        except Exception:  # noqa: BLE001 - a raising repetition is a failed operation
            failures.append(traceback.format_exc())
            reps.append(None)
            break
        failures.extend(result.failures)
        reps.append((watch, result))
    return reps, failures


def _rep_rows(reps):
    return [
        {
            "host_s": rep[0].host_s,
            "reference_s": rep[0].reference_s,
            "terminal": rep[1].terminal,
            "evaluations": rep[1].evaluations,
            "failed": bool(rep[1].failures),
        }
        for rep in reps
        if rep is not None
    ]


def _setup_result() -> dict:
    """Called the moment set-up ends: when, and the kernel's time just
    after (``run.py`` ran it just before the spawn)."""
    return {"t_first": time.monotonic(), "kernel_s": kernel_seconds()}


def _fidelity():
    from fidelity import config_splits, error_metrics, fig9_cells, oom_mismatches

    cells, oom = fig9_cells()
    return {
        "cells": cells,
        "oom": oom,
        "errors": error_metrics(cells),
        "splits": config_splits(cells),
        "oom_mismatches": oom_mismatches(oom),
    }


def _finish(out: dict, reps, failures, workload) -> dict:
    """Reference check, fidelity and counts shared by measure and trace."""
    failures = list(failures)
    ok_reps = [rep for rep in reps if rep is not None]
    reference_failed = 0
    if ok_reps:
        try:
            reference = workload.reference()
        except Exception:  # noqa: BLE001 - reported as a failed check
            reference = [traceback.format_exc()]
        failures.extend(reference)
        reference_failed = int(bool(reference))
    fidelity = _fidelity()
    failures.extend(f"OOM verdict differs from the paper: {cell}" for cell in fidelity["oom_mismatches"])
    out.update(
        {
            "failures": failures,
            "attempted": len(reps) + 1,
            "failed": sum(1 for rep in reps if rep is None or rep[1].failures)
            + reference_failed
            + int(bool(fidelity["oom_mismatches"])),
            "stats": ok_reps[0][1].stats if ok_reps else {},
            "fidelity": fidelity,
        }
    )
    return out


def measure(workload, seconds: float) -> dict:
    workload.prepare()
    out = _setup_result()
    reps, failures = _repeat(workload, seconds, MIN_REPS)
    out["peak_rss_mb"] = _peak_rss_mb()
    out["timed_reps"] = _rep_rows(reps)
    if hasattr(workload, "profile_rate") and reps[-1] is not None:
        out["profile_rate"] = workload.profile_rate(Stopwatch())
    return _finish(out, reps, failures, workload)


def trace(workload_cls, seed: int, seconds: float, out_dir: str) -> dict:
    from layers import StepCounter, accounting_gap, install, per_layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    steps = StepCounter()
    install(tracer, steps)
    tracer.keep_spans = True
    with tracer.root("setup") as root:
        workload = workload_cls(seed)
        workload.prepare()
    setup_spans = tracer.take()
    setup_wall = root.seconds
    runner = getattr(workload, "runner", None)
    setup_runner = runner.cache_info() if runner is not None else {"hits": 0, "misses": 0}
    tracer.keep_spans = False
    tracer.uninstall()

    untraced, failures = _repeat(workload, UNTRACED_SHARE * seconds, 2)
    out = {"setup_wall_s": setup_wall}
    if untraced[-1] is None:
        return _finish(out, untraced, failures, workload)

    install(tracer, steps)
    traced = []
    deadline = time.perf_counter() + (1.0 - UNTRACED_SHARE) * seconds
    while not traced or time.perf_counter() < deadline:
        gc.collect()
        steps.reset()
        tracer.keep_spans = not traced
        try:
            with tracer.root("job") as root:
                output = workload.timed(Stopwatch(calibrate=False))
            spans = tracer.take()
            tracer.keep_spans = False
            result = workload.verify(output)
            tracer.take()
        except Exception:  # noqa: BLE001 - a raising repetition is a failed operation
            failures.append(traceback.format_exc())
            traced.append(None)
            break
        failures.extend(result.failures)
        traced.append((root.seconds, result, spans, steps.decode_steps, steps.decode_occupancies))
    tracer.uninstall()
    reps = untraced + [None if rep is None else (None, rep[1]) for rep in traced]
    out = _finish(out, reps, failures, workload)
    good = sorted((rep for rep in traced if rep is not None), key=lambda rep: rep[0])
    if not good:
        return out
    wall, result, job_spans, decode_steps, decode_occupancies = good[(len(good) - 1) // 2]
    steps.decode_steps, steps.decode_occupancies = decode_steps, decode_occupancies
    counts = dict(result.counts)
    counts["api.runner.misses"] = counts.get("api.runner.misses", 0) + setup_runner["misses"]
    counts["api.runner.hits"] = counts.get("api.runner.hits", 0) + setup_runner["hits"]
    untraced_walls = sorted(rep[0].host_s for rep in untraced)
    overhead = wall / untraced_walls[(len(untraced_walls) - 1) // 2]
    metrics = per_layer_metrics(
        setup_spans, job_spans, counts, steps, out["fidelity"]["splits"], overhead
    )
    gap = accounting_gap(setup_spans, job_spans)
    if gap > 1e-6 * metrics["trace.wall_s"] + 1e-9:
        out["failures"].append(f"span self times miss the traced wall time by {gap:g} s")
        out["failed"] += 1
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload.name}-seed{seed}.spans")
    tracer.write(path, {"workload": workload.name, "seed": seed, "phases": ["setup", "first traced job"]})
    out.update(
        {
            "per_layer": metrics,
            "spans_path": os.path.relpath(path, ROOT),
            "spans_kept": tracer.span_count,
            "traced_reps": len(good),
            "untraced_reps": len(untraced),
        }
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out-dir", default=os.path.join(ROOT, ".perfbench"))
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.mode == "setup":
        workload_cls(args.seed).prepare()
        out = _setup_result()
    elif args.mode == "measure":
        out = measure(workload_cls(args.seed), args.seconds)
    else:
        out = trace(workload_cls, args.seed, args.seconds, args.out_dir)
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
