"""Fig. 9 fidelity: the decode-speed model against the paper's numbers.

Every Fig. 9 cell that has a paper number is evaluated with the same
calls the figure suite (``benchmarks/test_fig09_end_to_end.py``) makes,
and compared as ``model / paper``.  The paper numbers below are copied
from that suite.  Nothing here reads a clock: the results are pure
functions of the model, so the error metrics repeat exactly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Fig. 9(a), decode tokens/s on the OPT family.
PAPER_FIG9A = {
    "opt-6.7b": {"S": 3.6, "M": 11.0, "L": 36.3, "flexgen-ssd": 0.8, "flexgen-dram": 3.5},
    "opt-13b": {"S": 1.9, "M": 4.7, "L": 14.2, "flexgen-ssd": 0.4, "flexgen-dram": 2.0},
    "opt-30b": {"S": 0.8, "M": 2.5, "L": 7.6, "flexgen-ssd": 0.2, "flexgen-dram": 0.8},
    "opt-66b": {"S": 0.4, "M": 1.2, "L": 2.6, "flexgen-ssd": 0.1, "flexgen-dram": 0.4},
}

#: Fig. 9(b), decode tokens/s on the Llama2 family; ``None`` = OOM on the phone.
PAPER_FIG9B = {
    "llama2-7b": {"S": 3.5, "M": 10.4, "L": 34.0, "mlc-llm": 7.5},
    "llama2-13b": {"S": 1.9, "M": 4.7, "L": 14.0, "mlc-llm": None},
    "llama2-70b": {"S": 0.3, "M": 1.0, "L": 3.4, "mlc-llm": None},
}

PAPER_FIG9 = {**PAPER_FIG9A, **PAPER_FIG9B}
CONFIGS = ("S", "M", "L")

#: Decode-step phases of ``DecodeReport.layer_timing`` (plus the LM head).
PHASES = ("weight_delivery", "kv_exposed", "sfu", "sync", "lm_head")


def phase_split(report) -> Dict[str, float]:
    """Shares of one decode step per phase, plus the flash share ``alpha``."""
    timing = report.layer_timing
    layers = report.num_layers
    seconds = {
        "weight_delivery": layers * timing.weight_seconds,
        "kv_exposed": layers * timing.kv_seconds,
        "sfu": layers * timing.sfu_seconds,
        "sync": layers * timing.sync_seconds,
        "lm_head": report.lm_head_seconds,
    }
    total = report.token_seconds
    split = {phase: seconds[phase] / total for phase in PHASES}
    split["alpha"] = report.alpha
    return split


def fig9_cells() -> Tuple[List[dict], List[dict]]:
    """``(cells, oom_cells)``: every Fig. 9 cell with a paper number.

    A cell is ``{"system", "model", "model_tok_s", "paper_tok_s",
    "ratio", "split"}``; ``split`` is the Cambricon phase split (None
    for the baselines).  ``oom_cells`` lists the MLC-LLM cells with both
    OOM verdicts, ``{"system", "model", "model_oom", "paper_oom"}``.
    """
    from repro.baselines import FlexGenDRAM, FlexGenSSD, MLCLLM
    from repro.core import (
        InferenceEngine,
        cambricon_llm_l,
        cambricon_llm_m,
        cambricon_llm_s,
    )

    engines = {
        "S": InferenceEngine(cambricon_llm_s()),
        "M": InferenceEngine(cambricon_llm_m()),
        "L": InferenceEngine(cambricon_llm_l()),
    }
    baselines = {"flexgen-ssd": FlexGenSSD(), "flexgen-dram": FlexGenDRAM()}
    mlc = MLCLLM()
    cells: List[dict] = []
    oom_cells: List[dict] = []

    def add(system, model, value, paper, split=None):
        cells.append(
            {
                "system": system,
                "model": model,
                "model_tok_s": value,
                "paper_tok_s": paper,
                "ratio": value / paper,
                "split": split,
            }
        )

    for model, paper in PAPER_FIG9.items():
        for config in CONFIGS:
            report = engines[config].decode_report(model)
            add(f"Cam-{config}", model, report.tokens_per_second, paper[config], phase_split(report))
        for name, baseline in baselines.items():
            if name in paper:
                add(name, model, baseline.decode_speed(model), paper[name])
        if "mlc-llm" in paper:
            result = mlc.decode_result(model)
            paper_oom = paper["mlc-llm"] is None
            oom_cells.append(
                {
                    "system": "mlc-llm",
                    "model": model,
                    "model_oom": result.out_of_memory,
                    "paper_oom": paper_oom,
                }
            )
            if not paper_oom and not result.out_of_memory:
                add("mlc-llm", model, result.tokens_per_second, paper["mlc-llm"])
    return cells, oom_cells


def error_metrics(cells: List[dict]) -> Dict[str, float]:
    """``fig9_mape_pct`` and ``fig9_max_err_pct`` over the cells."""
    errors = [abs(cell["ratio"] - 1.0) * 100.0 for cell in cells]
    return {
        "fig9_mape_pct": sum(errors) / len(errors),
        "fig9_max_err_pct": max(errors),
    }


def config_splits(cells: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per Table-II config: each phase share and ``alpha``, averaged over
    the Fig. 9 models (every model weighs the same)."""
    out: Dict[str, Dict[str, float]] = {}
    for config in CONFIGS:
        splits = [cell["split"] for cell in cells if cell["system"] == f"Cam-{config}"]
        out[config] = {
            key: sum(split[key] for split in splits) / len(splits)
            for key in PHASES + ("alpha",)
        }
    return out


def oom_mismatches(oom_cells: List[dict]) -> List[str]:
    """Cells where the model's OOM verdict disagrees with the paper's."""
    return [
        f"{cell['system']} {cell['model']}"
        for cell in oom_cells
        if cell["model_oom"] != cell["paper_oom"]
    ]
