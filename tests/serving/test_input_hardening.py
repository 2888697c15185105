"""Non-finite thresholds, deadlines and fault knobs fail loudly.

A NaN SLO threshold compares False against every latency, so it would
silently report full attainment; a NaN or infinite deadline would never
shed or time out a request.  NaN fault rates, durations and window
bounds, or NaN/infinite retry backoffs and hedge delays, slip past
``<= 0`` checks the same way.  All are rejected with a ``ValueError``.
"""

import math

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import build_fleet, simulate_fleet
from repro.serving import PoissonWorkload, SLOSpec, simulate

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=8)
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["ttft_s", "tpot_s", "e2e_s"])
def test_slospec_rejects_non_finite_thresholds(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SLOSpec(**{name: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("shape", ["simulate", "simulate_fleet"])
def test_non_finite_deadlines_are_rejected(shape, value):
    arrivals = PoissonWorkload(2.0, PAYLOAD, seed=1).generate(5)
    with pytest.raises(ValueError, match="deadline_s must be finite"):
        if shape == "simulate":
            simulate(arrivals, ToyBackend(), deadline_s=value)
        else:
            simulate_fleet(arrivals, build_fleet([ToyBackend()] * 2), deadline_s=value)


def test_finite_thresholds_and_deadlines_still_run():
    arrivals = PoissonWorkload(2.0, PAYLOAD, seed=1).generate(5)
    report = simulate(arrivals, ToyBackend(), slo=SLOSpec(ttft_s=1e9), deadline_s=1e9)
    assert report.slo_attainment() == 1.0


@pytest.mark.parametrize(
    "name, value",
    [
        (name, math.nan)
        for name in (
            "crash_mtbf_s", "crash_mttr_s", "slow_mtbf_s", "slow_duration_s", "slow_factor"
        )
    ]
    + [("slow_factor", math.inf)],
)
def test_faultspec_rejects_non_finite_rates_and_durations(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FaultSpec(**{name: value})


@pytest.mark.parametrize(
    "kind, window",
    [
        ("crash", (0, math.nan, 5.0)),
        ("crash", (0, 1.0, math.nan)),
        ("slow", (0, math.nan, 5.0)),
        ("slow", (0, 1.0, math.nan)),
        ("slow", (0, 1.0, 5.0, math.nan)),
    ],
)
def test_faultspec_rejects_nan_windows(kind, window):
    with pytest.raises(ValueError, match=f"bad {kind} window"):
        FaultSpec(**{f"{kind}_windows": (window,)})


@pytest.mark.parametrize(
    "name, value",
    [
        ("backoff_s", math.nan),
        ("backoff_s", math.inf),
        ("multiplier", math.nan),
        ("hedge_after_s", math.nan),
        ("hedge_after_s", math.inf),
    ],
)
def test_retry_policy_rejects_non_finite_knobs(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RetryPolicy(**{name: value})
