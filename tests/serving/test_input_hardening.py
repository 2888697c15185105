"""Non-finite thresholds and deadlines fail loudly instead of skewing a run.

A NaN SLO threshold compares False against every latency, so it would
silently report full attainment; a NaN or infinite deadline would never
shed or time out a request.  Both are rejected with a ``ValueError``.
"""

import math

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
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
