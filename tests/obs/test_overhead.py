"""Null sink: disabled telemetry records no events but keeps metrics live.

Its cost is gated in ``tests/sim/test_work_counters.py``, as a ratio of
Python calls over the plain run's.
"""

from __future__ import annotations

from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
from repro.obs import Telemetry

from tests.conftest import tiny_battery_factory


def test_null_sink_produces_no_events_but_live_metrics():
    obs = Telemetry(events=False)
    run_experiment(
        PAPER_EXPERIMENTS["2A"],
        battery_factory=tiny_battery_factory,
        max_frames=5,
        telemetry=obs,
    )
    assert len(obs.events) == 0
    assert obs.metrics.counter("frames.completed").value == 5
