"""Deterministic work counters: the CI gates on simulation and telemetry cost.

Wall clock is too noisy to gate in CI; the work a run costs is not.
``cProfile`` counts Python calls (builtins included), and the same
script gives the same counts in every fresh process. The counts shift a
little between interpreter versions, so calls are held under ceilings
or ratios rather than pinned; kernel events are pinned at equality,
because an event more or less changes what the simulation does, not
just how fast.

- Exact-mode frames, 200 frames of experiments 2 (two-stage pipeline)
  and 2B (the same with the recovery protocol's acked transactions).
  Before the exact path was slimmed the counts were about 655 (2) and
  1,047 (2B) calls per frame; after, 283 and 461.
- Telemetry, 40 exact frames of 2A on the tiny battery, as ratios over
  the plain run's calls (about 300 per frame): 1.030 with the null sink
  (``Telemetry(events=False)``) and 1.45 with full telemetry. The null
  sink's bound is its 5% target. Its emit sites cost a ``None`` test;
  the calls it adds are its live metrics (one latency histogram
  observation per frame).
- Per item: ``SweepExecutor(jobs=1).map`` over trivial items without a
  flight recorder (3.09 calls per item) and with one (54.3), and
  ``EnergyLedger.add`` (3.0 calls per add).

Ceilings leave about 20% headroom above the measured counts.
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
from repro.exec.executor import SweepExecutor
from repro.obs import EnergyLedger, FlightRecorder, Telemetry

from tests.conftest import tiny_battery_factory

FRAMES = 200

#: label -> (kernel events over FRAMES frames, Python calls per frame ceiling)
COUNTERS = {
    "2": (3212, 340),
    "2B": (5800, 560),
}

ITEMS = 200


def _counted(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the Python calls it made."""
    profile = cProfile.Profile()
    result = profile.runcall(fn, *args, **kwargs)
    calls = sum(nc for _, nc, _, _, _ in pstats.Stats(profile).stats.values())
    return result, calls


@pytest.mark.parametrize("label", sorted(COUNTERS))
def test_per_frame_work(label: str) -> None:
    events, calls_ceiling = COUNTERS[label]
    spec = PAPER_EXPERIMENTS[label]
    # Warm up first, so imports and one-time caches stay out of the count.
    run_experiment(spec, mode="exact", max_frames=2)
    run, calls = _counted(run_experiment, spec, mode="exact", max_frames=FRAMES)
    assert run.frames == FRAMES
    assert run.sim_events == events
    assert calls / FRAMES < calls_ceiling


def test_telemetry_overhead_ratios() -> None:
    def calls(telemetry) -> int:
        return _counted(
            run_experiment,
            PAPER_EXPERIMENTS["2A"],
            mode="exact",
            battery_factory=tiny_battery_factory,
            max_frames=40,
            telemetry=telemetry,
        )[1]

    calls(False)  # warm up both paths, as above
    calls(True)
    plain = calls(False)
    assert calls(Telemetry(events=False)) / plain <= 1.05
    assert calls(True) / plain <= 1.75


def _probe(x: int) -> int:
    return x


def _map_plain(items: list[int]) -> None:
    SweepExecutor(jobs=1).map(_probe, items)


def _map_recorded(items: list[int]) -> None:
    flight = FlightRecorder(label="counters")
    SweepExecutor(jobs=1, flight=flight).map(_probe, items)
    flight.finish()


def _ledger_adds(items: list[int]) -> None:
    ledger = EnergyLedger()
    for _ in items:
        ledger.add("node1", "computation", "fft", 60.93, 0.01)


#: name -> (work over a list of items, Python calls per item ceiling)
PER_ITEM = {
    "executor": (_map_plain, 3.7),
    "executor+flight": (_map_recorded, 65.0),
    "ledger.add": (_ledger_adds, 3.6),
}


@pytest.mark.parametrize("name", sorted(PER_ITEM))
def test_per_item_work(name: str) -> None:
    work, calls_ceiling = PER_ITEM[name]
    items = list(range(ITEMS))
    work(items)  # warm up
    _, calls = _counted(work, items)
    assert calls / ITEMS < calls_ceiling
