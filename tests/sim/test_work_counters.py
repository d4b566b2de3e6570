"""Deterministic per-frame work counters of exact-mode simulation.

Wall clock is too noisy to gate in CI; the work a frame costs is not.
Two counters, on 200 frames of experiments 2 (two-stage pipeline) and
2B (the same with the recovery protocol's acked transactions):

- kernel events dispatched, pinned at equality: an event more or less
  changes what the simulation does, not just how fast;
- Python calls, counted by ``cProfile`` (builtins included), held under
  a ceiling: the count shifts a little between interpreter versions, so
  it gates regressions rather than pinning a value. Before the exact
  path was slimmed the counts were about 655 (2) and 1,047 (2B) calls
  per frame; after, 283 and 461. The ceilings leave about 20% headroom
  above the latter.
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment

FRAMES = 200

#: label -> (kernel events over FRAMES frames, Python calls per frame ceiling)
COUNTERS = {
    "2": (3212, 340),
    "2B": (5800, 560),
}


def _profiled_run(label: str):
    spec = PAPER_EXPERIMENTS[label]
    # Warm up first, so imports and one-time caches stay out of the count.
    run_experiment(spec, mode="exact", max_frames=2)
    profile = cProfile.Profile()
    profile.enable()
    run = run_experiment(spec, mode="exact", max_frames=FRAMES)
    profile.disable()
    calls = sum(nc for _, nc, _, _, _ in pstats.Stats(profile).stats.values())
    return run, calls


@pytest.mark.parametrize("label", sorted(COUNTERS))
def test_per_frame_work(label: str) -> None:
    events, calls_ceiling = COUNTERS[label]
    run, calls = _profiled_run(label)
    assert run.frames == FRAMES
    assert run.sim_events == events
    assert calls / FRAMES < calls_ceiling
