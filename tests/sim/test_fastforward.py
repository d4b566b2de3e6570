"""Steady-state epoch fast-forward: exact-vs-fast equivalence.

Tier-1 tests run the paper experiments on the tiny 25 mAh battery so
both modes finish in well under a second each; the contract checked is
the one the engine promises — identical frame counts, lifetimes within
0.1%, counters advanced arithmetically to the same totals — plus the
gating rules (stochastic timing never jumps, tracing refuses fast
mode) and the cache/registry aliasing guarantees. A table over policy
x cut x rotation period holds fast mode to exact frames and lifetimes
within 1e-9 on a small cell, and the jump counters are pinned for
each pipelined paper spec on the tiny battery and for full-scale 2C.
The full-scale eight-experiment identity run is tier2 (``-m tier2``).
"""

from __future__ import annotations

import dataclasses
import importlib
import pathlib
import sys

import pytest

from repro.core.experiments import (
    PAPER_EXPERIMENTS,
    experiment_fingerprint,
    run_experiment,
    run_paper_suite,
)
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.explore import POLICY_FAMILIES, ExploreConfig
from repro.hw.link import TransactionTiming

from tests.conftest import tiny_battery_factory

TINY = dict(battery_factory=tiny_battery_factory)

#: label -> (ff_jumps, ff_frames_skipped) of a fast run on the tiny battery
FF_COUNTERS = {
    "1": (1, 90),
    "1A": (1, 106),
    "2": (1, 152),
    "2A": (1, 154),
    "2B": (2, 183),
    "2C": (2, 182),
}


def _pair(label: str, **kwargs):
    """One spec run in both modes on the tiny battery."""
    spec = PAPER_EXPERIMENTS[label]
    exact = run_experiment(spec, mode="exact", **TINY, **kwargs)
    fast = run_experiment(spec, mode="fast", **TINY, **kwargs)
    return exact, fast


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), 1e-12)


def _e2ebench_stalled():
    """The benchmark's stall verdict (``e2ebench/workloads.py``)."""
    root = str(pathlib.Path(__file__).resolve().parents[2] / "e2ebench")
    sys.path.insert(0, root)
    try:
        return importlib.import_module("workloads").stalled
    finally:
        sys.path.remove(root)


class TestNoIOEquivalence:
    """§6.1 runs: the degenerate one-segment cycle, jumped analytically."""

    @pytest.mark.parametrize("label", ["0A", "0B"])
    def test_frames_identical_and_lifetime_close(self, label):
        exact, fast = _pair(label)
        assert fast.frames == exact.frames
        assert _rel(fast.t_hours, exact.t_hours) < 1e-3

    def test_fast_dispatches_far_fewer_events(self):
        exact, fast = _pair("0A")
        assert fast.sim_events < exact.sim_events / 10

    def test_ff_epoch_event_records_the_jump(self):
        run = run_experiment(
            PAPER_EXPERIMENTS["0A"], mode="fast", telemetry=True, **TINY
        )
        epochs = run.obs.events.of_kind("ff.epoch")
        assert len(epochs) == 1
        (e,) = epochs
        assert e.data["frames"] == e.data["periods"] > 0
        assert e.data["t1"] - e.data["t0"] == pytest.approx(
            e.data["periods"] * e.data["period_s"]
        )


class TestPipelineEquivalence:
    """Pipelined runs: detection, jump, re-sync through every §5 variant."""

    @pytest.mark.parametrize("label", sorted(FF_COUNTERS))
    def test_frames_identical_and_lifetime_close(self, label):
        exact, fast = _pair(label)
        assert fast.frames == exact.frames
        pipeline = fast.pipeline
        assert (pipeline.ff_jumps, pipeline.ff_frames_skipped) == FF_COUNTERS[label]
        assert _rel(fast.t_hours, exact.t_hours) < 1e-3
        for name, t_exact in exact.death_times_s.items():
            assert _rel(fast.death_times_s[name], t_exact) < 1e-3

    def test_jumps_actually_happen(self):
        _, fast = _pair("2")
        assert fast.pipeline.ff_jumps >= 1
        assert fast.pipeline.ff_frames_skipped > 0
        assert fast.pipeline.ff_frames_skipped < fast.frames

    def test_exact_mode_never_jumps(self):
        exact, _ = _pair("2")
        assert exact.pipeline.ff_jumps == 0
        assert exact.pipeline.ff_frames_skipped == 0

    def test_counters_match_exact(self):
        """Arithmetic counter bumps land on the event-exact totals."""
        exact = run_experiment(
            PAPER_EXPERIMENTS["2"], mode="exact", telemetry=True, **TINY
        )
        fast = run_experiment(
            PAPER_EXPERIMENTS["2"], mode="fast", telemetry=True, **TINY
        )
        for key in ("frames.completed",):
            assert fast.obs.metrics.counter(key).value == pytest.approx(
                exact.obs.metrics.counter(key).value
            )

    def test_rotation_period_folds_into_detection(self):
        """Rotation widens the candidate period to one full role cycle.

        The tiny battery dies inside 2C's first 100-frame rotation
        epoch, so a shorter rotation period is substituted to get
        several complete role cycles — and therefore jumps — into the
        run while still comparing both modes on equal footing.
        """
        import dataclasses

        spec = dataclasses.replace(PAPER_EXPERIMENTS["2C"], rotation_period=5)
        exact = run_experiment(spec, mode="exact", **TINY)
        fast = run_experiment(spec, mode="fast", **TINY)
        assert fast.frames == exact.frames
        assert _rel(fast.t_hours, exact.t_hours) < 1e-3
        assert fast.pipeline.ff_jumps >= 1


class TestFrameIds:
    """A jump renumbers the frames in flight along with their timestamps."""

    @pytest.mark.parametrize(
        "label,rotation_period", [("2", None), ("2C", 5), ("2C", 40)]
    )
    def test_result_ids_plus_skipped_ranges_equal_exact_ids(
        self, label, rotation_period
    ):
        """Period 5 detects over the full rotation cycle, period 40 within
        each rotation epoch."""
        spec = PAPER_EXPERIMENTS[label]
        if rotation_period is not None:
            spec = dataclasses.replace(spec, rotation_period=rotation_period)
        exact, fast = (
            run_experiment(spec, mode=mode, telemetry=True, **TINY)
            for mode in ("exact", "fast")
        )

        def ids(run):
            return [e.data["frame"] for e in run.obs.events.of_kind("frame.result")]

        epochs = fast.obs.events.of_kind("ff.epoch")
        assert epochs
        skipped = [
            i
            for e in epochs
            for i in range(e.data["first_frame"], e.data["last_frame"] + 1)
        ]
        assert len(skipped) == fast.pipeline.ff_frames_skipped
        assert sorted(ids(fast) + skipped) == ids(exact)


#: Table rows: policy family x cut x rotation period. A 110 mAh cell
#: lasts past two 400-frame epochs, and at 160 kbps the baseline policy
#: hits the rotation deadlock, so the stall verdict is compared as well.
ROTATION_TABLE = [
    (policy, cut, period)
    for policy in POLICY_FAMILIES
    for cut in ((1,), (2,), (3,))
    for period in (25, 50, 100, 200, 400)
]


class TestRotationTable:
    """Fast vs exact across the rotation configs of the explore space."""

    @pytest.fixture(scope="class")
    def stalled(self):
        return _e2ebench_stalled()

    @pytest.mark.parametrize(
        "policy,cut,period",
        ROTATION_TABLE,
        ids=[f"{p}-cut{c[0]}-rot{r}" for p, c, r in ROTATION_TABLE],
    )
    def test_fast_matches_exact(self, stalled, policy, cut, period):
        config = ExploreConfig(
            index=0,
            policy=policy,
            cut=cut,
            rotation_period=period,
            bandwidth_bps=160_000.0,
            chemistry="kibam",
            capacity_mah=110.0,
            io_activity=0.3,
            deadline_s=2.3,
        )
        kw = dict(
            battery_factory=config.battery_factory(),
            power_model=config.power_model(),
            timing=config.timing(),
        )
        exact = run_experiment(config.experiment_spec(), mode="exact", **kw)
        fast = run_experiment(config.experiment_spec(), mode="fast", **kw)
        assert fast.frames == exact.frames
        assert _rel(fast.t_hours, exact.t_hours) <= 1e-9
        assert stalled(fast) == stalled(exact)
        if exact.frames >= 2 * period:
            assert fast.pipeline.ff_jumps >= 1

    def test_full_scale_2c_counters_pinned(self):
        """Deterministic work counters of the paper's rotation run.

        Any change to these must be explained in CHANGES.md.
        """
        fast = run_experiment(PAPER_EXPERIMENTS["2C"], mode="fast")
        assert fast.frames == 30653
        assert fast.pipeline.ff_jumps == 315
        assert fast.pipeline.ff_frames_skipped == 27854


class TestGating:
    def test_stochastic_timing_never_jumps(self):
        """Jittered startups must gate fast-forward off entirely."""
        timing = TransactionTiming(startup_jitter_s=0.01)
        spec = PAPER_EXPERIMENTS["2"]
        fast = run_experiment(
            spec, mode="fast", timing=timing, max_frames=40, **TINY
        )
        exact = run_experiment(
            spec, mode="exact", timing=timing, max_frames=40, **TINY
        )
        assert fast.pipeline.ff_jumps == 0
        assert fast.frames == exact.frames
        assert fast.t_hours == exact.t_hours

    def test_trace_requires_exact_mode(self):
        with pytest.raises(ConfigurationError, match="trace"):
            run_experiment(PAPER_EXPERIMENTS["2"], mode="fast", trace=True, **TINY)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            run_experiment(PAPER_EXPERIMENTS["2"], mode="warp", **TINY)


class TestModeKeys:
    """Fast and exact results must never alias in caches or registries."""

    def test_fingerprints_distinguish_modes(self):
        spec = PAPER_EXPERIMENTS["2"]
        fp_exact = experiment_fingerprint(spec, {"mode": "exact"})
        fp_fast = experiment_fingerprint(spec, {"mode": "fast"})
        assert fp_exact != fp_fast

    def test_default_mode_fingerprints_as_exact(self):
        spec = PAPER_EXPERIMENTS["2"]
        assert experiment_fingerprint(spec, {}) == experiment_fingerprint(
            spec, {"mode": "exact"}
        )

    def test_cache_keeps_modes_separate(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kw = dict(cache=cache, **TINY)
        fast = run_paper_suite(["2"], mode="fast", **kw)["2"]
        assert fast.pipeline.ff_jumps >= 1
        # Same cache, exact mode: must be a miss, not the fast payload.
        exact = run_paper_suite(["2"], mode="exact", **kw)["2"]
        assert exact.pipeline.ff_jumps == 0
        assert cache.hits == 0

    def test_cached_fast_run_round_trips_ff_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kw = dict(cache=cache, mode="fast", **TINY)
        first = run_paper_suite(["2"], **kw)["2"]
        again = run_paper_suite(["2"], **kw)["2"]
        assert cache.hits == 1
        assert again.frames == first.frames
        assert again.sim_events == first.sim_events
        assert again.pipeline.ff_jumps == first.pipeline.ff_jumps
        assert again.pipeline.ff_frames_skipped == first.pipeline.ff_frames_skipped


@pytest.mark.tier2
class TestFullScaleIdentity:
    """The acceptance contract on the real 1400 mAh battery.

    Slow (tens of seconds): selected with ``-m tier2``, exercised by
    the CI perf-smoke job rather than the default test run.
    """

    @pytest.fixture(scope="class")
    def suites(self):
        exact = run_paper_suite(mode="exact")
        fast = run_paper_suite(mode="fast")
        return exact, fast

    def test_frame_counts_identical_all_labels(self, suites):
        exact, fast = suites
        assert {k: r.frames for k, r in fast.items()} == {
            k: r.frames for k, r in exact.items()
        }

    def test_lifetimes_within_a_tenth_percent(self, suites):
        exact, fast = suites
        for label, run in fast.items():
            assert _rel(run.t_hours, exact[label].t_hours) < 1e-3, label

    def test_fig10_ordering_holds_in_fast_mode(self, suites):
        _, fast = suites
        t = {k: r.t_hours for k, r in fast.items()}
        assert t["2C"] > t["2B"] > t["2A"] > t["2"]

    @pytest.mark.parametrize("extra", [[], ["--exact"]])
    def test_check_paper_green_in_both_modes(self, extra):
        from repro.cli import main

        assert main(["check", "--paper", *extra]) == 0
