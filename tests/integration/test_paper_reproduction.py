"""Full-scale reproduction of the paper's experiments (§6, Fig. 10).

These run the calibrated battery to exhaustion — seconds of wall time
per experiment — and assert the *shape* of the paper's results: who
wins, approximate factors, and where the orderings fall. Absolute
tolerances reflect that our substrate is a calibrated simulator, not
the authors' testbed (see EXPERIMENTS.md).

The suite runs in fast mode, which delivers the same frames as exact
simulation; ``TestExactIdentity`` checks that on 2C, the rotation run,
and the tier-2 ``TestFullScaleIdentity`` in tests/sim checks all eight.
"""

import pytest

from repro.core.experiments import (
    PAPER_EXPERIMENTS,
    run_experiment,
    run_paper_suite,
    summarize_runs,
)


@pytest.fixture(scope="module")
def runs():
    return run_paper_suite(mode="fast")  # all eight experiments, paper battery


@pytest.fixture(scope="module")
def metrics(runs):
    return {m.label: m for m in summarize_runs(runs)}


class TestAbsoluteLifetimes:
    """T(N) within 12% of the paper's measurement for every experiment."""

    @pytest.mark.parametrize(
        "label", ["0A", "0B", "1", "1A", "2", "2A", "2B", "2C"]
    )
    def test_lifetime_close_to_paper(self, runs, label):
        run = runs[label]
        assert run.t_hours == pytest.approx(run.spec.paper.t_hours, rel=0.12)

    @pytest.mark.parametrize(
        "label", ["0A", "0B", "1", "1A", "2", "2A", "2B", "2C"]
    )
    def test_frames_close_to_paper(self, runs, label):
        run = runs[label]
        assert run.frames == pytest.approx(run.spec.paper.frames, rel=0.12)


class TestCalibrationAnchors:
    """The five fitted anchors must land tighter than the predictions."""

    @pytest.mark.parametrize("label,target", [("0A", 3.4), ("0B", 12.9), ("1", 6.13), ("1A", 7.6), ("2", 14.1)])
    def test_anchor(self, runs, label, target):
        assert runs[label].t_hours == pytest.approx(target, rel=0.06)


class TestPaperNarrative:
    """The qualitative findings, one per paper claim."""

    def test_0b_half_speed_doubles_work(self, runs):
        """§6.1: 'At the half clock rate, the Itsy computer can complete
        twice the workload' (and then some, via the battery)."""
        assert runs["0B"].frames >= 1.8 * runs["0A"].frames

    def test_baseline_io_costs_workload(self, runs):
        """§6.2: with I/O the node completes ~17% fewer frames than 0A."""
        loss = 1.0 - runs["1"].frames / runs["0A"].frames
        assert loss == pytest.approx(0.17, abs=0.07)

    def test_1a_recovery_effect_beats_0a_workload(self, runs):
        """§6.3: F(1A) > F(0A) — the battery recovery effect at work."""
        assert runs["1A"].frames > runs["0A"].frames

    def test_partitioning_more_than_doubles_absolute_life(self, runs):
        """§6.4: 'the battery life is more than doubled'."""
        assert runs["2"].t_hours > 2.0 * runs["1"].t_hours

    def test_partitioning_normalized_gain_modest(self, metrics):
        """§6.4: Rnorm(2) ~ 115% — far less than the 2x absolute gain."""
        assert 1.05 < metrics["2"].rnorm < 1.30

    def test_distributed_dvs_less_efficient_than_single_node_dvs(self, metrics):
        """§6.4: 'Distributed DVS is even less efficient than (1A)'."""
        assert metrics["2"].rnorm < metrics["1A"].rnorm

    def test_2a_improves_marginally_over_2(self, metrics):
        """§6.5: 'only 3% more battery capacity' — a small positive gain."""
        gain = metrics["2A"].rnorm - metrics["2"].rnorm
        assert 0.0 < gain < 0.10

    def test_node2_fails_first_in_partitioned_runs(self, runs):
        """§6.4: Node2 always fails first (unbalanced load)."""
        for label in ("2", "2A"):
            deaths = runs[label].death_times_s
            assert "node2" in deaths and "node1" not in deaths

    def test_recovery_keeps_system_alive_after_first_failure(self, runs):
        """§6.6: Node1 picks up ~5K more frames after Node2 dies."""
        run = runs["2B"]
        assert run.pipeline.migrations
        first_death = min(run.death_times_s.values())
        extra_frames = (run.pipeline.last_result_s - first_death) / 2.3
        assert extra_frames == pytest.approx(5000, rel=0.35)

    def test_recovery_beats_plain_partitioning(self, metrics):
        """§6.6: (2B) outlasts (2) and (2A)."""
        assert metrics["2B"].rnorm > metrics["2A"].rnorm > metrics["2"].rnorm

    def test_rotation_is_best(self, metrics):
        """§6.7: node rotation 'is the best result among all techniques'."""
        others = [metrics[lb].rnorm for lb in ("1", "1A", "2", "2A", "2B")]
        assert metrics["2C"].rnorm > max(others)

    def test_rotation_rnorm_band(self, metrics):
        """Paper: 145%. Our ideal rotation overshoots; assert the band."""
        assert 1.35 <= metrics["2C"].rnorm <= 1.80

    def test_rotation_balances_discharge(self, runs):
        """§6.7: with balanced load, both batteries exhaust together."""
        deaths = sorted(runs["2C"].death_times_s.values())
        if len(deaths) == 2:
            assert (deaths[1] - deaths[0]) / deaths[1] < 0.10

    def test_full_rnorm_ordering_matches_paper(self, metrics):
        """Fig. 10's complete ordering: 1 < 2 < 2A < 1A < 2B < 2C."""
        order = ["1", "2", "2A", "1A", "2B", "2C"]
        values = [metrics[lb].rnorm for lb in order]
        assert values == sorted(values)


class TestRegressionLock:
    """Exact deterministic outputs, locked.

    The simulator is deterministic, so these counts only move when the
    models change. A failure here means behaviour drifted — update the
    numbers only for an *intentional* recalibration, alongside
    DESIGN.md/EXPERIMENTS.md.
    """

    LOCKED_FRAMES = {
        "0A": 11218,
        "0B": 20507,
        "1": 9509,
        "1A": 12467,
        "2": 22307,
        "2A": 22711,
        "2B": 25724,
        "2C": 30653,
    }

    @pytest.mark.parametrize("label", sorted(LOCKED_FRAMES))
    def test_frame_counts_locked(self, runs, label):
        assert runs[label].frames == self.LOCKED_FRAMES[label]


class TestThroughputConstraint:
    """Every I/O-bound experiment must hold the frame delay D."""

    @pytest.mark.parametrize("label", ["1", "1A", "2", "2A", "2C"])
    def test_mean_result_period_is_d(self, runs, label):
        period = runs[label].pipeline.mean_result_period_s()
        assert period == pytest.approx(2.3, rel=1e-3)


class TestExactIdentity:
    """Fast mode stands in for exact simulation in the fixture above."""

    def test_2c_exact_matches_fast(self, runs):
        exact = run_experiment(PAPER_EXPERIMENTS["2C"], mode="exact")
        fast = runs["2C"]
        assert fast.frames == exact.frames
        assert fast.t_hours == pytest.approx(exact.t_hours, rel=1e-9)
