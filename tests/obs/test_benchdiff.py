"""Perf-regression gate: direction inference, diffing, rendering."""

import json

import pytest

from repro.obs.benchdiff import (
    baseline_from_history,
    bench_diff,
    load_bench,
    metric_direction,
    metric_scale,
    render_diff,
    scalar_sections,
)


def test_metric_direction_conventions():
    assert metric_direction("events_per_s") == "higher"
    assert metric_direction("configs_per_sec") == "higher"
    assert metric_direction("speedup_vs_serial") == "higher"
    assert metric_direction("wall_s") == "lower"
    assert metric_direction("null_sink_overhead_pct") == "lower"
    assert metric_direction("report_bytes") == "lower"
    assert metric_direction("max_lifetime_rel_err") == "lower"
    # Throughput suffix wins over the generic trailing ``_s``.
    assert metric_direction("frames_per_s") == "higher"
    # Sizes and counts have no direction and never gate.
    assert metric_direction("frames") is None
    assert metric_direction("configs") is None


def test_metric_scale_percentage_metrics_diff_absolutely():
    assert metric_scale("null_sink_overhead_pct") == "absolute"
    assert metric_scale("max_conservation_rel_err") == "absolute"
    assert metric_scale("events_per_s") == "relative"
    assert metric_scale("wall_s") == "relative"
    # An overhead hopping -0.7% -> 11.6% is a 12.3-point move, not a
    # +1784% relative explosion — it must not trip a 50-point gate.
    rows = bench_diff(
        {"obs": {"null_sink_overhead_pct": 11.6}},
        {"obs": {"null_sink_overhead_pct": -0.7}},
        threshold_pct=50.0,
    )
    (row,) = rows
    assert row["scale"] == "absolute"
    assert row["rel_pct"] == 12.3
    assert not row["regression"]
    # A genuine blow-up past the threshold still gates.
    rows = bench_diff(
        {"obs": {"null_sink_overhead_pct": 80.0}},
        {"obs": {"null_sink_overhead_pct": 1.0}},
        threshold_pct=50.0,
    )
    assert rows[0]["regression"]


def test_sub_100ms_timings_never_gate():
    rows = bench_diff(
        {"ledger": {"report_render_s": 0.02}},
        {"ledger": {"report_render_s": 0.0003}},
        threshold_pct=50.0,
    )
    assert not rows[0]["regression"]
    # At meaningful magnitudes the same metric shape still gates.
    rows = bench_diff(
        {"ledger": {"report_render_s": 2.0}},
        {"ledger": {"report_render_s": 1.0}},
        threshold_pct=50.0,
    )
    assert rows[0]["regression"]


def test_scalar_sections_skips_meta_and_nested():
    bench = {
        "version": "1.0",
        "history": [],
        "kernel": {"events_per_s": 1000, "events": 5,
                   "nested": {"x": 1}, "note": "text"},
    }
    sections = scalar_sections(bench)
    assert sections == {"kernel": {"events_per_s": 1000.0, "events": 5.0}}


def _bench(events_per_s, wall_s):
    return {"kernel": {"events_per_s": events_per_s},
            "suite": {"wall_s": wall_s}}


def test_no_regression_within_threshold():
    rows = bench_diff(_bench(950, 10.5), _bench(1000, 10.0),
                      threshold_pct=50.0)
    assert not any(r["regression"] for r in rows)


def test_throughput_drop_regresses():
    rows = bench_diff(_bench(400, 10.0), _bench(1000, 10.0),
                      threshold_pct=50.0)
    bad = [r for r in rows if r["regression"]]
    assert [(r["section"], r["metric"]) for r in bad] == [
        ("kernel", "events_per_s")
    ]
    assert bad[0]["rel_pct"] == -60.0


def test_wall_clock_increase_regresses():
    rows = bench_diff(_bench(1000, 20.0), _bench(1000, 10.0),
                      threshold_pct=50.0)
    bad = [r for r in rows if r["regression"]]
    assert [(r["section"], r["metric"]) for r in bad] == [
        ("suite", "wall_s")
    ]


def test_improvements_never_regress():
    rows = bench_diff(_bench(9000, 1.0), _bench(1000, 10.0),
                      threshold_pct=1.0)
    assert not any(r["regression"] for r in rows)


def test_one_sided_metrics_never_regress():
    current = {"new_section": {"things_per_s": 5.0}}
    baseline = {"old_section": {"wall_s": 3.0}}
    rows = bench_diff(current, baseline, threshold_pct=1.0)
    assert not any(r["regression"] for r in rows)
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["things_per_s"]["baseline"] is None
    assert by_metric["wall_s"]["current"] is None


def test_dropped_speedup_never_regresses():
    # A report written on fewer CPUs than workers omits the speedup.
    current = {"paper_suite_parallel": {"wall_s": 10.0}}
    baseline = {"paper_suite_parallel": {"wall_s": 10.0,
                                         "speedup_vs_serial": 0.91}}
    rows = bench_diff(current, baseline, threshold_pct=1.0)
    assert not any(r["regression"] for r in rows)
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["speedup_vs_serial"]["current"] is None
    assert by_metric["speedup_vs_serial"]["rel_pct"] is None


def test_directionless_metrics_report_but_never_gate():
    rows = bench_diff({"s": {"frames": 1.0}}, {"s": {"frames": 100.0}},
                      threshold_pct=1.0)
    (row,) = rows
    assert row["direction"] is None and not row["regression"]


def test_threshold_must_be_positive():
    with pytest.raises(ValueError):
        bench_diff({}, {}, threshold_pct=0.0)


def test_baseline_from_history():
    assert baseline_from_history({"history": []}) is None
    assert baseline_from_history({}) is None
    last = {"kernel": {"events_per_s": 5}}
    assert baseline_from_history({"history": [{"a": 1}, last]}) == last


def test_render_diff_marks_regressions():
    rows = bench_diff(_bench(400, 10.0), _bench(1000, 10.0),
                      threshold_pct=50.0)
    text = render_diff(rows)
    assert "REGRESSION" in text
    assert "1 regression(s)" in text
    assert render_diff([]) == "no comparable metrics"


def test_load_bench_roundtrip(tmp_path):
    doc = _bench(1000, 10.0)
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_bench(path) == doc


def test_committed_bench_gates_clean():
    """The committed artifact must pass its own CI gate."""
    import pathlib

    bench_path = (
        pathlib.Path(__file__).resolve().parents[2] / "BENCH_substrate.json"
    )
    bench = load_bench(bench_path)
    baseline = baseline_from_history(bench)
    assert baseline is not None
    rows = bench_diff(bench, baseline, threshold_pct=60.0)
    bad = [r for r in rows if r["regression"]]
    assert not bad, f"committed bench regresses vs its history: {bad}"
