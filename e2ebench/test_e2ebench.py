"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest e2ebench``.
"""

import json
import pathlib
import re

import pytest

import run
import tracing
import workloads
from repro.core.experiments import ExperimentSpec
from repro.explore import ExploreConfig

CATALOGUE = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = make(7, tmp_path).inputs()
    assert make(7, tmp_path).inputs() == first
    assert any(make(seed, tmp_path).inputs() != first for seed in range(8, 12))
    json.dumps(first)  # recorded with every result


def test_catalogue_names_units_and_directions():
    assert [w["name"] for w in CATALOGUE["workloads"]] == list(workloads.WORKLOADS)
    metrics = CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    bounds = {m["name"]: m["bound"] for m in CATALOGUE["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _fake_pass():
    p = workloads.Pass(wall_s=2.0, total_s=3.0, op_s=[0.5, 1.5], attempted=2)
    p.counts.update(frames=100, events=1000)
    return p


def test_emitted_metrics_match_the_catalogue():
    e2e = run.end_to_end([_fake_pass()], setup=[1.0, 1.2, 1.1])
    assert set(e2e) == {m["name"] for m in CATALOGUE["end_to_end"]}
    assert all(v > 0 for v in e2e.values())

    tracer = tracing.Tracer()
    with tracer.active():
        sum(range(10))
    layer = run.per_layer(_fake_pass(), tracer, failed=0)
    assert set(layer) == {m["name"] for m in CATALOGUE["per_layer"]}


class _Scripted(workloads.SimWorkload):
    """A raising op, a deadlocking op and an infeasible input."""

    name = "scripted"
    mode = "fast"

    def candidates(self):
        def config(cut, rotation, bandwidth):
            c = ExploreConfig(0, "baseline", cut, rotation, bandwidth, "kibam",
                              312.7975, 0.4, 2.3)
            return c.experiment_spec(), dict(
                battery_factory=c.battery_factory(),
                power_model=c.power_model(), timing=c.timing(),
            )

        return [
            [(ExperimentSpec(label="no-policy", description="raises"), {})],
            [config((1,), 50, 160_000.0)],   # the rotation deadlock
            [config((1,), None, 40_000.0)],  # rejected as infeasible
        ]


def test_stalled_and_raising_ops_count_as_failed(tmp_path):
    w = _Scripted(0, tmp_path)
    p = w.run_pass(tracing.Untraced())
    assert p.attempted == 2 and p.rejected == 1
    assert len(p.failures) == 1 and "no-policy" in p.failures[0]
    assert p.stalled == 1
    assert len(p.op_s) == 2
    figures = run.workload_figures(w, [p], failed=len(p.failures))
    assert figures["failed_pct"] == 100.0


def test_tail_needs_ten_ops_beyond_it():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail([float(i) for i in range(40)])
    assert pct == 75.0 and value == 29.0
