"""bench_report: parallel speedups are reported only where the host had
at least as many CPUs as workers."""

from benchmarks.bench_report import _add_parity, _add_speedups


def _scaling():
    return {
        "jobs_1": {"wall_s": 4.0, "configs_per_sec": 10.0},
        "jobs_2": {"wall_s": 2.5, "configs_per_sec": 16.0},
        "jobs_4": {"wall_s": 5.0, "configs_per_sec": 8.0},
    }


def _suite(wall_s):
    return {"wall_s": wall_s, "experiments": {"1": {"frames": 5, "t_hours": 2.0}}}


def test_scaling_rows_past_cpu_count_carry_no_speedup():
    scaling = _scaling()
    _add_speedups(scaling, cpus=2)
    assert scaling["jobs_1"]["speedup"] == 1.0
    assert scaling["jobs_2"]["speedup"] == 1.6
    assert "speedup" not in scaling["jobs_4"]


def test_scaling_rows_keep_speedup_on_enough_cpus():
    scaling = _scaling()
    _add_speedups(scaling, cpus=4)
    assert [row["speedup"] for row in scaling.values()] == [1.0, 1.6, 0.8]


def test_suite_speedup_omitted_when_oversubscribed():
    serial = _suite(10.0)
    parallel = _suite(11.0)
    _add_parity(parallel, serial, jobs=4, cpus=1)
    assert "speedup_vs_serial" not in parallel
    assert parallel["experiments"]["1"]["frames_match_serial"]


def test_serial_mode_speedup_kept_on_one_cpu():
    serial = _suite(10.0)
    fast = _suite(1.0)
    _add_parity(fast, serial, jobs=1, cpus=1)
    assert fast["speedup_vs_serial"] == 10.0
