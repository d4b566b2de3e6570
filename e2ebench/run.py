"""Run the repository benchmark.

    python3 e2ebench/run.py --workload sim_fast --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seed 1

One run builds a workload's inputs from ``--seed``, measures whole
passes until ``--seconds`` have elapsed (the first pass always runs),
checks every output, and prints one JSON object as its last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of one
profiled pass with ``--trace 1``. The metric catalogue, with units and
directions, is ``BENCHMARK.json`` at the repository root. ``--workload
all`` runs every workload untraced and traced, and reports the tracing
overhead. Results, spans and scratch files go under ``.e2ebench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import typing as t

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench"

#: Subprocess set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def fail(message: str) -> t.NoReturn:
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def load_catalogue() -> dict[str, t.Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no {path.name} at the repository root")
    return json.loads(path.read_text())


def import_program() -> None:
    """Put this checkout's ``src`` first on the path, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail("no src/repro in this checkout; nothing to measure")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# machine and code record
# ---------------------------------------------------------------------------

def machine(seed: int) -> dict[str, t.Any]:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
        )
        git_sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_times(workload: str, seed: int) -> list[float]:
    """Process start to ready, in fresh interpreters: import, inputs, dirs.

    Each time is scaled to the reference CPU speed like every other
    end-to-end time (see :mod:`tracing`).
    """
    from tracing import Untraced

    clock = Untraced()
    times = []
    with clock.active():
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--probe",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True,
            ) as proc:
                line = proc.stdout.readline()  # type: ignore[union-attr]
                t1 = time.perf_counter()
                proc.communicate()
            if proc.returncode != 0 or line.strip() != "ready":
                fail(f"set-up probe for {workload} failed")
            times.append(clock.scaled(t0, t1))
    return times


def probe(workload: str, seed: int) -> None:
    """The set-up a run does before its first timed op, then exit."""
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        w = WORKLOADS[workload](seed, pathlib.Path(work))
        w.fresh_dir()
        print("ready", flush=True)


def measure(w, seconds: float) -> list:
    """Whole passes until the window is spent; the first always runs."""
    from tracing import Untraced

    tracer = Untraced()
    started = time.perf_counter()
    with tracer.active():
        passes = [w.run_pass(tracer)]
        while time.perf_counter() - started + passes[-1].total_s <= seconds:
            passes.append(w.run_pass(tracer))
    return passes


def tail(op_s: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds): the highest percentile with >= 10 ops above."""
    n = len(op_s)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(op_s)[n - 11]


def end_to_end(passes, setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_p50_s": statistics.median(s for p in passes for s in p.op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def workload_figures(w, passes, failed: int) -> dict[str, t.Any]:
    """Untraced workload-level figures printed beside the gated metrics."""
    from workloads import CachedWorkload, SimWorkload

    attempted = sum(p.attempted for p in passes)
    stalled = sum(p.stalled for p in passes)
    first = passes[0]
    out: dict[str, t.Any] = {
        "raw_wall_s": statistics.median(p.raw_wall_s for p in passes),
        "failed_pct": 100.0 * (failed + stalled) / max(1, attempted),
        "ops_per_pass": first.attempted,
        "stalled_per_pass": first.stalled,
        "rejected_per_pass": first.rejected,
        "passes": len(passes),
    }
    tails = [tail(p.op_s) for p in passes]
    if all(tails):
        out["op_tail_pct"] = tails[0][0]
        out["op_tail_s"] = statistics.median(t_[1] for t_ in tails)
    if isinstance(w, SimWorkload):
        out["sim_frames_per_s"] = sum(p.counts["frames"] for p in passes) / sum(
            sum(p.op_s) for p in passes
        )
    if isinstance(w, CachedWorkload):
        out["configs_per_s"] = first.configs / statistics.median(
            p.wall_s for p in passes
        )
        out["replay_s"] = statistics.median(p.replay_s for p in passes)
        out["cache_mb"] = first.cache_bytes / 1e6
    if first.rnorm_err_pts:
        out["fig10_rnorm_err_pts"] = first.rnorm_err_pts
    return out


def per_layer(p, tracer, failed: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times are profiled times)."""
    c = p.counts
    frames = c["frames"]

    def per_frame(x: float) -> float:
        return x / frames if frames else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    layers, py_calls = tracer.layers()
    run_s = tracer.span_seconds("core.run_experiment")
    gets = tracer.span_seconds("exec.cache.get")
    puts = tracer.span_seconds("exec.cache.put")
    m = {
        "failed_pct": 100.0 * ratio(failed + p.stalled, p.attempted),
        "pipeline.stall_ops": p.stalled,
        "fig10_rnorm_err_pts": p.rnorm_err_pts,
        "cache_mb": p.cache_bytes / 1e6,
        "trace.wall_s": p.wall_s,
        "sim.events_per_frame": per_frame(c["events"]),
        "sim.ff.coverage": per_frame(c["ff_frames_skipped"]),
        # Explore's run records carry no fast-forward counts.
        "sim.ff.exact_frames": frames - c["ff_frames_skipped"]
        if "ff_jumps" in c else 0,
        "sim.ff.jumps": c["ff_jumps"],
        "hw.link.transactions_per_frame": per_frame(c["link_transactions"]),
        "core.run_experiment_s": statistics.fmean(run_s) if run_s else 0.0,
        "py.calls_per_frame": per_frame(py_calls),
        "explore.predict_s": p.rungs.get("predict", 0.0),
        "explore.cohort_s": p.rungs.get("cohort", 0.0),
        "explore.fast_s": p.rungs.get("fast", 0.0),
        "explore.exact_s": p.rungs.get("exact", 0.0),
        "explore.exact_share": ratio(p.rungs.get("exact", 0.0), p.wall_s)
        if p.rungs else 0.0,
        "explore.sims_run": c["sims_run"],
        "explore.sim_yield": ratio(
            c["sims_evaluated"] - c["disqualified_at_sim"], c["sims_evaluated"]
        ),
        "explore.disqualified_at_sim": c["disqualified_at_sim"],
        "exec.cache.put_s": sum(puts),
        "exec.cache.puts": len(puts),
        "exec.cache.get_s": sum(gets),
        "exec.cache.hit_ratio": ratio(c["cache_hits"], c["cache_gets"]),
        "exec.map_overhead_s": sum(tracer.span_seconds("exec.map"))
        - sum(tracer.span_seconds("exec.job")),
        "obs.events_per_sim": ratio(c["telemetry_events"], c["sim_records"]),
        "batch.epochs": c["epochs"],
        "batch.root_solves": c["root_solves"],
        "batch.root_solves_per_cell": ratio(c["root_solves"], c["cells"]),
    }
    for layer in ("sim.kernel", "sim.events", "sim.process", "sim.ff",
                  "hw.node", "hw.battery", "hw.link", "pipeline", "obs",
                  "batch"):
        m[f"{layer}.self_s"] = layers[layer].self_s
    for layer in ("hw.node", "hw.battery", "pipeline"):
        m[f"{layer}.calls_per_frame"] = per_frame(layers[layer].calls)
    return m


def run_one(args, catalogue) -> dict[str, t.Any]:
    """One run of one workload; returns the result record."""
    from tracing import Tracer
    from workloads import WORKLOADS

    setup = [] if args.trace else setup_times(args.workload, args.seed)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(dir=OUT / "tmp"))
    tracer = None
    try:
        w = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            tracer = Tracer()
            with tracer.active():
                passes = [w.run_pass(tracer)]
        else:
            passes = measure(w, args.seconds)
        checks = w.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f for p in passes for f in p.failures] + checks
    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, len(failures))
    if args.trace:
        metrics = per_layer(passes[0], tracer, failed)
        names = catalogue["per_layer"]
    else:
        metrics = end_to_end(passes, setup)
        names = catalogue["end_to_end"]
    if set(metrics) != {m["name"] for m in names}:
        fail(f"metrics {sorted(set(metrics) ^ {m['name'] for m in names})} "
             "do not match BENCHMARK.json")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(args.seed),
        "inputs_sha256": hashlib.sha256(
            json.dumps(w.inputs(), sort_keys=True).encode()
        ).hexdigest(),
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"],
                        "better": m["better"]}
            for m in names
        },
        "figures": workload_figures(w, passes, failed),
        "setup_samples_s": setup,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / "spans" / f"{stem}.json")
    return record


def report(record: dict[str, t.Any], why: str) -> None:
    """Human-readable lines; the JSON result follows them."""
    mc = record["machine"]
    print(f"{record['workload']}  seed={mc['seed']}  trace={record['trace']}"
          f"  -- {why}")
    print(f"machine: nproc={mc['nproc']} {mc['machine']} python={mc['python']} "
          f"numpy={mc['numpy']} scipy={mc['scipy']} git={mc['git_sha']} "
          f"src={mc['src_sha256'][:12]}")
    for name, m in record["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']:<12} {m['better']}")
    if not record["trace"]:
        for name, value in record["figures"].items():
            print(f"  {name:<32} {value:>14.6g}  (untraced figure)")
    print(f"checks: {record['attempted']} ops attempted, "
          f"{record['failed']} failed")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def result_line(record: dict[str, t.Any]) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    })


def run_all(args, catalogue) -> None:
    """Every workload, untraced then traced, in child processes."""
    records = {}
    for wl in catalogue["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   wl["name"], "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                fail(f"{wl['name']} --trace {trace} exited {proc.returncode}")
            stem = f"{wl['name']}-seed{args.seed}-trace{trace}"
            records[stem] = json.loads(
                (OUT / "results" / f"{stem}.json").read_text()
            )
    metrics = {}
    # Traced times are raw profiled times, so compare the raw untraced wall.
    print("\nworkload         raw wall_s    traced    overhead")
    for wl in catalogue["workloads"]:
        plain = records[f"{wl['name']}-seed{args.seed}-trace0"]
        traced = records[f"{wl['name']}-seed{args.seed}-trace1"]
        for name, m in [*plain["metrics"].items(), *traced["metrics"].items()]:
            metrics[f"{wl['name']}.{name}"] = {"value": m["value"],
                                               "unit": m["unit"]}
        wall = plain["figures"]["raw_wall_s"]
        traced_wall = traced["metrics"]["trace.wall_s"]["value"]
        metrics[f"{wl['name']}.trace.overhead_s"] = {
            "value": traced_wall - wall, "unit": "s"}
        print(f"{wl['name']:<16} {wall:>8.3f}  {traced_wall:>10.3f}  "
              f"{traced_wall - wall:>10.3f}")
    summary = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }
    (OUT / "results" / f"all-seed{args.seed}.json").write_text(
        json.dumps({"records": records, **summary}, indent=1)
    )
    print(json.dumps(summary))


def main(argv: list[str] | None = None) -> None:
    catalogue = load_catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=catalogue["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.probe:
        probe(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args, catalogue)
    else:
        record = run_one(args, catalogue)
        why = next(w["why"] for w in catalogue["workloads"]
                   if w["name"] == args.workload)
        report(record, why)
        print(result_line(record))


if __name__ == "__main__":
    main()
