"""The benchmark's four workloads.

A workload builds its inputs from a seed, runs timed passes through the
program's public entry points, and checks every output. The program
sees only the generated inputs, never the seed. Load is a closed loop
with one client: each call starts when the previous one returns, always
with ``jobs=1``.

- ``fig10_exact``: the eight paper experiments, exact mode, to battery
  exhaustion. The seed orders them.
- ``sim_fast``: the eight paper experiments plus a stratified sample of
  ``default_space()`` configs, fast mode, to exhaustion.
- ``explore_ladder``: a cold ``explore()`` session into a fresh cache
  and run registry, then its replay from the warm cache.
- ``sweep_cohort``: a cold ``batch_sweep(grid=10)`` into a fresh cache,
  then its replay.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import pathlib
import random
import shutil
import tempfile
import time
import typing as t

from repro.batch.sweep import BatchSweepSpec, batch_sweep, verify_sample
from repro.core.experiments import (
    PAPER_EXPERIMENTS,
    ExperimentRun,
    ExperimentSpec,
    run_experiment,
    summarize_runs,
)
from repro.errors import InfeasiblePartitionError
from repro.exec import ResultCache
from repro.explore import POLICY_FAMILIES, ExploreConfig, default_space, explore
from repro.obs import RunRegistry
from repro.obs.checks import check_paper_ordering

from tracing import Untraced

#: A run whose last delivery came more than this many frame periods
#: before the first battery death stopped making progress while every
#: node was alive: the rotation deadlock, not a battery-limited end.
STALL_PERIODS = 2.0

#: Rotation periods of ``default_space()``; ``sim_fast`` covers each one.
ROTATIONS = (25, 50, 100, 200, 400)

#: Explore promotion budgets: the CLI's (512, 16, 6) scaled down so one
#: session fits a run, with the exact rung still the largest share.
EXPLORE_KEEP = (64, 4, 1)


@dataclasses.dataclass
class Pass:
    """One timed pass over a workload's inputs.

    ``wall_s`` times the cold work and ``op_s`` each call in it, scaled to
    the reference CPU speed (see :mod:`tracing`); ``raw_wall_s`` is the
    same interval unscaled, and ``total_s`` the raw pass with its replay.
    ``counts`` holds deterministic work counters summed over the pass.
    """

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    total_s: float = 0.0
    op_s: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    stalled: int = 0
    rejected: int = 0
    configs: int = 0
    replay_s: float = 0.0
    cache_bytes: int = 0
    rnorm_err_pts: float = 0.0
    counts: collections.Counter = dataclasses.field(
        default_factory=collections.Counter
    )
    rungs: dict[str, float] = dataclasses.field(default_factory=dict)


def stalled(run: ExperimentRun) -> bool:
    """True if the run deadlocked instead of running its batteries down."""
    p = run.pipeline
    if p is None or p.end_reason != "stall" or not p.death_times_s:
        return False
    last = p.last_result_s if p.last_result_s is not None else 0.0
    gap = min(p.death_times_s.values()) - last
    return gap > STALL_PERIODS * run.spec.deadline_s


def count_run(counts: collections.Counter, run: ExperimentRun) -> None:
    """Add one run's deterministic work counters to ``counts``."""
    counts["frames"] += run.frames
    counts["events"] += run.sim_events
    p = run.pipeline
    if p is not None:
        counts["link_transactions"] += p.total_link_transactions
        counts["ff_jumps"] += p.ff_jumps
        counts["ff_frames_skipped"] += p.ff_frames_skipped


def rnorm_error_pts(runs: dict[str, ExperimentRun]) -> float:
    """Max |simulated - paper| Rnorm, in percentage points."""
    worst = 0.0
    for row in summarize_runs(runs):
        paper = PAPER_EXPERIMENTS[row.label].paper
        if row.rnorm is not None and paper and paper.rnorm_percent is not None:
            worst = max(worst, abs(row.rnorm * 100.0 - paper.rnorm_percent))
    return worst


def dir_bytes(root: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Workload:
    """Base class: seeded inputs, a timed pass, and the output checks."""

    name = ""

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.workdir = workdir

    def inputs(self) -> t.Any:
        """JSON form of the generated inputs (determinism tests, records)."""
        raise NotImplementedError

    def run_pass(self, tracer: Untraced) -> Pass:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Checks of the last pass's outputs, made after the timed window."""
        return []

    def fresh_dir(self) -> pathlib.Path:
        return pathlib.Path(tempfile.mkdtemp(dir=self.workdir))


class SimWorkload(Workload):
    """Shared loop of the two simulation workloads: one op per input.

    An input is a list of candidate configs; the loop runs the first one
    ``run_experiment`` does not reject as infeasible. A rejection raises
    before any simulation, is counted, and is not an op.
    """

    mode = "exact"

    def candidates(self) -> list[list[tuple[ExperimentSpec, dict[str, t.Any]]]]:
        raise NotImplementedError

    def run_pass(self, tracer: Untraced) -> Pass:
        p = Pass()
        self.runs: dict[str, ExperimentRun] = {}
        for options in self.candidates():
            started = time.perf_counter()
            op_s = None
            for spec, kwargs in options:
                t0 = time.perf_counter()
                try:
                    with tracer.span("core.run_experiment"):
                        run = run_experiment(spec, mode=self.mode, **kwargs)
                except InfeasiblePartitionError:
                    p.rejected += 1
                    continue
                except Exception as exc:  # an op that raises is a failed op
                    p.failures.append(f"{spec.label}: raised {exc!r}")
                else:
                    self.runs[spec.label] = run
                    count_run(p.counts, run)
                    p.stalled += stalled(run)
                op_s = time.perf_counter() - t0
                p.attempted += 1
                break
            ended = time.perf_counter()
            scaled = tracer.scaled(started, ended)
            p.raw_wall_s += ended - started
            p.wall_s += scaled
            if op_s is not None:
                p.op_s.append(op_s * scaled / (ended - started))
        p.total_s = p.raw_wall_s
        p.configs = p.attempted
        paper = {k: v for k, v in self.runs.items() if k in PAPER_EXPERIMENTS}
        if "1" in paper:
            p.rnorm_err_pts = rnorm_error_pts(paper)
        return p


class Fig10Exact(SimWorkload):
    """The eight paper experiments in exact mode, in a seeded order."""

    name = "fig10_exact"
    mode = "exact"

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        super().__init__(seed, workdir)
        self.labels = sorted(PAPER_EXPERIMENTS)
        random.Random(seed).shuffle(self.labels)

    def inputs(self) -> t.Any:
        return self.labels

    def candidates(self):
        return [[(PAPER_EXPERIMENTS[label], {})] for label in self.labels]

    def check(self) -> list[str]:
        failures = [
            verdict.detail
            for verdict in check_paper_ordering(
                {k: r.t_hours / r.spec.n_nodes for k, r in self.runs.items()}
            )
            if not verdict.ok
        ]
        for label, exact in self.runs.items():
            fast = run_experiment(PAPER_EXPERIMENTS[label], mode="fast")
            if fast.frames != exact.frames:
                failures.append(
                    f"{label}: exact frames {exact.frames} != fast {fast.frames}"
                )
        return failures


class SimFast(SimWorkload):
    """The paper experiments plus a stratified ``default_space()`` sample.

    The strata fix the axes that set an op's cost class: policy, cut,
    rotation period, bandwidth and capacity. Every policy, the baseline
    included, runs every cut without rotation, and two configs at each
    rotation period that together cover every bandwidth of the grid, so
    the rotation deadlock stays in the sample.
    Rotation strata use the grid's smallest capacity, which keeps a pass
    within a run. The seed draws each stratum's I/O activity and the
    order of the ops. A stratum whose bandwidth ``run_experiment``
    rejects as infeasible falls back to the next bandwidth up.
    """

    name = "sim_fast"
    mode = "fast"

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.space = space = default_space()
        n_bw = len(space.axis_values("bandwidth_bps"))
        n_cap = len(space.axis_values("capacity_mah"))
        n_io = len(space.axis_values("io_activity"))
        cuts = space.axis_values("cut")
        # (policy, cut, rotation, bandwidth index, capacity index)
        strata: list[tuple[str, tuple[int, ...], int | None, int, int]] = []
        for policy in POLICY_FAMILIES:
            for j, cut in enumerate(cuts):
                strata.append((policy, cut, None, (3 * j + 4) % n_bw, (5 * j) % n_cap))
            for k in range(2 * len(ROTATIONS)):
                # Each policy meets every bandwidth once across its
                # rotation strata, and the cuts take turns.
                strata.append(
                    (policy, cuts[1 + k % 3], ROTATIONS[k // 2], (3 * k) % n_bw, 0)
                )
        #: Per stratum, its candidate configs in bandwidth fallback order.
        self.strata: list[list[ExploreConfig]] = []
        for policy, cut, rotation, bw0, cap in strata:
            io = rng.randrange(n_io)
            self.strata.append([
                self._config(policy, cut, rotation, bw, cap, io)
                for bw in [*range(bw0, n_bw), *range(bw0 - 1, -1, -1)]
            ])
        self.order: list[str | int] = [*PAPER_EXPERIMENTS, *range(len(strata))]
        rng.shuffle(self.order)

    def _config(self, policy, cut, rotation, bw, cap, io) -> ExploreConfig:
        space = self.space
        digits = (
            POLICY_FAMILIES.index(policy),
            space.axis_values("cut").index(cut),
            space.axis_values("rotation_period").index(rotation),
            bw,
            0,
            cap,
            io,
            0,
        )
        index = 0
        for digit, radix in zip(digits, space.radices()):
            index = index * radix + digit
        return space.config_at(index)

    def inputs(self) -> t.Any:
        return [
            item if isinstance(item, str) else [c.index for c in self.strata[item]]
            for item in self.order
        ]

    def candidates(self):
        out = []
        for item in self.order:
            if isinstance(item, str):
                out.append([(PAPER_EXPERIMENTS[item], {})])
                continue
            out.append([
                (
                    config.experiment_spec(),
                    dict(
                        battery_factory=config.battery_factory(),
                        power_model=config.power_model(),
                        timing=config.timing(),
                    ),
                )
                for config in self.strata[item]
            ])
        return out


class CachedWorkload(Workload):
    """Shared loop of the cache workloads: a cold call into a fresh cache,
    then the same call replayed from the warm cache. ``wall_s`` and the
    op time are the cold call's."""

    def call(self, cache: ResultCache, root: pathlib.Path, tracer: Untraced):
        raise NotImplementedError

    def count(self, p: Pass, cold: t.Any, root: pathlib.Path) -> None:
        """Add the cold result's deterministic counters to the pass."""

    def run_pass(self, tracer: Untraced) -> Pass:
        p = Pass()
        root = self.fresh_dir()
        try:
            cache = tracer.cache(root / "cache")
            results = []
            for phase in ("cold", "replay"):
                t0 = time.perf_counter()
                try:
                    with tracer.span(f"{self.name}.{phase}"):
                        result = self.call(cache, root, tracer)
                except Exception as exc:  # an op that raises is a failed op
                    p.failures.append(f"{phase} call raised {exc!r}")
                    result = None
                t1 = time.perf_counter()
                results.append((t1 - t0, tracer.scaled(t0, t1), result))
                p.attempted += 1
                if phase == "cold":
                    p.cache_bytes = dir_bytes(root / "cache")
            p.counts["cache_hits"] = cache.hits
            p.counts["cache_gets"] = cache.hits + cache.misses
            cold, replay = results
            p.raw_wall_s, p.wall_s, self.cold = cold
            replay_raw, p.replay_s, self.replay = replay
            p.op_s = [p.wall_s]
            p.total_s = p.raw_wall_s + replay_raw
            if self.cold is not None:
                self.count(p, self.cold, root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return p


class ExploreLadder(CachedWorkload):
    """``explore()`` with the CLI's defaults: a fresh cache and registry."""

    name = "explore_ladder"

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.grid = dict(
            bandwidth_points=rng.choice((3, 4, 5)),
            capacity_points=rng.choice((3, 4)),
            io_points=rng.choice((3, 4, 5)),
        )
        self.space = default_space(**self.grid)

    def inputs(self) -> t.Any:
        return {"grid": self.grid, "keep": list(EXPLORE_KEEP)}

    def call(self, cache, root, tracer):
        return explore(
            self.space, keep=EXPLORE_KEEP, jobs=1, cache=cache,
            registry=RunRegistry(root / "runs.sqlite"),
            progress=lambda r: tracer.mark(f"explore.{r.name}", r.wall_s),
        )

    def count(self, p, cold, root):
        p.configs = cold.n_configs
        p.rungs = {r.name: r.wall_s for r in cold.rungs}
        sims = [r for r in cold.rungs if r.name in ("fast", "exact")]
        p.counts["sims_run"] = sum(r.executed for r in sims)
        p.counts["sims_evaluated"] = sum(r.evaluated for r in sims)
        p.counts["disqualified_at_sim"] = sum(r.disqualified for r in sims)
        for record in RunRegistry(root / "runs.sqlite").list_runs():
            p.counts["frames"] += int(record.summary.get("frames", 0))
            p.counts["events"] += int(record.summary.get("events_processed", 0))
            p.counts["link_transactions"] += int(
                record.summary.get("link_transactions", 0)
            )
            p.counts["telemetry_events"] += record.n_events
            p.counts["sim_records"] += 1

    def check(self) -> list[str]:
        if self.cold is None or self.replay is None:
            return []  # already counted as raised
        failures = []
        if not self.cold.frontier:
            failures.append("explore: empty frontier")
        cold, replay = (
            json.dumps(r.frontier_payload(), sort_keys=True)
            for r in (self.cold, self.replay)
        )
        if cold != replay:
            failures.append("explore: replayed frontier_payload differs from cold")
        return failures


class SweepCohort(CachedWorkload):
    """``batch_sweep(grid=10)``, the ``repro sweep --batch`` path."""

    name = "sweep_cohort"

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        super().__init__(seed, workdir)
        rel_span = round(random.Random(seed).uniform(0.05, 0.25), 3)
        self.spec = BatchSweepSpec(grid=10, rel_span=rel_span)

    def inputs(self) -> t.Any:
        return {"grid": self.spec.grid, "rel_span": self.spec.rel_span}

    def call(self, cache, root, tracer):
        return batch_sweep(self.spec, jobs=1, cache=cache)

    def count(self, p, cold, root):
        p.configs = cold.stats.configs
        p.counts["epochs"] = cold.stats.epochs
        p.counts["root_solves"] = cold.stats.root_solves
        p.counts["cells"] = cold.stats.cells

    def check(self) -> list[str]:
        if self.cold is None or self.replay is None:
            return []  # already counted as raised
        failures = []
        report = verify_sample(self.cold)
        if not report.ok:
            failures.extend(report.mismatches or ["verify_sample failed"])
        if (self.replay.outcomes, self.replay.cycles) != (
            self.cold.outcomes, self.cold.cycles
        ):
            failures.append("batch: replayed outcomes differ from cold")
        return failures


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Fig10Exact, SimFast, ExploreLadder, SweepCohort)
}
