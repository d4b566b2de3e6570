"""Measurement contexts for a pass: untraced and traced.

Everything here lives outside the program: spans are recorded around
calls into public entry points, ``cProfile`` gives self time and call
counts grouped by ``repro`` module, and cache traffic is timed through a
:class:`~repro.exec.ResultCache` subclass the workload passes in. Spans
are held in memory and written out once, when the run ends.

An untraced pass uses :class:`Untraced`: no spans, no profiler, and
times scaled to a reference CPU speed. The machines this benchmark runs
on share their cores with other tenants. For seconds at a time a
process runs at about 0.6x speed, and interpreter-bound and numpy work
slow by the same factor, so raw times follow the neighbours' load more
than the program. While a pass runs, a timer signal times a fixed
pure-Python kernel every ``SAMPLE_PERIOD_S``, and the kernel also runs
at each interval boundary. :meth:`Untraced.scaled` takes the interval's
raw time, removes the time the samples took inside it, and multiplies
by ``K_REF`` over the mean kernel time seen during it. That cancels the
shared slowdown. The kernel is benchmark code, so a change to the
program never moves it.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import json
import pathlib
import pstats
import signal
import time
import typing as t

from repro.exec import ResultCache, SweepExecutor

#: Layer metric prefix -> the ``repro`` module (or package) it covers.
#: A module belongs to the longest prefix that matches it.
LAYERS: dict[str, str] = {
    "sim.kernel": "repro.sim.kernel",
    "sim.events": "repro.sim.events",
    "sim.process": "repro.sim.process",
    "sim.ff": "repro.sim.fastforward",
    "hw.node": "repro.hw.node",
    "hw.battery": "repro.hw.battery",
    "hw.link": "repro.hw.link",
    "pipeline": "repro.pipeline",
    "core": "repro.core",
    "batch": "repro.batch",
    "explore": "repro.explore",
    "exec": "repro.exec",
    "obs": "repro.obs",
}


@dataclasses.dataclass
class Span:
    """One timed interval; spans of one top-level operation share ``trace``."""

    id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclasses.dataclass(frozen=True)
class LayerStats:
    """cProfile totals for one layer: self seconds and Python calls."""

    self_s: float
    calls: int


#: Iterations of one kernel run (about 1.2 ms on an uncontended core).
KERNEL_LOOPS = 8_000

#: The kernel's time on an uncontended core of the machine the benchmark
#: was defined on (2-CPU x86_64, Python 3.11): scaled seconds read as raw
#: seconds on that machine when nothing else runs.
K_REF = 0.00118

#: Seconds between kernel samples while a pass runs (about 2% overhead,
#: which :meth:`Untraced.scaled` subtracts).
SAMPLE_PERIOD_S = 0.05

#: Kernel runs at each interval boundary.
BOUNDARY_SAMPLES = 3


def kernel() -> float:
    """Seconds taken by a fixed dict-and-arithmetic loop."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(KERNEL_LOOPS):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return time.perf_counter() - t0


def held_kernel() -> float:
    """:func:`kernel` with the sampling signal held until it returns, so
    a sample never lands inside another kernel run."""
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        return kernel()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


class Untraced:
    """The untraced pass: no spans, no profiler, a plain cache."""

    def __init__(self) -> None:
        #: (time taken, kernel seconds, seconds the sample took)
        self._samples: list[tuple[float, float, float]] = []
        self._edge = self._boundary()

    @staticmethod
    def _boundary() -> list[float]:
        return [held_kernel() for _ in range(BOUNDARY_SAMPLES)]

    def _sample(self, signum: int, frame: t.Any) -> None:
        t0 = time.perf_counter()
        k = held_kernel()
        self._samples.append((t0, k, time.perf_counter() - t0))

    @contextlib.contextmanager
    def active(self) -> t.Iterator[None]:
        """Sample the kernel on a timer signal while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at reference speed.

        Uses the kernel times sampled inside the interval and at its two
        boundaries; the boundary measured now opens the next interval.
        """
        inside = [s for s in self._samples if start <= s[0] <= end]
        self._samples.clear()
        edge = self._boundary()
        ks = self._edge + [k for _, k, _ in inside] + edge
        self._edge = edge
        net = end - start - sum(d for _, _, d in inside)
        return net * K_REF * len(ks) / sum(ks)

    def span(self, name: str) -> t.ContextManager[None]:
        return contextlib.nullcontext()

    def mark(self, name: str, seconds: float) -> None:
        pass

    def cache(self, root: pathlib.Path) -> ResultCache:
        return ResultCache(root)


class Tracer(Untraced):
    """The traced pass: spans, a profiler and a timed cache.

    Its times are profiled times and are not scaled.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._profile = cProfile.Profile(builtins=False)

    @contextlib.contextmanager
    def span(self, name: str) -> t.Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            trace=parent.trace if parent else len(self.spans),
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def scaled(self, start: float, end: float) -> float:
        return end - start

    def mark(self, name: str, seconds: float) -> None:
        """Record a span that just ended after ``seconds`` (rung reports)."""
        end = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(
                id=len(self.spans),
                parent=parent.id if parent else None,
                trace=parent.trace if parent else len(self.spans),
                name=name,
                start=end - seconds,
                end=end,
            )
        )

    def cache(self, root: pathlib.Path) -> ResultCache:
        return TimedCache(root, self)

    @contextlib.contextmanager
    def active(self) -> t.Iterator[None]:
        """Profile the block and span every ``SweepExecutor.map`` in it.

        ``SweepExecutor`` is built inside ``explore`` and ``batch_sweep``,
        so its ``map`` is wrapped on the class for the duration of the
        block and restored afterwards. Each item's job gets its own span,
        which is what separates executor overhead from the work it runs.
        """
        original = SweepExecutor.map
        tracer = self

        def map_with_spans(self, fn, items, **kwargs):
            def job(item):
                with tracer.span("exec.job"):
                    return fn(item)

            with tracer.span("exec.map"):
                return original(self, job, items, **kwargs)

        SweepExecutor.map = map_with_spans
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()
            SweepExecutor.map = original

    # -- results ---------------------------------------------------------
    def span_seconds(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def layers(self) -> tuple[dict[str, LayerStats], int]:
        """Self time and calls per layer, plus every profiled Python call.

        Builtins are not profiled separately, so their time counts as
        the self time of the Python function that called them.
        """
        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        total_calls = 0
        stats = pstats.Stats(self._profile).stats  # type: ignore[attr-defined]
        for (filename, _, _), (_, nc, tt, _, _) in stats.items():
            total_calls += nc
            layer = _layer_of(_module_of(filename, src))
            if layer is not None:
                self_s[layer] += tt
                calls[layer] += nc
        return (
            {name: LayerStats(self_s[name], calls[name]) for name in LAYERS},
            total_calls,
        )

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps([dataclasses.asdict(s) for s in self.spans]) + "\n"
        )


class TimedCache(ResultCache):
    """A result cache whose reads and writes are recorded as spans."""

    def __init__(self, root: pathlib.Path, tracer: Tracer) -> None:
        super().__init__(root)
        self._tracer = tracer

    def get(self, key: str) -> t.Any | None:
        with self._tracer.span("exec.cache.get"):
            return super().get(key)

    def put(self, key: str, payload: t.Any) -> None:
        with self._tracer.span("exec.cache.put"):
            super().put(key, payload)


def _module_of(filename: str, src: str) -> str | None:
    """Dotted ``repro`` module name for a source file, else None."""
    path = pathlib.Path(filename)
    try:
        rel = path.resolve().relative_to(src)
    except (OSError, ValueError):
        return None
    if rel.suffix != ".py" or not rel.parts or rel.parts[0] != "repro":
        return None
    parts = rel.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _layer_of(module: str | None) -> str | None:
    if module is None:
        return None
    best = None
    for layer, prefix in LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(LAYERS[best]):
                best = layer
    return best
