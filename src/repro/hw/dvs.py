"""The SA-1100 DVS table and frequency-scaling laws.

The Itsy's StrongARM SA-1100 supports 11 clock frequencies from 59 to
206.4 MHz. Fig. 7 of the paper lists the frequency/voltage pairs used
on the testbed; :data:`SA1100_TABLE` reproduces them verbatim.

Two modelling assumptions, both stated by the paper:

- *Performance scales linearly with clock rate* (§4.3: "the performance
  degrades linearly with the clock rate") — :meth:`DVSTable.scale_time`.
- *Communication delay does not depend on clock rate* (§6.3: "from our
  measurement communication delay does not increase at a lower clock
  rate") — the link model never consults the CPU frequency.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing as t

from repro.errors import ConfigurationError, InfeasiblePartitionError

__all__ = ["FrequencyLevel", "DVSTable", "SA1100_TABLE"]


@dataclasses.dataclass(frozen=True, order=True)
class FrequencyLevel:
    """One DVS operating point: a (frequency, core voltage) pair.

    Ordering and equality are by ``(mhz, volts)`` so levels sort by
    performance.
    """

    mhz: float
    volts: float

    @property
    def switching_activity(self) -> float:
        """CMOS dynamic-power proxy ``f * V^2`` (MHz * V^2).

        Dynamic power in CMOS is ``P = C * f * V^2``; the per-mode
        current model in :mod:`repro.hw.power` is affine in this value.
        """
        return self.mhz * self.volts * self.volts

    def as_dict(self) -> dict[str, float]:
        """JSON-stable form for telemetry records and exports."""
        return {"mhz": self.mhz, "volts": self.volts}

    def __str__(self) -> str:
        return f"{self.mhz:g} MHz @ {self.volts:g} V"


# Fig. 7 of the paper: 11 frequency levels with their core voltages.
SA1100_TABLE_LEVELS: tuple[FrequencyLevel, ...] = (
    FrequencyLevel(59.0, 0.919),
    FrequencyLevel(73.7, 0.978),
    FrequencyLevel(88.5, 1.067),
    FrequencyLevel(103.2, 1.067),
    FrequencyLevel(118.0, 1.126),
    FrequencyLevel(132.7, 1.156),
    FrequencyLevel(147.5, 1.156),
    FrequencyLevel(162.2, 1.215),
    FrequencyLevel(176.9, 1.304),
    FrequencyLevel(191.7, 1.363),
    FrequencyLevel(206.4, 1.393),
)


class DVSTable:
    """An ordered set of DVS operating points with lookup helpers.

    Parameters
    ----------
    levels:
        Frequency levels in strictly increasing frequency order.

    Raises
    ------
    ConfigurationError
        If the table is empty, unsorted, or contains duplicates.
    """

    def __init__(self, levels: t.Sequence[FrequencyLevel]):
        if not levels:
            raise ConfigurationError("DVS table must contain at least one level")
        freqs = [lv.mhz for lv in levels]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ConfigurationError(
                "DVS table frequencies must be strictly increasing"
            )
        if any(lv.volts <= 0 or lv.mhz <= 0 for lv in levels):
            raise ConfigurationError("frequencies and voltages must be positive")
        self.levels: tuple[FrequencyLevel, ...] = tuple(levels)
        self._freqs = freqs

    # -- basic lookups -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self) -> t.Iterator[FrequencyLevel]:
        return iter(self.levels)

    @property
    def min(self) -> FrequencyLevel:
        """Slowest operating point (59 MHz on the Itsy)."""
        return self.levels[0]

    @property
    def max(self) -> FrequencyLevel:
        """Fastest operating point (206.4 MHz on the Itsy)."""
        return self.levels[-1]

    def level_at(self, mhz: float) -> FrequencyLevel:
        """Return the level with exactly this frequency.

        Raises
        ------
        ConfigurationError
            If ``mhz`` is not in the table (the SA-1100 cannot run at
            arbitrary frequencies).
        """
        i = bisect.bisect_left(self._freqs, mhz)
        if i < len(self._freqs) and abs(self._freqs[i] - mhz) < 1e-9:
            return self.levels[i]
        raise ConfigurationError(
            f"{mhz} MHz is not an SA-1100 operating point; "
            f"valid: {', '.join(f'{f:g}' for f in self._freqs)}"
        )

    def ceil(self, mhz: float) -> FrequencyLevel:
        """Slowest level with frequency >= ``mhz`` (deadline rounding).

        This is how a required frequency derived from a timing budget is
        mapped onto real hardware: round *up* so the deadline still holds.

        Raises
        ------
        InfeasiblePartitionError
            If ``mhz`` exceeds the fastest level — the paper's scheme 3,
            which would need ~380 MHz.
        """
        if mhz > self._freqs[-1] + 1e-9:
            raise InfeasiblePartitionError(
                f"required {mhz:.1f} MHz exceeds the maximum clock rate "
                f"{self._freqs[-1]:g} MHz",
                required_mhz=mhz,
            )
        i = bisect.bisect_left(self._freqs, mhz - 1e-9)
        return self.levels[min(i, len(self.levels) - 1)]

    def floor(self, mhz: float) -> FrequencyLevel:
        """Fastest level with frequency <= ``mhz`` (clamps to the minimum)."""
        i = bisect.bisect_right(self._freqs, mhz + 1e-9) - 1
        return self.levels[max(i, 0)]

    def step_up(self, level: FrequencyLevel, steps: int = 1) -> FrequencyLevel:
        """The level ``steps`` positions faster (clamped at the maximum)."""
        i = self.levels.index(level)
        return self.levels[min(i + steps, len(self.levels) - 1)]

    def step_down(self, level: FrequencyLevel, steps: int = 1) -> FrequencyLevel:
        """The level ``steps`` positions slower (clamped at the minimum)."""
        i = self.levels.index(level)
        return self.levels[max(i - steps, 0)]

    def subsampled(self, step: int) -> "DVSTable":
        """A coarser table keeping every ``step``-th level.

        The slowest and fastest levels are always retained (the
        endpoints define the platform's range). Used by the
        level-granularity ablation: the paper's SA-1100 exposes 11
        points; how much would fewer (or more) matter?
        """
        if step < 1:
            raise ConfigurationError(f"step must be >= 1, got {step}")
        kept = list(self.levels[::step])
        if self.levels[-1] not in kept:
            kept.append(self.levels[-1])
        return DVSTable(kept)

    # -- scaling laws --------------------------------------------------
    def scale_time(self, seconds_at_max: float, level: FrequencyLevel) -> float:
        """Execution time of a task profiled at the fastest level.

        Linear performance scaling: a task taking ``seconds_at_max`` at
        ``self.max`` takes ``seconds_at_max * f_max / f`` at ``level``.
        """
        if seconds_at_max < 0:
            raise ConfigurationError("task time must be non-negative")
        return seconds_at_max * self.levels[-1].mhz / level.mhz

    def required_mhz(self, seconds_at_max: float, budget_seconds: float) -> float:
        """Continuous frequency needed to fit the task in ``budget_seconds``.

        The result is a *real* frequency; pass it to :meth:`ceil` to get
        an actual operating point. A non-positive budget with non-zero
        work is infeasible and returns ``inf``.
        """
        if seconds_at_max < 0:
            raise ConfigurationError("task time must be non-negative")
        if seconds_at_max == 0:
            return 0.0
        if budget_seconds <= 0:
            return float("inf")
        return self.max.mhz * seconds_at_max / budget_seconds


#: The table used by every experiment in the paper.
SA1100_TABLE = DVSTable(SA1100_TABLE_LEVELS)
