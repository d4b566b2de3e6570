"""Per-mode battery-current model (the paper's Fig. 7).

The Itsy draws three distinct current levels depending on what it is
doing — *idle*, *communication*, *computation* — each rising with the
DVS operating point. Fig. 7 plots these three curves over the 11
frequency levels; the text quotes enough anchor points to pin them:

- curves "range from 30 mA to 130 mA" (§4.4);
- communication: 110 mA at 206.4 MHz, 40 mA at 59 MHz (§6.3),
  55 mA at 103.2 MHz (§6.5);
- computation "always dominates" and peaks at 130 mA;
- idle bottoms out at 30 mA at 59 MHz.

Each curve is affine in the CMOS dynamic-power proxy ``f * V^2``:

    I_mode(level) = static_ma + dynamic_ma_per_unit * f * V^2

which reproduces all quoted anchors (the 103.2 MHz comm point comes out
at 53.5 mA against the quoted ~55 mA) and interpolates the full table.

Effective I/O current
---------------------
The measured comm curve is *peak transfer* draw. During an I/O period
the CPU mostly waits on the ~80 Kbps serial port, so the effective
current sits near the idle curve. :class:`PowerModel` exposes an
``io_activity`` factor in [0, 1] interpolating between idle and comm
current; its calibrated value (see :mod:`repro.core.calibration`) is
~0.27, consistent with an 80 Kbps port serviced by a >59 MHz CPU.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as t

from repro.errors import ConfigurationError
from repro.hw.dvs import SA1100_TABLE, DVSTable, FrequencyLevel

__all__ = ["PowerMode", "CurrentCurve", "PowerModel", "PAPER_POWER_MODEL"]


class PowerMode(enum.Enum):
    """Operating mode of a node, in the paper's taxonomy (§4.4)."""

    IDLE = "idle"
    COMMUNICATION = "communication"
    COMPUTATION = "computation"
    #: Deep sleep (clock stopped, DRAM in self-refresh). The Itsy
    #: platform supports it; the paper's experiments never use it —
    #: the sleep-in-slack extension quantifies what it would buy.
    SLEEP = "sleep"
    #: Node whose battery is exhausted; draws nothing.
    DEAD = "dead"

    #: Members are singletons compared by identity, so identity hashing
    #: is consistent with equality — and runs in C, where Enum's default
    #: ``hash(self._name_)`` is a Python call on every dict lookup the
    #: node's per-transition path makes.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


@dataclasses.dataclass(frozen=True)
class CurrentCurve:
    """Affine current model ``I = static_ma + slope * f * V^2``.

    Attributes
    ----------
    static_ma:
        Frequency-independent draw (leakage, peripherals), mA.
    slope_ma_per_unit:
        Dynamic draw per MHz*V^2, mA.
    """

    static_ma: float
    slope_ma_per_unit: float

    def current_ma(self, level: FrequencyLevel) -> float:
        """Current at the given operating point, in mA."""
        return self.static_ma + self.slope_ma_per_unit * level.switching_activity

    @classmethod
    def through(
        cls, low: tuple[FrequencyLevel, float], high: tuple[FrequencyLevel, float]
    ) -> "CurrentCurve":
        """Fit the affine curve through two (level, current) anchors."""
        (lv_a, i_a), (lv_b, i_b) = low, high
        da, db = lv_a.switching_activity, lv_b.switching_activity
        if abs(db - da) < 1e-12:
            raise ConfigurationError("anchor levels must differ")
        slope = (i_b - i_a) / (db - da)
        return cls(static_ma=i_a - slope * da, slope_ma_per_unit=slope)


class PowerModel:
    """Battery-current lookup for a node: mode x frequency -> mA.

    Parameters
    ----------
    table:
        The DVS table the curves are defined over.
    idle, communication, computation:
        The three per-mode curves.
    io_activity:
        Fraction in [0, 1] interpolating *effective* I/O-period current
        between the idle curve (0) and the peak communication curve (1).
    sleep_ma:
        Frequency-independent deep-sleep draw. The Itsy hardware
        reports ~1-9 mW in sleep; 1 mA at the 4 V pack is a
        conservative default.
    """

    def __init__(
        self,
        table: DVSTable,
        idle: CurrentCurve,
        communication: CurrentCurve,
        computation: CurrentCurve,
        io_activity: float = 1.0,
        sleep_ma: float = 1.0,
    ):
        if not 0.0 <= io_activity <= 1.0:
            raise ConfigurationError(
                f"io_activity must be in [0, 1], got {io_activity}"
            )
        if sleep_ma < 0:
            raise ConfigurationError(f"sleep current must be >= 0: {sleep_ma}")
        self.table = table
        self.curves: dict[PowerMode, CurrentCurve] = {
            PowerMode.IDLE: idle,
            PowerMode.COMMUNICATION: communication,
            PowerMode.COMPUTATION: computation,
        }
        self.io_activity = io_activity
        self.sleep_ma = sleep_ma

    # -- queries -----------------------------------------------------------
    def current_ma(self, mode: PowerMode, level: FrequencyLevel) -> float:
        """Current draw in ``mode`` at ``level``.

        ``COMMUNICATION`` returns the *effective* I/O-period current
        (idle + io_activity * (comm_peak - idle)); use
        :meth:`peak_current_ma` for the raw Fig. 7 curve. ``DEAD``
        draws 0.
        """
        if mode is PowerMode.DEAD:
            return 0.0
        if mode is PowerMode.SLEEP:
            return self.sleep_ma
        if mode is PowerMode.COMMUNICATION:
            idle = self.curves[PowerMode.IDLE].current_ma(level)
            peak = self.curves[PowerMode.COMMUNICATION].current_ma(level)
            return idle + self.io_activity * (peak - idle)
        return self.curves[mode].current_ma(level)

    def peak_current_ma(self, mode: PowerMode, level: FrequencyLevel) -> float:
        """The raw Fig. 7 curve value (no io_activity adjustment)."""
        if mode is PowerMode.DEAD:
            return 0.0
        if mode is PowerMode.SLEEP:
            return self.sleep_ma
        return self.curves[mode].current_ma(level)

    def replace(self, **kwargs: t.Any) -> "PowerModel":
        """Return a copy with some attributes replaced (e.g. io_activity)."""
        return PowerModel(
            table=kwargs.get("table", self.table),
            idle=kwargs.get("idle", self.curves[PowerMode.IDLE]),
            communication=kwargs.get(
                "communication", self.curves[PowerMode.COMMUNICATION]
            ),
            computation=kwargs.get("computation", self.curves[PowerMode.COMPUTATION]),
            io_activity=kwargs.get("io_activity", self.io_activity),
            sleep_ma=kwargs.get("sleep_ma", self.sleep_ma),
        )

    # -- Fig. 7 reproduction ------------------------------------------------
    def figure7_rows(self) -> list[dict[str, float]]:
        """The Fig. 7 table: one row per frequency level.

        Each row carries the frequency, voltage, and the three *peak*
        per-mode currents (what the paper's power monitor plots).
        """
        rows = []
        for level in self.table:
            rows.append(
                {
                    "freq_mhz": level.mhz,
                    "volts": level.volts,
                    "idle_ma": self.peak_current_ma(PowerMode.IDLE, level),
                    "communication_ma": self.peak_current_ma(
                        PowerMode.COMMUNICATION, level
                    ),
                    "computation_ma": self.peak_current_ma(
                        PowerMode.COMPUTATION, level
                    ),
                }
            )
        return rows


def _paper_model() -> PowerModel:
    """Build the Fig. 7 model from the paper's quoted anchors."""
    tbl = SA1100_TABLE
    lo, mid, hi = tbl.level_at(59.0), tbl.level_at(103.2), tbl.level_at(206.4)
    comm = CurrentCurve.through((lo, 40.0), (hi, 110.0))
    # Quoted mid anchor is a consistency check, not a fit input:
    assert abs(comm.current_ma(mid) - 55.0) < 2.0
    comp = CurrentCurve(static_ma=32.0, slope_ma_per_unit=(130.0 - 32.0) / hi.switching_activity)
    # Idle anchors: 30 mA at 59 MHz (quoted curve floor); the 206.4 MHz
    # idle point (38.23 mA) and io_activity (0.2719) are calibrated
    # jointly with the battery parameters against five of the paper's
    # measured lifetimes — (0A), (0B), (1), (1A) and (2) — see
    # repro.core.calibration and DESIGN.md.
    idle = CurrentCurve.through((lo, 30.0), (hi, 38.23))
    return PowerModel(tbl, idle=idle, communication=comm, computation=comp, io_activity=0.27185)


#: Power model matching the paper's Fig. 7 anchors, with the calibrated
#: effective-I/O activity factor.
PAPER_POWER_MODEL = _paper_model()
