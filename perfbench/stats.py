"""End-to-end statistics over the ops of one run.

Every time comes in two forms.  ``seconds`` is wall time.  ``scaled`` is
wall time divided by how slow the machine ran at that moment: the time of
a fixed calibration loop measured right before and after the op, over
`REFERENCE_S`, the loop's time on an unloaded machine.  On a shared
machine whose speed drifts by half or more over seconds, the scaled
figures repeat from run to run where the raw ones do not; a change to the
program moves both alike, because the loop is the benchmark's own code.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_S = 0.0025


def calibrate() -> float:
    """Seconds for a fixed loop of the work the program itself does most:
    Fraction arithmetic, dict updates and int operations."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    table: dict[int, int] = {}
    for i in range(1, 300):
        x = (x * Fraction(i, i + 1) + Fraction(1, i)) % 7
        table[i & 63] = table.get(i & 63, 0) + i * i
    return time.perf_counter() - start


@dataclass(frozen=True)
class Outcome:
    """One op: its wall time, why it failed (None when it succeeded), the
    size of its stdout, and the calibration loop's time around it."""

    key: str
    seconds: float
    failure: str | None = None
    stdout_bytes: int = 0
    calibration: float = REFERENCE_S

    @property
    def scaled(self) -> float:
        return self.seconds * REFERENCE_S / self.calibration


def _times(outcomes: list[Outcome], scaled: bool) -> list[float]:
    return [o.scaled if scaled else o.seconds for o in outcomes]


def percentile(outcomes: list[Outcome], q: float, scaled: bool = False) -> float:
    """Percentile of op latency in seconds, interpolated linearly between
    the two nearest ranks (``statistics.quantiles``' inclusive method).

    A failed op ranks as slower than every successful op.  When the
    percentile reaches a failed op the value is the run's total op time,
    which no single successful op can exceed.
    """
    if not outcomes:
        raise ValueError("no ops")
    times = _times(outcomes, scaled)
    ranked = sorted(math.inf if o.failure else t for o, t in zip(outcomes, times))
    h = (len(ranked) - 1) * q
    lo = math.floor(h)
    value = ranked[lo] if h == lo else ranked[lo] + (h - lo) * (ranked[lo + 1] - ranked[lo])
    return sum(times) if value == math.inf else value


def failed_frac(outcomes: list[Outcome]) -> float:
    return sum(1 for o in outcomes if o.failure) / len(outcomes)


def throughput(outcomes: list[Outcome], scaled: bool = False) -> float:
    """Successful ops per second of time spent inside the program."""
    return sum(1 for o in outcomes if not o.failure) / sum(_times(outcomes, scaled))
