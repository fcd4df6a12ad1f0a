"""Calibrated host time: wall seconds scaled by how fast the host was.

The hosts this benchmark runs on are shared: the same pure-Python loop
takes 1x–2x as long from one ten-second stretch to the next, CPU time
tracks wall time (the cores get slower, the process is not descheduled),
and the drift is slower than a run, so neither repeats nor medians remove
it.  What does remove it is measuring the host while the workload runs.

:class:`Calibrator` arms a one-shot interval timer; every ``PERIOD_S`` of
wall time its signal handler — which Python runs in the main thread,
between two bytecodes of the workload — times two fixed reference kernels
that belong to the benchmark and share no code with ``repro``:

* ``_kernel_arith`` — integer arithmetic in a tight loop (tracks core
  clock and SMT contention);
* ``_kernel_objects`` — attribute, method, dict and tuple traffic over a
  few MB of small objects (tracks cache and memory contention).

The host's *relative speed* at that instant is the geometric mean of
``nominal ÷ measured`` over the two kernels, raised to ``SENSITIVITY``: on
the seed host the six workloads' run times regress on the kernels' with
exponents of 1.0–1.35 (the simulator's working set is larger than the
kernels', so contention costs it a little more).  Two things follow:

* :meth:`clock` is wall time minus the time spent inside the handler, so
  the samples cost the measured program nothing it can see;
* :meth:`calibrated` turns an interval of that clock into **calibrated
  seconds**: its length times the mean relative speed sampled inside it —
  the seconds the same work takes on a host running at nominal speed.

Measured on the seed host over twelve single runs of each of five
workloads, the quartile spread of raw wall seconds was 16–33 % of the
median (fastest to slowest 1.3–1.8x) and that of calibrated seconds 4–5 %
(1.06–1.19x).  Nominal speed is a fixed constant (an idle core of the seed
host), so calibrated figures compare across runs and commits; raw wall
seconds are reported beside them.

The handler re-arms the timer only when it is done: a host too slow to
finish the kernels within one period loses samples, never progress.
"""

from __future__ import annotations

import math
import signal
import time
from typing import Callable, List, Tuple

__all__ = ["Calibrator"]

#: Wall seconds between samples (≈11 % duty at nominal speed).
PERIOD_S = 0.04

#: Seconds each kernel takes on an idle core of the seed host (2.1 GHz
#: Xeon, CPython 3.11).  With ``SENSITIVITY`` they fix the unit of
#: calibrated time: changing any of the three rescales every host-time
#: metric, so they are part of the benchmark's contract.
ARITH_NOMINAL_S = 1.70e-3
OBJECTS_NOMINAL_S = 2.40e-3

#: Exponent from kernel slow-down to simulator slow-down (see above).
SENSITIVITY = 1.2

_ARITH_STEPS = 25_000
_OBJECT_COUNT = 20_000
_OBJECT_VISITS = 5_000


class _Cell:
    __slots__ = ("a", "b", "pair")

    def __init__(self, index: int):
        self.a = index
        self.b = index * 3
        self.pair = (index, index + 1)

    def total(self) -> int:
        return self.a + self.b


def _kernel_arith() -> int:
    total = 0
    for index in range(_ARITH_STEPS):
        total += index * index % 7
    return total


class Calibrator:
    """Samples host speed on a timer while the measured program runs."""

    def __init__(self, timer: Callable[[], float] = time.perf_counter):
        self._timer = timer
        self._paused = 0.0
        self._armed = False
        #: ``(clock time, relative speed)`` per sample
        self.samples: List[Tuple[float, float]] = []
        # The object kernel's working set: built once, never mutated, and
        # visited in a fixed scattered order.  Nothing here allocates
        # GC-tracked objects, so the collector's schedule is untouched.
        self._cells = [_Cell(index) for index in range(_OBJECT_COUNT)]
        self._index = {index * 7: index for index in range(_OBJECT_COUNT)}
        self._visits = [
            (step * 7919 + 13) % _OBJECT_COUNT for step in range(_OBJECT_VISITS)
        ]

    def _kernel_objects(self) -> int:
        cells, index = self._cells, self._index
        total = 0
        for visit in self._visits:
            cell = cells[visit]
            total += cell.total()
            total += index.get(cell.b, 0)
            if cell.pair[1] < total:
                total += 1
        return total

    # -- the clock ------------------------------------------------------------
    def clock(self) -> float:
        """Wall seconds, not counting time spent taking samples."""
        return self._timer() - self._paused

    def start(self) -> None:
        """Begin sampling (a no-op where interval timers do not exist)."""
        if not hasattr(signal, "setitimer"):
            return
        signal.signal(signal.SIGALRM, self._sample)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        if self._armed:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum=None, frame=None) -> None:
        timer = self._timer
        started = timer()
        _kernel_arith()
        between = timer()
        self._kernel_objects()
        finished = timer()
        speed = math.sqrt(
            (ARITH_NOMINAL_S / (between - started))
            * (OBJECTS_NOMINAL_S / (finished - between))
        ) ** SENSITIVITY
        self.samples.append((started - self._paused, speed))
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self._paused += timer() - started

    # -- reading --------------------------------------------------------------
    def speed(self, start: float, end: float) -> float:
        """Mean relative host speed over ``[start, end]`` of :meth:`clock`
        (over the whole run when no sample fell inside; 1.0 with none)."""
        inside = [s for at, s in self.samples if start <= at <= end]
        if not inside:
            inside = [s for _, s in self.samples]
        return sum(inside) / len(inside) if inside else 1.0

    def calibrated(self, start: float, end: float) -> float:
        """``end - start`` of :meth:`clock`, in calibrated seconds."""
        return (end - start) * self.speed(start, end)
