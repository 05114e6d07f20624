"""The machine's momentary speed, from a fixed piece of work that does not use guesslab.

On a shared host the same guesslab request can take half as long again from
one minute to the next, because other tenants share the cores and caches.
The worker therefore samples the machine's speed all through a round: a
``Ticker`` interrupts the work every ``TICK_S`` seconds of wall time and runs
``TICK_UNITS`` units of fixed work, about 5% of the time.  It runs after
set-up too.  A unit mixes the three kinds of work guesslab does:
big-integer products and hashing (the ``Dyadic`` levels), a scalar float
loop (golden section, Newton) and a numpy power sum.  ``run.py`` scales each
timing by ``REF_UNIT_S`` over the unit's measured time, so the end-to-end
times are seconds at a fixed reference speed: a faster guesslab lowers
them, a busier machine does not raise them.  The ticks' own time is taken
out of every latency and of the round's wall time.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

REF_UNIT_S = 2.0e-4  # one unit's time at the reference speed, about this machine's median
TICK_S = 0.02  # wall time between ticks
TICK_UNITS = 5  # units per tick: 1 ms at the reference speed
SETUP_UNITS = 250  # units timed right after set-up, 50 ms at the reference speed
WARMUP_UNITS = 25  # units run, untimed, before those
WINDOW_S = 0.2  # a request is scaled by the ticks within this much of it: 20 or more

_POWERS = np.linspace(1.0, 2.0, 10000)
# 8 MiB read at scattered places: guesslab's laws and caches outgrow the
# private caches, so its speed also depends on the shared cache and memory
_SPREAD = np.arange(1 << 20, dtype=np.float64)
_PLACES = np.random.default_rng(0).integers(0, 1 << 20, 2000)


def unit() -> None:
    """One unit of fixed work."""
    table = {}
    level = 3**200
    for i in range(150):
        level = (level * 1000003 + i) % (1 << 600)
        table[level] = (i, level >> 300)
    x = 0.5
    for _ in range(400):
        x = math.exp(-x) * 0.9 + 0.05
    float(np.sum(_POWERS**-1.37))
    float(_SPREAD[_PLACES].sum())


def run(units: int) -> float:
    """Seconds taken by `units` units."""
    t0 = perf_counter()
    for _ in range(units):
        unit()
    return perf_counter() - t0


def scale(cal_s: float, units: int) -> float:
    """Factor that turns seconds measured next to this calibration into reference seconds."""
    return REF_UNIT_S * units / cal_s


def local_scales(spans: list, marks: list) -> list[float]:
    """Each request's factor, from the ticks that started within WINDOW_S of its span.

    `spans` are the requests' (start, end) and `marks` the ticks' (start,
    time), on one clock.  A long request takes the ticks that interrupted
    it; a short one the ticks just around it, so its factor is the
    machine's speed at that moment, not the round's average.
    """
    factors = []
    for start, end in spans:
        took = [d for t, d in marks if start - WINDOW_S <= t <= end + WINDOW_S]
        if not took:
            raise ValueError(f"no calibration tick within {WINDOW_S} s of a request")
        factors.append(scale(math.fsum(took), TICK_UNITS * len(took)))
    return factors


class Ticker:
    """Runs TICK_UNITS units on a SIGALRM every TICK_S seconds while started.

    ``seconds`` and ``units`` accumulate the ticks' time and work, and
    ``marks`` holds each tick's start (``perf_counter``) and time.  Python
    runs the handler between bytecodes of the main thread, so a tick waits
    for a long C call to return; its time is measured inside the handler.
    """

    def __init__(self):
        self.seconds = 0.0
        self.units = 0
        self.marks: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        took = run(TICK_UNITS)
        self.marks.append((t0, took))
        self.seconds += took
        self.units += TICK_UNITS

    def start(self) -> None:
        self.seconds, self.units, self.marks = 0.0, 0, []
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
