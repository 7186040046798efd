"""Machine-speed-normalised timing for a shared, drifting host.

On a few vCPUs of a shared host the same execution can take 1.7x longer for
minutes at a time when neighbours load the machine, which no median over a
run removes. :class:`SpeedClock` measures how fast the machine is *while*
the program runs: a ``SIGALRM`` interval timer interrupts the main thread
every ``INTERVAL_S`` and times a fixed pure-Python probe loop. A region's
normalised time is its wall time, minus the time spent in probes, times the
mean probe speed during it (``REFERENCE_PROBE_S`` / probe duration), that
is, the seconds the region would have taken at the reference speed.

The probe is the benchmark's own code, so a change to the engine moves the
normalised time by the same factor as the raw one; only the machine's drift
cancels, and only as far as the probe slows down with the engine. On a
2-vCPU x86-64 host it cut the spread of one input's execution times from
0.15 to 0.05 (interquartile range over median). The probe runs only in
untraced runs (it would otherwise land in some layer's self time).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.01
"""Wall time between probes."""

PROBE_ITERATIONS = 200

REFERENCE_PROBE_S = 250e-6
"""The probe's duration at the reference speed: about its typical duration
between engine calls (caches cold) on a 2-vCPU x86-64 host under CPython
3.11. Normalised times are seconds at that speed."""

MIN_SAMPLES = 4
"""A region shorter than this many probes borrows the nearest ones."""


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int) -> int:
        self.value += amount
        return self.value


_CELL = _Cell()
_HEAP_SIZE = 1 << 20
_HEAP: list[int] = []
"""A million distinct int objects (about 36 MB), read at random so each
probe also waits on memory the way the engine's object graphs do."""


def _probe() -> int:
    """A mix of calls, attribute and dict access and integer arithmetic
    (which contention for a core slows) and random reads of ``_HEAP``
    (which contention for caches and memory slows): one of these alone
    tracks the engine's slowdown only about half as well. It allocates no
    object the garbage collector tracks, so it never triggers a collection
    of the program's objects."""
    table: dict[int, int] = {}
    bump = _CELL.bump
    heap = _HEAP
    index = 12345
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = (i & 31) * 8 + i % 7
        table[key] = table.get(key, 0) + i
        acc += bump(i & 3) + (i * i) % 5
        index = (index * 1103515245 + 12345) & (_HEAP_SIZE - 1)
        acc += heap[index]
    return acc


@dataclass
class Region:
    start: float
    end: float
    probe_s: float
    """Time spent inside probes between ``start`` and ``end``."""

    @property
    def net_s(self) -> float:
        return self.end - self.start - self.probe_s


class SpeedClock:
    """Samples machine speed on a timer and normalises measured regions."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.speeds: list[float] = []
        self.probe_total_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        end = time.perf_counter()
        self.stamps.append(start)
        self.speeds.append(REFERENCE_PROBE_S / (end - start))
        self.probe_total_s += end - start

    def start(self) -> None:
        if not _HEAP:
            _HEAP.extend(range(_HEAP_SIZE))
        _probe()  # warm the probe's code path before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        # Restart interrupted system calls (SQLite I/O) instead of failing them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> "SpeedClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.probe_total_s

    def region(self, mark: tuple[float, float]) -> Region:
        start, probe_before = mark
        return Region(start, time.perf_counter(), self.probe_total_s - probe_before)

    def speed(self, region: Region) -> float:
        """Mean probe speed during ``region`` (1.0 = reference speed); a
        short region uses the ``MIN_SAMPLES`` probes nearest to it."""
        lo = bisect.bisect_left(self.stamps, region.start)
        hi = bisect.bisect_right(self.stamps, region.end)
        if hi - lo < MIN_SAMPLES:
            middle = (lo + hi) // 2
            lo = max(0, middle - MIN_SAMPLES // 2)
            hi = min(len(self.speeds), lo + MIN_SAMPLES)
            lo = max(0, hi - MIN_SAMPLES)
        if hi <= lo:
            return 1.0
        return statistics.fmean(self.speeds[lo:hi])

    def normalised(self, region: Region) -> float:
        return region.net_s * self.speed(region)
