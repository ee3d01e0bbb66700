"""Speed correction: time the program against a fixed probe run beside it.

On a shared machine the speed of a core changes by tens of percent from one
second to the next (other tenants on the same physical core, clock changes),
and it moves every timing of a run alike. The benchmark therefore samples
the machine's speed while it times the jobs: an interval timer interrupts
the running job every SAMPLE_EVERY_S seconds, and the signal handler runs a
short fixed probe, which is the benchmark's own code and calls nothing of
ncgram. The probe's time is taken out of the job's time, and a job's
corrected time is

    raw seconds * REFERENCE_PROBE_S / (mean probe time during the job)

that is, its seconds at the speed the machine had when the reference was
measured. A change to ncgram moves the job but not the probe, so it shows in
full; a change of the machine's speed moves both, and cancels. Short jobs
use the probes just before and after them.

The probe mixes what the workloads spend their time on: small union-find
loops over lists, tuple keys in dicts, exact arithmetic on integers of a few
thousand bits, and small frozen dataclass instances hashed and sorted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass

#: Seconds between two probes while a pass runs; one probe takes about a
#: thirtieth of this.
SAMPLE_EVERY_S = 0.05

#: A job's speed is the mean over the probes within MIN_WINDOW_S seconds
#: centred on it, or within the job if it runs longer, and the nearest probe
#: on each side. The speed changes within a second, so near probes predict
#: it best; fewer than about ten, and the probes' own noise shows.
MIN_WINDOW_S = 0.5

#: Probe times are capped at this multiple of the median probe time.
OUTLIER = 2.0


@dataclass(frozen=True)
class _Shape:
    blocks: tuple[int, ...]
    upper: int


def _probe_work() -> int:
    acc = 0
    table: dict[tuple[int, ...], int] = {}
    for block in range(12):
        parent = list(range(24))
        for i in range(24):
            j = (i * 7 + block) % 24
            a, b = i, j
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[max(a, b)] = min(a, b)
        key = tuple(parent[:8])
        table[key] = table.get(key, 0) + 1
        acc += len(table)
    x, y = 3**2000 + 1, 5**1500 + 7
    for i in range(15):
        x, y = (x * y + i) // (y - i), x % y + y
    shapes: dict[_Shape, int] = {}
    made = []
    for i in range(200):
        shape = _Shape(tuple((i >> k) & 3 for k in range(8)), i & 1)
        shapes[shape] = shapes.get(shape, 0) + 1
        made.append(shape)
    made.sort(key=lambda shape: shape.blocks)
    return acc + x.bit_length() + len(shapes)


def capped_mean(took: list[float], median: float | None = None) -> float:
    """Mean of probe times, each capped at OUTLIER times the median.

    A probe that an interrupt or another process stretched cannot swing the
    mean of a few probes; the median is that of `took` unless given.
    """
    cap = OUTLIER * (statistics.median(took) if median is None else median)
    return statistics.fmean(min(t, cap) for t in took)


def probe() -> float:
    """Seconds one run of the fixed probe takes now."""
    began = time.perf_counter()
    _probe_work()
    return time.perf_counter() - began


class Timeline:
    """Probe times of one pass, by the moment each probe ran."""

    def __init__(self, call=lambda name, fn: fn()) -> None:
        self.call = call  # call(name, fn) runs one probe; a tracer's span fits
        self.at: list[float] = []  # probe midpoints, ascending
        self.took: list[float] = []
        self.spent = 0.0  # seconds spent in probes so far

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            began = time.perf_counter()
            self.took.append(self.call("speed.probe", probe))
            ended = time.perf_counter()
            self.at.append((began + ended) / 2)
            self.spent += ended - began

    def local(self, start: float, end: float) -> float:
        """Capped mean probe time around the interval [start, end] (see MIN_WINDOW_S)."""
        widen = max(0.0, MIN_WINDOW_S - (end - start)) / 2
        lo = max(0, bisect.bisect_left(self.at, start - widen) - 1)
        hi = bisect.bisect_right(self.at, end + widen) + 1
        return capped_mean(self.took[lo:hi], statistics.median(self.took))

    def sampling(self) -> "_Sampling":
        """Context manager: probe every SAMPLE_EVERY_S seconds from a SIGALRM timer."""
        return _Sampling(self)


class _Sampling:
    def __init__(self, timeline: Timeline) -> None:
        self.timeline = timeline
        self.previous = None

    def _handler(self, signum, frame) -> None:
        self.timeline.sample()

    def __enter__(self) -> Timeline:
        self.previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self.timeline

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
