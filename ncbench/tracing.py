"""Spans around the benchmark's calls into each ncgram layer.

A traced pass swaps selected public functions of the ncgram modules for
timing wrappers, runs the workload, and restores the originals. Spans are
kept in memory as (name, start, end, parent) records; a layer's self time
is its span's duration minus the part of that interval its child spans
cover. Counts (entries built, partitions enumerated, determinant bits) are
taken in the same wrappers, from the values the functions return.

Untraced passes never install the wrappers, so end-to-end timings carry no
tracing cost; the difference between the two passes is reported as the
tracing overhead.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list; None for a root span


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name.

    Self time is a span's duration minus the union of its children's
    intervals, clipped to the span, so overlapping children are not
    subtracted twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    totals: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[s.name] += (s.end - s.start) - covered
    return dict(totals)


def bareiss_updates(size: int) -> int:
    """Dense Bareiss entry updates for a size×size matrix: Σ_k (size−1−k)²."""
    return sum((size - 1 - k) ** 2 for k in range(size))


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _stack: list[int] = field(default_factory=list)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            s = self.spans[index]
            self.spans[index] = Span(s.name, s.start, time.perf_counter(), s.parent)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount


class Untraced:
    """Stand-in for a Tracer in untraced passes: a span is a plain call."""

    def span(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _count_enumerated(tracer: Tracer, result, args) -> None:
    tracer.count("partitions.enumerated", len(result))


def _count_gram(tracer: Tracer, result, args) -> None:
    tracer.count("gram.entries", result.nrows * result.ncols)


def _count_A(tracer: Tracer, result, args) -> None:
    tracer.count("tutte.A_entries", result.nrows * result.ncols)


def _count_trace(tracer: Tracer, result, args) -> None:
    tracer.count("tutte.recursion_levels", len(result[1]))


def _count_det(tracer: Tracer, result, args) -> None:
    tracer.count("kernels.det_updates", bareiss_updates(len(args[0])))
    if isinstance(result, (int, Fraction)):
        tracer.count("kernels.det_bits", abs(int(result)).bit_length())


# (module, function, span name, counter). `_strata_counts` is private, but
# it is the strata computation inside `recursion_trace`; wrapping it keeps
# that work out of `tutte.recursion_s`.
TARGETS = [
    ("partitions", "enumerate_partitions", "partitions.enumerate", _count_enumerated),
    ("gram", "build_gram", "gram.build_gram", _count_gram),
    ("kernels", "det_exact", "kernels.det", _count_det),
    ("tutte", "build_A", "tutte.build_A", _count_A),
    ("tutte", "w_stratum", "tutte.strata", None),
    ("tutte", "y_stratum", "tutte.strata", None),
    ("tutte", "_strata_counts", "tutte.strata", None),
    ("tutte", "recursion_trace", "tutte.recursion", _count_trace),
    ("tensor_model", "check_functor_laws", "tensor_model.laws", None),
]


def _wrap(tracer: Tracer, fn, name: str, counter):
    def traced(*args, **kwargs):
        result = tracer.span(name, fn, *args, **kwargs)
        if counter is not None:
            counter(tracer, result, args)
        return result

    return traced


class installed:
    """Context manager: every ncgram module sees the traced functions.

    Each original function is replaced wherever an ncgram module holds a
    reference to it (its home module and every `from ... import` of it),
    and put back on exit.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = [m for n, m in sys.modules.items() if n == "ncgram" or n.startswith("ncgram.")]
        for home, attr, name, counter in TARGETS:
            original = getattr(sys.modules[f"ncgram.{home}"], attr)
            traced = _wrap(self.tracer, original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.saved.append((module, key, original))
                        setattr(module, key, traced)
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, key, original in reversed(self.saved):
            setattr(module, key, original)
        self.saved.clear()
