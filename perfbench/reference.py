"""A fixed piece of reference work that scales measured times to one speed.

The machine this benchmark was written on runs the same pure-Python code up
to 1.6x faster or slower from one stretch of seconds to the next, for every
process alike (other guests on the host share its cores).  A query's wall
time alone therefore says as much about the host's load as about the
program.  So a measuring process also runs a *slice* of fixed work that
uses nothing from ``prologtheta`` before and after its set-up and then
every ``EVERY_S`` seconds of measured work, and scales each of its times
by ``SLICE_S`` over the median time of its slices.  A scaled time is the
time the work would take on a machine where one slice takes ``SLICE_S``:
it moves when the program gets faster or slower, and much less when the
host does.  The median, not each slice on its own, because a single slice
also flickers by up to 1.5x.

The slice is half object, tuple, dict and generator traffic with
recursion, half a plain integer loop.  Timed next to the workloads in
stretches of 5 to 10 seconds on that machine, the first half alone tracked
``closure`` and ``fuzz`` but over-corrected ``nrev`` (which slows down less
than it when the host is busy), and the second half alone tracked ``nrev``
but not ``fuzz``.  The two together tracked all three: the standard
deviation of log time went from 0.13-0.21 unscaled to 0.05-0.09 scaled.
"""

from __future__ import annotations

import statistics
from time import perf_counter

SLICE_S = 0.05  # a slice's time at the reference speed
EVERY_S = 0.5  # measured work between two slices
_SLICE_ITEMS = 600  # of object traffic
_SLICE_STEPS = 250_000  # of the integer loop


class _Node:
    __slots__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = args


def _nest(term, depth: int) -> tuple:
    if depth == 0:
        return (term,)
    return _nest(_Node("f", (term, depth)), depth - 1) + (depth,)


def _rows(n: int):
    for i in range(n):
        yield {"key": f"k{i}", "pair": (i, i + 1)}


def reference_work() -> int:
    """The slice: a fixed amount of interpreter work, deterministic."""
    total = 0
    seen = {}
    for j in range(_SLICE_ITEMS):
        total += len(_nest(j, 60))
        for row in _rows(50):
            if isinstance(row["pair"], tuple):
                seen[row["key"]] = row["pair"][1]
        total += len(seen)
    for i in range(_SLICE_STEPS):
        total += i * i % 7
    return total


class Slices:
    """The slices of one process: one when made, then one on each ``tick``
    that comes ``EVERY_S`` or more after the last."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.run()

    def run(self) -> None:
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.times.append(end - start)
        self.next_at = end + EVERY_S

    def tick(self) -> None:
        if perf_counter() >= self.next_at:
            self.run()

    def factor(self) -> float:
        """What a time measured in this process is multiplied by."""
        return SLICE_S / statistics.median(self.times)
