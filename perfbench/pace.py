"""How fast the host runs right now, from a fixed reference kernel.

The benchmark's reference machine is 2 vCPUs of a shared host whose
speed drifts with its neighbours' load, by up to 1.8x over stretches of
tens of seconds to minutes.  A run cannot average over a stretch
longer than itself, so host times measured in different runs, or on
different commits, are not comparable as they stand.

:func:`kernel_s` times a small fixed workload that calls nothing from
the program: a heap of timestamped events dispatched to a few thousand
objects with per-object dicts (the interpreter work the simulator
does) and a pickle + zlib round trip of a nested document (the work a
checkpoint does).  :class:`Pace` times it between the measured steps,
and each step gets the factor that scales its host time to the
reference machine's speed: ``REFERENCE_S`` over the median of the
kernel timings taken within a few seconds of it.  A change to the
program moves a scaled time exactly as much as the raw one; a drift of
the host's speed moves the raw time and the kernel together.

One kernel timing is noisier than one step (it is short), so the
timings are pooled over a few seconds; what the scaling removes is the
drift between stretches of a run and between runs, which the medians
over a run would otherwise keep.
"""

from __future__ import annotations

import gc
import heapq
import pickle
import random
import zlib
from statistics import median
from time import perf_counter

#: Median :func:`kernel_s` on the reference machine (2 shared vCPUs,
#: Python 3.11.7): scaled times read in that machine's seconds.
REFERENCE_S = 0.050

_NODES = 2000
_CHUNKS = 5
_STEPS = 2000  # events per chunk


class _Event:
    __slots__ = ("at", "node", "data")

    def __init__(self, at: int, node: int, data) -> None:
        self.at = at
        self.node = node
        self.data = data

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


class _Node:
    def __init__(self, index: int) -> None:
        self.index = index
        self.state = {}
        self.count = 0

    def handle(self, event: _Event) -> int:
        self.count += 1
        self.state[event.node % 16] = event.data
        return event.at + 1 + (self.count * 7919 + self.index) % 97


# Built once and reused, so a timing does not depend on whether the
# allocator has free memory at hand after the step before it.
_nodes = [_Node(i) for i in range(_NODES)]
_events = [_Event(i, i, (i,)) for i in range(_NODES)]
_rng = random.Random(1)
_document = {i: {"a": [_rng.random() for _ in range(8)], "b": str(i) * 5,
                 "c": (i, 2 * i)} for i in range(400)}


def _chunk(queue: list) -> None:
    nodes = _nodes
    for _ in range(_STEPS):
        event = queue[0]
        event.at = nodes[event.node % _NODES].handle(event)
        event.node += 1
        heapq.heapreplace(queue, event)
    packed = zlib.compress(pickle.dumps(_document), 6)
    pickle.loads(zlib.decompress(packed))


def kernel_s() -> float:
    """Host time of the reference kernel: the median of ``_CHUNKS``
    timed chunks, times ``_CHUNKS``, so that one interruption does not
    count.  The collector is off while it runs."""
    for i, (node, event) in enumerate(zip(_nodes, _events)):
        node.count = 0
        event.at = event.node = i
    queue = list(_events)
    heapq.heapify(queue)
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_CHUNKS):
            started = perf_counter()
            _chunk(queue)
            times.append(perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return median(times) * _CHUNKS


class Pace:
    """Reference-kernel timings taken between the measured steps.

    ``mark()`` times the kernel and notes when.  ``factor(start, end)``
    scales a step that ran from *start* to *end* (``perf_counter``
    times): ``REFERENCE_S`` over the median of the kernel timings taken
    from ``WINDOW_S`` before the step to ``WINDOW_S`` after it, which
    always include the timings just before and just after it.  One
    timing is noisy; the median of the few around a step follows the
    host's drift without the noise of any one of them.
    """

    WINDOW_S = 3.0

    def __init__(self) -> None:
        self.marks: list = []  # (perf_counter when taken, kernel_s)

    def mark(self) -> None:
        taken = kernel_s()
        self.marks.append((perf_counter(), taken))

    def factor(self, start: float, end: float) -> float:
        near = [taken for at, taken in self.marks
                if start - self.WINDOW_S <= at <= end + self.WINDOW_S]
        return REFERENCE_S / median(near)
