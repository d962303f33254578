"""Per-layer spans for the traced benchmark run.

The traced run (``--trace 1``) wraps the public entry points of each
layer, from this file, and accounts host time per wrapped name:

* ``calls`` — how often the layer was entered;
* ``self`` — wall time inside the call minus the part covered by
  nested wrapped calls on the same thread (a layer's own cost).

Spans nest per thread: the gateway child runs the bridge thread and
the asyncio thread concurrently, and each keeps its own stack.

:class:`EventClock` adds a second view for fleet drives: a kernel
trace hook (``Simulator.add_trace_hook``) charges the host time
between consecutive events to the layer owning the event that ran,
using the profiler's event-name-to-layer map.  It sees every event, so
its layer shares add up to the whole drive.

Nothing here changes what is simulated; the benchmark proves it by
comparing traced digests with untraced ones.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, Optional

#: Event names of the duty-cycled samplers (repro.fleet.sampling),
#: charged to their own ``sampling`` layer by :class:`EventClock`.
SAMPLING_EVENTS = ("sensor-sample", "baseline-accrue")


class LayerTracer:
    """Call counts and self time per wrapped layer function."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Extra sums noted from arguments/results (bytes, events, n).
        self.sums: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # ------------------------------------------------------------ accounting
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, elapsed: float, covered: float) -> None:
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += elapsed - covered

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable] = None) -> Callable:
        """A timing wrapper around *fn*; ``note(args, result)`` may add
        to :attr:`sums` after each call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer._close(name, elapsed, frame[0])
            if note is not None:
                note(tracer.sums, args, result)
            return result

        return wrapper

    def wrap_reader_coroutine(self, name: str, fn: Callable) -> Callable:
        """Wrap ``async fn(reader)`` counting only its own CPU segments.

        The wall time of an awaited socket read is mostly waiting for
        the peer, so the reader is proxied: the time spent inside
        ``readuntil``/``readexactly`` awaits is excluded, which leaves
        the parse work that runs between them.
        """
        tracer = self

        @functools.wraps(fn)
        async def wrapper(reader):
            proxy = _TimedReader(reader)
            started = perf_counter()
            try:
                return await fn(proxy)
            finally:
                elapsed = perf_counter() - started
                tracer._close(name, elapsed, proxy.waited)

        return wrapper

    # --------------------------------------------------------------- patching
    def patch_attr(self, owner, attr: str, name: str,
                   note: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a class method or static method)."""
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__, note))
        else:
            wrapped = self.wrap(name, raw, note)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def patch_function(self, fn: Callable, name: str, *,
                       coroutine_reader: bool = False) -> None:
        """Replace module-level *fn* everywhere the program bound it by
        name (``from x import fn`` copies the reference)."""
        wrapped = (self.wrap_reader_coroutine(name, fn) if coroutine_reader
                   else self.wrap(name, fn))
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, fn))

    def unpatch(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # ---------------------------------------------------------------- reading
    def snapshot(self) -> dict:
        with self._lock:
            return {"calls": dict(self.calls), "self": dict(self.self_s),
                    "sums": dict(self.sums)}

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.self_s.clear()
            self.sums.clear()


class _TimedReader:
    """Stream-reader proxy that sums time spent awaiting socket data."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.waited = 0.0

    async def readuntil(self, separator):
        started = perf_counter()
        try:
            return await self._reader.readuntil(separator)
        finally:
            self.waited += perf_counter() - started

    async def readexactly(self, n):
        started = perf_counter()
        try:
            return await self._reader.readexactly(n)
        finally:
            self.waited += perf_counter() - started


# ------------------------------------------------------------------- notes
def _note_events(sums, args, result) -> None:
    sums["sim.events"] += result


def _note_datagram(sums, args, result) -> None:
    sums["net.bytes_sent"] += args[2].size


def _note_tick(sums, args, result) -> None:
    sums["sampling.ticks"] += 1


def _note_apply(sums, args, result) -> None:
    sums["sampling.ticks"] += args[1]


def install(tracer: LayerTracer, *, wire: bool = False) -> None:
    """Wrap every layer's public entry points (before fleets are built:
    sampler and telemetry callbacks are bound at registration)."""
    from repro.core.client import Client
    from repro.dsl.compiler import compile_source
    from repro.fleet.metrics import Metrics
    from repro.fleet.runner import live_shards
    from repro.fleet.sampling import BaselineAccrual, SensorSampler
    from repro.net.network import Network
    from repro.net.stack import NetworkStack
    from repro.sim.kernel import Simulator
    from repro.snapshot.checkpoint import load_shard, save_shard
    from repro.telemetry.collector import ShardTelemetry
    from repro.vm.machine import VirtualMachine

    tracer.patch_attr(Simulator, "run_until", "sim", _note_events)
    tracer.patch_attr(VirtualMachine, "execute", "vm.execute")
    tracer.patch_attr(Network, "send", "net.send", _note_datagram)
    tracer.patch_attr(NetworkStack, "deliver", "net.deliver")
    tracer.patch_attr(Client, "read", "core.read")
    for cls in (SensorSampler, BaselineAccrual):
        tracer.patch_attr(cls, "tick", "sampling", _note_tick)
        tracer.patch_attr(cls, "apply", "sampling", _note_apply)
    tracer.patch_attr(ShardTelemetry, "sample", "telemetry.sample")
    tracer.patch_attr(Metrics, "merge", "fleet.merge")
    tracer.patch_function(compile_source, "dsl.compile")
    tracer.patch_function(live_shards, "fleet.setup")
    tracer.patch_function(save_shard, "snapshot.save")
    tracer.patch_function(load_shard, "snapshot.restore")
    if wire:
        from repro.gateway.wire import read_request, response_bytes

        # The server bound both names at import; patch_function swaps
        # them in every repro module, the server's namespace included.
        tracer.patch_function(read_request, "gateway.wire",
                              coroutine_reader=True)
        tracer.patch_function(response_bytes, "gateway.wire")


class EventClock:
    """Kernel trace hook charging host time to the layer of each event.

    The time from one event's hook call to the next is charged to the
    first event's layer; :meth:`stop` closes the last interval when a
    ``run_until`` returns.  Pickles as a fresh, empty clock, so a
    checkpoint taken from a traced fleet stays the size of an untraced
    one.
    """

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.events: Counter = Counter()
        self._layer: Optional[str] = None
        self._since = 0.0

    def __reduce__(self):
        return (EventClock, ())

    def _charge(self, name: str, n: int) -> None:
        now = perf_counter()
        if self._layer is not None:
            self.busy[self._layer] += now - self._since
        self._layer = layer_of(name)
        self._since = now
        self.events[name] += n

    def hook(self, time_ns: int, name: str) -> None:
        self._charge(name, 1)

    def bulk(self, time_ns: int, name: str, n: int) -> None:
        self._charge(name, n)

    def stop(self) -> None:
        if self._layer is not None:
            self.busy[self._layer] += perf_counter() - self._since
        self._layer = None


@functools.lru_cache(maxsize=None)
def layer_of(name: str) -> str:
    """Layer owning a kernel event name (profiler map plus sampling)."""
    from repro.profile.collector import layer_for

    return "sampling" if name in SAMPLING_EVENTS else layer_for(name)
