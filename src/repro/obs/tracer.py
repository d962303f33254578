"""The tracing core: spans, instants, trace-id propagation, ring buffer.

One :class:`Tracer` serves one :class:`~repro.sim.kernel.Simulator`
(hence one fleet shard).  Instrumentation points throughout the stack
fetch it as ``sim.tracer`` and guard every record with
:meth:`Tracer.enabled_for`, so a ``None`` tracer (the default) costs a
single attribute check and an enabled tracer only records the
categories it was asked for.

Causality is tracked with integer *trace ids*:

* a root operation (client read, driver install) allocates one with
  :meth:`new_trace` and makes it :attr:`current`;
* :meth:`Simulator.schedule` captures :attr:`current` into the
  scheduled event and the kernel restores it while the event's
  callback runs, so the id follows every split-phase hop — stack CPU
  delays, radio frames, router dispatches, bus completions;
* protocol endpoints additionally pin ids to message sequence numbers
  (:meth:`bind_seq` / :meth:`trace_for_seq`), the same seq field the
  µPnP wire protocol uses to associate requests with replies, so a
  trace can be re-adopted from the wire even where no scheduler
  context survives (and across multicast fan-out, where one send
  context reaches every group member).

Events are recorded into a bounded ring (oldest evicted first) and are
pickle-safe via :meth:`snapshot`, which is how per-shard traces travel
back from fleet worker processes for the deterministic shard-order
merge.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

#: Categories recorded by default (fleet ``--trace`` runs).  The
#: ``kernel`` firehose (one instant per simulator event) is opt-in.
#: ``gateway`` carries the request-scoped spans the service bridge
#: records around bridged ops (see ``repro.gateway.bridge``).
DEFAULT_CATEGORIES = ("core", "net", "proto", "vm", "interconnect", "chaos",
                      "gateway")

#: Ring-buffer bound used when callers do not choose one.
DEFAULT_LIMIT = 200_000

#: Bound on live seq -> trace-id bindings (seq numbers are 16-bit and
#: wrap; stale bindings are evicted FIFO).
_SEQ_BINDING_LIMIT = 4096


class TraceEvent:
    """One recorded event, in Chrome trace-event terms.

    ``phase`` is the Chrome phase letter: ``X`` complete slice (known
    duration), ``I`` instant, ``B``/``E`` nested begin/end, ``b``/``e``
    async (request-level) span keyed by trace id.  Times are integer
    simulation nanoseconds.
    """

    __slots__ = ("phase", "name", "cat", "track", "time_ns", "dur_ns",
                 "trace_id", "args")

    def __init__(self, phase: str, name: str, cat: str, track: int,
                 time_ns: int, dur_ns: int = 0,
                 trace_id: Optional[int] = None,
                 args: Optional[dict] = None) -> None:
        self.phase = phase
        self.name = name
        self.cat = cat
        self.track = track
        self.time_ns = time_ns
        self.dur_ns = dur_ns
        self.trace_id = trace_id
        self.args = args

    def to_dict(self) -> dict:
        """Pickle/JSON-safe form used by snapshots and the exporter."""
        out = {"ph": self.phase, "name": self.name, "cat": self.cat,
               "tid": self.track, "ts": self.time_ns}
        if self.phase == "X":
            out["dur"] = self.dur_ns
        if self.trace_id is not None:
            out["id"] = self.trace_id
        if self.args:
            out["args"] = dict(self.args)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceEvent({self.phase!r}, {self.name!r}, cat={self.cat!r}, "
                f"t={self.time_ns}, trace={self.trace_id})")


class Span:
    """Handle for an open ``B`` span; :meth:`end` is idempotent.

    Ending a span twice, or after the tracer was disabled, is safe: the
    first end wins and later ends are ignored (unbalanced-end safety).
    """

    __slots__ = ("_tracer", "name", "cat", "track", "trace_id", "_open")

    def __init__(self, tracer: "Tracer", name: str, cat: str, track: int,
                 trace_id: Optional[int]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.track = track
        self.trace_id = trace_id
        self._open = True

    @property
    def open(self) -> bool:
        return self._open

    def end(self, args: Optional[dict] = None) -> None:
        if not self._open:
            return
        self._open = False
        self._tracer._record(TraceEvent(
            "E", self.name, self.cat, self.track,
            self._tracer.now_ns, trace_id=self.trace_id, args=args,
        ))

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.end()


class Tracer:
    """Bounded structured-event recorder for one simulator."""

    def __init__(
        self,
        sim,
        *,
        limit: int = DEFAULT_LIMIT,
        categories: Optional[Iterable[str]] = DEFAULT_CATEGORIES,
        trace_id_base: int = 0,
        label: str = "",
    ) -> None:
        self._sim = sim
        self.enabled = True
        #: None means "record every category".
        self._categories: Optional[set] = (
            None if categories is None else set(categories)
        )
        self._limit = max(1, int(limit))
        self._events: Deque[TraceEvent] = deque(maxlen=self._limit)
        self.dropped = 0
        self.label = label
        #: Trace id of the causal chain currently executing (the kernel
        #: sets/clears this around each event callback).
        self.current: Optional[int] = None
        self._next_trace = 0
        self._trace_id_base = int(trace_id_base)
        self._tracks: Dict[str, int] = {}
        self._seq_bindings: Dict[int, int] = {}
        self._listeners: List[Callable[[TraceEvent], None]] = []

    # ------------------------------------------------------------------ gates
    def enabled_for(self, cat: str) -> bool:
        """Should events of *cat* be recorded right now?"""
        if not self.enabled:
            return False
        return self._categories is None or cat in self._categories

    def enable_category(self, cat: str) -> bool:
        """Start recording *cat*; returns True if this was a change."""
        if self._categories is None or cat in self._categories:
            return False
        self._categories.add(cat)
        return True

    def disable_category(self, cat: str) -> None:
        if self._categories is not None:
            self._categories.discard(cat)

    # ------------------------------------------------------------------ clock
    @property
    def now_ns(self) -> int:
        return self._sim.now_ns

    # -------------------------------------------------------------- trace ids
    def new_trace(self) -> int:
        """Allocate a fresh trace id (shard-unique via the id base)."""
        self._next_trace += 1
        return self._trace_id_base + self._next_trace

    def bind_seq(self, seq: int, trace_id: int) -> None:
        """Pin *trace_id* to a protocol sequence number (§5's request/
        reply association), so receivers can re-adopt the trace."""
        bindings = self._seq_bindings
        if len(bindings) >= _SEQ_BINDING_LIMIT and seq not in bindings:
            bindings.pop(next(iter(bindings)))
        bindings[seq] = trace_id

    def trace_for_seq(self, seq: int) -> Optional[int]:
        return self._seq_bindings.get(seq)

    # ----------------------------------------------------------------- tracks
    def track(self, name: str) -> int:
        """Stable per-tracer track (Perfetto thread) id for *name*."""
        tid = self._tracks.get(name)
        if tid is None:
            tid = self._tracks[name] = len(self._tracks) + 1
        return tid

    # -------------------------------------------------------------- recording
    def _record(self, event: TraceEvent) -> None:
        events = self._events
        if len(events) == self._limit:
            self.dropped += 1
        events.append(event)
        for listener in self._listeners:
            listener(event)

    def complete(self, name: str, cat: str, track: int, dur_ns: int, *,
                 ts_ns: Optional[int] = None,
                 trace_id: Optional[int] = None,
                 args: Optional[dict] = None) -> None:
        """Record a fixed-duration slice (Chrome ``X`` event)."""
        self._record(TraceEvent(
            "X", name, cat, track,
            self.now_ns if ts_ns is None else int(ts_ns), int(dur_ns),
            trace_id=self.current if trace_id is None else trace_id,
            args=args,
        ))

    def instant(self, name: str, cat: str, track: int = 0, *,
                trace_id: Optional[int] = None,
                args: Optional[dict] = None) -> None:
        self._record(TraceEvent(
            "I", name, cat, track, self.now_ns,
            trace_id=self.current if trace_id is None else trace_id,
            args=args,
        ))

    def begin(self, name: str, cat: str, track: int = 0, *,
              trace_id: Optional[int] = None,
              args: Optional[dict] = None) -> Span:
        """Open a nested span on *track*; close via ``.end()`` / ``with``."""
        resolved = self.current if trace_id is None else trace_id
        self._record(TraceEvent(
            "B", name, cat, track, self.now_ns, trace_id=resolved, args=args,
        ))
        return Span(self, name, cat, track, resolved)

    def async_begin(self, name: str, cat: str, trace_id: int, *,
                    track: int = 0, args: Optional[dict] = None) -> None:
        """Open a request-level span keyed by *trace_id* (Chrome ``b``)."""
        self._record(TraceEvent(
            "b", name, cat, track, self.now_ns, trace_id=trace_id, args=args,
        ))

    def async_end(self, name: str, cat: str, trace_id: int, *,
                  track: int = 0, args: Optional[dict] = None) -> None:
        self._record(TraceEvent(
            "e", name, cat, track, self.now_ns, trace_id=trace_id, args=args,
        ))

    # -------------------------------------------------------------- listeners
    def add_listener(self, listener: Callable[[TraceEvent], None]) -> None:
        """Observe every recorded event live (ProtocolTracer hook)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[TraceEvent], None]) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ---------------------------------------------------------------- exports
    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def snapshot(self) -> dict:
        """Pickle/JSON-safe view: events + track names + drop count."""
        return {
            "label": self.label,
            "events": [event.to_dict() for event in self._events],
            "tracks": dict(self._tracks),
            "dropped": self.dropped,
        }


def install_tracer(
    sim,
    *,
    limit: int = DEFAULT_LIMIT,
    categories: Optional[Iterable[str]] = DEFAULT_CATEGORIES,
    trace_id_base: int = 0,
    label: str = "",
) -> Tracer:
    """Create a tracer and attach it (binds the observed kernel paths)."""
    tracer = Tracer(sim, limit=limit, categories=categories,
                    trace_id_base=trace_id_base, label=label)
    sim.attach_tracer(tracer)
    return tracer


__all__ = ["TraceEvent", "Span", "Tracer", "install_tracer",
           "DEFAULT_CATEGORIES", "DEFAULT_LIMIT"]
