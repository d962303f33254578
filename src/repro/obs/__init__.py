"""repro.obs — cross-layer causal tracing for the µPnP reproduction.

A :class:`~repro.obs.tracer.Tracer` attaches to a
:class:`~repro.sim.kernel.Simulator` and records structured *spans*
(begin/end and fixed-duration slices), instant events and async
request-level spans from every layer of the stack: kernel event
dispatch, per-hop network transmission, VM handler execution,
interconnect transactions and the client/Thing/manager protocol
endpoints.  A *trace id* allocated at the root of a causal chain (one
client read, one driver install) rides the simulator's scheduled
events and the protocol sequence numbers, so everything downstream of
the root lands in the same trace tree — across nodes, radio hops and
driver code.

Tracing is off by default: every instrumentation point is guarded by a
``sim.tracer is None`` check, so the disabled-mode cost is one
attribute load per hook (benchmarked by ``benchmarks/bench_obs.py``).
The kernel itself binds its one observed ``step``/``schedule_at`` pair,
shared with :mod:`repro.profile`, only while a tracer or profiler is
attached.
Recorded events live in a bounded ring buffer and export to Chrome
trace-event JSON (loadable in Perfetto / chrome://tracing) via
:mod:`repro.obs.export`, or to a plain-text critical-path summary via
``python -m repro.obs report``.
"""

from repro.obs.tracer import (
    DEFAULT_CATEGORIES,
    Span,
    TraceEvent,
    Tracer,
    install_tracer,
)

__all__ = [
    "DEFAULT_CATEGORIES",
    "Span",
    "TraceEvent",
    "Tracer",
    "install_tracer",
]
