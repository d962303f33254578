"""Request-scoped gateway observability: decomposition, journal, flight
recorder.

:class:`GatewayObservability` folds each bridged op's monotonic stamps
(enqueue, dequeue, sim completion, reply written) into:

* a **two-plane** :class:`~repro.telemetry.series.SeriesBank`.  The
  *wall plane* (latency components, op and error counters) is sampled
  once per check interval on host time: counters at their totals,
  latencies at the interval's worst op, whose trace id is the
  ``gateway_op_wall_ms`` exemplar.  The *sim plane* is sampled per op
  with sim-derived timestamps and values only, so
  :meth:`deterministic_view` is a pure function of the request log;
* the SLO rules, each a :class:`~repro.telemetry.health.RuleWindows`
  fed with the samples a per-op series document would hold, so
  verdicts are the ones ``telemetry.health.evaluate`` gives on it;
* the **slow-op journal** of ``GET /debug/ops`` (the N worst ops by
  wall time) and a bounded **ring of recent requests**, dumped with
  the SLO verdict and the matching tracer events when the rules report
  ``degraded`` — a flight recorder.

It runs on the thread that runs the bridged ops, after an op ran or
its reply hit the socket: it never touches the simulators, and
wall-plane data never reaches traces or digests.
"""

from __future__ import annotations

import heapq
import json
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.stats import Histogram
from repro.telemetry.health import HealthReport, RuleWindows, SloRule
from repro.telemetry.series import SeriesBank

#: Default SLOs watched by the flight recorder: the wall-time tail of
#: bridged ops and the bridged error ratio, over 5 s tumbling windows.
DEFAULT_GATEWAY_SLOS: Tuple[str, ...] = (
    "gateway_op_p95: gateway_op_wall_ms.p95 < 2000 window=5",
    "gateway_errors: gateway_op_errors_total/gateway_ops_total"
    " < 5% window=5",
)

#: ``Histogram(*LATENCY_HIST_ARGS)`` bounds every latency summary, in
#: ms: 1 us to 100 s at 32 log buckets per decade (one bucket spans
#: ~7.5%).  Fixed-size, so a week-long serve summarizes its whole
#: lifetime in the same memory and time as its first second.
LATENCY_HIST_ARGS = (1e-3, 1e5, 32)

#: Decomposition components, in pipeline order.
COMPONENTS = ("queue_wait_ms", "sim_exec_ms", "reply_write_ms", "wall_ms")

#: The series of each op kind, ``(name, help)``: counters end in
#: ``_total``, the rest are ms gauges.  Slots 2-5 follow COMPONENTS.
KIND_SERIES = (
    ("gateway_ops_total", "bridged operations completed"),
    ("gateway_op_errors_total", "bridged operations with status >= 500"),
    ("gateway_queue_wait_ms", "worst enqueue -> dequeue wait"),
    ("gateway_sim_exec_ms", "worst dequeue -> op complete (wall)"),
    ("gateway_reply_write_ms", "worst serialize + write + drain of reply"),
    ("gateway_op_wall_ms", "worst queue_wait + sim_exec of an op"),
    ("gateway_sim_ops_total", "sim-plane op count (deterministic)"),
    ("gateway_sim_latency_ms",
     "simulated admission -> completion latency (deterministic)"),
)

#: The sim-plane series: values and timestamps derived from simulated
#: state only, so they are a pure function of the request log.  (Listed
#: by name — ``gateway_sim_exec_ms`` is wall-plane despite the prefix.)
SIM_PLANE_SERIES = ("gateway_sim_ops_total", "gateway_sim_latency_ms")

#: Recorded ops and replies held before they are folded in unasked.
PENDING_LIMIT = 4096


@dataclass(frozen=True)
class GatewayObsConfig:
    """Tunables for :class:`GatewayObservability`; ``slos`` use the
    :meth:`repro.telemetry.health.SloRule.parse` grammar."""

    enabled: bool = True
    #: Samples per series, and closed SLO windows kept per rule.
    series_capacity: int = 8192
    #: Worst-N ops kept in the /debug/ops journal.
    journal_size: int = 32
    #: Recent requests kept in the flight ring.
    ring_size: int = 256
    #: None keeps the ring in memory only; a directory arms dumps.
    flight_dir: Optional[str] = None
    slos: Tuple[str, ...] = DEFAULT_GATEWAY_SLOS
    #: Wall seconds between SLO evaluations and wall-plane samples
    #: (0 = every op).
    slo_check_interval_s: float = 1.0
    #: Maximum flight dumps per process (re-armed on recovery).
    flight_limit: int = 8


class GatewayObservability:
    """Per-bridge decomposition recorder, journal and flight recorder.

    Recording an op costs a record dict and two appends; the rest of
    its accounting is folded in per batch (:meth:`_fold`), before any
    of it is read and at least once per check interval.
    """

    def __init__(self, config: Optional[GatewayObsConfig] = None,
                 *, op_kinds: Tuple[str, ...] = ()) -> None:
        self.config = config or GatewayObsConfig()
        self._bank = SeriesBank(capacity=self.config.series_capacity)
        self.ring: Deque[dict] = deque(maxlen=self.config.ring_size)
        #: ``(t, kind, record, queue_wait_ms, sim_exec_ms)`` per op and
        #: ``(t, kind, None, reply_write_ms, None)`` per reply, unfolded.
        self._pending: List[tuple] = []
        #: Min-heap of ``(wall_ms, -offer, record)``: the worst N ops.
        self._journal: List[tuple] = []
        self._offers = 0
        self.last_slo_status: str = "no-data"
        self.flight_dumps: List[str] = []
        self._origin_ns = time.perf_counter_ns()
        self._rules: Tuple[SloRule, ...] = tuple(
            SloRule.parse(text) for text in self.config.slos)
        self._windows = [RuleWindows(rule, self.config.series_capacity)
                         for rule in self._rules]
        #: Series name -> the ``(rule windows, side)`` pairs it feeds.
        self._feeds: Dict[str, list] = {}
        for windows in self._windows:
            for side, name in enumerate(windows.names):
                if name is not None:
                    self._feeds.setdefault(name, []).append((windows, side))
        #: Latest sample time over every series a rule names.
        self._horizon_ns = 0
        self._next_slo_check_ns = 0
        self._armed = True
        #: kind -> [ops, errors, sim ops, ops at the last wall sample,
        #: histograms, this interval's worst per component (-1: none)
        #: and its worst op's trace id, series].
        self._kinds: Dict[str, list] = {}
        self._stream_dropped_series = self._bank.series(
            "gateway_stream_dropped_total", kind="counter", merge="sum",
            help="WS stream events dropped on slow consumers")
        for kind in op_kinds:
            self._ensure_kind(kind)

    def _ensure_kind(self, kind: str) -> list:
        entry = self._kinds.get(kind)
        if entry is None:
            series = [self._bank.series(
                name, labels={"kind": kind}, help=help,
                **({"kind": "counter", "merge": "sum"}
                   if name.endswith("_total")
                   else {"unit": "ms", "merge": "max"}))
                for name, help in KIND_SERIES]
            entry = self._kinds[kind] = [
                0, 0, 0, 0, [Histogram(*LATENCY_HIST_ARGS)
                             for _ in COMPONENTS],
                [-1.0] * len(COMPONENTS), None, series]
        return entry

    @property
    def bank(self) -> SeriesBank:
        """Both planes' series, with every recorded op folded in."""
        self._fold()
        return self._bank

    def _wall_now_ns(self) -> int:
        return time.perf_counter_ns() - self._origin_ns

    def _feed(self, sinks: Optional[list], key: str, t: int,
              value: float) -> None:
        """A sample of the per-op document, to the rule windows *sinks*
        (``self._feeds`` of its series)."""
        for windows, side in sinks or ():
            windows.feed((side, key), t, value)
            self._horizon_ns = max(self._horizon_ns, t)

    # --------------------------------------------------------------- recording
    def record_op(self, index: int, op, result, *, queue_wait_ns: int,
                  sim_exec_ns: int, now_ns: Optional[int] = None) -> dict:
        """Record one completed op; returns its ring/journal record (the
        server mutates ``reply_write_ms`` into the same dict once the
        reply has drained, so the journal self-updates)."""
        # An integer ns over 1e6 is already the double nearest its
        # 6-decimal ms value: no rounding needed.
        queue_wait_ms = queue_wait_ns / 1e6
        sim_exec_ms = sim_exec_ns / 1e6
        record = {
            "index": index, "kind": op.kind, "thing": op.thing,
            "name": op.name, "request_id": op.request_id,
            "status": result.status, "admitted_ns": result.admitted_ns,
            "sim_latency_ns": result.sim_latency_ns,
            "trace_id": result.trace_id, "queue_wait_ms": queue_wait_ms,
            "sim_exec_ms": sim_exec_ms, "reply_write_ms": None,
            "wall_ms": (queue_wait_ns + sim_exec_ns) / 1e6,
        }
        self.ring.append(record)
        self._pending.append((self._wall_now_ns() if now_ns is None
                              else now_ns, op.kind, record, queue_wait_ms,
                              sim_exec_ms))
        if len(self._pending) >= PENDING_LIMIT:
            self._fold()
        return record

    def record_reply(self, record: Optional[dict], reply_ns: int) -> None:
        """The reply has drained on the socket."""
        reply_ms = reply_ns / 1e6
        kind = record["kind"] if record else "read"
        if kind in self._kinds:
            self._pending.append((self._wall_now_ns(), kind, None,
                                  reply_ms, None))
        if record is not None:
            record["reply_write_ms"] = reply_ms

    def record_stream_dropped(self, total: int,
                              now_ns: Optional[int] = None) -> None:
        """A WS frame was dropped on a slow consumer."""
        self._fold()
        t = self._wall_now_ns() if now_ns is None else now_ns
        self._stream_dropped_series.record(t, total)
        self._feed(self._feeds.get("gateway_stream_dropped_total"), "", t,
                   total)

    def _fold(self) -> None:
        """Account the pending ops and replies, in arrival order."""
        pending, self._pending = self._pending, []
        feed = self._feed
        # The rule windows each KIND_SERIES slot feeds, None for most.
        sinks = [self._feeds.get(name) for name, _ in KIND_SERIES]
        for t, kind, record, first, second in pending:
            k = self._kinds.get(kind) or self._ensure_kind(kind)
            hists, peaks = k[4], k[5]
            # A reply's *first* is its write time; an op's components
            # are *first*, *second* and its wall time.
            for i, value in (((2, first),) if record is None else (
                    (0, first), (1, second), (3, record["wall_ms"]))):
                hists[i].observe(value)
                if value > peaks[i]:
                    peaks[i] = value
                    if i == 3:
                        k[6] = record["trace_id"]
                if sinks[2 + i]:
                    feed(sinks[2 + i], kind, t, value)
            if record is None:
                continue
            k[0] += 1
            k[1] += record["status"] >= 500
            if sinks[0] or sinks[1]:
                feed(sinks[0], kind, t, k[0])
                feed(sinks[1], kind, t, k[1])
            # Sim plane: only ops that consumed an admission slot carry
            # deterministic timestamps/latencies.
            if record["admitted_ns"]:
                sim_t = record["admitted_ns"] + record["sim_latency_ns"]
                latency_ms = record["sim_latency_ns"] / 1e6
                k[2] += 1
                k[7][6].record(sim_t, k[2])
                k[7][7].record(sim_t, latency_ms)
                if sinks[6] or sinks[7]:
                    feed(sinks[6], kind, sim_t, k[2])
                    feed(sinks[7], kind, sim_t, latency_ms)
            # The journal changes only when this op beats its best-kept.
            entry = (record["wall_ms"], -self._offers, record)
            self._offers += 1
            if len(self._journal) < self.config.journal_size:
                heapq.heappush(self._journal, entry)
            elif entry[0] > self._journal[0][0]:
                heapq.heapreplace(self._journal, entry)

    def _sample_wall_plane(self, t: int) -> None:
        """One wall-plane sample per series that moved this interval."""
        for k in self._kinds.values():
            series, peaks = k[7], k[5]
            if k[0] != k[3]:
                k[3] = k[0]
                series[0].record(t, k[0])
                series[1].record(t, k[1])
            for i, peak in enumerate(peaks):
                if peak >= 0:
                    series[2 + i].record(t, peak,
                                         trace_id=k[6] if i == 3 else None)
                    peaks[i] = -1.0
            k[6] = None

    # ---------------------------------------------------------------- reading
    def deterministic_view(self) -> dict:
        """Sim-plane-only snapshot: byte-stable under replay."""
        return {"series": [
            {key: v for key, v in s.items() if key != "exemplars"}
            for s in self.bank.snapshot()["series"]
            if s["name"] in SIM_PLANE_SERIES and s["samples"]]}

    def _summarize(self, h: Histogram) -> dict:
        if not h.count:
            return {"count": 0}
        return {"count": h.count,
                **{f"p{q}": round(h.percentile(q), 3) for q in (50, 95, 99)},
                "max": round(h.maximum, 3)}

    def summary(self) -> dict:
        """Per-kind decomposition percentiles + recorder state
        (the ``GET /debug/ops`` body and the loadgen report).

        Percentiles cover every op since the bridge started, estimated
        from fixed histogram buckets (see ``LATENCY_HIST_ARGS``)."""
        self._fold()
        kinds = {kind: {"count": k[0], "errors": k[1],
                        **{c: self._summarize(h)
                           for c, h in zip(COMPONENTS, k[4])}}
                 for kind, k in sorted(self._kinds.items())}
        return {
            "slo_status": self.last_slo_status,
            "stream_dropped": int((self._stream_dropped_series.last
                                   or (0, 0))[1]),
            "flight_dumps": list(self.flight_dumps),
            "ring_depth": len(self.ring),
            "kinds": kinds,
        }

    def journal_snapshot(self) -> List[dict]:
        """Worst ops first, each a copy safe to serialize."""
        self._fold()
        return [dict(e[2]) for e in sorted(self._journal, reverse=True)]

    # ----------------------------------------------------------- flight loop
    def maybe_check_slo(self, context: Optional[Callable[[], dict]] = None,
                        trace_lookup: Optional[Callable] = None,
                        now_ns: Optional[int] = None,
                        ) -> Optional[HealthReport]:
        """At most once per check interval, fold, sample the wall plane
        and evaluate the SLO rules.

        On a ``degraded`` verdict while armed, dump the flight ring;
        the recorder then disarms until the verdict leaves ``degraded``
        so a sustained incident produces one dump, not one per check.
        """
        t = (time.perf_counter_ns() - self._origin_ns if now_ns is None
             else now_ns)
        if t < self._next_slo_check_ns:
            return None
        self._next_slo_check_ns = t + int(
            self.config.slo_check_interval_s * 1e9)
        self._fold()
        self._sample_wall_plane(t)
        if not self._rules:
            return None
        report = HealthReport([w.result(self._horizon_ns)
                               for w in self._windows])
        status = report.status
        self.last_slo_status = status
        if status == "degraded":
            if self._armed and len(self.flight_dumps) < self.config.flight_limit:
                self._armed = False
                self._dump_flight(report, context, trace_lookup)
        else:
            self._armed = True
        return report

    def _dump_flight(self, report: HealthReport,
                     context: Optional[Callable[[], dict]],
                     trace_lookup: Optional[Callable[[List[int]], dict]],
                     ) -> Optional[str]:
        if self.config.flight_dir is None:
            return None
        directory = Path(self.config.flight_dir)
        directory.mkdir(parents=True, exist_ok=True)
        requests = [dict(r) for r in self.ring]
        trace_ids = sorted({r["trace_id"] for r in requests} - {None})
        traces = (trace_lookup(trace_ids)
                  if trace_lookup is not None and trace_ids else {})
        document = {"reason": "slo-degraded", "slo": report.as_dict(),
                    "summary": self.summary(), "requests": requests,
                    "slowest": self.journal_snapshot(), "traces": traces,
                    "context": context() if context is not None else {}}
        path = directory / f"flight-{len(self.flight_dumps):04d}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True)
                        + "\n")
        self.flight_dumps.append(str(path))
        return str(path)


__all__ = ["COMPONENTS", "DEFAULT_GATEWAY_SLOS", "LATENCY_HIST_ARGS",
           "GatewayObsConfig", "GatewayObservability"]
