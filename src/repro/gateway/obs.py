"""Request-scoped gateway observability: decomposition, journal, flight
recorder.

:class:`GatewayObservability` is the bridge's instrument panel.  Every
bridged operation reports monotonic stamps taken at enqueue, dequeue,
sim-completion and reply-written; this module folds them into:

* a **two-plane** :class:`~repro.telemetry.series.SeriesBank`,
  following the split established by ``repro.profile``:

  - the *wall plane* (``gateway_queue_wait_ms``, ``gateway_sim_exec_ms``,
    ``gateway_reply_write_ms``, ``gateway_op_wall_ms``,
    ``gateway_ops_total`` …) is timestamped with host monotonic time
    and exists for operators, ``GET /metrics`` and the SLO engine;
  - the *sim plane* (``gateway_sim_ops_total``,
    ``gateway_sim_latency_ms``) is timestamped with simulated time and
    carries only values derived from sim state, so
    :meth:`deterministic_view` is a pure function of the request log —
    the replay-determinism contract extends to the metrics themselves;

* a **slow-op journal**: the N worst operations by wall time, each
  with its full decomposition, request-id and obs trace-id — served at
  ``GET /debug/ops``;

* an always-on bounded **ring of recent requests** which, when the
  declarative SLO engine (:mod:`repro.telemetry.health`) reports
  ``degraded``, is dumped to disk together with the SLO verdict, the
  journal and the matching tracer events — a flight recorder, so a
  tail regression in CI ships its own evidence.

Nothing here touches the simulators: recording happens strictly after
an op ran (bridge thread) or after its reply hit the socket (asyncio
thread, pre-created series only), and wall-plane data never flows into
trace events or digests.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.stats import Histogram
from repro.telemetry.health import HealthReport, SloRule, evaluate
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

#: The sim-plane series: values and timestamps derived from simulated
#: state only, so they are a pure function of the request log.  (Listed
#: by name — ``gateway_sim_exec_ms`` is wall-plane despite the prefix.)
SIM_PLANE_SERIES = ("gateway_sim_ops_total", "gateway_sim_latency_ms")


@dataclass(frozen=True)
class GatewayObsConfig:
    """Tunables for :class:`GatewayObservability`.

    ``flight_dir=None`` keeps the ring in memory only (no dumps);
    setting it arms the recorder.  ``slos`` use the
    :meth:`repro.telemetry.health.SloRule.parse` grammar and are
    evaluated over the **wall-plane** series only.
    """

    enabled: bool = True
    series_capacity: int = 8192
    #: Worst-N ops kept in the /debug/ops journal.
    journal_size: int = 32
    #: Recent requests kept in the flight ring.
    ring_size: int = 256
    flight_dir: Optional[str] = None
    slos: Tuple[str, ...] = DEFAULT_GATEWAY_SLOS
    #: Wall seconds between SLO evaluations (0 = every op).
    slo_check_interval_s: float = 1.0
    #: Maximum flight dumps per process (re-armed on recovery).
    flight_limit: int = 8


class GatewayObservability:
    """Per-bridge decomposition recorder, journal and flight recorder."""

    def __init__(self, config: Optional[GatewayObsConfig] = None,
                 *, op_kinds: Tuple[str, ...] = ()) -> None:
        self.config = config or GatewayObsConfig()
        self.bank = SeriesBank(capacity=self.config.series_capacity)
        self.ring: Deque[dict] = deque(maxlen=self.config.ring_size)
        self.journal: List[dict] = []
        self.last_slo_status: str = "no-data"
        self.flight_dumps: List[str] = []
        self._origin_ns = time.perf_counter_ns()
        self._rules: Tuple[SloRule, ...] = tuple(
            SloRule.parse(text) for text in self.config.slos)
        self._rule_series = {r.series for r in self._rules}
        self._rule_series.update(r.ratio_to for r in self._rules
                                 if r.ratio_to is not None)
        self._next_slo_check_ns = 0
        self._armed = True
        self._counts: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._sim_counts: Dict[str, int] = {}
        self._components: Dict[str, Dict[str, Histogram]] = {}
        # record_reply observes on the asyncio thread while record_op
        # and summary() run on the bridge thread; Histogram.observe is
        # not atomic.
        self._hist_lock = threading.Lock()
        self._stream_dropped = 0
        # Pre-create every series the asyncio thread may touch so no
        # dict mutation ever races the bridge thread.
        self._stream_dropped_series = self.bank.series(
            "gateway_stream_dropped_total", kind="counter", merge="sum",
            help="WS stream events dropped on slow consumers")
        self._wall: Dict[Tuple[str, str], object] = {}
        self._sim_series: Dict[Tuple[str, str], object] = {}
        for kind in op_kinds:
            self._ensure_kind(kind)

    # ------------------------------------------------------------ registration
    def _ensure_kind(self, kind: str) -> None:
        if kind in self._counts:
            return
        self._counts[kind] = 0
        self._errors[kind] = 0
        self._sim_counts[kind] = 0
        self._components[kind] = {
            c: Histogram(*LATENCY_HIST_ARGS) for c in COMPONENTS}
        labels = {"kind": kind}
        mk = self.bank.series
        self._wall[(kind, "ops")] = mk(
            "gateway_ops_total", kind="counter", merge="sum", labels=labels,
            help="bridged operations completed")
        self._wall[(kind, "errors")] = mk(
            "gateway_op_errors_total", kind="counter", merge="sum",
            labels=labels, help="bridged operations with status >= 500")
        self._wall[(kind, "queue_wait_ms")] = mk(
            "gateway_queue_wait_ms", labels=labels, unit="ms", merge="max",
            help="enqueue -> dequeue wait on the bridge queue")
        self._wall[(kind, "sim_exec_ms")] = mk(
            "gateway_sim_exec_ms", labels=labels, unit="ms", merge="max",
            help="dequeue -> op complete (wall cost of driving the sim)")
        self._wall[(kind, "reply_write_ms")] = mk(
            "gateway_reply_write_ms", labels=labels, unit="ms", merge="max",
            help="serialize + socket write + drain of the HTTP reply")
        self._wall[(kind, "wall_ms")] = mk(
            "gateway_op_wall_ms", labels=labels, unit="ms", merge="max",
            help="queue_wait + sim_exec per bridged op")
        self._sim_series[(kind, "ops")] = mk(
            "gateway_sim_ops_total", kind="counter", merge="sum",
            labels=labels, help="sim-plane op count (deterministic)")
        self._sim_series[(kind, "latency_ms")] = mk(
            "gateway_sim_latency_ms", labels=labels, unit="ms", merge="max",
            help="simulated admission -> completion latency (deterministic)")

    def _wall_now_ns(self) -> int:
        return time.perf_counter_ns() - self._origin_ns

    # --------------------------------------------------------------- recording
    def record_op(self, index: int, op, result, *, queue_wait_ns: int,
                  sim_exec_ns: int, now_ns: Optional[int] = None) -> dict:
        """Fold one completed op into every plane; returns the ring/journal
        record (the server mutates ``reply_write_ms`` into the same dict
        once the reply has drained, so the journal self-updates)."""
        kind = op.kind
        self._ensure_kind(kind)
        t = self._wall_now_ns() if now_ns is None else now_ns
        queue_wait_ms = queue_wait_ns / 1e6
        sim_exec_ms = sim_exec_ns / 1e6
        wall_ms = queue_wait_ms + sim_exec_ms
        error = result.status >= 500

        self._counts[kind] += 1
        self._wall[(kind, "ops")].record(t, self._counts[kind])
        if error:
            self._errors[kind] += 1
        self._wall[(kind, "errors")].record(t, self._errors[kind])
        trace_id = getattr(result, "trace_id", None)
        self._wall[(kind, "queue_wait_ms")].record(t, queue_wait_ms)
        self._wall[(kind, "sim_exec_ms")].record(t, sim_exec_ms)
        self._wall[(kind, "wall_ms")].record(t, wall_ms,
                                             trace_id=trace_id)
        comps = self._components[kind]
        with self._hist_lock:
            comps["queue_wait_ms"].observe(queue_wait_ms)
            comps["sim_exec_ms"].observe(sim_exec_ms)
            comps["wall_ms"].observe(wall_ms)

        # Sim plane: only ops that consumed an admission slot carry
        # deterministic timestamps/latencies.
        if result.admitted_ns:
            sim_t = result.admitted_ns + result.sim_latency_ns
            self._sim_counts[kind] += 1
            self._sim_series[(kind, "ops")].record(
                sim_t, self._sim_counts[kind])
            self._sim_series[(kind, "latency_ms")].record(
                sim_t, result.sim_latency_ns / 1e6)

        record = {
            "index": index,
            "kind": kind,
            "thing": op.thing,
            "name": op.name,
            "request_id": op.request_id,
            "status": result.status,
            "admitted_ns": result.admitted_ns,
            "sim_latency_ns": result.sim_latency_ns,
            "trace_id": trace_id,
            "queue_wait_ms": round(queue_wait_ms, 6),
            "sim_exec_ms": round(sim_exec_ms, 6),
            "reply_write_ms": None,
            "wall_ms": round(wall_ms, 6),
        }
        self.ring.append(record)
        self._journal_offer(record)
        return record

    def _journal_offer(self, record: dict) -> None:
        journal = self.journal
        journal.append(record)
        if len(journal) > self.config.journal_size:
            journal.sort(key=lambda r: r["wall_ms"], reverse=True)
            del journal[self.config.journal_size:]

    def record_reply(self, record: Optional[dict], reply_ns: int) -> None:
        """Reply drained on the socket (asyncio-thread context)."""
        reply_ms = reply_ns / 1e6
        kind = record["kind"] if record else "read"
        entry = self._wall.get((kind, "reply_write_ms"))
        if entry is not None:
            entry.record(self._wall_now_ns(), reply_ms)
            with self._hist_lock:
                self._components[kind]["reply_write_ms"].observe(reply_ms)
        if record is not None:
            record["reply_write_ms"] = round(reply_ms, 6)

    def record_stream_dropped(self, total: int,
                              now_ns: Optional[int] = None) -> None:
        """A WS frame was dropped on a slow consumer (asyncio thread)."""
        self._stream_dropped = total
        self._stream_dropped_series.record(
            self._wall_now_ns() if now_ns is None else now_ns, total)

    # ---------------------------------------------------------------- reading
    def deterministic_view(self) -> dict:
        """Sim-plane-only snapshot: byte-stable under replay."""
        snap = self.bank.snapshot()
        series = [dict(s) for s in snap["series"]
                  if s["name"] in SIM_PLANE_SERIES and s["samples"]]
        for s in series:
            s.pop("exemplars", None)
        return {"series": series}

    def _summarize(self, hist: Histogram) -> dict:
        count = hist.count
        if not count:
            return {"count": 0}
        return {
            "count": count,
            "p50": round(hist.percentile(50), 3),
            "p95": round(hist.percentile(95), 3),
            "p99": round(hist.percentile(99), 3),
            "max": round(hist.maximum, 3),
        }

    def summary(self) -> dict:
        """Per-kind decomposition percentiles + recorder state
        (the ``GET /debug/ops`` body and the loadgen report).

        Percentiles cover every op since the bridge started, estimated
        from fixed histogram buckets (see ``LATENCY_HIST_ARGS``)."""
        kinds = {}
        for kind in sorted(self._counts):
            comps = self._components[kind]
            with self._hist_lock:
                summaries = {c: self._summarize(comps[c])
                             for c in COMPONENTS}
            kinds[kind] = {
                "count": self._counts[kind],
                "errors": self._errors[kind],
                **summaries,
            }
        return {
            "slo_status": self.last_slo_status,
            "stream_dropped": self._stream_dropped,
            "flight_dumps": list(self.flight_dumps),
            "ring_depth": len(self.ring),
            "kinds": kinds,
        }

    def journal_snapshot(self) -> List[dict]:
        """Worst ops first, each a copy safe to serialize."""
        return [dict(r) for r in sorted(
            self.journal, key=lambda r: r["wall_ms"], reverse=True)]

    # ----------------------------------------------------------- flight loop
    def maybe_check_slo(
        self,
        context: Optional[Callable[[], dict]] = None,
        trace_lookup: Optional[Callable[[List[int]], dict]] = None,
        now_ns: Optional[int] = None,
    ) -> Optional[HealthReport]:
        """Evaluate the SLO rules at most once per check interval.

        On a ``degraded`` verdict while armed, dump the flight ring;
        the recorder then disarms until the verdict leaves ``degraded``
        so a sustained incident produces one dump, not one per check.
        """
        if not self._rules:
            return None
        t = self._wall_now_ns() if now_ns is None else now_ns
        if t < self._next_slo_check_ns:
            return None
        self._next_slo_check_ns = t + int(
            self.config.slo_check_interval_s * 1e9)
        report = evaluate(self._rules, self._slo_document())
        status = report.status
        self.last_slo_status = status
        if status == "degraded":
            if self._armed and len(self.flight_dumps) < self.config.flight_limit:
                self._armed = False
                self._dump_flight(report, context, trace_lookup)
        else:
            self._armed = True
        return report

    def _slo_document(self) -> dict:
        """Only the series the rules reference: SLO checks run on the
        bridge thread, so snapshotting the whole bank per check would
        tax the serving path for nothing."""
        series = [ts.to_dict() for ts in self.bank
                  if ts.name in self._rule_series]
        return {"series": series}

    def _dump_flight(self, report: HealthReport,
                     context: Optional[Callable[[], dict]],
                     trace_lookup: Optional[Callable[[List[int]], dict]],
                     ) -> Optional[str]:
        if self.config.flight_dir is None:
            return None
        directory = Path(self.config.flight_dir)
        directory.mkdir(parents=True, exist_ok=True)
        requests = [dict(r) for r in self.ring]
        trace_ids = sorted({r["trace_id"] for r in requests
                            if r.get("trace_id") is not None})
        traces = {}
        if trace_lookup is not None and trace_ids:
            traces = trace_lookup(trace_ids)
        document = {
            "reason": "slo-degraded",
            "slo": report.as_dict(),
            "summary": self.summary(),
            "requests": requests,
            "slowest": self.journal_snapshot(),
            "traces": traces,
            "context": context() if context is not None else {},
        }
        path = directory / f"flight-{len(self.flight_dumps):04d}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True)
                        + "\n")
        self.flight_dumps.append(str(path))
        return str(path)


__all__ = [
    "COMPONENTS",
    "DEFAULT_GATEWAY_SLOS",
    "LATENCY_HIST_ARGS",
    "GatewayObsConfig",
    "GatewayObservability",
]
