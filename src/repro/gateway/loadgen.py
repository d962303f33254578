"""Open-loop load generator for the gateway service.

Drives a running :class:`GatewayServer` with a paced mix of registry
lookups (``GET /things``, ``GET /things/{id}``) and property reads
(``GET /things/{id}/properties/{name}``), measures wall-clock latency
percentiles and error rate, and judges the run against declarative
SLOs using the same :mod:`repro.telemetry.health` engine that judges
fleet telemetry — a latency SLO and a read-completion SLO are the same
kind of object, evaluated over the same windowed series format.

Open-loop means arrivals are scheduled on a fixed cadence regardless
of completions (the "users don't wait for each other" model), bounded
by a connection pool: if the service falls behind, queueing shows up
as tail latency — exactly what the p99 SLO is for.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.gateway.obs import LATENCY_HIST_ARGS
from repro.gateway.wire import WireError
from repro.sim.stats import Histogram
from repro.telemetry.health import HealthReport, SloRule, evaluate
from repro.telemetry.series import SeriesBank

#: Default SLOs for the loadgen run.  Latency bounds are generous —
#: the point in CI is the *shape* (windowed verdicts, ok/degraded
#: statuses), regression magnitudes are the sentinel's job.
DEFAULT_SLOS: Tuple[str, ...] = (
    # The fleet's natural in-fleet read-timeout rate (things whose
    # driver install was lost never answer reads) sits around 1-4%;
    # 5% is the service-level regression line, not an aspiration.
    "error_rate: gateway_errors_total/gateway_requests_total <= 5% "
    "window=5",
    "latency_p95: gateway_latency_ms.p95 < 200 window=5",
    "latency_p99: gateway_latency_ms.p99 < 500 window=5",
)


@dataclass(frozen=True)
class LoadConfig:
    """One load-test shape."""

    duration_s: float = 30.0
    lookups_per_min: float = 600.0
    reads_per_min: float = 10_000.0
    #: Persistent keep-alive connections (concurrency bound).
    connections: int = 8
    #: Per-request wall timeout.
    timeout_s: float = 10.0
    #: How many TDs to crawl during warm-up property discovery.
    discover_things: int = 64
    slos: Tuple[str, ...] = DEFAULT_SLOS


class HttpPool:
    """A pool of persistent HTTP/1.1 connections to one host:port."""

    def __init__(self, host: str, port: int, size: int) -> None:
        self.host = host
        self.port = port
        self._idle: "asyncio.Queue" = asyncio.Queue()
        for _ in range(size):
            self._idle.put_nowait(None)  # None = not yet connected

    async def _connect(self):
        return await asyncio.open_connection(self.host, self.port)

    async def request(self, method: str, path: str,
                      body: Optional[dict] = None,
                      timeout_s: float = 10.0,
                      headers: Optional[Dict[str, str]] = None,
                      with_headers: bool = False):
        """Issue one request on a pooled connection.

        Returns ``(status, parsed-json-body)`` — or ``(status,
        response-headers, parsed-body)`` with ``with_headers=True``
        (how tests observe the ``X-Request-Id`` echo).  Transport
        failures raise; HTTP error statuses return normally (the caller
        decides what counts as an SLO "error").
        """
        conn = await self._idle.get()
        try:
            if conn is None:
                conn = await self._connect()
            try:
                result = await asyncio.wait_for(
                    self._roundtrip(conn, method, path, body, headers),
                    timeout_s)
            except (ConnectionError, asyncio.IncompleteReadError):
                # Stale keep-alive connection: retry once on a fresh one.
                conn[1].close()
                conn = await self._connect()
                result = await asyncio.wait_for(
                    self._roundtrip(conn, method, path, body, headers),
                    timeout_s)
            self._idle.put_nowait(conn)
            status, response_headers, parsed = result
            if with_headers:
                return status, response_headers, parsed
            return status, parsed
        except BaseException:
            if conn is not None:
                conn[1].close()
            self._idle.put_nowait(None)
            raise

    async def _roundtrip(self, conn, method: str, path: str,
                         body: Optional[dict],
                         headers: Optional[Dict[str, str]] = None):
        reader, writer = conn
        payload = b"" if body is None else json.dumps(body).encode()
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: keep-alive\r\n")
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += "\r\n"
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
        status_line = await reader.readuntil(b"\r\n")
        parts = status_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise WireError(f"bad status line: {status_line!r}")
        status = int(parts[1])
        length = 0
        response_headers: Dict[str, str] = {}
        while True:
            line = (await reader.readuntil(b"\r\n")).decode("latin-1")
            if line == "\r\n":
                break
            name, _, value = line.partition(":")
            response_headers[name.strip().lower()] = value.strip()
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await reader.readexactly(length) if length else b""
        content_type = response_headers.get("content-type", "")
        if raw and "json" in content_type:
            parsed = json.loads(raw)
        elif raw:
            parsed = raw.decode("utf-8")
        else:
            parsed = {}
        return status, response_headers, parsed

    async def close(self) -> None:
        while not self._idle.empty():
            conn = self._idle.get_nowait()
            if conn is not None:
                conn[1].close()


@dataclass
class LoadResult:
    """Everything one loadgen run measured."""

    config: LoadConfig
    wall_s: float = 0.0
    requests: int = 0
    errors: int = 0
    timeouts: int = 0
    #: Per-kind request latency, ms (``Histogram(*LATENCY_HIST_ARGS)``).
    latencies_ms: Dict[str, Histogram] = field(default_factory=dict)
    health: Optional[HealthReport] = None
    #: Server-side diagnostics fetched after the run (/healthz +
    #: /debug/ops): stream drops and the bridged decomposition.
    server: Dict[str, dict] = field(default_factory=dict)

    @property
    def error_rate(self) -> float:
        return self.errors / self.requests if self.requests else 0.0

    @property
    def requests_per_s(self) -> float:
        return self.requests / self.wall_s if self.wall_s else 0.0

    def _lat_summary(self, hist: Histogram) -> dict:
        count = hist.count
        if not count:
            return {"count": 0}
        return {
            "count": count,
            "p50_latency_ms": round(hist.percentile(50), 3),
            "p95_latency_ms": round(hist.percentile(95), 3),
            "p99_latency_ms": round(hist.percentile(99), 3),
            "mean_ms": round(hist.mean, 3),
            "max_ms": round(hist.maximum, 3),
        }

    def as_dict(self) -> dict:
        merged = Histogram(*LATENCY_HIST_ARGS)
        for hist in self.latencies_ms.values():
            merged = merged.merge(hist)
        reads = self.latencies_ms.get("read")
        doc = {
            "wall_s": round(self.wall_s, 3),
            "requests": self.requests,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "error_rate": round(self.error_rate, 6),
            "requests_per_s": round(self.requests_per_s, 2),
            "reads_per_min": round(60.0 * reads.count / self.wall_s, 1)
            if self.wall_s and reads is not None else 0.0,
            "latency": self._lat_summary(merged),
            "latency_by_kind": {
                kind: self._lat_summary(hist)
                for kind, hist in sorted(self.latencies_ms.items())
            },
        }
        if self.server:
            health = self.server.get("health", {})
            summary = self.server.get("ops", {}).get("summary", {})
            doc["server"] = {
                "stream_dropped": health.get("stream_dropped", 0),
                "requests": health.get("requests", 0),
                "slo_status": summary.get("slo_status"),
                "flight_dumps": summary.get("flight_dumps", []),
                "decomposition": summary.get("kinds", {}),
            }
        if self.health is not None:
            doc["slo"] = {
                "ok": self.health.ok,
                "status": self.health.status,
                "rules": {
                    r.rule.name: {"status": r.status, "ok": r.ok,
                                  "degraded": len(r.degraded_windows),
                                  "windows": len(r.windows)}
                    for r in self.health.results
                },
            }
        return doc


def _mix_schedule(lookups_per_min: float,
                  reads_per_min: float) -> List[str]:
    """Smallest repeating lookup/read interleaving for the given rates."""
    total = lookups_per_min + reads_per_min
    if total <= 0:
        raise ValueError("need a positive request rate")
    if lookups_per_min <= 0:
        return ["read"]
    if reads_per_min <= 0:
        return ["lookup"]
    # Spread the rarer kind evenly through a cycle of ~this many slots.
    cycle = max(2, min(100, round(total / min(lookups_per_min,
                                              reads_per_min))))
    rare = "lookup" if lookups_per_min <= reads_per_min else "read"
    common = "read" if rare == "lookup" else "lookup"
    return [rare] + [common] * (cycle - 1)


async def discover_targets(pool: HttpPool, limit: int, *,
                           probe: bool = False) -> List[Tuple[int, str]]:
    """Crawl the directory and TDs into ``(thing, property)`` pairs.

    With ``probe=True``, each pair is verified with one read and
    non-200 pairs are dropped — a Thing that lost its driver install
    never answers reads, and hammering it would only measure the
    fleet's install success rate, not service latency.  Churn during
    the run can still surface 404s/504s; that residue is what the
    error-rate SLO watches.
    """
    status, directory = await pool.request("GET", "/things")
    if status != 200:
        raise RuntimeError(f"directory fetch failed: {status}")
    targets: List[Tuple[int, str]] = []
    for entry in directory["things"][:limit]:
        thing = int(entry["id"].rsplit(":", 1)[1])
        status, td = await pool.request("GET", f"/things/{thing}")
        if status != 200:
            continue
        for name in sorted(td.get("properties", ())):
            targets.append((thing, name))
    if not probe:
        return targets
    alive: List[Tuple[int, str]] = []
    for thing, name in targets:
        status, _ = await pool.request(
            "GET", f"/things/{thing}/properties/{name}", timeout_s=30.0)
        if status == 200:
            alive.append((thing, name))
    return alive


async def run_load(host: str, port: int,
                   config: LoadConfig) -> LoadResult:
    """Drive the gateway at *config*'s rates; returns measurements."""
    pool = HttpPool(host, port, config.connections)
    result = LoadResult(config)
    bank = SeriesBank(capacity=1_000_000)
    requests_series = bank.series(
        "gateway_requests_total", kind="counter", merge="sum",
        help="Loadgen requests completed")
    errors_series = bank.series(
        "gateway_errors_total", kind="counter", merge="sum",
        help="Loadgen requests that failed (5xx or transport)")
    latency_series = bank.series(
        "gateway_latency_ms", kind="gauge", merge="max", unit="ms",
        help="Per-request wall latency")

    targets = await discover_targets(pool, config.discover_things,
                                     probe=True)
    if not targets:
        raise RuntimeError("no readable properties discovered — warm the "
                           "fleet up (advance) before generating load")
    schedule = _mix_schedule(config.lookups_per_min, config.reads_per_min)
    interval = 60.0 / (config.lookups_per_min + config.reads_per_min)

    counters = {"requests": 0, "errors": 0, "timeouts": 0}
    origin = time.perf_counter()
    pending: set = set()

    def record(kind: str, t_rel: float, latency_ms: float,
               error: bool) -> None:
        counters["requests"] += 1
        if error:
            counters["errors"] += 1
        t_ns = int(t_rel * 1e9)
        requests_series.record(t_ns, counters["requests"])
        errors_series.record(t_ns, counters["errors"])
        latency_series.record(t_ns, latency_ms)
        hist = result.latencies_ms.get(kind)
        if hist is None:
            hist = result.latencies_ms[kind] = Histogram(*LATENCY_HIST_ARGS)
        hist.observe(latency_ms)

    async def one(kind: str, index: int) -> None:
        if kind == "lookup":
            # Alternate directory listings and single-TD fetches.
            thing = targets[index % len(targets)][0]
            path = "/things" if index % 2 == 0 else f"/things/{thing}"
        else:
            thing, prop = targets[index % len(targets)]
            path = f"/things/{thing}/properties/{prop}"
        start = time.perf_counter()
        try:
            status, _body = await pool.request(
                "GET", path, timeout_s=config.timeout_s)
            error = status >= 500
        except asyncio.TimeoutError:
            counters["timeouts"] += 1
            error = True
        except (ConnectionError, OSError, WireError,
                asyncio.IncompleteReadError):
            error = True
        end = time.perf_counter()
        record(kind, end - origin, (end - start) * 1e3, error)

    index = 0
    while True:
        target_t = index * interval
        now = time.perf_counter() - origin
        if now >= config.duration_s:
            break
        if target_t > now:
            await asyncio.sleep(target_t - now)
            if time.perf_counter() - origin >= config.duration_s:
                break
        kind = schedule[index % len(schedule)]
        task = asyncio.ensure_future(one(kind, index))
        pending.add(task)
        task.add_done_callback(pending.discard)
        index += 1

    if pending:
        await asyncio.wait(pending, timeout=config.timeout_s + 5.0)

    # Pull the server's own view of the run: surfaced stream drops and
    # the per-kind queue_wait/sim_exec/reply_write decomposition that
    # attributes whatever tail the latency percentiles above measured.
    try:
        status, health = await pool.request("GET", "/healthz",
                                            timeout_s=config.timeout_s)
        if status == 200:
            result.server["health"] = health
        status, ops_doc = await pool.request("GET", "/debug/ops",
                                             timeout_s=config.timeout_s)
        if status == 200:
            result.server["ops"] = ops_doc
    except (ConnectionError, OSError, WireError, asyncio.TimeoutError,
            asyncio.IncompleteReadError):
        pass
    await pool.close()

    result.wall_s = time.perf_counter() - origin
    result.requests = counters["requests"]
    result.errors = counters["errors"]
    result.timeouts = counters["timeouts"]
    rules = [SloRule.parse(text) for text in config.slos]
    # Judge SLOs over the configured measurement interval only.  The
    # backlog drain after `duration_s` holds just the requests slow
    # enough to straddle the boundary (length-biased sampling), so a
    # partial drain window would read degraded by construction; drain
    # latencies still count in the aggregate percentiles above.
    document = bank.snapshot()
    horizon = int(config.duration_s * 1e9)
    for series in document["series"]:
        series["samples"] = [s for s in series["samples"]
                             if s[0] <= horizon]
    result.health = evaluate(rules, document)
    return result


__all__ = ["DEFAULT_SLOS", "HttpPool", "LoadConfig", "LoadResult",
           "discover_targets", "run_load"]
