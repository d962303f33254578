"""The gateway HTTP/WebSocket front-end.

:class:`GatewayServer` owns an ``asyncio.start_server`` listener and a
:class:`~repro.gateway.bridge.GatewayBridge`, which :meth:`start`
binds to the serving event loop: one thread serves the sockets and
runs the simulators.  Request handling is thin: parse, route,
translate the route into an :class:`Op`, await the bridge's future
while the queued op waits its turn, serialize the :class:`OpResult`
as JSON.  All fleet semantics — admission, timeouts, 404-vs-504 — are
the bridge's; all transport concerns — keep-alive, malformed requests,
WebSocket framing — are this module's.

Routes
------

========  ==================================  =======================
method    path                                bridged op
========  ==================================  =======================
GET       /things                             list (read-only)
GET       /things/{id}                        td (read-only)
GET       /things/{id}/properties/{name}      read
POST      /things/{id}/actions/install        install
POST      /things/{id}/actions/{name}         write
GET       /healthz                            none (liveness)
GET       /metrics                            none (OpenMetrics scrape)
GET       /debug/ops                          none (slow-op journal)
GET       /stream                             WebSocket subscription
========  ==================================  =======================

Request correlation: every HTTP request gets a request-id — the
inbound ``X-Request-Id`` when the client sent one, else a generated
``req-N`` — echoed back as a response header and threaded through the
bridged :class:`Op` into the request log, the slow-op journal and the
gateway trace spans.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass
from typing import Optional

from repro.gateway.bridge import GatewayBridge, Op, OpResult
from repro.telemetry.export import (
    OPENMETRICS_CONTENT_TYPE,
    to_openmetrics,
)
from repro.telemetry.series import SeriesBank
from repro.gateway.thing_description import INSTALL_ACTION
from repro.gateway.wire import (
    Request,
    WireError,
    WS_OP_CLOSE,
    WS_OP_PING,
    read_request,
    response_bytes,
    split_target,
    ws_encode,
    ws_encode_text,
    ws_handshake_bytes,
    ws_read,
    WS_OP_PONG,
)

#: Per-subscriber buffered events before the slow consumer drops frames.
STREAM_QUEUE_DEPTH = 1024


@dataclass
class GatewayStats:
    """Server-plane counters (never sim state)."""

    requests: int = 0
    streams: int = 0
    stream_dropped: int = 0

    def as_dict(self) -> dict:
        return {"requests": self.requests, "streams": self.streams,
                "stream_dropped": self.stream_dropped}


class GatewayServer:
    """Serve one bridge over HTTP/WS on ``host:port`` (port 0 = ephemeral)."""

    def __init__(self, bridge: GatewayBridge, *, host: str = "127.0.0.1",
                 port: int = 0,
                 stream_queue_depth: int = STREAM_QUEUE_DEPTH) -> None:
        self.bridge = bridge
        self.host = host
        self.port = port
        self.stream_queue_depth = stream_queue_depth
        self.stats = GatewayStats()
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._request_ids = itertools.count(1)

    @property
    def stream_dropped(self) -> int:
        return self.stats.stream_dropped

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> "GatewayServer":
        self.bridge.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Tear down live connections too: handler tasks must not
        # outlive the server into event-loop close.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        self._connections.clear()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def __aenter__(self) -> "GatewayServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------ connection
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except WireError as exc:
                    writer.write(response_bytes(
                        400, {"error": str(exc)}, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                if request.wants_websocket:
                    await self._serve_stream(request, reader, writer)
                    break
                keep_alive = (request.header("connection").lower()
                              != "close")
                request_id = (request.header("x-request-id")
                              or f"req-{next(self._request_ids)}")
                self.stats.requests += 1
                status, body, content_type, record = await self._dispatch(
                    request, request_id)
                data = response_bytes(
                    status, body, content_type=content_type,
                    keep_alive=keep_alive,
                    extra_headers=(("X-Request-Id", request_id),))
                reply_t0 = time.perf_counter_ns()
                writer.write(data)
                await writer.drain()
                if record is not None and self.bridge.obs is not None:
                    # Close the decomposition: the reply has hit the
                    # socket, so reply-write time is now known.
                    self.bridge.obs.record_reply(
                        record, time.perf_counter_ns() - reply_t0)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown with this connection mid-read: close quietly.
            pass
        finally:
            # RuntimeError: the event loop already closed under us (a
            # keep-alive connection GC'd at interpreter/test teardown).
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    # --------------------------------------------------------------- routing
    async def _dispatch(self, request: Request, request_id: str):
        """Route one request; returns ``(status, body, content_type,
        obs_record)``."""
        path, _params = split_target(request.path)
        segments = [s for s in path.split("/") if s]
        try:
            if request.method == "GET":
                if segments == ["healthz"]:
                    return _json(200, self._healthz())
                if segments == ["metrics"]:
                    return await self._metrics()
                if segments == ["debug", "ops"]:
                    return await self._debug_ops()
                if segments == ["things"]:
                    return await self._bridged(Op("list"), request_id)
                if len(segments) == 2 and segments[0] == "things":
                    thing = _thing_id(segments[1])
                    if thing is None:
                        return _json(404, {"error": f"bad thing id: "
                                                    f"{segments[1]!r}"})
                    return await self._bridged(Op("td", thing=thing),
                                               request_id)
                if (len(segments) == 4 and segments[0] == "things"
                        and segments[2] == "properties"):
                    thing = _thing_id(segments[1])
                    if thing is None:
                        return _json(404, {"error": f"bad thing id: "
                                                    f"{segments[1]!r}"})
                    return await self._bridged(
                        Op("read", thing=thing, name=segments[3]),
                        request_id)
                return _json(404, {"error": f"no route: GET {path}"})
            if request.method == "POST":
                if (len(segments) == 4 and segments[0] == "things"
                        and segments[2] == "actions"):
                    thing = _thing_id(segments[1])
                    if thing is None:
                        return _json(404, {"error": f"bad thing id: "
                                                    f"{segments[1]!r}"})
                    return await self._invoke_action(
                        thing, segments[3], request, request_id)
                return _json(404, {"error": f"no route: POST {path}"})
            return _json(405, {"error": "method not allowed: "
                                        f"{request.method}"})
        except WireError as exc:
            return _json(400, {"error": str(exc)})

    async def _invoke_action(self, thing: int, action: str,
                             request: Request, request_id: str):
        body = request.json()
        if action == INSTALL_ACTION:
            driver = body.get("driver")
            if not isinstance(driver, str):
                return _json(400, {"error": "install needs a string "
                                            "'driver'"})
            return await self._bridged(
                Op("install", thing=thing, name=driver), request_id)
        value = body.get("value")
        if not isinstance(value, int) or isinstance(value, bool):
            return _json(400, {"error": f"action {action!r} needs an "
                                        "integer 'value'"})
        return await self._bridged(
            Op("write", thing=thing, name=action, value=value), request_id)

    async def _bridged(self, op: Op, request_id: str):
        if request_id and not op.request_id:
            op = Op(kind=op.kind, thing=op.thing, name=op.name,
                    value=op.value, request_id=request_id)
        result: OpResult = await asyncio.wrap_future(self.bridge.submit(op))
        body = dict(result.body)
        if result.admitted_ns:
            body["sim"] = {"admitted_ns": result.admitted_ns,
                           "latency_ns": result.sim_latency_ns}
            if result.trace_id is not None:
                body["sim"]["trace_id"] = result.trace_id
        return result.status, body, "application/json", result.record

    # --------------------------------------------------------- observability
    def _healthz(self) -> dict:
        body = {"status": "ok",
                "things": len(self.bridge._things),
                "pacing": self.bridge.pacing,
                "streams": self.stats.streams,
                "stream_dropped": self.stats.stream_dropped,
                "requests": self.stats.requests}
        if self.bridge.obs is not None:
            body["slo"] = self.bridge.obs.last_slo_status
        return body

    async def _metrics(self):
        """OpenMetrics scrape: shard telemetry banks merged (shard
        order) with the gateway's own decomposition bank.  The
        handler runs between ops on the thread that owns the sims, so
        a scrape can never race them."""
        bridge = self.bridge
        banks = [d.telemetry.bank.snapshot()
                 for d in bridge.deployments if d.telemetry is not None]
        if bridge.obs is not None:
            banks.append(bridge.obs.bank.snapshot())
        return (200, to_openmetrics(SeriesBank.merge(banks)),
                OPENMETRICS_CONTENT_TYPE, None)

    async def _debug_ops(self):
        obs = self.bridge.obs
        if obs is None:
            return _json(404, {"error": "gateway observability disabled"})
        return _json(200, {"summary": obs.summary(),
                           "slowest": obs.journal_snapshot(),
                           "server": self.stats.as_dict()})

    # ------------------------------------------------------------- streaming
    async def _serve_stream(self, request: Request, reader, writer) -> None:
        path, _ = split_target(request.path)
        key = request.header("sec-websocket-key")
        if path != "/stream" or not key:
            writer.write(response_bytes(
                404 if path != "/stream" else 400,
                {"error": "websocket upgrade only at /stream"},
                keep_alive=False))
            await writer.drain()
            return
        writer.write(ws_handshake_bytes(key))
        await writer.drain()
        events: "asyncio.Queue" = asyncio.Queue(
            maxsize=self.stream_queue_depth)

        def on_event(message: dict) -> None:
            # Called inside a running op: drop when the consumer can't
            # keep up (a live stream must never apply backpressure to
            # the simulation).
            try:
                events.put_nowait(message)
            except asyncio.QueueFull:
                self.stats.stream_dropped += 1
                if self.bridge.obs is not None:
                    self.bridge.obs.record_stream_dropped(
                        self.stats.stream_dropped)

        self.bridge.subscribe(on_event)
        self.stats.streams += 1
        try:
            sender = asyncio.ensure_future(self._pump_events(events, writer))
            await self._consume_frames(reader, writer)
        finally:
            self.stats.streams -= 1
            self.bridge.unsubscribe(on_event)
            sender.cancel()

    async def _pump_events(self, events: "asyncio.Queue", writer) -> None:
        try:
            while True:
                message = await events.get()
                writer.write(ws_encode_text(
                    json.dumps(message, sort_keys=True)))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionError):
            pass

    async def _consume_frames(self, reader, writer) -> None:
        """Answer pings, exit on close/EOF; inbound text is ignored."""
        try:
            while True:
                opcode, payload = await ws_read(reader)
                if opcode == WS_OP_CLOSE:
                    writer.write(ws_encode(payload, WS_OP_CLOSE))
                    await writer.drain()
                    return
                if opcode == WS_OP_PING:
                    writer.write(ws_encode(payload, WS_OP_PONG))
                    await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, WireError):
            return


def _json(status: int, body: dict):
    """A JSON dispatch result with no obs record."""
    return status, body, "application/json", None


def _thing_id(raw: str) -> Optional[int]:
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


async def serve_forever(bridge: GatewayBridge, *, host: str = "127.0.0.1",
                        port: int = 0) -> None:
    """Run a gateway until cancelled (the ``python -m repro.gateway
    serve`` entry point)."""
    server = await GatewayServer(bridge, host=host, port=port).start()
    print(f"gateway listening on {server.base_url} "
          f"({len(bridge._things)} things, pacing={bridge.pacing})")
    try:
        await asyncio.Event().wait()
    finally:
        await server.close()


__all__ = ["GatewayServer", "GatewayStats", "serve_forever",
           "STREAM_QUEUE_DEPTH"]
