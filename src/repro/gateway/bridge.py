"""The gateway bridge: a live simulated fleet behind an op queue.

The bridge owns every shard of a :class:`FleetScenario` (built via
:func:`repro.fleet.runner.live_shards`).  Callers — the asyncio
HTTP/WebSocket server, the load generator, tests — submit :class:`Op`
values.  Once :meth:`GatewayBridge.start` has bound the bridge to the
running event loop, that loop's thread is the only one that touches
the simulators: ops wait in a deque, and one ``call_soon`` callback at
a time runs the oldest to completion in its shard and resolves its
future, so socket I/O runs between ops.  Concurrent requests therefore
*serialize deterministically* into sim events: the fleet observes only
the queue order, which is the request-log order.  An unbound bridge
applies each op inline at once, as :meth:`GatewayBridge.replay` does.

Virtual-time pacing policies
----------------------------

``pacing="free"`` (the default, and the deterministic one): simulated
time advances only when operations are admitted.  The k-th
sim-affecting operation is admitted at the *admission instant*
``k * quantum_ns`` — a pure function of its position in the request
log, never of wall-clock arrival time — clamped up to the owning
shard's current clock if an earlier operation already drove that shard
past it.  The fleet's entire state (and therefore :meth:`digest`) is a
pure function of the ordered request log, which is what makes a
recorded log replayable: see :meth:`replay`.

``pacing="wall"``: a pacer timer on the bound loop keeps every shard's
clock tracking wall time (times ``speed``), so churn, streams and
telemetry advance while the service idles — the interactive/dashboard
mode.  Wall pacing is explicitly *not* digest-reproducible: admission
instants depend on arrival times.

Determinism contract
--------------------

For a free-paced bridge, ``digest()`` after applying an ordered list
of operations equals ``digest()`` of any other free-paced bridge built
from the same scenario after the same list — across processes, wall
speeds and arrival jitter.  Read-only operations (directory listings,
TD fetches) are logged but consume no admission slot and touch no
simulator, so dashboard polling can never perturb the fleet.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.drivers.catalog import CATALOG
from repro.dsl.types import INT32_MAX, INT32_MIN
from repro.fleet.deployment import ShardDeployment
from repro.fleet.metrics import Metrics
from repro.fleet.runner import live_shards
from repro.fleet.scenario import FleetScenario
from repro.gateway.obs import GatewayObsConfig, GatewayObservability
from repro.gateway.thing_description import (
    INSTALL_ACTION,
    directory_entry,
    thing_description,
)
from repro.sim.kernel import NS_PER_MS, ns_from_s
from repro.snapshot.checkpoint import digest_document

#: Operation kinds that inject sim events (and consume admission slots).
SIM_OPS = ("read", "write", "install", "advance")
#: All legal kinds; "list" and "td" are read-only.
OP_KINDS = SIM_OPS + ("list", "td")

#: Default admission quantum: 1 ms of simulated time per operation.
DEFAULT_QUANTUM_NS = 1 * NS_PER_MS

#: Wall-pacer period: how often an idle wall-paced fleet catches up.
PACE_PERIOD_S = 0.02


@dataclass(frozen=True)
class Op:
    """One bridged operation, pickle/JSON-safe for request logs."""

    kind: str
    thing: int = -1
    #: Property / action / driver-catalogue name, as in the TD.
    name: str = ""
    #: Action input (write value, advance horizon in ns).
    value: Optional[int] = None
    #: Request correlation id (inbound ``X-Request-Id`` or generated
    #: by the server).  Purely observational: never consulted by any
    #: handler, so it cannot perturb the determinism contract — but it
    #: rides the request log, so a replayed op re-labels the same spans.
    request_id: str = ""

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind: {self.kind!r}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "thing": self.thing,
                "name": self.name, "value": self.value,
                "request_id": self.request_id}

    @classmethod
    def from_json(cls, data: dict) -> "Op":
        return cls(kind=data["kind"], thing=data.get("thing", -1),
                   name=data.get("name", ""), value=data.get("value"),
                   request_id=data.get("request_id", ""))


@dataclass
class OpResult:
    """Outcome of one bridged operation.

    ``status`` uses HTTP semantics because the HTTP server is the main
    consumer: 200 ok, 404 unknown thing/affordance, 504 the simulation
    never answered inside the op deadline, 400 bad input.
    """

    status: int
    body: dict = field(default_factory=dict)
    #: Simulated admission instant and completion latency.
    admitted_ns: int = 0
    sim_latency_ns: int = 0
    #: Obs trace id of the in-fleet spans this op caused (None when the
    #: owning shard does not trace or the op never touched a sim).
    trace_id: Optional[int] = None
    #: The observability ring/journal record for this op (shared dict:
    #: the server folds reply-write time into it after the drain).
    record: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class RequestLog:
    """An append-only record of every operation a bridge served."""

    def __init__(self) -> None:
        self.entries: List[dict] = []

    def append(self, index: int, op: Op, admitted_ns: int) -> None:
        entry = op.to_json()
        entry["index"] = index
        entry["admitted_ns"] = admitted_ns
        self.entries.append(entry)

    def ops(self) -> List[Op]:
        return [Op.from_json(entry) for entry in self.entries]

    def to_json(self) -> List[dict]:
        return list(self.entries)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.entries, fh, indent=1)

    @classmethod
    def load(cls, path) -> "RequestLog":
        log = cls()
        with open(path) as fh:
            log.entries = json.load(fh)
        return log


class GatewayBridge:
    """Host a fleet scenario's shards and serialize requests into them."""

    def __init__(
        self,
        scenario: FleetScenario,
        *,
        pacing: str = "free",
        quantum_ns: int = DEFAULT_QUANTUM_NS,
        op_timeout_s: float = 5.0,
        wall_speed: float = 1.0,
        obs: Optional[GatewayObsConfig] = None,
    ) -> None:
        if pacing not in ("free", "wall"):
            raise ValueError(f"unknown pacing policy: {pacing!r}")
        self.scenario = scenario
        self.pacing = pacing
        self.quantum_ns = int(quantum_ns)
        self.op_timeout_ns = ns_from_s(op_timeout_s)
        self.wall_speed = float(wall_speed)
        obs_config = obs or GatewayObsConfig()
        self.obs: Optional[GatewayObservability] = (
            GatewayObservability(obs_config, op_kinds=OP_KINDS)
            if obs_config.enabled else None)
        self.deployments: List[ShardDeployment] = live_shards(scenario)
        self.log = RequestLog()
        #: Global id -> (deployment, local index).
        self._things: Dict[int, Tuple[ShardDeployment, int]] = {}
        for deployment in self.deployments:
            first = deployment.spec.first_thing
            for local in range(len(deployment.things)):
                self._things[first + local] = (deployment, local)
        #: ``(op, future, enqueued_ns)`` awaiting the bound loop.
        self._pending: Deque[tuple] = deque()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[int] = None
        #: The scheduled drain callback and the pacer and SLO timers.
        self._handles: Dict[str, asyncio.Handle] = {}
        self._ops = 0           # logged operations (log index)
        self._admitted = 0      # sim-affecting operations (admission slots)
        self._wall_origin: Optional[float] = None
        self._subscribers: List[Callable[[dict], None]] = []
        #: Undo each listener the event forwarding registered.
        self._detach: List[Callable[[], None]] = []
        self._attach_event_forwarding()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "GatewayBridge":
        """Bind the bridge to the running event loop, whose thread then
        runs every op, the wall pacer and the idle SLO sweep.
        Idempotent; outside a running loop ops keep running inline."""
        if self._loop is None:
            try:
                self._loop = asyncio.get_running_loop()
            except RuntimeError:
                return self
            self._loop_thread = threading.get_ident()
            self._wall_origin = time.perf_counter()
            if self.pacing == "wall":
                self._every("pace", PACE_PERIOD_S, self._pace_to_wall)
            if self.obs is not None:
                self._every("slo", max(PACE_PERIOD_S,
                                       self.obs.config.slo_check_interval_s),
                            self._check_slo)
        return self

    def close(self) -> None:
        """Unbind from the loop (call it on the loop's thread) and
        detach every listener.  Queued ops are cancelled unrun and
        unlogged."""
        for handle in self._handles.values():
            handle.cancel()
        self._handles.clear()
        while self._pending:
            self._pending.popleft()[1].cancel()
        self._loop = self._loop_thread = None
        for detach in self._detach:
            detach()
        self._detach.clear()

    def _every(self, name: str, period_s: float,
               fn: Callable[[], None]) -> None:
        """Run *fn* on the bound loop every *period_s* until close()."""
        def tick() -> None:
            self._handles[name] = self._loop.call_later(period_s, tick)
            fn()

        self._handles[name] = self._loop.call_later(period_s, tick)

    def _on_loop(self) -> bool:
        """True when unbound or when called on the bound loop's thread."""
        return self._loop_thread in (None, threading.get_ident())

    # ------------------------------------------------------------ submission
    def submit(self, op: Op):
        """Queue *op* behind every op already submitted; returns its
        future (already done when unbound).

        On the loop's thread it is an ``asyncio.Future``; from another
        thread a ``concurrent.futures.Future``, and the op hops onto
        the loop with ``call_soon_threadsafe``.  The enqueue instant
        rides along to split queue-wait from sim-drive time.
        """
        if self._loop is None:
            return _settled(Future(), self._apply, op)
        enqueued_ns = time.perf_counter_ns()
        if self._on_loop():
            future = self._loop.create_future()
            self._enqueue((op, future, enqueued_ns))
        else:
            future = Future()
            self._loop.call_soon_threadsafe(
                self._enqueue, (op, future, enqueued_ns))
        return future

    def execute(self, op: Op, timeout: Optional[float] = 30.0) -> OpResult:
        """Synchronous convenience (tests, load-generator warm-up): on
        the loop's thread or unbound the op runs inline at once."""
        if self._on_loop():
            return self._apply(op)
        return self.submit(op).result(timeout=timeout)

    def submit_call(self, fn: Callable[[], object]) -> "Future":
        """Run *fn* between ops, unlogged; returns a future.  On the
        loop's thread (or unbound) *fn* runs at once."""
        if self._on_loop():
            return _settled(Future(), fn)
        future: "Future" = Future()
        self._loop.call_soon_threadsafe(self._run, fn, future, None)
        return future

    def run_on_thread(self, fn: Callable[[], object],
                      timeout: Optional[float] = 30.0):
        """Run *fn* on the thread that owns the simulators (chaos/test
        hook) and return its result.

        The call is **not** recorded in the request log: anything it
        does to the fleet is outside the determinism contract, exactly
        like a chaos fault injected behind the service's back.
        """
        return self.submit_call(fn).result(timeout=timeout)

    # -------------------------------------------------------------- the queue
    def _enqueue(self, item: tuple) -> None:
        if self._loop is None:  # closed while the op hopped on
            item[1].cancel()
            return
        self._pending.append(item)
        if "drain" not in self._handles:
            self._handles["drain"] = self._loop.call_soon(self._drain)

    def _drain(self) -> None:
        """Run the oldest queued op; the next one waits a loop turn."""
        del self._handles["drain"]
        op, future, enqueued_ns = self._pending.popleft()
        if self._pending:
            self._handles["drain"] = self._loop.call_soon(self._drain)
        self._run(op, future, enqueued_ns)

    def _run(self, op, future, enqueued_ns: Optional[int]) -> None:
        # A caller that cancelled before the op started gets no op: it
        # is neither run nor logged.
        started = (future.set_running_or_notify_cancel()
                   if isinstance(future, Future) else not future.cancelled())
        if not started:
            return
        try:
            if callable(op):
                result = op()
            else:
                if self.pacing == "wall":
                    self._pace_to_wall()
                result = self._apply(op, enqueued_ns=enqueued_ns)
        except Exception as exc:  # surface to the caller, keep serving
            future.set_exception(exc)
        else:
            future.set_result(result)

    def _pace_to_wall(self) -> None:
        """Advance every shard toward wall-elapsed * speed (wall mode)."""
        target_ns = int((time.perf_counter() - self._wall_origin)
                        * self.wall_speed * 1e9)
        for deployment in self.deployments:
            if deployment.sim.now_ns < target_ns:
                deployment.sim.run_until(target_ns)

    def _check_slo(self) -> None:
        # After every op, and idle so a degraded verdict still dumps.
        self.obs.maybe_check_slo(self._flight_context,
                                 self._trace_events_for)

    # ------------------------------------------------------------- operations
    def _apply(self, op: Op, enqueued_ns: Optional[int] = None) -> OpResult:
        """Apply one operation: the single writer of the sims.

        *enqueued_ns* is the submit instant (None inline → queue_wait
        0); dequeue-to-done is measured here.  Recording happens after
        the handler ran, so observability can never perturb the sims.
        """
        handler = getattr(self, f"_op_{op.kind}")
        index = self._ops
        self._ops += 1
        started_ns = time.perf_counter_ns()
        result = handler(op)
        finished_ns = time.perf_counter_ns()
        self.log.append(index, op, result.admitted_ns)
        if self.obs is not None:
            queue_wait_ns = (0 if enqueued_ns is None
                             else max(0, started_ns - enqueued_ns))
            result.record = self.obs.record_op(
                index, op, result,
                queue_wait_ns=queue_wait_ns,
                sim_exec_ns=finished_ns - started_ns)
            self._check_slo()
        return result

    # --------------------------------------------------------- request tracing
    def _gateway_tracer(self, deployment: ShardDeployment):
        """The shard's tracer, when it records the gateway category."""
        tracer = getattr(deployment.sim, "tracer", None)
        if tracer is None or not tracer.enabled_for("gateway"):
            return None
        return tracer

    def _gw_trace_open(self, tracer, op: Op, trace_id: Optional[int],
                       pre_ns: int, admitted: int) -> int:
        """Record the request-scoped envelope: an async span named
        after the op kind plus a back-dated ``gateway.admit`` slice
        covering the admission advance.  All args are deterministic
        (request log + sim state only), so traced exports replay
        byte-identically.  Returns the track (0 when untraced)."""
        if trace_id is None:
            return 0
        track = tracer.track("gateway")
        tracer.async_begin(f"gateway.{op.kind}", "gateway", trace_id,
                           track=track,
                           args={"request_id": op.request_id,
                                 "thing": op.thing, "name": op.name,
                                 "admitted_ns": admitted})
        tracer.complete("gateway.admit", "gateway", track,
                        admitted - pre_ns, ts_ns=pre_ns,
                        trace_id=trace_id,
                        args={"request_id": op.request_id})
        return track

    def _finish(self, op: Op, tracer, trace_id: Optional[int], track: int,
                result: OpResult) -> OpResult:
        """Close the op's envelope, if traced, and stamp its trace id."""
        if trace_id is not None:
            tracer.async_end(f"gateway.{op.kind}", "gateway", trace_id,
                             track=track,
                             args={"status": result.status,
                                   "sim_latency_ns": result.sim_latency_ns})
            tracer.current = None
        result.trace_id = trace_id
        return result

    def _trace_events_for(self, trace_ids: List[int]) -> Dict[str, list]:
        """Tracer events for the given trace ids, keyed by id — the
        flight recorder's evidence locker (rare path; linear scan of
        each shard's ring is fine)."""
        from repro.obs.export import _sanitize

        wanted = set(trace_ids)
        out: Dict[str, list] = {}
        for deployment in self.deployments:
            tracer = getattr(deployment.sim, "tracer", None)
            for event in tracer.events if tracer is not None else ():
                if event.trace_id in wanted:
                    out.setdefault(str(event.trace_id),
                                   []).append(_sanitize(event.to_dict()))
        return out

    def _flight_context(self) -> dict:
        return {"pacing": self.pacing, "quantum_ns": self.quantum_ns,
                "ops_logged": self._ops, "admitted": self._admitted,
                "clocks_ns": [d.sim.now_ns for d in self.deployments]}

    def _admit(self, deployment: ShardDeployment) -> int:
        """Advance *deployment* to the next admission instant.

        Free pacing: the instant is ``slots * quantum`` — position in
        the request order, not wall time — clamped up to the shard's
        clock when an earlier op already drove it further.  Wall
        pacing: simply the shard's current clock (the pacer owns time).
        """
        self._admitted += 1
        sim = deployment.sim
        if self.pacing == "wall":
            return sim.now_ns
        admit_ns = max(sim.now_ns, self._admitted * self.quantum_ns)
        if admit_ns > sim.now_ns:
            sim.run_until(admit_ns)
        return admit_ns

    def _run_until_done(self, deployment: ShardDeployment, start_ns: int,
                        done: Callable[[], bool]) -> None:
        """Drive one shard until *done* or the op deadline.

        One stop-aware ``run_until`` runs the op to its completing
        event, so fast-forward windows span the whole op.  The shard
        then runs on to the end of the chunk that holds the completion:
        chunks are ``max(quantum, 2 ms)`` long, counted from the shard
        clock on entry, and the last one ends at the deadline.  That
        keeps every op's end instant, and so its ``sim_latency_ns``
        and the fleet digest, on the chunk grid.
        """
        sim = deployment.sim
        if done():
            return
        deadline = start_ns + self.op_timeout_ns
        origin = sim.now_ns
        sim.run_until(deadline, until=done)
        if done():
            chunk = max(self.quantum_ns, 2 * NS_PER_MS)
            chunks = max(1, -(-(sim.now_ns - origin) // chunk))
            sim.run_until(min(deadline, origin + chunks * chunk))

    def _resolve(self, op: Op):
        entry = self._things.get(op.thing)
        if entry is None:
            return None, None
        deployment, local = entry
        return deployment, deployment.things[local]

    # --- read-only ops ----------------------------------------------------
    def _op_list(self, op: Op) -> OpResult:
        del op
        return OpResult(200, {"things": [
            directory_entry(gid, len(d.things[local].connected_peripherals()))
            for gid, (d, local) in sorted(self._things.items())]})

    def _op_td(self, op: Op) -> OpResult:
        deployment, thing = self._resolve(op)
        if thing is None:
            return OpResult(404, {"error": f"no such thing: {op.thing}"})
        td = thing_description(
            op.thing, thing.connected_peripherals().items(),
            registry=deployment.registry,
        )
        return OpResult(200, td)

    # --- sim-affecting ops ------------------------------------------------
    def _property_device(self, thing, name: str):
        """Map a TD property name to a plugged device id (or None)."""
        spec = CATALOG.get(name)
        if spec is None:
            return None
        plugged = set(thing.connected_peripherals().values())
        return spec.device_id if spec.device_id in plugged else None

    def _op_read(self, op: Op) -> OpResult:
        deployment, thing = self._resolve(op)
        if thing is None:
            return OpResult(404, {"error": f"no such thing: {op.thing}"})
        device_id = self._property_device(thing, op.name)
        if device_id is None:
            # Unknown or unplugged property: answered at the service
            # layer — no sim event, no sim-side exception, ever.
            return OpResult(404, {
                "error": f"no such property: {op.name!r}",
                "thing": op.thing,
            })
        return self._client_op(
            op, deployment, "property",
            lambda done, timeout_s: deployment.client.read(
                thing.address, device_id, done, timeout_s=timeout_s),
            lambda value: {"property": op.name, "thing": op.thing,
                           "value": value.value, "ok": value.ok,
                           "device_id": str(value.device_id)})

    def _op_write(self, op: Op) -> OpResult:
        deployment, thing = self._resolve(op)
        if thing is None:
            return OpResult(404, {"error": f"no such thing: {op.thing}"})
        if op.value is None:
            return OpResult(400, {"error": "write needs a 'value'"})
        if not INT32_MIN <= int(op.value) <= INT32_MAX:
            # The protocol packs write values as signed int32.  Reject
            # before admission: a rejected op must not touch the sim.
            return OpResult(400, {"error": "write 'value' must fit a "
                                           "signed 32-bit integer"})
        key = op.name[:-len("-write")] if op.name.endswith("-write") else op.name
        device_id = self._property_device(thing, key)
        if device_id is None:
            return OpResult(404, {"error": f"no such action: {op.name!r}"})
        return self._client_op(
            op, deployment, "action",
            lambda done, timeout_s: deployment.client.write(
                thing.address, device_id, int(op.value), done,
                timeout_s=timeout_s),
            lambda status: {"action": op.name, "thing": op.thing,
                            "status": status})

    def _client_op(self, op: Op, deployment: ShardDeployment, target: str,
                   call: Callable, body: Callable) -> OpResult:
        """Admit one client RPC, drive its shard to the reply, answer."""
        pre_ns = deployment.sim.now_ns
        admitted = self._admit(deployment)
        tracer = self._gateway_tracer(deployment)
        if tracer is not None:
            tracer.current = None
        box: List[object] = []
        call(box.append, self.op_timeout_ns / 2e9)
        # The client just allocated the in-fleet trace id and left it
        # on ``tracer.current``; adopt it as the request's id so the
        # gateway envelope and the protocol/vm spans stitch into one
        # flow in the export.
        trace_id = tracer.current if tracer is not None else None
        track = self._gw_trace_open(tracer, op, trace_id, pre_ns, admitted)
        self._run_until_done(deployment, admitted, lambda: bool(box))
        reply = box[0] if box else None
        result = self._answer(op, deployment, admitted, target,
                              None if reply is None else body(reply),
                              f"{op.kind} timed out in-fleet")
        return self._finish(op, tracer, trace_id, track, result)

    def _answer(self, op: Op, deployment: ShardDeployment, admitted: int,
                target: str, body: Optional[dict], error: str) -> OpResult:
        """200 with *body*, or 504 naming the op's *target* when None."""
        sim_latency = deployment.sim.now_ns - admitted
        if body is None:
            return OpResult(504, {"error": error, "op": op.kind,
                                  "thing": op.thing, target: op.name,
                                  "sim_ns_consumed": sim_latency},
                            admitted_ns=admitted, sim_latency_ns=sim_latency)
        return OpResult(200, body, admitted_ns=admitted,
                        sim_latency_ns=sim_latency)

    def _op_install(self, op: Op) -> OpResult:
        deployment, thing = self._resolve(op)
        if thing is None:
            return OpResult(404, {"error": f"no such thing: {op.thing}"})
        spec = CATALOG.get(op.name)
        if spec is None:
            return OpResult(404, {"error": f"no such driver: {op.name!r}"})
        pre_ns = deployment.sim.now_ns
        admitted = self._admit(deployment)
        done = {"hit": False}
        wanted = spec.device_id.value

        def on_event(event) -> None:
            if (event.kind in ("driver-installed", "dup-upload-suppressed")
                    and event.device_id is not None
                    and event.device_id.value == wanted):
                done["hit"] = True

        # push_driver sends straight through the stack without its own
        # trace allocation, so the gateway mints the request's trace id
        # and leaves it current: the scheduled send events capture it
        # and the whole upload chain inherits it.
        tracer = self._gateway_tracer(deployment)
        trace_id = None
        if tracer is not None:
            trace_id = tracer.current = tracer.new_trace()
        track = self._gw_trace_open(tracer, op, trace_id, pre_ns, admitted)
        thing.add_listener(on_event)
        try:
            if not deployment.manager.push_driver(thing.address,
                                                  spec.device_id):
                return self._finish(op, tracer, trace_id, track, OpResult(
                    404, {"error": f"registry has no driver for "
                                   f"{op.name!r}"}))
            self._run_until_done(deployment, admitted,
                                 lambda: done["hit"])
        finally:
            thing.remove_listener(on_event)
        result = self._answer(
            op, deployment, admitted, "driver",
            {"action": INSTALL_ACTION, "thing": op.thing,
             "driver": op.name, "installed": True} if done["hit"] else None,
            "install not confirmed in-fleet")
        return self._finish(op, tracer, trace_id, track, result)

    def _op_advance(self, op: Op) -> OpResult:
        """Advance every shard by ``value`` ns (warm-up, tests, replay)."""
        horizon = int(op.value or 0)
        if horizon <= 0:
            return OpResult(400, {"error": "advance needs a positive ns "
                                           "'value'"})
        self._admitted += 1
        for deployment in self.deployments:
            deployment.sim.run_until(deployment.sim.now_ns + horizon)
        return OpResult(200, {"advanced_ns": horizon})

    # ------------------------------------------------------------- streaming
    def subscribe(self, callback: Callable[[dict], None]) -> None:
        """Fan live fleet events out to *callback*, called from inside
        the op that caused them (on the bound loop's thread).

        Events carry ``{"type": ..., "time_s": ..., ...}`` JSON-safe
        payloads.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[dict], None]) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def _attach_event_forwarding(self) -> None:
        for deployment in self.deployments:
            shard = deployment.spec.index
            first = deployment.spec.first_thing

            def on_client(event, shard=shard):
                self._publish({
                    "type": "client-event", "shard": shard,
                    "kind": event.kind, "time_s": event.time_s,
                    "latency_s": event.latency_s, "detail": event.detail,
                })

            deployment.client.add_listener(on_client)
            self._detach.append(functools.partial(
                deployment.client.remove_listener, on_client))
            for local, thing in enumerate(deployment.things):
                def on_thing(event, gid=first + local, shard=shard):
                    self._publish({
                        "type": "thing-event", "shard": shard, "thing": gid,
                        "kind": event.kind, "time_s": event.time_s,
                        "device_id": (str(event.device_id)
                                      if event.device_id else None),
                        "detail": event.detail,
                    })

                thing.add_listener(on_thing)
                self._detach.append(functools.partial(
                    thing.remove_listener, on_thing))
            if deployment.telemetry is not None:
                def on_sample(time_ns, collector, shard=shard):
                    self._publish({
                        "type": "telemetry-sample", "shard": shard,
                        "time_s": time_ns / 1e9,
                        "series": {
                            ts.name: ts.last[1]
                            for ts in collector.bank
                            if ts.last is not None and not ts.labels
                        },
                    })

                deployment.telemetry.add_sample_listener(on_sample)
                self._detach.append(functools.partial(
                    deployment.telemetry.remove_sample_listener, on_sample))

    def _publish(self, message: dict) -> None:
        for callback in list(self._subscribers):
            callback(message)

    # ----------------------------------------------------------- determinism
    def digest(self) -> str:
        """Canonical digest of the whole hosted fleet's deterministic
        state: merged metrics plus every shard's clock.  A pure
        function of ``(scenario, ordered request log)`` under free
        pacing."""
        document = {
            "merged": Metrics.merge(
                [d.metrics.snapshot() for d in self.deployments]),
            "clocks": [d.sim.now_ns for d in self.deployments],
        }
        return digest_document(document)

    @classmethod
    def replay(cls, scenario: FleetScenario, ops: List[Op],
               **kwargs) -> "GatewayBridge":
        """Rebuild a fleet and apply *ops* in order, inline.

        Returns the bridge so callers can compare :meth:`digest`
        against the recording bridge's — the determinism contract test.
        """
        bridge = cls(scenario, **kwargs)
        for op in ops:
            bridge._apply(op)
        return bridge


def _settled(future, fn: Callable, *args):
    """Settle *future* with ``fn(*args)`` or the exception it raised."""
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


__all__ = [
    "DEFAULT_QUANTUM_NS",
    "GatewayBridge",
    "Op",
    "OpResult",
    "RequestLog",
    "SIM_OPS",
]
