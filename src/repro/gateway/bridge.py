"""The gateway bridge: a live simulated fleet behind a request queue.

The bridge owns every shard of a :class:`FleetScenario` (built via
:func:`repro.fleet.runner.live_shards`) and runs them on one dedicated
thread.  Callers — the asyncio HTTP/WebSocket server, the load
generator, tests — submit :class:`Op` values; the bridge thread
dequeues them one at a time, injects each into the owning shard's
simulator, drives that simulator until the operation completes, and
resolves the caller's future.  Concurrent requests therefore
*serialize deterministically* into sim events: whatever the wall-clock
interleaving of arrivals, the fleet only ever observes the total order
the queue produced.

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

``pacing="wall"``: a pacer in the bridge loop keeps every shard's
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

import json
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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
        self._queue: "queue.Queue" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._ops = 0           # logged operations (log index)
        self._admitted = 0      # sim-affecting operations (admission slots)
        self._wall_origin: Optional[float] = None
        self._subscribers: List[Callable[[dict], None]] = []
        self._forwarders: List[Tuple[object, Callable]] = []
        self._telemetry_listeners: List[Tuple[object, Callable]] = []
        self._attach_event_forwarding()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "GatewayBridge":
        """Launch the bridge thread.  Idempotent."""
        if self._thread is None:
            self._running = True
            self._thread = threading.Thread(
                target=self._serve_loop, name="gateway-bridge", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop the bridge thread and detach every listener."""
        if self._thread is not None:
            self._running = False
            self._queue.put(None)
            self._thread.join(timeout=10.0)
            self._thread = None
        for endpoint, listener in self._forwarders:
            endpoint.remove_listener(listener)
        self._forwarders.clear()
        for collector, listener in self._telemetry_listeners:
            collector.remove_sample_listener(listener)
        self._telemetry_listeners.clear()

    def __enter__(self) -> "GatewayBridge":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ submission
    def submit(self, op: Op) -> "Future[OpResult]":
        """Thread-safe: enqueue *op* for the bridge thread; returns a
        future the asyncio server awaits via ``asyncio.wrap_future``.
        The enqueue instant rides along so the decomposition can
        attribute queue-wait separately from sim-drive time."""
        future: "Future[OpResult]" = Future()
        self._queue.put((op, future, time.perf_counter_ns()))
        return future

    def execute(self, op: Op, timeout: Optional[float] = 30.0) -> OpResult:
        """Synchronous convenience (tests, load-generator warm-up)."""
        if self._thread is None:
            # No thread: apply inline — the replay/scripted path.
            return self._apply(op)
        return self.submit(op).result(timeout=timeout)

    def submit_call(self, fn: Callable[[], object]) -> "Future":
        """Enqueue *fn* for the bridge thread without blocking.

        Unlogged, like :meth:`run_on_thread` — the server uses it to
        snapshot telemetry banks without racing the single writer.
        """
        future: "Future" = Future()
        if self._thread is None:
            try:
                future.set_result(fn())
            except Exception as exc:
                future.set_exception(exc)
        else:
            self._queue.put((fn, future, None))
        return future

    def run_on_thread(self, fn: Callable[[], object],
                      timeout: Optional[float] = 30.0):
        """Run *fn* on the bridge thread (chaos/test hook).

        The call is **not** recorded in the request log: anything it
        does to the fleet is outside the determinism contract, exactly
        like a chaos fault injected behind the service's back.
        """
        return self.submit_call(fn).result(timeout=timeout)

    # ------------------------------------------------------------ the thread
    def _serve_loop(self) -> None:
        self._wall_origin = time.perf_counter()
        while self._running:
            try:
                item = self._queue.get(timeout=0.02)
            except queue.Empty:
                if self.pacing == "wall":
                    self._pace_to_wall()
                if self.obs is not None:
                    # Idle SLO sweep: a degraded verdict must still
                    # produce a flight dump when traffic has stopped.
                    self.obs.maybe_check_slo(
                        context=self._flight_context,
                        trace_lookup=self._trace_events_for)
                continue
            if item is None:
                continue
            op, future, enqueued_ns = item
            try:
                if callable(op):
                    result = op()
                else:
                    if self.pacing == "wall":
                        self._pace_to_wall()
                    result = self._apply(op, enqueued_ns=enqueued_ns)
            except Exception as exc:  # surface, don't kill the thread
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

    # ------------------------------------------------------------- operations
    def _apply(self, op: Op, enqueued_ns: Optional[int] = None) -> OpResult:
        """Apply one operation; runs on the bridge thread (or inline
        during replay).  Single writer: nothing else touches the sims.

        Decomposition stamps: *enqueued_ns* is the submit instant (None
        on the inline/replay path → queue_wait 0); dequeue-to-done is
        measured here.  Recording happens strictly after the handler
        ran, so observability can never perturb the sims.
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
            self.obs.maybe_check_slo(context=self._flight_context,
                                     trace_lookup=self._trace_events_for)
        return result

    # --------------------------------------------------------- request tracing
    def _gateway_tracer(self, deployment: ShardDeployment):
        """The shard's tracer, when it records the gateway category."""
        tracer = getattr(deployment.sim, "tracer", None)
        if tracer is None or not tracer.enabled_for("gateway"):
            return None
        return tracer

    def _gw_trace_open(self, tracer, op: Op, trace_id: int,
                       pre_ns: int, admitted: int) -> int:
        """Record the request-scoped envelope: an async span named
        after the op kind plus a back-dated ``gateway.admit`` slice
        covering the admission advance.  All args are deterministic
        (request log + sim state only), so traced exports replay
        byte-identically."""
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

    def _gw_trace_close(self, tracer, op: Op, trace_id: int, track: int,
                        result: OpResult) -> None:
        tracer.async_end(f"gateway.{op.kind}", "gateway", trace_id,
                         track=track,
                         args={"status": result.status,
                               "sim_latency_ns": result.sim_latency_ns})
        tracer.current = None

    def _trace_events_for(self, trace_ids: List[int]) -> Dict[str, list]:
        """Tracer events for the given trace ids, keyed by id — the
        flight recorder's evidence locker (rare path; linear scan of
        each shard's ring is fine)."""
        from repro.obs.export import _sanitize

        wanted = set(trace_ids)
        out: Dict[str, list] = {}
        for deployment in self.deployments:
            tracer = getattr(deployment.sim, "tracer", None)
            if tracer is None:
                continue
            for event in tracer.events:
                if event.trace_id in wanted:
                    out.setdefault(str(event.trace_id),
                                   []).append(_sanitize(event.to_dict()))
        return out

    def _flight_context(self) -> dict:
        return {
            "pacing": self.pacing,
            "quantum_ns": self.quantum_ns,
            "ops_logged": self._ops,
            "admitted": self._admitted,
            "clocks_ns": [d.sim.now_ns for d in self.deployments],
        }

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
                        done: Callable[[], bool]) -> bool:
        """Drive one shard until *done* or the op deadline; True = done.

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
            return True
        deadline = start_ns + self.op_timeout_ns
        origin = sim.now_ns
        sim.run_until(deadline, until=done)
        if not done():
            return False
        chunk = max(self.quantum_ns, 2 * NS_PER_MS)
        chunks = max(1, -(-(sim.now_ns - origin) // chunk))
        sim.run_until(min(deadline, origin + chunks * chunk))
        return True

    def _resolve(self, op: Op):
        entry = self._things.get(op.thing)
        if entry is None:
            return None, None
        deployment, local = entry
        return deployment, deployment.things[local]

    # --- read-only ops ----------------------------------------------------
    def _op_list(self, op: Op) -> OpResult:
        del op
        things = [
            directory_entry(gid, len(self._things[gid][0]
                                     .things[self._things[gid][1]]
                                     .connected_peripherals()))
            for gid in sorted(self._things)
        ]
        return OpResult(200, {"things": things})

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
        pre_ns = deployment.sim.now_ns
        admitted = self._admit(deployment)
        tracer = self._gateway_tracer(deployment)
        if tracer is not None:
            tracer.current = None
        box: List[object] = []
        deployment.client.read(
            thing.address, device_id, box.append,
            timeout_s=self.op_timeout_ns / 2e9,
        )
        # The client just allocated the in-fleet trace id and left it
        # on ``tracer.current``; adopt it as the request's id so the
        # gateway envelope and the protocol/vm spans stitch into one
        # flow in the export.
        trace_id = tracer.current if tracer is not None else None
        track = 0
        if trace_id is not None:
            track = self._gw_trace_open(tracer, op, trace_id,
                                        pre_ns, admitted)
        self._run_until_done(deployment, admitted, lambda: bool(box))
        sim_latency = deployment.sim.now_ns - admitted
        if not box or box[0] is None:
            result = OpResult(504, {"error": "read timed out in-fleet",
                                    "op": "read",
                                    "thing": op.thing, "property": op.name,
                                    "sim_ns_consumed": sim_latency},
                              admitted_ns=admitted,
                              sim_latency_ns=sim_latency)
        else:
            value = box[0]
            result = OpResult(200, {
                "property": op.name,
                "thing": op.thing,
                "value": value.value,
                "ok": value.ok,
                "device_id": str(value.device_id),
            }, admitted_ns=admitted, sim_latency_ns=sim_latency)
        if trace_id is not None:
            self._gw_trace_close(tracer, op, trace_id, track, result)
        result.trace_id = trace_id
        return result

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
        pre_ns = deployment.sim.now_ns
        admitted = self._admit(deployment)
        tracer = self._gateway_tracer(deployment)
        if tracer is not None:
            tracer.current = None
        box: List[object] = []
        deployment.client.write(
            thing.address, device_id, int(op.value), box.append,
            timeout_s=self.op_timeout_ns / 2e9,
        )
        trace_id = tracer.current if tracer is not None else None
        track = 0
        if trace_id is not None:
            track = self._gw_trace_open(tracer, op, trace_id,
                                        pre_ns, admitted)
        self._run_until_done(deployment, admitted, lambda: bool(box))
        sim_latency = deployment.sim.now_ns - admitted
        if not box or box[0] is None:
            result = OpResult(504, {"error": "write timed out in-fleet",
                                    "op": "write",
                                    "thing": op.thing, "action": op.name,
                                    "sim_ns_consumed": sim_latency},
                              admitted_ns=admitted,
                              sim_latency_ns=sim_latency)
        else:
            result = OpResult(200, {
                "action": op.name, "thing": op.thing, "status": box[0],
            }, admitted_ns=admitted, sim_latency_ns=sim_latency)
        if trace_id is not None:
            self._gw_trace_close(tracer, op, trace_id, track, result)
        result.trace_id = trace_id
        return result

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
        track = 0
        if tracer is not None:
            trace_id = tracer.new_trace()
            tracer.current = trace_id
            track = self._gw_trace_open(tracer, op, trace_id,
                                        pre_ns, admitted)
        thing.add_listener(on_event)
        try:
            if not deployment.manager.push_driver(thing.address,
                                                  spec.device_id):
                result = OpResult(404, {
                    "error": f"registry has no driver for {op.name!r}"})
                if trace_id is not None:
                    self._gw_trace_close(tracer, op, trace_id, track,
                                         result)
                result.trace_id = trace_id
                return result
            self._run_until_done(deployment, admitted,
                                 lambda: done["hit"])
        finally:
            thing.remove_listener(on_event)
        sim_latency = deployment.sim.now_ns - admitted
        if not done["hit"]:
            result = OpResult(504, {"error": "install not confirmed in-fleet",
                                    "op": "install",
                                    "thing": op.thing, "driver": op.name,
                                    "sim_ns_consumed": sim_latency},
                              admitted_ns=admitted,
                              sim_latency_ns=sim_latency)
        else:
            result = OpResult(200, {
                "action": INSTALL_ACTION, "thing": op.thing,
                "driver": op.name, "installed": True,
            }, admitted_ns=admitted, sim_latency_ns=sim_latency)
        if trace_id is not None:
            self._gw_trace_close(tracer, op, trace_id, track, result)
        result.trace_id = trace_id
        return result

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
        """Fan live fleet events out to *callback* (bridge-thread calls!).

        The WebSocket layer wraps callbacks with
        ``loop.call_soon_threadsafe``; see GatewayServer.  Events carry
        ``{"type": ..., "time_s": ..., ...}`` JSON-safe payloads.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[dict], None]) -> None:
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

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
            self._forwarders.append((deployment.client, on_client))
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
                self._forwarders.append((thing, on_thing))
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
                self._telemetry_listeners.append(
                    (deployment.telemetry, on_sample))

    def _publish(self, message: dict) -> None:
        if not self._subscribers:
            return
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
        """Rebuild a fleet and apply *ops* in order, without a thread.

        Returns the bridge so callers can compare :meth:`digest`
        against the recording bridge's — the determinism contract test.
        """
        bridge = cls(scenario, **kwargs)
        for op in ops:
            bridge._apply(op)
        return bridge


__all__ = [
    "DEFAULT_QUANTUM_NS",
    "GatewayBridge",
    "Op",
    "OpResult",
    "RequestLog",
    "SIM_OPS",
]
