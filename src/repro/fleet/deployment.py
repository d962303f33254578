"""One gateway shard of a fleet scenario, built and driven to completion.

A :class:`ShardDeployment` owns a private :class:`Simulator` and
:class:`Network` carrying one µPnP manager (the gateway/border router),
one client, and this shard's Things in a star topology around the
gateway.  Churn processes — plug/unplug cycles, driver hot-updates,
client discovery/read/stream traffic — are scheduled from per-node RNG
forks, so a shard's entire event sequence is a deterministic function
of ``(scenario, shard index)``.

Instrumentation points on the plug/discover/install paths (Thing and
Client event listeners, the simulator trace hook, network/stack/router
stats) feed the shard's :class:`~repro.fleet.metrics.Metrics`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.client import Client, ClientEvent, DiscoveredPeripheral
from repro.core.manager import Manager
from repro.core.registry import Registry
from repro.core.thing import Thing, ThingEvent
from repro.drivers.catalog import CATALOG, make_peripheral_board, populate_registry
from repro.fleet.metrics import Metrics
from repro.fleet.scenario import ShardSpec
from repro.hw.device_id import DeviceId
from repro.hw.power import EnergyMeter
from repro.net.network import Network
from repro.protocol.reliability import (
    DEFAULT_INSTALL_RETRY,
    DEFAULT_RETRY,
    NO_RETRY,
)
from repro.sim.kernel import Simulator, ns_from_s
from repro.sim.rng import RngRegistry

#: Node ids inside every shard network.
GATEWAY_NODE = 0
CLIENT_NODE = 1
FIRST_THING_NODE = 2


class ShardDeployment:
    """Build, instrument and run one shard of a fleet scenario."""

    def __init__(self, spec: ShardSpec, metrics: Optional[Metrics] = None) -> None:
        self.spec = spec
        self.scenario = spec.scenario
        self.metrics = metrics or Metrics()
        self.sim = Simulator()
        if self.scenario.trace:
            from repro.obs.tracer import install_tracer

            # The id base keeps trace ids globally unique across the
            # fleet, so the shard-order merge never collides traces.
            install_tracer(
                self.sim,
                limit=self.scenario.trace_limit,
                trace_id_base=(spec.index + 1) << 32,
                label=f"shard-{spec.index}",
            )
        # The per-shard registry root: every stochastic decision in this
        # shard forks from here, never from global state.
        self.rng = RngRegistry(self.scenario.seed).fork(f"shard-{spec.index}")
        self.network = Network(self.sim, rng=self.rng.fork("network"))
        self.registry = Registry()
        populate_registry(self.registry)
        if self.scenario.reliability:
            retry = self.scenario.retry or DEFAULT_RETRY
            install_retry = self.scenario.install_retry or DEFAULT_INSTALL_RETRY
        else:
            retry = install_retry = NO_RETRY
        # Backoff jitter draws from registered streams (not ad-hoc
        # Randoms) so the whole shard's entropy lives in self.rng and
        # checkpoints capture it; fork() caching means these are the
        # same registries the traffic drivers fork later.
        self.manager = Manager(self.sim, self.network, GATEWAY_NODE,
                               self.registry, retry=retry,
                               rng=self.rng.fork("manager").stream("jitter"))
        self.client = Client(
            self.sim, self.network, CLIENT_NODE,
            default_timeout_s=self.scenario.churn.discovery_timeout_s * 4,
            retry=retry,
            rng=self.rng.fork("client").stream("jitter"),
        )
        self.things: List[Thing] = []
        self._thing_rngs: List[RngRegistry] = []
        for local in range(spec.things):
            global_id = spec.first_thing + local
            node_rng = self.rng.fork(f"thing-{global_id}")
            thing = Thing(
                self.sim, self.network, FIRST_THING_NODE + local,
                channels=self.scenario.channels,
                rng=node_rng,
                label=f"thing-{global_id}",
                install_retry=install_retry,
            )
            self.things.append(thing)
            self._thing_rngs.append(node_rng)
            self.network.connect(GATEWAY_NODE, FIRST_THING_NODE + local)
        self.network.connect(GATEWAY_NODE, CLIENT_NODE)
        self.network.build_dodag(GATEWAY_NODE)

        # Known (thing address, device id) pairs the client can read.
        self._known: List[Tuple[object, DeviceId]] = []
        self._active_streams = 0
        self._install_requested_at: Dict[Tuple[int, int], float] = {}
        self._catalog_keys = [key for key, _ in self.scenario.peripheral_mix]
        self._catalog_weights = [w for _, w in self.scenario.peripheral_mix]

        self._wire_instrumentation()

        #: Time-series collector, present only when the scenario asks —
        #: a telemetry-less deployment constructs nothing and keeps the
        #: kernel/network hot paths untouched.
        self.telemetry = None
        if self.scenario.telemetry is not None:
            from repro.telemetry.collector import ShardTelemetry

            self.telemetry = ShardTelemetry(self, self.scenario.telemetry)

        #: Cross-layer profiler, present only when the scenario asks —
        #: same zero-cost-when-absent contract as tracer/telemetry.
        self.profiler = None
        if self.scenario.profile is not None:
            from repro.profile.collector import ShardProfiler

            self.profiler = ShardProfiler(self, self.scenario.profile)

        #: Duty-cycled sampling load (fast-forward certified), present
        #: only when the scenario asks.
        self.samplers: List = []
        self.baselines: List = []
        if self.scenario.sampling is not None:
            from repro.fleet.sampling import install_sampling

            self.samplers, self.baselines = install_sampling(
                self.sim, self.things, self.scenario.sampling,
                first_id=spec.first_thing,
            )
        if self.scenario.fast_forward:
            self.sim.enable_fast_forward()

    # ------------------------------------------------------- instrumentation
    def _wire_instrumentation(self) -> None:
        # The bulk variant keeps the counter identical when a
        # fast-forward window applies n events at once.
        self.sim.add_trace_hook(self._on_sim_event, bulk=self._on_sim_events)
        for thing in self.things:
            thing.add_listener(
                lambda event, t=thing: self._on_thing_event(t, event)
            )
        self.client.add_listener(self._on_client_event)
        self.manager.add_listener(self._on_manager_event)

    def _on_sim_event(self, time_ns: int, name: str) -> None:
        del time_ns, name
        self.metrics.inc("sim.events")

    def _on_sim_events(self, time_ns: int, name: str, n: int) -> None:
        del time_ns, name
        self.metrics.inc("sim.events", n)

    def _on_thing_event(self, thing: Thing, event: ThingEvent) -> None:
        kind = event.kind
        if kind == "identified":
            self.metrics.inc("identifications")
        elif kind == "identification" and event.detail.endswith("ms"):
            self.metrics.observe(
                "latency.identification_s", float(event.detail[:-2]) / 1e3
            )
        elif kind == "driver-requested" and event.device_id is not None:
            self.metrics.inc("driver.requests")
            self._install_requested_at.setdefault(
                (thing.stack.node_id, event.device_id.value), event.time_s
            )
        elif kind == "driver-installed" and event.device_id is not None:
            self.metrics.inc("driver.installs")
            requested = self._install_requested_at.pop(
                (thing.stack.node_id, event.device_id.value), None
            )
            if requested is not None:
                self.metrics.observe(
                    "latency.driver_install_s", event.time_s - requested
                )
        elif kind == "driver-activated":
            self.metrics.inc("driver.activations")
        elif kind == "advertised":
            self.metrics.inc("advertisements")
        elif kind == "removed":
            self.metrics.inc("removals")
        elif kind == "driver-request-retransmit":
            self.metrics.inc("reliability.retransmits")
        elif kind == "driver-request-failed":
            self.metrics.inc("driver.request_failures")
        elif kind in ("dup-upload-suppressed", "dup-request-suppressed"):
            self.metrics.inc("reliability.dups_suppressed")
        elif kind == "crashed":
            self.metrics.inc("chaos.crashes")
        elif kind == "rebooted":
            self.metrics.inc("chaos.reboots")

    def _on_client_event(self, event: ClientEvent) -> None:
        kind = event.kind
        if kind == "discover-sent":
            self.metrics.inc("discoveries.sent")
        elif kind == "discover-first-response" and event.latency_s is not None:
            self.metrics.observe("latency.discovery_s", event.latency_s)
        elif kind == "discover-complete":
            self.metrics.inc("discoveries.completed")
        elif kind == "read-sent":
            self.metrics.inc("reads.sent")
        elif kind == "read-reply" and event.latency_s is not None:
            self.metrics.inc("reads.ok")
            self.metrics.observe("latency.read_s", event.latency_s)
        elif kind == "read-timeout":
            self.metrics.inc("reads.timeout")
        elif kind == "stream-established":
            self.metrics.inc("streams.established")
        elif kind == "stream-data":
            self.metrics.inc("stream.data")
        elif kind.endswith("-retransmit"):
            self.metrics.inc("reliability.retransmits")
        elif kind == "dup-suppressed":
            self.metrics.inc("reliability.dups_suppressed")

    def _on_manager_event(self, event) -> None:
        kind = event.kind
        if kind.endswith("-retransmit"):
            self.metrics.inc("reliability.retransmits")
        elif kind.endswith("-timeout"):
            self.metrics.inc("manager.timeouts")

    # ----------------------------------------------------------- churn drive
    def _pick_peripheral(self, rng: random.Random) -> str:
        return rng.choices(self._catalog_keys, self._catalog_weights, k=1)[0]

    def _start_thing_churn(self, local: int) -> None:
        thing = self.things[local]
        node_rng = self._thing_rngs[local]
        churn_rng = node_rng.stream("churn")
        mfg_rng = node_rng.stream("mfg")
        churn = self.scenario.churn

        def plug_board() -> None:
            free = [
                ch for ch in range(self.scenario.channels)
                if thing.board.board_at(ch) is None
            ]
            if not free:
                return
            key = self._pick_peripheral(churn_rng)
            board = make_peripheral_board(key, rng=mfg_rng)
            thing.plug(board, free[0])
            self.metrics.inc("plugs")

        def churn_tick() -> None:
            occupied = [
                ch for ch in range(self.scenario.channels)
                if thing.board.board_at(ch) is not None
            ]
            if occupied and churn_rng.random() < churn.unplug_probability:
                thing.unplug(churn_rng.choice(occupied))
                self.metrics.inc("unplugs")
            else:
                plug_board()
            self.sim.schedule(
                ns_from_s(churn_rng.expovariate(1.0 / churn.churn_interval_s)),
                churn_tick, name="fleet-churn",
            )

        first_plug_at = churn_rng.uniform(0.0, churn.initial_plug_window_s)
        self.sim.schedule(ns_from_s(first_plug_at), plug_board,
                          name="fleet-first-plug")
        self.sim.schedule(
            ns_from_s(first_plug_at
                      + churn_rng.expovariate(1.0 / churn.churn_interval_s)),
            churn_tick, name="fleet-churn",
        )

    def _start_client_traffic(self) -> None:
        client_rng = self.rng.fork("client")
        discover_rng = client_rng.stream("discover")
        read_rng = client_rng.stream("read")
        stream_rng = client_rng.stream("stream")
        churn = self.scenario.churn

        def discovered(found: List[DiscoveredPeripheral]) -> None:
            for item in found:
                pair = (item.thing, item.device_id)
                if pair not in self._known:
                    self._known.append(pair)
                self.metrics.inc("discoveries.found")
            if found and stream_rng.random() < churn.stream_probability:
                self._subscribe_stream(stream_rng.choice(found))

        def discovery_tick() -> None:
            key = self._pick_peripheral(discover_rng)
            self.client.discover(
                CATALOG[key].device_id, discovered,
                timeout_s=churn.discovery_timeout_s,
            )
            self.sim.schedule(
                ns_from_s(discover_rng.expovariate(
                    1.0 / churn.discovery_interval_s)),
                discovery_tick, name="fleet-discover",
            )

        def read_tick() -> None:
            if self._known:
                thing_addr, device_id = read_rng.choice(self._known)
                self.client.read(thing_addr, device_id, lambda result: None,
                                 timeout_s=churn.read_timeout_s)
            self.sim.schedule(
                ns_from_s(read_rng.expovariate(1.0 / churn.read_interval_s)),
                read_tick, name="fleet-read",
            )

        self.sim.schedule(ns_from_s(0.2), discovery_tick, name="fleet-discover")
        self.sim.schedule(ns_from_s(0.5), read_tick, name="fleet-read")

    def _subscribe_stream(self, found: DiscoveredPeripheral) -> None:
        churn = self.scenario.churn

        def established(handle) -> None:
            if handle is None:
                return
            self._active_streams += 1

            def expire() -> None:
                self._active_streams -= 1
                handle.cancel()

            self.sim.schedule(ns_from_s(churn.stream_lifetime_s), expire,
                              name="fleet-stream-expire")

        self.client.stream(
            found.thing, found.device_id, lambda result: None,
            interval_ms=churn.stream_interval_ms,
            on_established=established,
        )

    def _start_hot_updates(self) -> None:
        update_rng = self.rng.fork("manager").stream("hot-update")
        churn = self.scenario.churn

        def update_tick() -> None:
            thing = update_rng.choice(self.things)
            key = self._pick_peripheral(update_rng)
            if self.manager.push_driver(thing.address, CATALOG[key].device_id):
                self.metrics.inc("driver.hot_updates")
            self.sim.schedule(
                ns_from_s(update_rng.expovariate(
                    1.0 / churn.hot_update_interval_s)),
                update_tick, name="fleet-hot-update",
            )

        self.sim.schedule(
            ns_from_s(update_rng.expovariate(1.0 / churn.hot_update_interval_s)),
            update_tick, name="fleet-hot-update",
        )

    # ---------------------------------------------------------------- running
    #: Event names driving the open-loop load; cancelling them (between
    #: :meth:`start` and :meth:`finalize`) lets in-flight work drain.
    CHURN_EVENT_NAMES = ("fleet-churn", "fleet-discover", "fleet-read",
                        "fleet-hot-update")

    def start(self) -> None:
        """Launch the churn/traffic processes without running the clock.

        Callers (e.g. chaos campaigns) that need to interleave their own
        scheduling use ``start()`` + ``sim.run_until(...)`` +
        :meth:`finalize` instead of :meth:`run`.
        """
        for local in range(len(self.things)):
            self._start_thing_churn(local)
        self._start_client_traffic()
        self._start_hot_updates()

    def finalize(self) -> Metrics:
        """Fold end-of-run counters into the metrics and return them."""
        if self.telemetry is not None:
            # Closing sample (skipped if a tick already sampled "now"),
            # then stop so a subsequent sim.run() can terminate.
            self.telemetry.sample()
            self.telemetry.stop()
        self._collect_final()
        return self.metrics

    def run(self) -> Metrics:
        """Drive the shard for the scenario duration; return its metrics."""
        self.start()
        self.sim.run_until(ns_from_s(self.scenario.duration_s))
        return self.finalize()

    def _collect_final(self) -> None:
        """Fold end-of-run counters from every layer into the metrics."""
        net = self.network.stats
        self.metrics.inc("net.datagrams_sent", net.datagrams_sent)
        self.metrics.inc("net.datagrams_delivered", net.datagrams_delivered)
        self.metrics.inc("net.frames_sent", net.frames_sent)
        self.metrics.inc("net.bytes_sent", net.bytes_sent)
        self.metrics.inc("net.multicast_transmissions",
                         net.multicast_transmissions)
        stack_bytes = 0
        vm_dispatched = 0
        for thing in self.things:
            stack_bytes += thing.stack.stats.bytes_sent
            vm_dispatched += thing.router.stats.dispatched
        stack_bytes += self.client.stack.stats.bytes_sent
        stack_bytes += self.manager.stack.stats.bytes_sent
        self.metrics.inc("net.stack_bytes_sent", stack_bytes)
        self.metrics.inc("vm.events_dispatched", vm_dispatched)
        by_category = EnergyMeter.merge(
            thing.meter.snapshot() for thing in self.things
        )
        self.metrics.gauge("energy.things_joules").add(
            sum(by_category.values()))
        for category, joules in by_category.items():
            self.metrics.gauge(f"energy.{category}_joules").add(joules)
        if self.samplers:
            # Folded in Thing order, so shard metrics are independent of
            # whether ticks ran stepped or fast-forwarded.
            self.metrics.inc("sampling.reads",
                             sum(s.count for s in self.samplers))
            self.metrics.inc("sampling.sum",
                             sum(s.total for s in self.samplers))
            self.metrics.inc("sampling.baseline_ticks",
                             sum(b.count for b in self.baselines))
        self.metrics.inc("manager.install_requests",
                         self.manager.stats.install_requests)
        self.metrics.inc("manager.uploads", self.manager.stats.uploads)
        self.metrics.inc("manager.duplicate_install_requests",
                         self.manager.stats.duplicate_install_requests)
        net_faults = (net.faults_dropped + net.faults_duplicated
                      + net.faults_delayed)
        if net_faults:
            self.metrics.inc("chaos.datagram_faults", net_faults)


__all__ = ["ShardDeployment", "GATEWAY_NODE", "CLIENT_NODE", "FIRST_THING_NODE"]
