"""The µPnP Thing (§5): an IoT device with µPnP hardware + runtime.

A Thing composes the whole stack of the paper:

* a control board with identification hardware (§3),
* the execution environment — peripheral controller, driver manager,
  VM, event router, native libraries (§4),
* a network stack speaking the µPnP protocol (§5).

Plugging a peripheral board in triggers, in order: hardware
identification, multicast-group generation and join, driver
installation from the manager (if not locally available), driver
activation and finally an unsolicited advertisement — the exact
sequence Table 4 measures.  Every step appends to :attr:`events` with
its simulation timestamp so experiments can observe the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.hw.connector import BusKind
from repro.hw.control_board import ControlBoard
from repro.hw.device_id import ALL_PERIPHERALS, DeviceId
from repro.hw.idcodec import CodecParams, DEFAULT_CODEC
from repro.hw.peripheral_board import PeripheralBoard
from repro.hw.power import EnergyMeter
from repro.interconnect.adc import AdcBus
from repro.interconnect.i2c import I2cBus
from repro.interconnect.spi import SpiBus
from repro.interconnect.uart import UartBus
from repro.net.ipv6 import Ipv6Address
from repro.net.multicast import (
    all_clients_group,
    location_group,
    peripheral_group,
    stream_group,
)
from repro.net.network import Network
from repro.net.packets import UPNP_PORT, UdpDatagram
from repro.net.stack import NetworkStack
from repro.peripherals.base import UartDevice
from repro.protocol import messages as proto
from repro.protocol.messages import SequenceCounter, decode_message
from repro.protocol.reliability import (
    DEFAULT_INSTALL_RETRY,
    MISS,
    DuplicateCache,
    ReplyCache,
    RetryPolicy,
    request_key,
)
from repro.protocol.tlv import Tlv, TlvType
from repro.sim.kernel import EventHandle, Simulator, ns_from_s
from repro.sim.rng import RngRegistry
from repro.snapshot.state import DeclaredState
from repro.vm.driver_manager import DriverManager
from repro.vm.machine import ReturnValue
from repro.vm.peripheral_controller import (
    IdentificationOutcome,
    PeripheralController,
)
from repro.vm.router import EventRouter

#: The µPnP manager anycast address used in Figure 11.
DEFAULT_MANAGER_ANYCAST = "2001:db8:aaaa::1"


@dataclass(frozen=True)
class ThingEvent:
    """One step of the plug-in pipeline, timestamped for experiments."""

    time_s: float
    kind: str
    device_id: Optional[DeviceId] = None
    detail: str = ""


@dataclass
class _InstallRequest:
    """One in-flight driver install request (retransmitted until served)."""

    device_id: DeviceId
    seq: int
    message: bytes
    attempts: int = 1
    timer: Optional[EventHandle] = None

    def cancel(self) -> None:
        if self.timer is not None:
            self.timer.cancel()


@dataclass
class _StreamState:
    device_id: DeviceId
    group: Ipv6Address
    interval_s: float
    subscribers: int = 0
    timer: Optional[EventHandle] = None
    seq: SequenceCounter = field(default_factory=SequenceCounter)


class Thing(DeclaredState):
    """One embedded IoT device running the full µPnP stack."""

    SNAPSHOT_SCHEMA = {
        "layer": "core",
        "version": 1,
        "fields": ("sim", "label", "meter", "_rng", "board", "router",
                   "drivers", "controller", "stack", "_manager_address",
                   "_default_stream_interval_s", "zone", "_seq", "_buses",
                   "_groups", "_pending_driver", "_streams",
                   "_install_traces", "_install_retry", "_retry_rng",
                   "timer_scale", "_install_requests", "_replies",
                   "_reply_cache_hits", "_upload_dups", "_crashed",
                   "_boot_advertise", "events", "_listeners"),
    }

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        *,
        channels: int = 3,
        codec: CodecParams = DEFAULT_CODEC,
        rng: Optional[RngRegistry] = None,
        manager_anycast: str = DEFAULT_MANAGER_ANYCAST,
        default_stream_interval_s: float = 10.0,
        zone: Optional[int] = None,
        label: str = "",
        install_retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.sim = sim
        self.label = label or f"thing-{node_id}"
        self.meter = EnergyMeter()
        rng = rng or RngRegistry(node_id)
        self._rng = rng
        self.board = ControlBoard(
            channels,
            params=codec,
            rng=rng.stream("board"),
            meter=self.meter,
        )
        self.router = EventRouter(sim, meter=self.meter, label=self.label)
        self.drivers = DriverManager(sim, self.router)
        self.controller = PeripheralController(sim, self.board, meter=self.meter)
        self.stack = NetworkStack(network, node_id, meter=self.meter)
        self.stack.bind(UPNP_PORT, self._on_datagram)
        self.controller.on_change(self._on_identification)
        self._manager_address = Ipv6Address.parse(manager_anycast)
        self._default_stream_interval_s = default_stream_interval_s
        #: Physical zone for location-aware groups (§9 extension).
        self.zone = zone
        self._seq = SequenceCounter(node_id * 257)
        self._buses: Dict[int, object] = {}
        self._groups: Dict[int, Ipv6Address] = {}
        self._pending_driver: Dict[int, Set[int]] = {}
        self._streams: Dict[int, _StreamState] = {}
        self._install_traces: Dict[int, int] = {}
        self._install_retry = (
            install_retry if install_retry is not None else DEFAULT_INSTALL_RETRY
        )
        self._retry_rng = rng.stream("install-retry")
        #: Protocol-timer scale (chaos clock-skew hook; 1.0 = nominal).
        self.timer_scale = 1.0
        #: In-flight install requests, keyed by device id (bounded: every
        #: entry either completes or expires after the retry schedule).
        self._install_requests: Dict[int, _InstallRequest] = {}
        #: Request → reply memo: a retransmitted read/write/discovery is
        #: answered from cache, never re-executed (at-most-once).
        self._replies = ReplyCache(512)
        #: Reply-cache hits from caches discarded by crashes (the
        #: telemetry total is monotonic even though the cache is not).
        self._reply_cache_hits = 0
        #: Seen driver uploads; a duplicated upload never flashes twice.
        self._upload_dups = DuplicateCache(256)
        self._crashed = False
        self._boot_advertise = False
        self.events: List[ThingEvent] = []
        self._listeners: List[Callable[[ThingEvent], None]] = []

    # ----------------------------------------------------------- conveniences
    @property
    def address(self) -> Ipv6Address:
        return self.stack.address

    @property
    def network(self) -> Network:
        return self.stack.network

    def log(self, kind: str, device_id: Optional[DeviceId] = None,
            detail: str = "") -> None:
        event = ThingEvent(self.sim.now_s, kind, device_id, detail)
        self.events.append(event)
        for listener in self._listeners:
            listener(event)

    def add_listener(self, listener: Callable[[ThingEvent], None]) -> None:
        """Observe pipeline events as they happen (fleet metrics hook)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[ThingEvent], None]) -> None:
        """Detach a listener added via :meth:`add_listener`.  Idempotent —
        the gateway's streaming fan-out detaches on close without having
        to track whether the attach ever happened."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def events_of(self, kind: str) -> List[ThingEvent]:
        return [e for e in self.events if e.kind == kind]

    def pending_installs(self) -> int:
        """In-flight driver requests (bounded: each expires by policy)."""
        return len(self._install_requests)

    @property
    def reply_cache_hits(self) -> int:
        """Duplicate requests served (or absorbed) by the reply cache.

        Survives crash/reboot cycles: the live cache is replaced on
        crash (volatile RAM), but the running total is telemetry's and
        must not reset with it.
        """
        return self._reply_cache_hits + self._replies.hits

    def set_timer_scale(self, scale: float) -> None:
        """Scale every future protocol timer (chaos clock-skew hook)."""
        if scale <= 0:
            raise ValueError("timer scale must be positive")
        self.timer_scale = scale

    @property
    def crashed(self) -> bool:
        return self._crashed

    # ------------------------------------------------------------ crash/reboot
    def crash(self) -> None:
        """Sudden power loss: volatile state gone, radio silent.

        Installed driver images persist (they live in flash, §4.2); the
        RAM side — active channel bindings, streams, pending requests,
        reply caches, group memberships — is lost.  The network stack is
        downed first so nothing (including stream-closed notifications a
        live unplug would send) escapes the dying node.
        """
        if self._crashed:
            return
        self._crashed = True
        self.log("crashed")
        self.stack.set_down(True)
        for channel in list(self.drivers.active_channels()):
            self.drivers.deactivate(channel)
        for bus in self._buses.values():
            if bus.device is not None:
                device = bus.detach()
                if isinstance(device, UartDevice):
                    device.unbind()
        self._buses.clear()
        for value, group in self._groups.items():
            self.stack.leave_group(group)
            if self.zone is not None:
                self.stack.leave_group(
                    location_group(self.network.prefix48, DeviceId(value),
                                   self.zone)
                )
        self._groups.clear()
        for state in self._streams.values():
            if state.timer is not None:
                state.timer.cancel()
        self._streams.clear()
        for request in self._install_requests.values():
            request.cancel()
        self._install_requests.clear()
        self._pending_driver.clear()
        self._install_traces.clear()
        self._reply_cache_hits += self._replies.hits
        self._replies = ReplyCache(self._replies.capacity)
        self._upload_dups = DuplicateCache(self._upload_dups.capacity)
        self.controller.reset()

    def reboot(self) -> None:
        """Power back on: re-identify attached boards and re-advertise.

        Peripheral boards that stayed physically plugged through the
        outage are re-identified from scratch (the controller's knowledge
        was volatile), re-joined to their groups and re-activated — their
        drivers are still in flash, so no install round-trip is needed —
        ending in a fresh unsolicited advertisement.
        """
        if not self._crashed:
            return
        self._crashed = False
        self.stack.set_down(False)
        self.log("rebooted")
        self._boot_advertise = True
        self.controller.trigger()

    # ------------------------------------------------------------ plug/unplug
    def plug(self, board: PeripheralBoard, channel: Optional[int] = None) -> int:
        """Physically connect a peripheral board (fires the interrupt)."""
        device = board.device
        if device is not None and hasattr(device, "clock"):
            device.clock = lambda: self.sim.now_s
        return self.board.connect(board, channel)

    def unplug(self, channel: int) -> PeripheralBoard:
        """Physically disconnect the board in *channel*."""
        return self.board.disconnect(channel)

    def connected_peripherals(self) -> Dict[int, DeviceId]:
        return self.controller.known_peripherals()

    def read_local(self, device_id: DeviceId | int,
                   callback: Callable[[Optional[ReturnValue]], None]) -> bool:
        """Local (non-networked) read, e.g. for on-device application code."""
        return self.drivers.read(device_id, callback)

    # --------------------------------------------------------- identification
    def _on_identification(self, outcome: IdentificationOutcome) -> None:
        self.log("identification", detail=f"{outcome.report.total_seconds * 1e3:.1f}ms")
        for channel, device_id in outcome.removed.items():
            self._teardown_channel(channel, device_id)
        for channel, device_id in outcome.added.items():
            self._setup_channel(channel, device_id)
        if outcome.removed and not outcome.added:
            # Departures advertise immediately; arrivals advertise at the
            # end of their setup pipeline.
            self._advertise_unsolicited()
        if self._boot_advertise:
            self._boot_advertise = False
            if not outcome.added:
                # Boot scan found nothing new (e.g. no boards survived the
                # outage): still announce we are back.
                self._advertise_unsolicited()

    def _setup_channel(self, channel: int, device_id: DeviceId) -> None:
        self.log("identified", device_id, detail=f"channel {channel}")

        def after_group(group: Ipv6Address) -> None:
            if self._crashed:
                return  # power died while the address was being derived
            self._groups[device_id.value] = group
            self.log("group-generated", device_id, detail=str(group))
            self.stack.join_group(group, lambda: after_join())

        def after_join() -> None:
            if self._crashed:
                return
            self.log("group-joined", device_id)
            if self.zone is not None:
                zoned = location_group(self.network.prefix48, device_id,
                                       self.zone)
                self.stack.join_group(zoned, after_zone_join)
            else:
                self._ensure_driver(channel, device_id)

        def after_zone_join() -> None:
            self.log("location-group-joined", device_id,
                     detail=f"zone {self.zone}")
            self._ensure_driver(channel, device_id)

        self.stack.generate_group_address(device_id, after_group)

    def _ensure_driver(self, channel: int, device_id: DeviceId) -> None:
        if self.drivers.has_driver(device_id):
            self._activate_channel(channel, device_id)
            return
        waiting = self._pending_driver.setdefault(device_id.value, set())
        first_request = not waiting
        waiting.add(channel)
        if first_request:
            request = proto.DriverInstallRequest(self._seq.next(), device_id)
            tracer = self.sim.tracer
            if tracer is not None and tracer.enabled_for("core"):
                trace_id = (tracer.current if tracer.current is not None
                            else tracer.new_trace())
                self._install_traces[device_id.value] = trace_id
                tracer.current = trace_id
                tracer.bind_seq(request.seq, trace_id)
                tracer.async_begin(
                    "driver.install", "core", trace_id,
                    track=tracer.track(f"{self.label} core"),
                    args={"device_id": f"{device_id.value:#010x}"},
                )
            encoded = request.encode()
            state = _InstallRequest(device_id, request.seq, encoded)
            self._install_requests[device_id.value] = state
            self.stack.sendto(
                self._manager_address, UPNP_PORT, encoded,
                src_port=UPNP_PORT,
            )
            self.log("driver-requested", device_id)
            self._arm_install_retry(state)

    def _arm_install_retry(self, state: _InstallRequest) -> None:
        policy = self._install_retry
        delay = policy.backoff_s(state.attempts, self._retry_rng) * self.timer_scale
        if state.attempts >= policy.max_attempts:
            # Out of attempts: one more backoff of grace, then give up.
            state.timer = self.sim.schedule(
                ns_from_s(delay),
                lambda: self._install_give_up(state.device_id),
                name="driver-request-expire",
            )
            return
        state.timer = self.sim.schedule(
            ns_from_s(delay),
            lambda: self._retry_install(state.device_id),
            name="driver-request-retry",
        )

    def _retry_install(self, device_id: DeviceId) -> None:
        state = self._install_requests.get(device_id.value)
        if state is None:
            return
        state.attempts += 1
        self.log("driver-request-retransmit", state.device_id,
                 detail=f"attempt {state.attempts}")
        # Same seq as the original: if the manager already served it, the
        # retransmission hits its reply cache and the upload is re-sent
        # without a second registry serve.
        self.stack.sendto(
            self._manager_address, UPNP_PORT, state.message, src_port=UPNP_PORT,
        )
        self._arm_install_retry(state)

    def _install_give_up(self, device_id: DeviceId) -> None:
        state = self._install_requests.pop(device_id.value, None)
        if state is None:
            return
        self._pending_driver.pop(device_id.value, None)
        trace_id = self._install_traces.pop(device_id.value, None)
        self.log("driver-request-failed", device_id,
                 detail=f"after {state.attempts} attempts")
        tracer = self.sim.tracer
        if (tracer is not None and trace_id is not None
                and tracer.enabled_for("core")):
            tracer.async_end(
                "driver.install", "core", trace_id,
                track=tracer.track(f"{self.label} core"),
                args={"error": "timeout"},
            )

    def _activate_channel(self, channel: int, device_id: DeviceId) -> None:
        board = self.board.board_at(channel)
        if board is None or board.device_id != device_id:
            return  # unplugged while the pipeline was in flight
        bus = self._make_bus(channel, board)
        timing = self.network.timing
        jitter = self._rng.stream("activation").uniform(
            -timing.driver_activation_jitter_s, timing.driver_activation_jitter_s
        )
        activation_s = max(0.0, timing.driver_activation_cpu_s + jitter)

        def do_activate() -> None:
            if self._crashed:
                return  # power died during the activation delay
            current = self.board.board_at(channel)
            if current is not board:
                return
            self.drivers.activate(channel, device_id, bus)
            self.log("driver-activated", device_id, detail=f"channel {channel}")
            self._advertise_unsolicited()

        self.sim.schedule(
            ns_from_s(activation_s), do_activate, name="driver-activate",
        )

    def _make_bus(self, channel: int, board: PeripheralBoard):
        """Create the channel's interconnect and attach the device model.

        Mirrors the control board switching pins 10-12 to the bus the
        identified device type requires (§3.1, Table 1).
        """
        rng = self._rng.stream(f"bus-{channel}")
        if board.bus is BusKind.ADC:
            bus = AdcBus(meter=self.meter, rng=rng)
        elif board.bus is BusKind.I2C:
            bus = I2cBus(meter=self.meter)
        elif board.bus is BusKind.SPI:
            bus = SpiBus(meter=self.meter)
        else:
            bus = UartBus(self.sim, meter=self.meter)
        if board.device is not None:
            bus.attach(board.device)
            if isinstance(board.device, UartDevice):
                board.device.bind(bus)
        self._buses[channel] = bus
        return bus

    def _teardown_channel(self, channel: int, device_id: DeviceId) -> None:
        self.log("removed", device_id, detail=f"channel {channel}")
        self.drivers.deactivate(channel)
        bus = self._buses.pop(channel, None)
        if bus is not None and bus.device is not None:
            device = bus.detach()
            if isinstance(device, UartDevice):
                device.unbind()
        waiting = self._pending_driver.get(device_id.value)
        if waiting is not None:
            waiting.discard(channel)
            if not waiting:
                # Nobody waits for this driver any more: stop
                # retransmitting and drop the bookkeeping (hot-unplug
                # mid-install must not leak pending state).
                self._pending_driver.pop(device_id.value, None)
                request = self._install_requests.pop(device_id.value, None)
                if request is not None:
                    request.cancel()
                self._install_traces.pop(device_id.value, None)
        still_present = device_id in self.connected_peripherals().values()
        if not still_present:
            group = self._groups.pop(device_id.value, None)
            if group is not None:
                self.stack.leave_group(group)
            if self.zone is not None:
                self.stack.leave_group(
                    location_group(self.network.prefix48, device_id, self.zone)
                )
            self._stop_stream(device_id, notify=True)

    # ------------------------------------------------------------- advertising
    def _peripheral_entries(self) -> List[proto.PeripheralEntry]:
        entries = []
        for channel, device_id in sorted(self.connected_peripherals().items()):
            board = self.board.board_at(channel)
            tlvs = [Tlv.byte(TlvType.CHANNEL, channel)]
            if board is not None:
                tlvs.append(Tlv.byte(TlvType.BUS, list(BusKind).index(board.bus)))
                if board.label:
                    tlvs.append(Tlv.text(TlvType.LABEL, board.label[:32]))
            entries.append(proto.PeripheralEntry(device_id, tuple(tlvs)))
        return entries

    def _advertise_unsolicited(self) -> None:
        message = proto.UnsolicitedAdvertisement(
            self._seq.next(), tuple(self._peripheral_entries())
        )
        group = all_clients_group(self.network.prefix48)
        self.stack.sendto(group, UPNP_PORT, message.encode(), src_port=UPNP_PORT)
        self.log("advertised", detail=f"{len(message.peripherals)} peripherals")

    # ------------------------------------------------------------ message pump
    def _on_datagram(self, datagram: UdpDatagram) -> None:
        try:
            message = decode_message(datagram.payload)
        except proto.ProtocolError:
            self.log("bad-message")
            return
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled_for("core"):
            if tracer.current is None:
                # Causal context usually rides the scheduler; the seq
                # binding re-adopts it when a hop severed the chain.
                tracer.current = tracer.trace_for_seq(message.seq)
            tracer.instant(
                f"thing.rx {type(message).__name__}", "core",
                tracer.track(f"{self.label} core"),
                args={"seq": message.seq, "from": str(datagram.src)},
            )
        if isinstance(message, (proto.ReadRequest, proto.WriteRequest,
                                proto.StreamRequest, proto.DriverDiscovery,
                                proto.DriverRemovalRequest)):
            # Requests with side effects or unicast replies go through the
            # reply cache: a retransmission is answered from cache (the
            # reply was probably lost), an in-flight duplicate is dropped.
            # Either way the request body executes at most once.
            key = request_key(datagram.src.value, datagram.src_port,
                              message.seq)
            cached = self._replies.lookup(key)
            if cached is not MISS:
                self.log("dup-request-suppressed",
                         detail=type(message).__name__)
                if cached is not None:
                    address, port = datagram.reply_to()
                    self.stack.sendto(address, port, cached,
                                      src_port=UPNP_PORT)
                return
            self._replies.begin(key)
        if isinstance(message, proto.PeripheralDiscovery):
            self._handle_discovery(message, datagram)
        elif isinstance(message, proto.ReadRequest):
            self._handle_read(message, datagram)
        elif isinstance(message, proto.WriteRequest):
            self._handle_write(message, datagram)
        elif isinstance(message, proto.StreamRequest):
            self._handle_stream_request(message, datagram)
        elif isinstance(message, proto.DriverDiscovery):
            self._handle_driver_discovery(message, datagram)
        elif isinstance(message, proto.DriverRemovalRequest):
            self._handle_driver_removal(message, datagram)
        elif isinstance(message, proto.DriverUpload):
            self._handle_driver_upload(message, datagram)

    def _reply(self, datagram: UdpDatagram, message: proto.Message) -> None:
        encoded = message.encode()
        self._replies.complete(
            request_key(datagram.src.value, datagram.src_port, message.seq),
            encoded,
        )
        address, port = datagram.reply_to()
        self.stack.sendto(address, port, encoded, src_port=UPNP_PORT)

    def _handle_discovery(
        self, message: proto.PeripheralDiscovery, datagram: UdpDatagram
    ) -> None:
        wanted = message.device_id.value
        entries = self._peripheral_entries()
        if wanted != ALL_PERIPHERALS:
            entries = [e for e in entries if e.device_id.value == wanted]
        if not entries:
            return
        self._reply(
            datagram, proto.SolicitedAdvertisement(message.seq, tuple(entries))
        )
        self.log("discovery-answered", message.device_id)

    def _handle_read(self, message: proto.ReadRequest, datagram: UdpDatagram) -> None:
        def complete(value: Optional[ReturnValue]) -> None:
            payload = value.to_payload() if value is not None else b""
            is_array = value.is_array if value is not None else False
            self._reply(
                datagram,
                proto.Data(message.seq, message.device_id, payload, is_array),
            )

        if not self.drivers.read(message.device_id, complete):
            complete(None)

    def _handle_write(self, message: proto.WriteRequest, datagram: UdpDatagram) -> None:
        def complete(value: Optional[ReturnValue]) -> None:
            del value
            self._reply(datagram, proto.WriteAck(message.seq, message.device_id, 0))

        if not self.drivers.write(message.device_id, message.value, complete):
            self._reply(datagram, proto.WriteAck(message.seq, message.device_id, 1))

    # ---------------------------------------------------------------- streams
    def _handle_stream_request(
        self, message: proto.StreamRequest, datagram: UdpDatagram
    ) -> None:
        device_id = message.device_id
        if message.interval_ms == 0xFFFF:  # unsubscribe sentinel
            state = self._streams.get(device_id.value)
            if state is not None:
                state.subscribers = max(0, state.subscribers - 1)
                if state.subscribers == 0:
                    self._stop_stream(device_id, notify=True)
            return
        if self.drivers.runtime_for(device_id) is None:
            return  # no such peripheral here; stay silent
        state = self._streams.get(device_id.value)
        if state is None:
            interval_s = (
                message.interval_ms / 1000.0
                if message.interval_ms
                else self._default_stream_interval_s
            )
            state = _StreamState(
                device_id=device_id,
                group=stream_group(self.network.prefix48, device_id),
                interval_s=interval_s,
            )
            self._streams[device_id.value] = state
            self._schedule_stream_tick(state)
            self.log("stream-started", device_id)
        state.subscribers += 1
        self._reply(
            datagram,
            proto.StreamEstablished(message.seq, device_id, state.group),
        )

    def _schedule_stream_tick(self, state: _StreamState) -> None:
        state.timer = self.sim.schedule(
            ns_from_s(state.interval_s),
            lambda: self._stream_tick(state),
            name="stream-tick",
        )

    def _stream_tick(self, state: _StreamState) -> None:
        if state.device_id.value not in self._streams:
            return

        def publish(value: Optional[ReturnValue]) -> None:
            if value is None or state.device_id.value not in self._streams:
                return
            message = proto.StreamData(
                state.seq.next(), state.device_id,
                value.to_payload(), value.is_array,
            )
            self.stack.sendto(
                state.group, UPNP_PORT, message.encode(), src_port=UPNP_PORT
            )

        self.drivers.read(state.device_id, publish)
        self._schedule_stream_tick(state)

    def _stop_stream(self, device_id: DeviceId, *, notify: bool) -> None:
        state = self._streams.pop(device_id.value, None)
        if state is None:
            return
        if state.timer is not None:
            state.timer.cancel()
        if notify:
            message = proto.StreamClosed(state.seq.next(), device_id)
            self.stack.sendto(
                state.group, UPNP_PORT, message.encode(), src_port=UPNP_PORT
            )
        self.log("stream-stopped", device_id)

    # -------------------------------------------------------- driver management
    def _handle_driver_discovery(
        self, message: proto.DriverDiscovery, datagram: UdpDatagram
    ) -> None:
        ids = tuple(DeviceId(v) for v in self.drivers.installed_ids())
        self._reply(datagram, proto.DriverAdvertisement(message.seq, ids))

    def _handle_driver_removal(
        self, message: proto.DriverRemovalRequest, datagram: UdpDatagram
    ) -> None:
        removed = self.drivers.remove(message.device_id)
        status = 0 if removed else 1
        self._reply(
            datagram, proto.DriverRemovalAck(message.seq, message.device_id, status)
        )

    def _handle_driver_upload(
        self, message: proto.DriverUpload, datagram: UdpDatagram
    ) -> None:
        if self._upload_dups.seen(
            (datagram.src.value, message.seq, message.device_id.value)
        ):
            # The manager re-sent a cached upload (our retransmitted
            # request crossed its reply) or the network duplicated the
            # frame; the first copy is already flashing.  Never twice.
            self.log("dup-upload-suppressed", message.device_id)
            return
        request = self._install_requests.pop(message.device_id.value, None)
        if request is not None:
            request.cancel()
        self.log("driver-upload-received", message.device_id,
                 detail=f"{len(message.image)} bytes")
        timing = self.network.timing
        flash_delay = timing.flash_write_per_byte_s * len(message.image)

        def finish_install() -> None:
            if self._crashed:
                return  # power died mid-flash; the image is lost
            from repro.dsl.bytecode import DriverImage
            from repro.dsl.errors import CompileError

            tracer = self.sim.tracer
            install_trace = self._install_traces.pop(
                message.device_id.value, None)
            if tracer is not None and tracer.current is None:
                tracer.current = install_trace
            try:
                image = DriverImage.unpack(message.image)
            except CompileError as exc:
                self.log("driver-rejected", message.device_id, detail=str(exc))
                return
            # §3.3: "the device drivers associated with an address may be
            # updated at any time" — hot-swap any active instances.
            active = [
                channel
                for channel, device in self.drivers.active_channels().items()
                if device == message.device_id.value
            ]
            for channel in active:
                self.drivers.deactivate(channel)
                bus = self._buses.pop(channel, None)
                if bus is not None and bus.device is not None:
                    device = bus.detach()
                    if isinstance(device, UartDevice):
                        device.unbind()
            self.drivers.install(image)
            self.log("driver-installed", message.device_id,
                     detail=f"{len(message.image)} bytes")
            waiting = self._pending_driver.pop(message.device_id.value, set())
            for channel in sorted(set(waiting) | set(active)):
                self._activate_channel(channel, message.device_id)
            if (tracer is not None and install_trace is not None
                    and tracer.enabled_for("core")):
                tracer.async_end(
                    "driver.install", "core", install_trace,
                    track=tracer.track(f"{self.label} core"),
                    args={"bytes": len(message.image)},
                )

        self.sim.schedule(ns_from_s(flash_delay), finish_install, name="flash-write")


__all__ = ["Thing", "ThingEvent", "DEFAULT_MANAGER_ANYCAST"]
