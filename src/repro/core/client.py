"""The µPnP Client (§5): discovers and uses remote peripherals.

Clients run "on both embedded IoT devices and standard computing
platforms"; this implementation exposes callback-based discover / read
/ write / stream operations over the simulated network.  Every request
carries a sequence number matched against the reply; unicast requests
are retransmitted with exponential backoff (see
:mod:`repro.protocol.reliability`) until answered or until the request
deadline surfaces a timeout error, and re-delivered datagrams
(retransmitted replies, network-duplicated frames) are suppressed by a
bounded seq cache so no callback fires twice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.hw.device_id import DeviceId
from repro.net.ipv6 import Ipv6Address
from repro.net.multicast import all_clients_group, location_group, peripheral_group
from repro.net.network import Network
from repro.net.packets import UPNP_PORT, UdpDatagram
from repro.protocol.reliability import DEFAULT_RETRY, DuplicateCache, RetryPolicy
from repro.net.stack import NetworkStack
from repro.protocol import messages as proto
from repro.protocol.messages import SequenceCounter, decode_message
from repro.sim.kernel import EventHandle, Simulator, ns_from_s
from repro.snapshot.state import DeclaredState


@dataclass(frozen=True)
class DiscoveredPeripheral:
    """One peripheral found on one Thing."""

    thing: Ipv6Address
    entry: proto.PeripheralEntry

    @property
    def device_id(self) -> DeviceId:
        return self.entry.device_id


@dataclass(frozen=True)
class ReadResult:
    """Decoded reply to a read request."""

    device_id: DeviceId
    payload: bytes
    is_array: bool

    @property
    def ok(self) -> bool:
        return bool(self.payload)

    @property
    def value(self) -> Optional[int]:
        """Scalar interpretation (None for array replies or failures)."""
        if not self.payload or self.is_array:
            return None
        return int.from_bytes(self.payload, "big", signed=True)


class StreamHandle:
    """A live stream subscription; cancel() unsubscribes."""

    def __init__(self, client: "Client", thing: Ipv6Address,
                 device_id: DeviceId, group: Ipv6Address) -> None:
        self._client = client
        self.thing = thing
        self.device_id = device_id
        self.group = group
        self.active = True

    def cancel(self) -> None:
        if self.active:
            self.active = False
            self._client._cancel_stream(self)


@dataclass(frozen=True)
class ClientEvent:
    """One observable client-side operation, timestamped for experiments.

    ``latency_s`` is filled for response events (time since the request
    that they answer was sent).
    """

    time_s: float
    kind: str
    latency_s: Optional[float] = None
    detail: str = ""


@dataclass
class _Pending:
    kind: str
    callback: Callable
    timeout: Optional[EventHandle] = None
    collected: List[DiscoveredPeripheral] = field(default_factory=list)
    sent_ns: int = 0
    trace_id: Optional[int] = None
    #: Wire bytes + destination, kept for retransmission.
    message: bytes = b""
    dst: Optional[Ipv6Address] = None
    attempts: int = 1
    retransmit: Optional[EventHandle] = None

    def cancel_timers(self) -> None:
        if self.timeout is not None:
            self.timeout.cancel()
        if self.retransmit is not None:
            self.retransmit.cancel()


class Client(DeclaredState):
    """A µPnP client endpoint."""

    SNAPSHOT_SCHEMA = {
        "layer": "core",
        "version": 1,
        "fields": ("sim", "stack", "_obs_track", "_seq", "_default_timeout_s",
                   "_retry", "_rng", "timer_scale", "_dups", "_pending",
                   "_streams", "_stream_callbacks",
                   "_advertisement_listeners", "events",
                   "_event_listeners"),
    }

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        *,
        default_timeout_s: float = 5.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.stack = NetworkStack(network, node_id)
        self.stack.bind(UPNP_PORT, self._on_datagram)
        self._obs_track = f"client-{node_id} core"
        self._seq = SequenceCounter(node_id * 4099)
        self._default_timeout_s = default_timeout_s
        self._retry = retry if retry is not None else DEFAULT_RETRY
        #: Deterministic per-node jitter source (never touches the
        #: shared network stream, so arming retransmit timers does not
        #: perturb link-delay draws).  Callers that checkpoint should
        #: inject a registered :mod:`repro.sim.rng` stream; the ad-hoc
        #: default keeps standalone construction seed-stable.
        self._rng = rng if rng is not None else random.Random(
            0x9E3779B1 * (node_id + 1) & 0xFFFFFFFF)
        #: Protocol-timer scale: chaos clock-skew faults stretch or
        #: shrink this node's timeout/backoff clock (1.0 = nominal).
        self.timer_scale = 1.0
        self._dups = DuplicateCache(512)
        self._pending: Dict[int, _Pending] = {}
        self._streams: Dict[int, StreamHandle] = {}          # group.value -> handle
        self._stream_callbacks: Dict[int, Tuple[Callable, Optional[Callable]]] = {}
        self._advertisement_listeners: List[
            Callable[[Ipv6Address, List[proto.PeripheralEntry]], None]
        ] = []
        self.events: List[ClientEvent] = []
        self._event_listeners: List[Callable[[ClientEvent], None]] = []
        # Clients listen on the all-clients group for unsolicited
        # advertisements (§5.2.1, Figure 10).
        self.stack.join_group(all_clients_group(network.prefix48))

    # ------------------------------------------------------------- interface
    @property
    def address(self) -> Ipv6Address:
        return self.stack.address

    def pending_count(self) -> int:
        """Outstanding requests (bounded: every entry expires by timeout)."""
        return len(self._pending)

    def set_timer_scale(self, scale: float) -> None:
        """Scale every future protocol timer (chaos clock-skew hook)."""
        if scale <= 0:
            raise ValueError("timer scale must be positive")
        self.timer_scale = scale

    def on_advertisement(
        self,
        listener: Callable[[Ipv6Address, List[proto.PeripheralEntry]], None],
    ) -> None:
        """Subscribe to unsolicited peripheral advertisements."""
        self._advertisement_listeners.append(listener)

    def add_listener(self, listener: Callable[[ClientEvent], None]) -> None:
        """Observe client operations as they happen (fleet metrics hook)."""
        self._event_listeners.append(listener)

    def remove_listener(self, listener: Callable[[ClientEvent], None]) -> None:
        """Detach a listener added via :meth:`add_listener`.  Idempotent."""
        try:
            self._event_listeners.remove(listener)
        except ValueError:
            pass

    def _log(self, kind: str, *, latency_s: Optional[float] = None,
             detail: str = "") -> None:
        event = ClientEvent(self.sim.now_s, kind, latency_s, detail)
        self.events.append(event)
        for listener in self._event_listeners:
            listener(event)

    def _latency_of(self, pending: _Pending) -> float:
        return (self.sim.now_ns - pending.sent_ns) / 1e9

    def _trace_begin(self, kind: str, seq: int, pending: _Pending,
                     device_id) -> None:
        """Open a causal trace for one request/reply operation.

        The new trace id becomes the scheduler's current context before
        the request is sent, so every downstream hop inherits it; the
        seq binding lets receivers re-adopt it if the chain is severed.
        """
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled_for("core"):
            trace_id = tracer.new_trace()
            pending.trace_id = trace_id
            tracer.current = trace_id
            tracer.bind_seq(seq, trace_id)
            tracer.async_begin(
                f"client.{kind}", "core", trace_id,
                track=tracer.track(self._obs_track),
                args={"seq": seq, "device_id": str(device_id)},
            )

    def _trace_end(self, pending: _Pending, *, timeout: bool = False) -> None:
        tracer = self.sim.tracer
        if (tracer is not None and pending.trace_id is not None
                and tracer.enabled_for("core")):
            args = {"latency_s": self._latency_of(pending)}
            if timeout:
                args["timeout"] = True
            tracer.async_end(
                f"client.{pending.kind}", "core", pending.trace_id,
                track=tracer.track(self._obs_track), args=args,
            )

    def discover(
        self,
        device_id: DeviceId | int,
        callback: Callable[[List[DiscoveredPeripheral]], None],
        *,
        timeout_s: float = 1.0,
        zone: Optional[int] = None,
    ) -> None:
        """Find Things carrying *device_id* (§5.2.1 messages 2/3).

        The request multicasts to the peripheral's group; responses are
        collected until *timeout_s* then delivered together.  With
        *zone* set, the request targets the location-aware group (§9
        extension) and only Things in that physical zone answer.
        """
        device_id = DeviceId(int(getattr(device_id, "value", device_id)))
        seq = self._seq.next()
        pending = _Pending("discover", callback, sent_ns=self.sim.now_ns)
        self._pending[seq] = pending
        self._trace_begin("discover", seq, pending, device_id)
        self._log("discover-sent", detail=str(device_id))
        if zone is None:
            group = peripheral_group(self.stack.network.prefix48, device_id)
        else:
            group = location_group(self.stack.network.prefix48, device_id, zone)
        message = proto.PeripheralDiscovery(seq, device_id)
        self.stack.sendto(group, UPNP_PORT, message.encode(), src_port=UPNP_PORT)
        pending.timeout = self.sim.schedule(
            ns_from_s(timeout_s * self.timer_scale),
            lambda: self._finish_discovery(seq),
            name="discover-timeout",
        )

    def _finish_discovery(self, seq: int) -> None:
        pending = self._pending.pop(seq, None)
        if pending is not None:
            pending.cancel_timers()
            self._trace_end(pending)
            self._log("discover-complete",
                      latency_s=self._latency_of(pending),
                      detail=f"{len(pending.collected)} found")
            pending.callback(list(pending.collected))

    def read(
        self,
        thing: Ipv6Address,
        device_id: DeviceId | int,
        callback: Callable[[Optional[ReadResult]], None],
        *,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Read one value from a peripheral (§5.3.1 messages 10/11)."""
        device_id = DeviceId(int(getattr(device_id, "value", device_id)))
        seq = self._send_unicast(
            thing, proto.ReadRequest, device_id, "read", callback, timeout_s
        )
        del seq

    def write(
        self,
        thing: Ipv6Address,
        device_id: DeviceId | int,
        value: int,
        callback: Callable[[Optional[int]], None],
        *,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Write a value to an actuator (§5.3.1 messages 16/17).

        The callback receives the ack status (0 = ok), or None on timeout.
        """
        device_id = DeviceId(int(getattr(device_id, "value", device_id)))
        seq = self._seq.next()
        pending = _Pending("write", callback, sent_ns=self.sim.now_ns)
        self._pending[seq] = pending
        self._trace_begin("write", seq, pending, device_id)
        self._log("write-sent", detail=str(device_id))
        message = proto.WriteRequest(seq, device_id, value)
        self._transmit(pending, thing, message.encode())
        pending.timeout = self._arm_timeout(seq, timeout_s)
        self._arm_retransmit(seq, pending)

    def stream(
        self,
        thing: Ipv6Address,
        device_id: DeviceId | int,
        on_data: Callable[[ReadResult], None],
        *,
        interval_ms: int = 0,
        on_established: Optional[Callable[[StreamHandle], None]] = None,
        on_closed: Optional[Callable[[], None]] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Subscribe to a value stream (§5.3.1 messages 12-15)."""
        device_id = DeviceId(int(getattr(device_id, "value", device_id)))
        seq = self._seq.next()

        def established(handle: Optional[StreamHandle]) -> None:
            if handle is not None:
                self._stream_callbacks[handle.group.value] = (on_data, on_closed)
            if on_established is not None:
                on_established(handle)

        pending = _Pending("stream", established, sent_ns=self.sim.now_ns)
        self._pending[seq] = pending
        self._trace_begin("stream", seq, pending, device_id)
        self._log("stream-sent", detail=str(device_id))
        message = proto.StreamRequest(seq, device_id, interval_ms)
        self._transmit(pending, thing, message.encode())
        pending.timeout = self._arm_timeout(seq, timeout_s)
        self._arm_retransmit(seq, pending)

    # --------------------------------------------------------------- plumbing
    def _send_unicast(self, thing, msg_cls, device_id, kind, callback,
                      timeout_s) -> int:
        seq = self._seq.next()
        pending = _Pending(kind, callback, sent_ns=self.sim.now_ns)
        self._pending[seq] = pending
        self._trace_begin(kind, seq, pending, device_id)
        self._log(f"{kind}-sent", detail=str(device_id))
        message = msg_cls(seq, device_id)
        self._transmit(pending, thing, message.encode())
        pending.timeout = self._arm_timeout(seq, timeout_s)
        self._arm_retransmit(seq, pending)
        return seq

    def _transmit(self, pending: _Pending, dst: Ipv6Address,
                  encoded: bytes) -> None:
        pending.message = encoded
        pending.dst = dst
        self.stack.sendto(dst, UPNP_PORT, encoded, src_port=UPNP_PORT)

    def _arm_timeout(self, seq: int, timeout_s: Optional[float]) -> EventHandle:
        duration = self._default_timeout_s if timeout_s is None else timeout_s
        return self.sim.schedule(
            ns_from_s(duration * self.timer_scale),
            lambda: self._fire_timeout(seq),
            name="request-timeout",
        )

    def _arm_retransmit(self, seq: int, pending: _Pending) -> None:
        """Schedule the next retransmission, if the policy allows one."""
        policy = self._retry
        if pending.attempts >= policy.max_attempts:
            pending.retransmit = None
            return
        delay = policy.backoff_s(pending.attempts, self._rng) * self.timer_scale
        pending.retransmit = self.sim.schedule(
            ns_from_s(delay),
            lambda: self._retransmit(seq),
            name="client-retransmit",
        )

    def _retransmit(self, seq: int) -> None:
        pending = self._pending.get(seq)
        if pending is None or pending.dst is None:
            return
        pending.attempts += 1
        self._log(f"{pending.kind}-retransmit",
                  detail=f"attempt {pending.attempts}")
        self.stack.sendto(pending.dst, UPNP_PORT, pending.message,
                          src_port=UPNP_PORT)
        self._arm_retransmit(seq, pending)

    def _fire_timeout(self, seq: int) -> None:
        pending = self._pending.pop(seq, None)
        if pending is not None:
            pending.cancel_timers()
            self._trace_end(pending, timeout=True)
            self._log(f"{pending.kind}-timeout",
                      latency_s=self._latency_of(pending),
                      detail=f"after {pending.attempts} attempts")
            pending.callback(None)

    def _cancel_stream(self, handle: StreamHandle) -> None:
        self._stream_callbacks.pop(handle.group.value, None)
        self._streams.pop(handle.group.value, None)
        self.stack.leave_group(handle.group)
        message = proto.StreamRequest(self._seq.next(), handle.device_id, 0xFFFF)
        self.stack.sendto(
            handle.thing, UPNP_PORT, message.encode(), src_port=UPNP_PORT
        )

    # ---------------------------------------------------------------- receive
    def _on_datagram(self, datagram: UdpDatagram) -> None:
        try:
            message = decode_message(datagram.payload)
        except proto.ProtocolError:
            self._log("bad-message")
            return
        if isinstance(message, (proto.UnsolicitedAdvertisement,
                                proto.SolicitedAdvertisement,
                                proto.StreamData)):
            # These fire callbacks without a pending-table pop, so a
            # re-delivered datagram (network duplicate, or a reply to a
            # retransmitted request) must be folded here.  The key
            # includes the device id because per-stream seq counters
            # restart from zero.
            key = (datagram.src.value, message.TYPE.value, message.seq,
                   getattr(message, "device_id", DeviceId(0)).value)
            if self._dups.seen(key):
                self._log("dup-suppressed",
                          detail=type(message).__name__)
                return
        if isinstance(message, proto.UnsolicitedAdvertisement):
            for listener in list(self._advertisement_listeners):
                listener(datagram.src, list(message.peripherals))
            return
        if isinstance(message, proto.SolicitedAdvertisement):
            pending = self._pending.get(message.seq)
            if pending is not None and pending.kind == "discover":
                if not pending.collected:
                    # Discovery latency proper: request to first answer
                    # (the collection window always runs to its timeout).
                    self._log("discover-first-response",
                              latency_s=self._latency_of(pending))
                pending.collected.extend(
                    DiscoveredPeripheral(datagram.src, entry)
                    for entry in message.peripherals
                )
            return
        if isinstance(message, proto.StreamData):
            callbacks = self._stream_callbacks.get(datagram.dst.value)
            if callbacks is not None:
                self._log("stream-data", detail=str(message.device_id))
                callbacks[0](
                    ReadResult(message.device_id, message.payload, message.is_array)
                )
            return
        if isinstance(message, proto.StreamClosed):
            callbacks = self._stream_callbacks.pop(datagram.dst.value, None)
            handle = self._streams.pop(datagram.dst.value, None)
            if handle is not None:
                handle.active = False
                self.stack.leave_group(handle.group)
            if callbacks is not None and callbacks[1] is not None:
                callbacks[1]()
            return
        # Sequence-matched unicast replies.  Duplicates self-suppress:
        # the second pop finds nothing.
        pending = self._pending.pop(message.seq, None)
        if pending is None:
            return
        pending.cancel_timers()
        self._trace_end(pending)
        if isinstance(message, proto.Data) and pending.kind == "read":
            self._log("read-reply", latency_s=self._latency_of(pending))
            pending.callback(
                ReadResult(message.device_id, message.payload, message.is_array)
            )
        elif isinstance(message, proto.WriteAck) and pending.kind == "write":
            self._log("write-ack", latency_s=self._latency_of(pending))
            pending.callback(message.status)
        elif isinstance(message, proto.StreamEstablished) and pending.kind == "stream":
            self._log("stream-established", latency_s=self._latency_of(pending))
            handle = StreamHandle(
                self, datagram.src, message.device_id, message.group
            )
            self._streams[message.group.value] = handle
            self.stack.join_group(
                message.group, lambda: pending.callback(handle)
            )
        else:
            # Unexpected reply type: treat as failure.
            pending.callback(None)


__all__ = ["Client", "ClientEvent", "DiscoveredPeripheral", "ReadResult",
           "StreamHandle"]
