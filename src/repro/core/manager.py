"""The µPnP Manager (§5): driver deployment and remote configuration.

The manager "runs on a server-class device and manages the deployment
and remote configuration of device drivers on µPnP Things".  It serves
driver images from the global :class:`Registry` at an *anycast* IPv6
address, so any of several replicas can answer a Thing's install
request (network-level redundancy, [3]).

Reliability (lossy-mesh hardening): management requests are
retransmitted with exponential backoff until answered or expired, and
served install requests are memoised per ``(source, seq)`` so a
retransmitted :class:`~repro.protocol.messages.DriverInstallRequest`
re-sends the cached upload instead of double-counting a second serve —
at-most-once execution per request, per-mote state only, so one crashed
mote never blocks service to the healthy rest of the fleet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.registry import Registry
from repro.core.thing import DEFAULT_MANAGER_ANYCAST
from repro.hw.device_id import DeviceId
from repro.net.ipv6 import Ipv6Address
from repro.net.network import Network
from repro.net.packets import UPNP_PORT, UdpDatagram
from repro.net.stack import NetworkStack
from repro.protocol import messages as proto
from repro.protocol.messages import SequenceCounter, decode_message
from repro.protocol.reliability import (
    DEFAULT_RETRY,
    MISS,
    ReplyCache,
    RetryPolicy,
    request_key,
)
from repro.sim.kernel import EventHandle, Simulator, ns_from_s
from repro.snapshot.state import DeclaredState


@dataclass
class ManagerStats:
    install_requests: int = 0
    uploads: int = 0
    unknown_driver_requests: int = 0
    #: Retransmitted install requests answered from the reply cache
    #: (no second registry serve, no double upload count).
    duplicate_install_requests: int = 0
    #: Outbound management requests retransmitted after backoff.
    retransmits: int = 0
    #: Management requests that expired unanswered.
    timeouts: int = 0


@dataclass(frozen=True)
class ManagerEvent:
    """One observable manager-side operation (fleet metrics hook)."""

    time_s: float
    kind: str
    detail: str = ""


@dataclass
class _Pending:
    kind: str
    callback: Callable
    timeout: Optional[EventHandle] = None
    message: bytes = b""
    dst: Optional[Ipv6Address] = None
    attempts: int = 1
    retransmit: Optional[EventHandle] = None

    def cancel_timers(self) -> None:
        if self.timeout is not None:
            self.timeout.cancel()
        if self.retransmit is not None:
            self.retransmit.cancel()


class Manager(DeclaredState):
    """A µPnP manager instance backed by the global registry."""

    SNAPSHOT_SCHEMA = {
        "layer": "core",
        "version": 1,
        "fields": ("sim", "registry", "stack", "anycast_address", "_seq",
                   "_default_timeout_s", "_retry", "_rng", "timer_scale",
                   "_pending", "_install_cache", "stats", "events",
                   "_event_listeners", "known_inventories"),
    }

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        registry: Registry,
        *,
        anycast: str = DEFAULT_MANAGER_ANYCAST,
        default_timeout_s: float = 5.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.registry = registry
        self.stack = NetworkStack(network, node_id)
        self.stack.bind(UPNP_PORT, self._on_datagram)
        self.anycast_address = Ipv6Address.parse(anycast)
        self.stack.join_anycast(self.anycast_address)
        self._seq = SequenceCounter(node_id * 7919)
        self._default_timeout_s = default_timeout_s
        self._retry = retry if retry is not None else DEFAULT_RETRY
        #: Backoff-jitter source; inject a registered stream when the
        #: deployment is checkpointable (see :mod:`repro.sim.rng`).
        self._rng = rng if rng is not None else random.Random(
            0x7F4A7C15 * (node_id + 1) & 0xFFFFFFFF)
        #: Protocol-timer scale (chaos clock-skew hook; 1.0 = nominal).
        self.timer_scale = 1.0
        self._pending: Dict[int, _Pending] = {}
        #: Served install requests: (src, port, seq) -> upload bytes.
        self._install_cache = ReplyCache(512)
        self.stats = ManagerStats()
        self.events: List[ManagerEvent] = []
        self._event_listeners: List[Callable[[ManagerEvent], None]] = []
        #: Last known driver inventory per Thing (from advertisements).
        self.known_inventories: Dict[int, Tuple[DeviceId, ...]] = {}

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

    def add_listener(self, listener: Callable[[ManagerEvent], None]) -> None:
        """Observe manager operations as they happen (fleet metrics hook)."""
        self._event_listeners.append(listener)

    def _log(self, kind: str, detail: str = "") -> None:
        event = ManagerEvent(self.sim.now_s, kind, detail)
        self.events.append(event)
        for listener in self._event_listeners:
            listener(event)

    # --------------------------------------------------------------- serving
    def _on_datagram(self, datagram: UdpDatagram) -> None:
        try:
            message = decode_message(datagram.payload)
        except proto.ProtocolError:
            self._log("bad-message")
            return
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled_for("core"):
            if tracer.current is None:
                tracer.current = tracer.trace_for_seq(message.seq)
            tracer.instant(
                f"manager.rx {type(message).__name__}", "core",
                tracer.track("manager core"),
                args={"seq": message.seq, "from": str(datagram.src)},
            )
        if isinstance(message, proto.DriverInstallRequest):
            self._serve_install(message, datagram)
            return
        if isinstance(message, proto.DriverAdvertisement):
            self.known_inventories[datagram.src.value] = tuple(message.device_ids)
        pending = self._pending.pop(message.seq, None)
        if pending is None:
            return
        pending.cancel_timers()
        if isinstance(message, proto.DriverAdvertisement):
            pending.callback(list(message.device_ids))
        elif isinstance(message, proto.DriverRemovalAck):
            pending.callback(message.status)
        else:
            pending.callback(None)

    def _serve_install(
        self, message: proto.DriverInstallRequest, datagram: UdpDatagram
    ) -> None:
        key = request_key(datagram.src.value, datagram.src_port, message.seq)
        cached = self._install_cache.lookup(key)
        if cached is not MISS:
            # A retransmitted request: the original serve either already
            # answered (re-send the cached upload — the first one was
            # probably lost) or is still in its lookup delay (drop).
            self.stats.duplicate_install_requests += 1
            self._log("duplicate-install-request",
                      detail=f"{message.device_id}")
            if cached is not None:
                address, port = datagram.reply_to()
                self.stack.sendto(address, port, cached, src_port=UPNP_PORT)
            return
        self.stats.install_requests += 1
        image = self.registry.driver_image(message.device_id)
        if image is None:
            self.stats.unknown_driver_requests += 1
            # Remember the miss: retransmissions of an unanswerable
            # request are absorbed instead of re-counted.
            self._install_cache.begin(key)
            return
        self._install_cache.begin(key)
        lookup = self.stack.network.timing.manager_lookup_cpu_s
        tracer = self.sim.tracer
        if tracer is not None and tracer.current is not None:
            # The upload reuses the request's seq; keep the binding so
            # the Thing can re-adopt the install trace on receipt.
            tracer.bind_seq(message.seq, tracer.current)

        def upload() -> None:
            reply = proto.DriverUpload(message.seq, message.device_id, image.pack())
            encoded = reply.encode()
            self._install_cache.complete(key, encoded)
            address, port = datagram.reply_to()
            self.stack.sendto(address, port, encoded, src_port=UPNP_PORT)
            self.stats.uploads += 1

        self.sim.schedule(ns_from_s(lookup), upload, name="manager-lookup")

    # ----------------------------------------------------- management actions
    def push_driver(self, thing: Ipv6Address, device_id: DeviceId) -> bool:
        """Proactively deploy a driver to a Thing (unsolicited upload)."""
        image = self.registry.driver_image(device_id)
        if image is None:
            return False
        message = proto.DriverUpload(self._seq.next(), device_id, image.pack())
        self.stack.sendto(thing, UPNP_PORT, message.encode(), src_port=UPNP_PORT)
        self.stats.uploads += 1
        return True

    def discover_drivers(
        self,
        thing: Ipv6Address,
        callback: Callable[[Optional[List[DeviceId]]], None],
        *,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Explore a Thing's installed drivers (§5.3 messages 6/7)."""
        seq = self._seq.next()
        message = proto.DriverDiscovery(seq)
        self._track(seq, "driver-discovery", callback, thing,
                    message.encode(), timeout_s)

    def remove_driver(
        self,
        thing: Ipv6Address,
        device_id: DeviceId,
        callback: Callable[[Optional[int]], None],
        *,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Remove a driver from a Thing (§5.3 messages 8/9)."""
        seq = self._seq.next()
        message = proto.DriverRemovalRequest(seq, device_id)
        self._track(seq, "driver-removal", callback, thing,
                    message.encode(), timeout_s)

    # --------------------------------------------------------------- plumbing
    def _track(self, seq: int, kind: str, callback: Callable,
               dst: Ipv6Address, encoded: bytes,
               timeout_s: Optional[float]) -> None:
        pending = _Pending(kind, callback, message=encoded, dst=dst)
        self._pending[seq] = pending
        self.stack.sendto(dst, UPNP_PORT, encoded, src_port=UPNP_PORT)
        pending.timeout = self._arm_timeout(seq, timeout_s)
        self._arm_retransmit(seq, pending)

    def _arm_timeout(self, seq: int, timeout_s: Optional[float]) -> EventHandle:
        duration = self._default_timeout_s if timeout_s is None else timeout_s
        return self.sim.schedule(
            ns_from_s(duration * self.timer_scale),
            lambda: self._fire_timeout(seq),
            name="manager-timeout",
        )

    def _arm_retransmit(self, seq: int, pending: _Pending) -> None:
        policy = self._retry
        if pending.attempts >= policy.max_attempts:
            pending.retransmit = None
            return
        delay = policy.backoff_s(pending.attempts, self._rng) * self.timer_scale
        pending.retransmit = self.sim.schedule(
            ns_from_s(delay),
            lambda: self._retransmit(seq),
            name="manager-retransmit",
        )

    def _retransmit(self, seq: int) -> None:
        pending = self._pending.get(seq)
        if pending is None or pending.dst is None:
            return
        pending.attempts += 1
        self.stats.retransmits += 1
        self._log(f"{pending.kind}-retransmit",
                  detail=f"attempt {pending.attempts}")
        self.stack.sendto(pending.dst, UPNP_PORT, pending.message,
                          src_port=UPNP_PORT)
        self._arm_retransmit(seq, pending)

    def _fire_timeout(self, seq: int) -> None:
        pending = self._pending.pop(seq, None)
        if pending is not None:
            pending.cancel_timers()
            self.stats.timeouts += 1
            self._log(f"{pending.kind}-timeout",
                      detail=f"after {pending.attempts} attempts")
            pending.callback(None)


__all__ = ["Manager", "ManagerStats", "ManagerEvent"]
