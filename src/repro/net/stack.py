"""Per-node network stack: addresses, sockets, groups (§5).

A :class:`NetworkStack` is the node-local view of the network: its
unicast IPv6 address, UDP sockets, multicast group memberships and
(for the µPnP manager) anycast membership.  Local CPU costs of the
embedded stack are charged before datagrams enter the network and
before received datagrams reach a socket, per the timing profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from repro.hw.device_id import DeviceId
from repro.hw.power import EnergyMeter
from repro.net.ipv6 import Ipv6Address
from repro.net.multicast import peripheral_group
from repro.net.network import Network
from repro.net.packets import UdpDatagram
from repro.sim.kernel import ns_from_s
from repro.snapshot.state import DeclaredState

SocketHandler = Callable[[UdpDatagram], None]


class StackError(Exception):
    """Socket/address misuse on a node's stack."""


@dataclass
class StackStats:
    sent: int = 0
    received: int = 0
    no_socket: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Datagrams silently discarded because the node was down (crashed).
    dropped_down: int = 0


class NetworkStack(DeclaredState):
    """One node's IPv6/UDP endpoint in a simulated µPnP network."""

    SNAPSHOT_SCHEMA = {
        "layer": "net",
        "version": 1,
        "fields": ("_network", "_node_id", "_iid", "_address", "_sockets",
                   "_groups", "_meter", "_down", "stats"),
    }

    def __init__(
        self,
        network: Network,
        node_id: int,
        *,
        iid: Optional[int] = None,
        meter: Optional[EnergyMeter] = None,
    ) -> None:
        self._network = network
        self._node_id = node_id
        self._iid = iid if iid is not None else node_id + 1
        self._address = network.unicast_address(self._iid)
        self._sockets: Dict[int, SocketHandler] = {}
        self._groups: Set[Ipv6Address] = set()
        self._meter = meter
        self._down = False
        self.stats = StackStats()
        network.register(self)

    # ------------------------------------------------------------ identity
    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def address(self) -> Ipv6Address:
        return self._address

    @property
    def network(self) -> Network:
        return self._network

    @property
    def sim(self):
        return self._network.sim

    @property
    def is_down(self) -> bool:
        return self._down

    def set_down(self, down: bool) -> None:
        """Take the node off the air (crash) or bring it back (reboot).

        While down, outbound sends and inbound deliveries are silently
        discarded — a powered-off radio neither transmits nor hears.
        """
        self._down = down

    # -------------------------------------------------------------- sockets
    def bind(self, port: int, handler: SocketHandler) -> None:
        if port in self._sockets:
            raise StackError(f"port {port} already bound")
        self._sockets[port] = handler

    def unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    # ---------------------------------------------------------------- send
    def sendto(
        self,
        dst: Ipv6Address,
        dst_port: int,
        payload: bytes,
        *,
        src_port: int,
        after: Optional[Callable[[], None]] = None,
    ) -> UdpDatagram:
        """Queue *payload* for transmission; returns the datagram.

        The local stack's send-path CPU time elapses before the frames
        hit the air; *after* (if given) fires at that point.
        """
        datagram = UdpDatagram(self._address, src_port, dst, dst_port, bytes(payload))
        if self._down:
            self.stats.dropped_down += 1
            return datagram
        cpu = self._network.timing.packet_cpu_s(datagram.size, receive=False)
        self._charge_cpu(cpu)
        self.stats.sent += 1
        self.stats.bytes_sent += datagram.size
        self._trace_cpu("stack.send", cpu, datagram.size)

        def _transmit() -> None:
            self._network.send(self._node_id, datagram)
            if after is not None:
                after()

        self.sim.schedule(ns_from_s(cpu), _transmit, name="stack-send")
        return datagram

    # --------------------------------------------------------------- receive
    def deliver(self, datagram: UdpDatagram) -> None:
        """Called by the network when frames for us finish arriving."""
        if self._down:
            self.stats.dropped_down += 1
            return
        cpu = self._network.timing.packet_cpu_s(datagram.size, receive=True)
        self._charge_cpu(cpu)
        self._trace_cpu("stack.recv", cpu, datagram.size)

        def _dispatch() -> None:
            handler = self._sockets.get(datagram.dst_port)
            if handler is None:
                self.stats.no_socket += 1
                return
            self.stats.received += 1
            self.stats.bytes_received += datagram.size
            handler(datagram)

        self.sim.schedule(ns_from_s(cpu), _dispatch, name="stack-recv")

    # ---------------------------------------------------------------- groups
    def generate_group_address(
        self,
        device_id: DeviceId | int,
        callback: Callable[[Ipv6Address], None],
    ) -> None:
        """Derive the multicast group for *device_id* (§5.1).

        Charged at the measured 2.59 ms (Table 4 row 1).
        """
        timing = self._network.timing
        jitter = self._rng().uniform(-timing.addr_gen_jitter_s,
                                     timing.addr_gen_jitter_s)
        duration = max(0.0, timing.addr_gen_cpu_s + jitter)
        self._charge_cpu(duration)
        group = peripheral_group(self._network.prefix48, device_id)
        self.sim.schedule(ns_from_s(duration), lambda: callback(group),
                          name="addr-gen")

    def join_group(
        self,
        group: Ipv6Address,
        callback: Optional[Callable[[], None]] = None,
    ) -> None:
        """Join *group* (RPL DAO + SMRF state; 5.44 ms, Table 4 row 2)."""
        timing = self._network.timing
        jitter = self._rng().uniform(-timing.group_join_jitter_s,
                                     timing.group_join_jitter_s)
        duration = max(0.0, timing.group_join_cpu_s + jitter)
        self._charge_cpu(duration)

        def _joined() -> None:
            self._groups.add(group)
            self._network.join_group(self._node_id, group)
            if callback is not None:
                callback()

        self.sim.schedule(ns_from_s(duration), _joined, name="group-join")

    def leave_group(self, group: Ipv6Address) -> None:
        self._groups.discard(group)
        self._network.leave_group(self._node_id, group)

    def groups(self) -> Set[Ipv6Address]:
        return set(self._groups)

    def join_anycast(self, address: Ipv6Address) -> None:
        """Serve *address* as an anycast member (the µPnP manager does)."""
        self._network.join_anycast(self._node_id, address)

    # --------------------------------------------------------------- helpers
    def _trace_cpu(self, name: str, cpu_s: float, size: int) -> None:
        """Record this node's send/receive-path CPU as a slice."""
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled_for("net"):
            tracer.complete(
                name, "net", tracer.track(f"node-{self._node_id} stack"),
                ns_from_s(cpu_s), args={"bytes": size},
            )

    def _rng(self):
        return self._network._rng  # shared deterministic stream

    def _charge_cpu(self, seconds: float) -> None:
        if self._meter is not None:
            from repro.mcu.spec import ATMEGA128RFA1

            self._meter.add_draw("net-cpu", ATMEGA128RFA1.active_draw, seconds)


__all__ = ["NetworkStack", "StackError", "StackStats", "SocketHandler"]
