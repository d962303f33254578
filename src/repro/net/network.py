"""The simulated IPv6 network: topology + RPL + SMRF + 802.15.4 timing.

One :class:`Network` owns the connectivity graph, the converged RPL
DODAG, group-membership and anycast tables, and moves datagrams between
:class:`repro.net.stack.NetworkStack` instances with per-hop delays
from the link and 6LoWPAN models.  Unicast follows shortest paths (the
converged storing-mode RPL routes); multicast follows the SMRF plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.net.ipv6 import Ipv6Address, network_prefix48
from repro.net.link import LinkModel
from repro.net.lowpan import DEFAULT_LOWPAN, LowpanModel
from repro.net.packets import UdpDatagram
from repro.net.profile import DEFAULT_NET_TIMING, NetTimingProfile
from repro.net.rpl import Dodag
from repro.net.smrf import plan as smrf_plan
from repro.net.topology import Topology
from repro.sim.kernel import Simulator, ns_from_s
from repro.sim.rng import RngRegistry
from repro.snapshot.state import DeclaredState

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.stack import NetworkStack


class NetworkError(Exception):
    """Network-level misconfiguration (unknown destination, no DODAG)."""


@dataclass
class NetworkStats:
    frames_sent: int = 0
    frames_lost: int = 0
    datagrams_sent: int = 0
    datagrams_delivered: int = 0
    datagrams_undeliverable: int = 0
    multicast_transmissions: int = 0
    bytes_sent: int = 0
    #: MAC-layer payload bytes actually framed onto the air (datagram
    #: payload plus 6LoWPAN fragmentation headers).  Together with
    #: ``frames_sent`` this makes exact radio airtime — hence duty
    #: cycle — a closed-form function of the stats (airtime is linear
    #: in frame payload), so the hot path pays one integer add instead
    #: of a float airtime accumulation.
    mac_payload_bytes: int = 0
    #: Datagrams swallowed by an installed fault injector.
    faults_dropped: int = 0
    #: Extra datagram copies a fault injector put on the air.
    faults_duplicated: int = 0
    #: Datagrams a fault injector held back before routing (reordering).
    faults_delayed: int = 0


class Network(DeclaredState):
    """A single µPnP network (one 48-bit prefix, one RPL instance)."""

    SNAPSHOT_SCHEMA = {
        "layer": "net",
        "version": 1,
        "fields": ("_sim", "_link", "_lowpan", "_timing", "_rng",
                   "_prefix", "_prefix48", "_stacks", "_by_address",
                   "_groups", "_anycast", "topology", "dodag", "stats",
                   "_monitors", "_delivery_monitors", "_fault_injector"),
    }

    def __init__(
        self,
        sim: Simulator,
        *,
        prefix: str = "2001:db8::",
        link: LinkModel = LinkModel(),
        lowpan: LowpanModel = DEFAULT_LOWPAN,
        timing: NetTimingProfile = DEFAULT_NET_TIMING,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        self._sim = sim
        self._link = link
        self._lowpan = lowpan
        self._timing = timing
        self._rng = (rng or RngRegistry(0)).stream("network")
        self._prefix = Ipv6Address.parse(prefix)
        self._prefix48 = network_prefix48(self._prefix)
        self._stacks: Dict[int, "NetworkStack"] = {}
        self._by_address: Dict[Ipv6Address, int] = {}
        self._groups: Dict[Ipv6Address, Set[int]] = {}
        self._anycast: Dict[Ipv6Address, Set[int]] = {}
        self.topology = Topology()
        self.dodag: Optional[Dodag] = None
        self.stats = NetworkStats()
        self._monitors: List = []
        self._delivery_monitors: List = []
        self._fault_injector = None

    # ----------------------------------------------------------- composition
    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def timing(self) -> NetTimingProfile:
        return self._timing

    @property
    def lowpan(self) -> LowpanModel:
        return self._lowpan

    @property
    def link(self) -> LinkModel:
        return self._link

    @property
    def prefix48(self) -> int:
        """The 48-bit network prefix used by the multicast schema."""
        return self._prefix48

    def unicast_address(self, iid: int) -> Ipv6Address:
        """prefix:<zeros>:iid — a node's unicast address."""
        base = Ipv6Address(self._prefix48 << 80)
        return base.with_interface_id(iid)

    # ----------------------------------------------------------- registration
    def register(self, stack: "NetworkStack") -> None:
        if stack.node_id in self._stacks:
            raise NetworkError(f"node id {stack.node_id} already registered")
        self._stacks[stack.node_id] = stack
        self._by_address[stack.address] = stack.node_id
        self.topology.add_node(stack.node_id)

    def stack(self, node_id: int) -> "NetworkStack":
        return self._stacks[node_id]

    def nodes(self) -> List[int]:
        return sorted(self._stacks)

    def connect(self, a: int, b: int) -> None:
        self.topology.connect(a, b)

    def build_dodag(self, root: int) -> Dodag:
        """Converge RPL with *root* as the DODAG root / border router."""
        self.dodag = Dodag.build(self.topology, root)
        return self.dodag

    def add_monitor(self, monitor) -> None:
        """Observe every datagram entering the network: monitor(src_id,
        datagram).  Never mutates traffic."""
        self._monitors.append(monitor)

    def remove_monitor(self, monitor) -> None:
        """Detach a monitor added with :meth:`add_monitor`.  Idempotent."""
        try:
            self._monitors.remove(monitor)
        except ValueError:
            pass

    def add_delivery_monitor(self, monitor) -> None:
        """Observe every datagram the network hands to a stack:
        monitor(dst_node_id, datagram).

        Fires when delivery is *committed* (loss, faults and routing
        already resolved, per-hop delay not yet elapsed).  This is the
        delivered-datagram log the telemetry accuracy tests reconcile
        reliability counters against.  Never mutates traffic.
        """
        self._delivery_monitors.append(monitor)

    def remove_delivery_monitor(self, monitor) -> None:
        """Detach a monitor added with :meth:`add_delivery_monitor`."""
        try:
            self._delivery_monitors.remove(monitor)
        except ValueError:
            pass

    def set_fault_injector(self, injector) -> None:
        """Install (or with ``None``, remove) the datagram fault hook.

        *injector* is called as ``injector(src_id, datagram)`` for every
        datagram entering the network and returns the list of
        ``(extra_delay_s, datagram)`` copies to actually route: ``[]``
        drops it, one zero-delay entry passes it through, several entries
        duplicate it, a positive delay holds a copy back (reordering),
        and a rewritten datagram models in-flight corruption.  The chaos
        engine (:mod:`repro.chaos`) is the canonical implementation.
        """
        self._fault_injector = injector

    # ------------------------------------------------------------ membership
    def join_group(self, node_id: int, group: Ipv6Address) -> None:
        self._groups.setdefault(group, set()).add(node_id)

    def leave_group(self, node_id: int, group: Ipv6Address) -> None:
        members = self._groups.get(group)
        if members is not None:
            members.discard(node_id)
            if not members:
                del self._groups[group]

    def group_members(self, group: Ipv6Address) -> Set[int]:
        return set(self._groups.get(group, set()))

    def join_anycast(self, node_id: int, address: Ipv6Address) -> None:
        self._anycast.setdefault(address, set()).add(node_id)
        self._by_address.setdefault(address, node_id)

    def is_anycast(self, address: Ipv6Address) -> bool:
        return address in self._anycast

    # ------------------------------------------------------------- data plane
    def send(self, src_id: int, datagram: UdpDatagram) -> None:
        """Move *datagram* from node *src_id* toward its destination(s).

        Called by the source stack after it has charged its own send-path
        CPU time; this method accounts link delays and remote CPU.
        """
        self.stats.datagrams_sent += 1
        self.stats.bytes_sent += datagram.size
        for monitor in self._monitors:
            monitor(src_id, datagram)
        tracer = self._sim.tracer
        if tracer is not None and tracer.enabled_for("proto"):
            # The protocol event stream: one instant per datagram, with
            # the raw payload so ProtocolTracer can decode lazily.
            tracer.instant("proto.send", "proto", tracer.track("protocol"),
                           args={"src_id": src_id,
                                 "src": str(datagram.src),
                                 "dst": str(datagram.dst),
                                 "size": datagram.size,
                                 "payload": datagram.payload})
        if self._fault_injector is None:
            self._route(src_id, datagram)
            return
        copies = self._fault_injector(src_id, datagram)
        if not copies:
            self.stats.faults_dropped += 1
            return
        if len(copies) > 1:
            self.stats.faults_duplicated += len(copies) - 1
        for extra_delay_s, copy in copies:
            if extra_delay_s <= 0.0:
                self._route(src_id, copy)
            else:
                self.stats.faults_delayed += 1
                self._sim.schedule(
                    ns_from_s(extra_delay_s),
                    lambda c=copy: self._route(src_id, c),
                    name="chaos-delay",
                )

    def _route(self, src_id: int, datagram: UdpDatagram) -> None:
        """Route one (possibly fault-rewritten) datagram copy."""
        if datagram.dst.is_multicast:
            self._send_multicast(src_id, datagram)
        elif self.is_anycast(datagram.dst):
            target = self._nearest_anycast(src_id, datagram.dst)
            if target is None:
                self.stats.datagrams_undeliverable += 1
                return
            self._send_unicast(src_id, target, datagram)
        else:
            target = self._by_address.get(datagram.dst)
            if target is None:
                self.stats.datagrams_undeliverable += 1
                return
            self._send_unicast(src_id, target, datagram)

    # ------------------------------------------------------------ unicast path
    def _send_unicast(self, src_id: int, dst_id: int, datagram: UdpDatagram) -> None:
        if src_id == dst_id:
            self._sim.call_soon(
                lambda: self._deliver(dst_id, datagram), name="loopback"
            )
            self.stats.datagrams_delivered += 1
            return
        path = self.topology.shortest_path(src_id, dst_id)
        if path is None:
            self.stats.datagrams_undeliverable += 1
            return
        tracer = self._sim.tracer
        trace_net = tracer is not None and tracer.enabled_for("net")
        delay = 0.0
        lost = False
        for hop_index in range(len(path) - 1):
            a, b = path[hop_index], path[hop_index + 1]
            hop = self._hop_delay(datagram.size, a, b)
            if trace_net:
                self._trace_hop(tracer, a, b, delay, hop, datagram.size)
            delay += hop
            if self._frames_lost(datagram.size):
                lost = True
                break
            if hop_index < len(path) - 2:
                delay += self._timing.forward_cpu_s
        if lost:
            return
        self._schedule_delivery(dst_id, datagram, delay)

    # ---------------------------------------------------------- multicast path
    def _send_multicast(self, src_id: int, datagram: UdpDatagram) -> None:
        if self.dodag is None:
            raise NetworkError("multicast requires a converged DODAG")
        members = self.group_members(datagram.dst)
        forwarding = smrf_plan(self.dodag, src_id, members)
        tracer = self._sim.tracer
        trace_net = tracer is not None and tracer.enabled_for("net")
        arrival: Dict[int, float] = {src_id: 0.0}
        # Uplink: sender -> root along preferred parents.
        uplink = forwarding.uplink
        for a, b in zip(uplink, uplink[1:]):
            self.stats.multicast_transmissions += 1
            hop = self._hop_delay(datagram.size, a, b)
            if trace_net:
                self._trace_hop(tracer, a, b, arrival[a], hop, datagram.size)
            arrival[b] = arrival[a] + hop + self._timing.forward_cpu_s
        # Downward flood along the member-bearing tree edges.
        for a, b in forwarding.downlinks:
            self.stats.multicast_transmissions += 1
            base = arrival.get(a, 0.0)
            hop = self._hop_delay(datagram.size, a, b)
            if trace_net:
                self._trace_hop(tracer, a, b, base, hop, datagram.size)
            arrival[b] = base + hop + self._timing.forward_cpu_s
        for receiver in forwarding.receivers:
            if receiver == src_id:
                continue  # the sender does not loop its own datagram back
            self._schedule_delivery(
                receiver, datagram, arrival.get(receiver, 0.0)
            )
        # Local membership: deliver immediately (stack-internal loopback).
        if src_id in members and datagram.src != self._stacks[src_id].address:
            self._schedule_delivery(src_id, datagram, 0.0)

    # --------------------------------------------------------------- helpers
    def _trace_hop(self, tracer, a: int, b: int, offset_s: float,
                   hop_s: float, size: int) -> None:
        """Record one link traversal as a slice on the link's track."""
        tracer.complete(
            "net.hop", "net", tracer.track(f"net {a}->{b}"),
            ns_from_s(hop_s), ts_ns=self._sim.now_ns + ns_from_s(offset_s),
            args={"from": a, "to": b, "bytes": size},
        )

    def _hop_delay(self, payload_bytes: int, a: int, b: int) -> float:
        """Delay for all fragments of one datagram across one link."""
        del a, b  # links are homogeneous in this model
        delay = 0.0
        for frame_payload in self._lowpan.frame_payload_sizes(payload_bytes):
            self.stats.frames_sent += 1
            self.stats.mac_payload_bytes += frame_payload
            delay += self._link.frame_delay_s(frame_payload, self._rng)
        return delay

    def airtime_s(self) -> float:
        """Cumulative radio time-on-air implied by the frame counters.

        Airtime per frame is ``(overhead + payload) * 8 / bitrate``
        (see :meth:`LinkModel.airtime_s`), which is linear in payload —
        so the exact total falls out of two integers kept on the send
        path.  Telemetry samples this to derive the radio duty cycle.
        """
        from repro.net.link import MAC_OVERHEAD_BYTES, PHY_OVERHEAD_BYTES

        overhead = PHY_OVERHEAD_BYTES + MAC_OVERHEAD_BYTES
        total_bytes = (self.stats.frames_sent * overhead
                       + self.stats.mac_payload_bytes)
        return total_bytes * 8.0 / self._link.bitrate_bps

    def _frames_lost(self, payload_bytes: int) -> bool:
        if self._link.loss_probability <= 0:
            return False
        for _ in self._lowpan.frame_payload_sizes(payload_bytes):
            if self._link.frame_lost(self._rng):
                self.stats.frames_lost += 1
                return True
        return False

    def _nearest_anycast(self, src_id: int, address: Ipv6Address) -> Optional[int]:
        candidates = self._anycast.get(address, set())
        best: Optional[int] = None
        best_hops = None
        for node in sorted(candidates):
            hops = self.topology.hop_distance(src_id, node)
            if hops is None:
                continue
            if best_hops is None or hops < best_hops:
                best, best_hops = node, hops
        return best

    def _schedule_delivery(
        self, node_id: int, datagram: UdpDatagram, delay_s: float
    ) -> None:
        stack = self._stacks[node_id]
        self.stats.datagrams_delivered += 1
        if self._delivery_monitors:
            for monitor in self._delivery_monitors:
                monitor(node_id, datagram)
        self._sim.schedule(
            ns_from_s(delay_s),
            lambda: stack.deliver(datagram),
            name="net-deliver",
        )

    def _deliver(self, node_id: int, datagram: UdpDatagram) -> None:
        if self._delivery_monitors:
            for monitor in self._delivery_monitors:
                monitor(node_id, datagram)
        self._stacks[node_id].deliver(datagram)


__all__ = ["Network", "NetworkError", "NetworkStats"]
