"""Protocol flow tracing: regenerate Figures 10 and 11 from live runs.

Attaches to a :class:`~repro.net.network.Network` and records every
µPnP message entering the network with the paper's message numbering,
addressing kind (unicast / multicast / anycast) and timing — the
machine-checkable form of the sequence diagrams in Figures 10 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.net.ipv6 import Ipv6Address
from repro.net.multicast import parse_group, parse_location_group
from repro.net.network import Network
from repro.protocol.messages import Message, MsgType, ProtocolError, decode_message

#: Figure 10/11 captions for each message number.
CAPTIONS = {
    MsgType.UNSOLICITED_ADVERTISEMENT: "Unsolicited peripheral advertisement",
    MsgType.PERIPHERAL_DISCOVERY: "Peripheral discovery",
    MsgType.SOLICITED_ADVERTISEMENT: "Solicited peripheral advertisement",
    MsgType.DRIVER_INSTALL_REQUEST: "Driver installation request",
    MsgType.DRIVER_UPLOAD: "Driver upload",
    MsgType.DRIVER_DISCOVERY: "Driver discovery",
    MsgType.DRIVER_ADVERTISEMENT: "Driver advertisement",
    MsgType.DRIVER_REMOVAL_REQUEST: "Driver removal request",
    MsgType.DRIVER_REMOVAL_ACK: "Driver removal ack",
    MsgType.READ_REQUEST: "Read",
    MsgType.DATA: "Data",
    MsgType.STREAM_REQUEST: "Stream",
    MsgType.STREAM_ESTABLISHED: "Established",
    MsgType.STREAM_DATA: "Data (stream)",
    MsgType.STREAM_CLOSED: "Closed",
    MsgType.WRITE_REQUEST: "Write",
    MsgType.WRITE_ACK: "Ack",
}


@dataclass(frozen=True)
class TracedMessage:
    """One protocol message observed on the network."""

    time_s: float
    src: Ipv6Address
    dst: Ipv6Address
    message: Message

    @property
    def msg_type(self) -> MsgType:
        return self.message.TYPE

    @property
    def number(self) -> int:
        """The paper's (1)..(17) numbering."""
        return int(self.message.TYPE)

    @property
    def addressing(self) -> str:
        if self.dst.is_multicast:
            if parse_location_group(self.dst) is not None:
                return "multicast/zone"
            info = parse_group(self.dst)
            if info is not None and info.is_all_clients:
                return "multicast/all-clients"
            if info is not None:
                return "multicast/peripheral"
            return "multicast"
        return "unicast"

    def render(self) -> str:
        caption = CAPTIONS.get(self.msg_type, self.msg_type.name)
        return (f"[{self.time_s * 1e3:9.2f} ms] ({self.number:>2}) "
                f"{caption:36s} {self.src} -> {self.dst} "
                f"[{self.addressing}] seq={self.message.seq}")


class ProtocolTracer:
    """Records the µPnP message flow on a network.

    Folded over the :mod:`repro.obs` event stream: the network emits a
    ``proto.send`` instant (with the raw payload) for every datagram,
    and this class listens for those, decodes them and keeps the
    Figure 10/11 view.  If the simulator has no tracer yet, one is
    installed recording only the ``proto`` category; :meth:`close`
    (or use as a context manager) undoes whatever was set up.
    """

    def __init__(self, network: Network) -> None:
        self._network = network
        self.messages: List[TracedMessage] = []
        sim = network.sim
        self._tracer = sim.tracer
        self._installed = False
        self._enabled_proto = False
        self._closed = False
        if self._tracer is None:
            from repro.obs.tracer import install_tracer

            self._tracer = install_tracer(
                sim, limit=1024, categories=("proto",),
                label="protocol-tracer",
            )
            self._installed = True
        else:
            self._enabled_proto = self._tracer.enable_category("proto")
        self._tracer.add_listener(self._on_event)

    def _on_event(self, event) -> None:
        if event.phase != "I" or event.name != "proto.send":
            return
        args = event.args or {}
        payload = args.get("payload")
        if payload is None:
            return
        try:
            message = decode_message(payload)
        except ProtocolError:
            return  # non-µPnP traffic stays out of the trace
        self.messages.append(
            TracedMessage(
                time_s=event.time_ns / 1e9,
                src=Ipv6Address.parse(args["src"]),
                dst=Ipv6Address.parse(args["dst"]),
                message=message,
            )
        )

    # --------------------------------------------------------------- lifetime
    def close(self) -> None:
        """Detach from the event stream and undo tracer state we created.

        Idempotent.  A tracer installed by this class is uninstalled; a
        ``proto`` category this class enabled on a pre-existing tracer
        is disabled again.
        """
        if self._closed:
            return
        self._closed = True
        self._tracer.remove_listener(self._on_event)
        if self._installed and self._network.sim.tracer is self._tracer:
            self._network.sim.tracer = None
        elif self._enabled_proto:
            self._tracer.disable_category("proto")

    def __enter__(self) -> "ProtocolTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- queries
    def numbers(self) -> List[int]:
        """The observed message-number sequence, e.g. [1, 2, 3, ...]."""
        return [traced.number for traced in self.messages]

    def of_type(self, msg_type: MsgType) -> List[TracedMessage]:
        return [t for t in self.messages if t.msg_type is msg_type]

    def clear(self) -> None:
        self.messages.clear()

    def render(self, *, title: str = "") -> str:
        lines = []
        if title:
            lines.append(title)
            lines.append("=" * len(title))
        lines.extend(traced.render() for traced in self.messages)
        return "\n".join(lines) if lines else "(no messages)"


__all__ = ["ProtocolTracer", "TracedMessage", "CAPTIONS"]
