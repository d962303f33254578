"""Minimal HTTP/1.1 and WebSocket wire primitives (stdlib only).

The gateway deliberately avoids third-party HTTP stacks: the container
ships no aiohttp/websockets, and the subset the service needs —
request-line + header parsing, JSON responses, and RFC 6455 server-side
frames for ``/stream`` — fits in a few hundred lines over asyncio
streams.  Everything here is transport-shape only; routing and
semantics live in :mod:`repro.gateway.server`.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 1 * 1024 * 1024

#: RFC 6455 §1.3 handshake GUID.
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

WS_OP_TEXT = 0x1
WS_OP_CLOSE = 0x8
WS_OP_PING = 0x9
WS_OP_PONG = 0xA
#: Continuation, text and binary; close, ping and pong.  The rest are
#: reserved (RFC 6455 section 5.2).
_WS_OPCODES = frozenset((0x0, WS_OP_TEXT, 0x2, WS_OP_CLOSE, WS_OP_PING,
                         WS_OP_PONG))

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


class WireError(Exception):
    """Malformed or oversized input from the peer."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            data = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise WireError(f"request body is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise WireError("request body must be a JSON object")
        return data

    @property
    def wants_websocket(self) -> bool:
        return (self.header("upgrade").lower() == "websocket"
                and "upgrade" in self.header("connection").lower())


async def read_request(reader) -> Optional[Request]:
    """Read one request off *reader*; None on clean EOF before a byte.

    A head that ends early or outgrows the reader's limit (64 KiB for
    asyncio servers) raises :class:`WireError`, which the server answers
    with a 400.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError(f"truncated request head: {exc}") from exc
    except asyncio.LimitOverrunError as exc:
        raise WireError("request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise WireError("request head too large")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:
        raise WireError("undecodable request head") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise WireError(f"bad request line: {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise WireError(f"bad header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError as exc:
            raise WireError("bad Content-Length") from exc
        if n < 0 or n > MAX_BODY_BYTES:
            raise WireError("unacceptable Content-Length")
        body = await reader.readexactly(n)
    return Request(method=method.upper(), path=target, headers=headers,
                   body=body)


def split_target(target: str) -> Tuple[str, Dict[str, str]]:
    """Split a request target into (path, query-dict)."""
    path, _, query = target.partition("?")
    params: Dict[str, str] = {}
    if query:
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key:
                params[key] = value
    return path, params


def response_bytes(status: int, body: object = None, *,
                   content_type: str = "application/json",
                   extra_headers: Tuple[Tuple[str, str], ...] = (),
                   keep_alive: bool = True) -> bytes:
    """Serialize one HTTP/1.1 response.

    Dict/list bodies are JSON-encoded with sorted keys — the same
    canonical serialization the digest layer uses, so a TD fetched over
    HTTP is byte-identical to its generated form.
    """
    if body is None:
        payload = b""
    elif isinstance(body, bytes):
        payload = body
    elif isinstance(body, str):
        payload = body.encode("utf-8")
    else:
        payload = json.dumps(body, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
    reason = REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


# --------------------------------------------------------------- websocket
def ws_accept(key: str) -> str:
    """RFC 6455 §4.2.2 accept token for a client's Sec-WebSocket-Key."""
    digest = hashlib.sha1((key + WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("ascii")


def ws_handshake_bytes(key: str) -> bytes:
    """The 101 Switching Protocols response for a WS upgrade."""
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {ws_accept(key)}\r\n"
        "\r\n"
    ).encode("latin-1")


def ws_encode(payload: bytes, opcode: int = WS_OP_TEXT) -> bytes:
    """One unmasked, FIN server→client frame."""
    header = bytes([0x80 | (opcode & 0x0F)])
    n = len(payload)
    if n < 126:
        header += bytes([n])
    elif n < 1 << 16:
        header += bytes([126]) + struct.pack(">H", n)
    else:
        header += bytes([127]) + struct.pack(">Q", n)
    return header + payload


def ws_encode_text(text: str) -> bytes:
    return ws_encode(text.encode("utf-8"), WS_OP_TEXT)


async def ws_read(reader) -> Tuple[int, bytes]:
    """Read one client frame; returns (opcode, unmasked payload).

    Raises :class:`WireError` on protocol violations: RSV bits set (no
    extension is ever negotiated), a reserved opcode, a fragmented
    (FIN clear) or long control frame (RFC 6455 sections 5.2 and 5.5),
    or an unmasked client frame.  EOF surfaces as the underlying
    ``IncompleteReadError``.
    """
    first, second = await reader.readexactly(2)
    opcode = first & 0x0F
    if first & 0x70:
        raise WireError("websocket frame sets reserved bits")
    if opcode not in _WS_OPCODES:
        raise WireError(f"reserved websocket opcode 0x{opcode:x}")
    if opcode >= 0x8 and not first & 0x80:
        raise WireError("fragmented control frame")
    masked = bool(second & 0x80)
    length = second & 0x7F
    if length == 126:
        length = struct.unpack(">H", await reader.readexactly(2))[0]
    elif length == 127:
        length = struct.unpack(">Q", await reader.readexactly(8))[0]
    if length > MAX_BODY_BYTES:
        raise WireError("websocket frame too large")
    if opcode >= 0x8 and length > 125:
        raise WireError("oversized control frame")
    if not masked:
        raise WireError("client frames must be masked")
    mask = await reader.readexactly(4)
    data = await reader.readexactly(length)
    # Unmask (RFC 6455 section 5.3) with one big-int XOR against the
    # repeated mask: a per-byte loop would hold the event loop for
    # ~0.1 s on a 1 MiB frame.
    key = (mask * (length // 4 + 1))[:length]
    payload = (int.from_bytes(data, "big")
               ^ int.from_bytes(key, "big")).to_bytes(length, "big")
    return opcode, payload


__all__ = [
    "MAX_BODY_BYTES",
    "Request",
    "WireError",
    "WS_OP_CLOSE",
    "WS_OP_PING",
    "WS_OP_PONG",
    "WS_OP_TEXT",
    "read_request",
    "response_bytes",
    "split_target",
    "ws_accept",
    "ws_encode",
    "ws_encode_text",
    "ws_handshake_bytes",
    "ws_read",
]
