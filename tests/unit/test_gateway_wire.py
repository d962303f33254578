"""Property tests for the gateway's HTTP head reader and RFC 6455 framer.

``ws_encode`` writes unmasked server frames; ``ws_read`` reads masked
client frames.  The round trip here masks each encoded frame the way a
client would, so every length form the encoder picks (7-, 16- and
64-bit) goes through the reader.
"""

import asyncio
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gateway import wire

#: The edges of RFC 6455's three payload-length forms.
BOUNDARY_LENGTHS = (0, 125, 126, 65_535, 65_536)

lengths = st.one_of(st.sampled_from(BOUNDARY_LENGTHS),
                    st.integers(min_value=0, max_value=1_000))
masks = st.binary(min_size=4, max_size=4)
data_opcodes = st.sampled_from([wire.WS_OP_TEXT, 0x2])
control_opcodes = st.sampled_from(
    [wire.WS_OP_CLOSE, wire.WS_OP_PING, wire.WS_OP_PONG])


def _payload(length: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(length)


def _header_size(length: int) -> int:
    if length < 126:
        return 2
    return 4 if length < 1 << 16 else 10


def _client_frame(frame: bytes, mask: bytes) -> bytes:
    """*frame* (unmasked, as ws_encode writes it) masked by *mask*."""
    size = {126: 4, 127: 10}.get(frame[1] & 0x7F, 2)
    head, payload = bytearray(frame[:size]), frame[size:]
    head[1] |= 0x80
    masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return bytes(head) + mask + masked


def _read(data: bytes, coroutine):
    async def run():
        reader = asyncio.StreamReader()  # 64 KiB limit, as in servers
        reader.feed_data(data)
        reader.feed_eof()
        return await coroutine(reader)

    return asyncio.run(run())


@settings(max_examples=60, deadline=None)
@given(length=lengths, seed=st.integers(0, 2 ** 32), mask=masks,
       opcode=data_opcodes)
@example(length=125, seed=1, mask=b"\x00\x00\x00\x00", opcode=0x1)
@example(length=126, seed=2, mask=b"\xff\x00\xff\x00", opcode=0x2)
@example(length=65_535, seed=3, mask=b"\x12\x34\x56\x78", opcode=0x1)
@example(length=65_536, seed=4, mask=b"\x87\x65\x43\x21", opcode=0x2)
def test_ws_round_trip_across_length_forms(length, seed, mask, opcode):
    payload = _payload(length, seed)
    frame = wire.ws_encode(payload, opcode)
    assert frame[0] == 0x80 | opcode
    assert len(frame) == _header_size(length) + length
    assert frame.endswith(payload)
    assert _read(_client_frame(frame, mask), wire.ws_read) == \
        (opcode, payload)


@settings(max_examples=40, deadline=None)
@given(length=lengths, seed=st.integers(0, 2 ** 32), opcode=data_opcodes)
def test_ws_read_rejects_unmasked_client_frames(length, seed, opcode):
    frame = wire.ws_encode(_payload(length, seed), opcode)
    with pytest.raises(wire.WireError, match="masked"):
        _read(frame, wire.ws_read)


@settings(max_examples=40, deadline=None)
@given(length=st.integers(min_value=0, max_value=2_000),
       seed=st.integers(0, 2 ** 32), mask=masks, opcode=control_opcodes)
@example(length=125, seed=5, mask=b"\x01\x02\x03\x04", opcode=0x9)
@example(length=126, seed=6, mask=b"\x01\x02\x03\x04", opcode=0x8)
def test_ws_control_frames_are_limited_to_125_bytes(length, seed, mask,
                                                     opcode):
    payload = _payload(length, seed)
    frame = _client_frame(wire.ws_encode(payload, opcode), mask)
    if length <= 125:
        assert _read(frame, wire.ws_read) == (opcode, payload)
    else:
        with pytest.raises(wire.WireError, match="oversized control"):
            _read(frame, wire.ws_read)


reserved_opcodes = st.sampled_from(
    [op for op in range(16)
     if op not in (0x0, 0x1, 0x2, wire.WS_OP_CLOSE, wire.WS_OP_PING,
                   wire.WS_OP_PONG)])


def _with_first_byte(frame: bytes, first: int) -> bytes:
    return bytes([first]) + frame[1:]


@settings(max_examples=40, deadline=None)
@given(length=st.integers(min_value=0, max_value=125),
       seed=st.integers(0, 2 ** 32), mask=masks,
       opcode=st.one_of(data_opcodes, control_opcodes),
       rsv=st.integers(min_value=1, max_value=7),
       fin=st.booleans())
def test_ws_read_rejects_reserved_bits(length, seed, mask, opcode, rsv,
                                       fin):
    # RSV1-3 are only for negotiated extensions, and none ever is.
    frame = _client_frame(wire.ws_encode(_payload(length, seed), opcode),
                          mask)
    first = (0x80 if fin else 0) | rsv << 4 | opcode
    with pytest.raises(wire.WireError, match="reserved bits"):
        _read(_with_first_byte(frame, first), wire.ws_read)


@settings(max_examples=40, deadline=None)
@given(length=st.integers(min_value=0, max_value=125),
       seed=st.integers(0, 2 ** 32), mask=masks, opcode=reserved_opcodes,
       fin=st.booleans())
@example(length=0, seed=0, mask=b"\x00\x00\x00\x00", opcode=0x3, fin=True)
@example(length=4, seed=1, mask=b"\x01\x02\x03\x04", opcode=0xF,
         fin=False)
def test_ws_read_rejects_reserved_opcodes(length, seed, mask, opcode, fin):
    frame = _client_frame(wire.ws_encode(_payload(length, seed), 0x2), mask)
    first = (0x80 if fin else 0) | opcode
    with pytest.raises(wire.WireError, match="reserved websocket opcode"):
        _read(_with_first_byte(frame, first), wire.ws_read)


@settings(max_examples=40, deadline=None)
@given(length=st.integers(min_value=0, max_value=125),
       seed=st.integers(0, 2 ** 32), mask=masks, opcode=control_opcodes)
@example(length=2, seed=7, mask=b"\x0a\x0b\x0c\x0d", opcode=0x9)
def test_ws_read_rejects_fragmented_control_frames(length, seed, mask,
                                                   opcode):
    # FIN clear on a ping, pong or close: control frames must not be
    # fragmented, so such a ping is never answered.
    payload = _payload(length, seed)
    frame = _client_frame(wire.ws_encode(payload, opcode), mask)
    assert _read(frame, wire.ws_read) == (opcode, payload)
    with pytest.raises(wire.WireError, match="fragmented control"):
        _read(_with_first_byte(frame, opcode), wire.ws_read)


@settings(max_examples=20, deadline=None)
@given(length=st.integers(min_value=0, max_value=200),
       seed=st.integers(0, 2 ** 32), mask=masks,
       opcode=st.sampled_from([0x0, 0x1, 0x2]))
def test_ws_read_accepts_data_fragments(length, seed, mask, opcode):
    # Data frames may be fragmented: FIN clear and continuation frames
    # still read.
    payload = _payload(length, seed)
    frame = _client_frame(wire.ws_encode(payload, 0x2), mask)
    assert _read(_with_first_byte(frame, opcode), wire.ws_read) == \
        (opcode, payload)


def test_oversized_request_head_is_a_wire_error():
    head = (b"GET / HTTP/1.1\r\nX-Filler: " + b"a" * 70_000
            + b"\r\n\r\n")
    with pytest.raises(wire.WireError, match="too large"):
        _read(head, wire.read_request)


def test_request_head_eof_and_truncation():
    assert _read(b"", wire.read_request) is None
    with pytest.raises(wire.WireError, match="truncated"):
        _read(b"GET / HTTP/1.1\r\nHost: x\r\n", wire.read_request)
    request = _read(b"GET /things HTTP/1.1\r\nHost: x\r\n\r\n",
                    wire.read_request)
    assert (request.method, request.path) == ("GET", "/things")



@pytest.mark.parametrize("length", [wire.MAX_BODY_BYTES, 1, 3, 4_099])
def test_ws_read_unmasks_like_the_per_byte_reference(length):
    # A 1 MiB frame (the largest accepted) and odd lengths that end
    # part-way through a mask period; _client_frame masks one byte at
    # a time, as RFC 6455 section 5.3 defines it.
    payload = _payload(length, length)
    frame = _client_frame(wire.ws_encode(payload, wire.WS_OP_TEXT),
                          b"\x9a\x00\xff\x3c")
    assert _read(frame, wire.ws_read) == (wire.WS_OP_TEXT, payload)
