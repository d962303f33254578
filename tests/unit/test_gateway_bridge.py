"""Unit tests: gateway wire primitives and bridge determinism."""

import asyncio
import json

import pytest

from repro.drivers.catalog import CATALOG
from repro.fleet.scenario import SCENARIOS
from repro.gateway.bridge import (
    DEFAULT_QUANTUM_NS,
    GatewayBridge,
    Op,
    OpResult,
    RequestLog,
)
from repro.gateway import wire

SCENARIO = SCENARIOS["gateway"].scaled(things=4, shard_size=2, seed=5)


# ------------------------------------------------------------------- wire
def test_ws_accept_rfc6455_vector():
    # The worked example from RFC 6455 §1.3.
    assert wire.ws_accept("dGhlIHNhbXBsZSBub25jZQ==") == \
        "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="


def test_ws_frame_roundtrip_all_lengths():
    async def roundtrip(payload: bytes) -> bytes:
        frame = wire.ws_encode(payload)
        # Re-encode as a *masked* client frame for ws_read.
        mask = b"\x12\x34\x56\x78"
        masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        length = len(payload)
        if length < 126:
            head = bytes([0x81, 0x80 | length])
        elif length < 1 << 16:
            head = bytes([0x81, 0x80 | 126]) + length.to_bytes(2, "big")
        else:
            head = bytes([0x81, 0x80 | 127]) + length.to_bytes(8, "big")
        reader = asyncio.StreamReader()
        reader.feed_data(head + mask + masked)
        reader.feed_eof()
        opcode, decoded = await wire.ws_read(reader)
        assert opcode == wire.WS_OP_TEXT
        # Server frames are unmasked; verify the encoder's header too.
        assert frame.endswith(payload) and frame[0] == 0x81
        return decoded

    loop = asyncio.new_event_loop()
    try:
        for size in (0, 1, 125, 126, 300, 70_000):
            payload = bytes(range(256)) * (size // 256) + bytes(size % 256)
            payload = payload[:size]
            assert loop.run_until_complete(roundtrip(payload)) == payload
    finally:
        loop.close()


def test_ws_read_rejects_unmasked_client_frames():
    async def attempt():
        reader = asyncio.StreamReader()
        reader.feed_data(bytes([0x81, 0x03]) + b"abc")
        reader.feed_eof()
        await wire.ws_read(reader)

    loop = asyncio.new_event_loop()
    try:
        with pytest.raises(wire.WireError):
            loop.run_until_complete(attempt())
    finally:
        loop.close()


def test_http_request_parse_and_response_format():
    async def parse(raw: bytes):
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await wire.read_request(reader)

    loop = asyncio.new_event_loop()
    try:
        request = loop.run_until_complete(parse(
            b"POST /things/3/actions/install?x=1 HTTP/1.1\r\n"
            b"Host: h\r\nContent-Type: application/json\r\n"
            b"Content-Length: 19\r\n\r\n"
            b'{"driver": "relay"}'))
        assert request.method == "POST"
        assert request.json() == {"driver": "relay"}
        path, params = wire.split_target(request.path)
        assert path == "/things/3/actions/install"
        assert params == {"x": "1"}

        assert loop.run_until_complete(parse(b"")) is None
        with pytest.raises(wire.WireError):
            loop.run_until_complete(parse(b"BOGUS\r\n\r\n"))
        with pytest.raises(wire.WireError):
            loop.run_until_complete(parse(
                b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"))
    finally:
        loop.close()

    raw = wire.response_bytes(200, {"b": 2, "a": 1})
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    # Canonical JSON: sorted keys, no spaces.
    assert body == b'{"a":1,"b":2}'
    assert f"Content-Length: {len(body)}".encode() in head


# ------------------------------------------------------------------ ops
def test_op_validation_and_log_roundtrip(tmp_path):
    with pytest.raises(ValueError):
        Op("teleport")
    op = Op("read", thing=3, name="tmp36")
    assert Op.from_json(op.to_json()) == op

    log = RequestLog()
    log.append(0, op, admitted_ns=12345)
    log.append(1, Op("list"), admitted_ns=0)
    path = tmp_path / "requests.json"
    log.save(path)
    loaded = RequestLog.load(path)
    assert loaded.entries == log.entries
    assert loaded.ops() == [op, Op("list")]


def test_opresult_status_classes():
    assert OpResult(200).ok
    assert not OpResult(404).ok
    assert not OpResult(504).ok


def test_bridge_rejects_unknown_pacing():
    with pytest.raises(ValueError):
        GatewayBridge(SCENARIO, pacing="ludicrous")


# ------------------------------------------------------------ determinism
def test_free_pacing_admission_is_a_function_of_op_order():
    ops = [Op("advance", value=1_000_000_000),
           Op("list"),
           Op("td", thing=0),
           Op("advance", value=50_000_000),
           Op("advance", value=50_000_000)]
    first = GatewayBridge.replay(SCENARIO, ops)
    second = GatewayBridge.replay(SCENARIO, ops)
    assert first.digest() == second.digest()
    assert first.log.entries == second.log.entries
    # Read-only ops are logged but never advance simulated time.
    list_entry = first.log.entries[1]
    assert list_entry["kind"] == "list" and list_entry["admitted_ns"] == 0


def test_sim_ops_advance_to_admission_instants():
    bridge = GatewayBridge.replay(SCENARIO, [])
    t0 = [d.sim.now_ns for d in bridge.deployments]
    assert all(t == 0 for t in t0)
    bridge._apply(Op("advance", value=3 * DEFAULT_QUANTUM_NS))
    clocks = [d.sim.now_ns for d in bridge.deployments]
    assert all(t == 3 * DEFAULT_QUANTUM_NS for t in clocks)
    # advance validates its horizon.
    assert bridge._apply(Op("advance")).status == 400
    assert bridge._apply(Op("advance", value=-5)).status == 400


def test_execute_without_thread_applies_inline():
    bridge = GatewayBridge(SCENARIO)
    result = bridge.execute(Op("list"))
    assert result.status == 200
    assert len(result.body["things"]) == 4
    assert len(bridge.log.entries) == 1
    # run_on_thread without a thread runs inline and is not logged.
    assert bridge.run_on_thread(lambda: 7) == 7
    assert len(bridge.log.entries) == 1
    bridge.close()


def test_submitted_ops_serialize_across_threads():
    bridge = GatewayBridge(SCENARIO).start()
    try:
        futures = [bridge.submit(Op("advance", value=10_000_000))
                   for _ in range(8)]
        results = [f.result(timeout=60.0) for f in futures]
        assert all(r.status == 200 for r in results)
        # Serialized: the log holds all 8 in submission order.
        assert [e["kind"] for e in bridge.log.entries] == ["advance"] * 8
        clocks = bridge.run_on_thread(
            lambda: [d.sim.now_ns for d in bridge.deployments])
        assert all(t == 80_000_000 for t in clocks)
    finally:
        bridge.close()


def test_out_of_range_write_is_rejected_before_admission():
    # The protocol packs write values as signed int32.  A value that
    # cannot be packed is a 400 answered before the op takes an
    # admission slot, so it is logged and replays to the same fleet.
    scenario = SCENARIOS["gateway"].scaled(things=40)
    quantum_ns = 1_000_000_000
    bridge = GatewayBridge(scenario, quantum_ns=quantum_ns)
    bridge._apply(Op("advance", value=quantum_ns))
    relay = CATALOG["relay"].device_id
    gid = next(gid for gid, (deployment, local) in sorted(
        bridge._things.items())
        if relay in deployment.things[local].connected_peripherals().values())
    for bad in (2 ** 40, 2 ** 31, -2 ** 31 - 1):
        result = bridge._apply(
            Op("write", thing=gid, name="relay-write", value=bad))
        assert result.status == 400
    good = bridge._apply(Op("write", thing=gid, name="relay-write",
                            value=-2 ** 31))
    assert good.status == 200
    # The bad writes consumed no admission slot.
    assert good.admitted_ns == 2 * quantum_ns
    assert [e["index"] for e in bridge.log.entries] == list(range(5))
    replayed = GatewayBridge.replay(scenario, bridge.log.ops(),
                                    quantum_ns=quantum_ns)
    assert [d.sim.now_ns for d in replayed.deployments] == \
        [d.sim.now_ns for d in bridge.deployments]
    assert replayed.digest() == bridge.digest()
