"""End-to-end gateway tests: a real fleet behind a real HTTP server.

Every test boots the 8-Thing ``gateway`` scenario behind a
:class:`GatewayServer` on an ephemeral port, in-process, and talks to
it over actual sockets — TD fetches, property reads, action invokes,
error paths, WebSocket streaming, and the replay-determinism contract.
"""

import asyncio
import base64
import json

import pytest

from repro.gateway.bridge import GatewayBridge, Op
from repro.gateway.loadgen import HttpPool, discover_targets
from repro.gateway.wire import ws_accept

WARMUP_NS = 2_000_000_000


async def _client(server) -> HttpPool:
    return HttpPool(server.host, server.port, 2)


@pytest.mark.asyncio
async def test_directory_and_thing_descriptions(gateway_server):
    server = await gateway_server()
    pool = await _client(server)
    status, directory = await pool.request("GET", "/things")
    assert status == 200
    things = directory["things"]
    assert len(things) == 8
    assert things[0]["id"] == "urn:upnp:thing:0"
    assert things[0]["href"] == "/things/0"

    status, td = await pool.request("GET", "/things/0")
    assert status == 200
    assert td["@context"].startswith("https://www.w3.org/")
    assert td["id"] == "urn:upnp:thing:0"
    assert td["securityDefinitions"]["nosec_sc"]["scheme"] == "nosec"
    # The install action is always advertised; its enum is the catalogue.
    install = td["actions"]["install"]
    assert "relay" in install["input"]["properties"]["driver"]["enum"]
    # Every property points at a live endpoint under this thing.
    for name, prop in td["properties"].items():
        assert prop["forms"][0]["href"] == f"/things/0/properties/{name}"
    await pool.close()
    await server.close()


@pytest.mark.asyncio
async def test_property_read_and_error_paths(gateway_server):
    server = await gateway_server()
    pool = await _client(server)
    targets = await discover_targets(pool, 8, probe=True)
    assert targets, "warm fleet exposes at least one readable property"
    thing, prop = targets[0]

    status, body = await pool.request(
        "GET", f"/things/{thing}/properties/{prop}")
    assert status == 200
    assert body["property"] == prop
    assert isinstance(body["value"], int)
    assert body["sim"]["latency_ns"] > 0

    # Unknown property: service-level 404, never a sim-side exception.
    status, body = await pool.request(
        "GET", f"/things/{thing}/properties/definitely-not-a-sensor")
    assert status == 404
    # Unknown thing, malformed thing id, unknown route.
    assert (await pool.request("GET", "/things/999"))[0] == 404
    assert (await pool.request("GET", "/things/zeppelin"))[0] == 404
    assert (await pool.request("GET", "/nope"))[0] == 404
    # Wrong method on a GET route.
    assert (await pool.request("POST", "/nowhere"))[0] == 404
    assert (await pool.request("PUT", "/things"))[0] == 405
    await pool.close()
    await server.close()


@pytest.mark.asyncio
async def test_action_invocation(gateway_server):
    server = await gateway_server()
    pool = await _client(server)

    status, body = await pool.request(
        "POST", "/things/3/actions/install", body={"driver": "relay"})
    assert status == 200 and body["installed"] is True

    # Re-install is idempotent (dup-upload suppression on the Thing).
    status, body = await pool.request(
        "POST", "/things/3/actions/install", body={"driver": "relay"})
    assert status == 200

    status, _ = await pool.request(
        "POST", "/things/3/actions/install", body={"driver": "warp-core"})
    assert status == 404
    status, _ = await pool.request(
        "POST", "/things/3/actions/install", body={})
    assert status == 400
    # Write action against a board that is not plugged: 404.
    status, _ = await pool.request(
        "POST", "/things/3/actions/relay-write", body={"value": 1})
    assert status in (200, 404)  # depends on whether churn plugged a relay
    # Write without an integer value: 400 before touching the sim.
    status, _ = await pool.request(
        "POST", "/things/3/actions/relay-write", body={"value": "high"})
    assert status == 400
    await pool.close()
    await server.close()


@pytest.mark.asyncio
async def test_crashed_thing_times_out(gateway_server):
    server = await gateway_server()
    bridge = server.bridge
    pool = await _client(server)
    targets = await discover_targets(pool, 8, probe=True)
    thing, prop = targets[0]
    # Chaos hook: silence the Thing's radio behind the service's back.
    # (A full crash() also detaches peripherals, which the bridge would
    # correctly answer with 404; a downed stack keeps the board plugged
    # so the read is legal but never answered — the 504 path.)
    deployment, local = bridge._things[thing]
    bridge.run_on_thread(
        lambda: deployment.things[local].stack.set_down(True))

    status, body = await pool.request(
        "GET", f"/things/{thing}/properties/{prop}", timeout_s=60.0)
    assert status == 504
    assert "timed out" in body["error"]
    await pool.close()
    await server.close()


@pytest.mark.asyncio
async def test_healthz(gateway_server):
    server = await gateway_server(warmup_ns=0)
    pool = await _client(server)
    status, body = await pool.request("GET", "/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["things"] == 8
    assert body["pacing"] == "free"
    assert body["streams"] == 0
    # The silent-drop counter is surfaced (satellite of ISSUE 10) and
    # the health body names the SLO verdict when observability is on.
    assert body["stream_dropped"] == 0
    assert body["requests"] >= 1
    assert body["slo"] in ("no-data", "ok", "recovered", "degraded")
    await pool.close()
    await server.close()


@pytest.mark.asyncio
async def test_oversized_request_head_gets_a_400(gateway_server):
    server = await gateway_server(warmup_ns=0)
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(b"GET /healthz HTTP/1.1\r\nX-Filler: " + b"a" * 70_000
                 + b"\r\n\r\n")
    await writer.drain()
    reply = await asyncio.wait_for(reader.read(), timeout=10.0)
    assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert b"request head too large" in reply
    writer.close()
    await server.close()


@pytest.mark.asyncio
async def test_websocket_stream_delivers_fleet_events(gateway_server):
    server = await gateway_server()
    reader, writer = await asyncio.open_connection(server.host, server.port)
    key = base64.b64encode(b"0123456789abcdef").decode()
    writer.write(
        (f"GET /stream HTTP/1.1\r\nHost: {server.host}\r\n"
         "Upgrade: websocket\r\nConnection: Upgrade\r\n"
         f"Sec-WebSocket-Key: {key}\r\n"
         "Sec-WebSocket-Version: 13\r\n\r\n").encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    assert b"101 Switching Protocols" in head
    assert ws_accept(key).encode() in head

    # Drive the fleet: one advance generates telemetry samples and
    # (via churn/reads processes) thing events.
    pool = await _client(server)
    await asyncio.wrap_future(
        server.bridge.submit(Op("advance", value=2_000_000_000)))
    targets = await discover_targets(pool, 8)
    if targets:
        await pool.request("GET",
                           f"/things/{targets[0][0]}/properties/"
                           f"{targets[0][1]}", timeout_s=60.0)

    async def read_frame():
        first, second = await reader.readexactly(2)
        length = second & 0x7F
        if length == 126:
            length = int.from_bytes(await reader.readexactly(2), "big")
        payload = await reader.readexactly(length)
        return first & 0x0F, payload

    seen_types = set()
    for _ in range(50):
        opcode, payload = await asyncio.wait_for(read_frame(), timeout=30.0)
        assert opcode == 0x1
        message = json.loads(payload)
        seen_types.add(message["type"])
        if {"telemetry-sample", "client-event"} <= seen_types:
            break
    assert "telemetry-sample" in seen_types
    assert "client-event" in seen_types

    writer.close()
    await pool.close()
    await server.close()


def _masked_frame(first: int, payload: bytes) -> bytes:
    mask = b"\x37\xfa\x21\x3d"
    body = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return bytes([first, 0x80 | len(payload)]) + mask + body


@pytest.mark.asyncio
async def test_fragmented_ping_closes_the_stream(gateway_server):
    # A ping is answered; the same ping with FIN clear breaks RFC 6455
    # section 5.5, so the server drops the /stream connection instead.
    server = await gateway_server(warmup_ns=0)
    reader, writer = await asyncio.open_connection(server.host, server.port)
    key = base64.b64encode(b"fedcba9876543210").decode()
    writer.write(
        (f"GET /stream HTTP/1.1\r\nHost: {server.host}\r\n"
         "Upgrade: websocket\r\nConnection: Upgrade\r\n"
         f"Sec-WebSocket-Key: {key}\r\n"
         "Sec-WebSocket-Version: 13\r\n\r\n").encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    assert b"101 Switching Protocols" in head

    async def frames_until_eof():
        data = await asyncio.wait_for(reader.read(), timeout=10.0)
        frames = []
        while data:
            length, size = data[1] & 0x7F, 2
            if length == 126:
                length, size = int.from_bytes(data[2:4], "big"), 4
            frames.append((data[0], data[size:size + length]))
            data = data[size + length:]
        return frames

    writer.write(_masked_frame(0x89, b"ok"))
    writer.write(_masked_frame(0x09, b"no"))
    await writer.drain()
    # The stream may interleave event frames; the connection closes
    # after the one pong, without answering the fragmented ping.
    frames = await frames_until_eof()
    assert [payload for first, payload in frames
            if first == 0x8A] == [b"ok"]
    writer.close()
    await server.close()


@pytest.mark.asyncio
async def test_recorded_request_log_replays_to_identical_digest(
        gateway_scenario):
    from repro.gateway.server import GatewayServer

    bridge = GatewayBridge(gateway_scenario)
    server = await GatewayServer(bridge).start()
    pool = await _client(server)
    await asyncio.wrap_future(bridge.submit(Op("advance", value=WARMUP_NS)))
    # A concurrent burst: arrival interleaving on the loop is whatever
    # it is — the bridge's serialization is what replay reproduces.
    targets = await discover_targets(pool, 8, probe=True)
    jobs = []
    for i in range(20):
        thing, prop = targets[i % len(targets)]
        jobs.append(pool.request(
            "GET", f"/things/{thing}/properties/{prop}", timeout_s=60.0))
    jobs.append(pool.request("POST", "/things/5/actions/install",
                             body={"driver": "max6675"}))
    results = await asyncio.gather(*jobs)
    assert all(status in (200, 404, 504) for status, _ in results)
    await pool.close()
    await server.close()

    digest = bridge.run_on_thread(bridge.digest)
    ops = bridge.log.ops()
    bridge.close()

    replayed = GatewayBridge.replay(gateway_scenario, ops)
    assert replayed.digest() == digest
    assert [e["admitted_ns"] for e in replayed.log.entries] == \
        [e["admitted_ns"] for e in bridge.log.entries]
