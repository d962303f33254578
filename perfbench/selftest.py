#!/usr/bin/env python3
"""Self-test of the benchmark's load generator (``traffic.py``).

    python3 perfbench/selftest.py

1. The open-loop schedule is a pure function of the seed.
2. No coordinated omission: a stub server that stalls for a while
   must show the stall in the open loop's latencies, because latency
   is timed from each request's due time, while the generator keeps
   sending on schedule.

Exits 0 when every check passes.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import traffic  # noqa: E402

from repro.gateway.loadgen import HttpPool  # noqa: E402
from repro.gateway.wire import read_request, response_bytes  # noqa: E402

RATE = 200.0
DURATION_S = 2.0
STALL_AT_S = 0.8
STALL_S = 0.3


class StubServer:
    """Answers gateway-shaped requests at once, except that from
    ``stall_at`` its whole event loop blocks for ``stall_s`` (as a
    process-wide pause does)."""

    def __init__(self, stall_s: float) -> None:
        self.stall_s = stall_s
        self.stall_at = None
        self.port = None
        self._ready = threading.Event()
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "StubServer":
        self._thread.start()
        self._ready.wait(10)
        return self

    def stop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        server = self._loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0))
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        self._loop.run_forever()
        server.close()
        self._loop.run_until_complete(server.wait_closed())
        self._loop.close()

    async def _handle(self, reader, writer) -> None:
        while True:
            request = await read_request(reader)
            if request is None:
                break
            if (self.stall_at is not None and self.stall_s
                    and time.perf_counter() >= self.stall_at):
                self.stall_at = None
                time.sleep(self.stall_s)
            parts = [p for p in request.path.split("/") if p]
            if parts == ["things"]:
                body = {"things": [{}] * 4}
            elif len(parts) == 2:
                body = {"id": f"urn:upnp:thing:{parts[1]}"}
            elif parts[2] == "properties":
                body = {"property": parts[3], "value": 1}
            else:
                body = {"action": parts[3]}
            writer.write(response_bytes(200, body))
            await writer.drain()
        writer.close()


TARGETS = traffic.Targets(reads=[(0, "tmp36"), (1, "relay")],
                          writes=[(1, "relay-write")], things=[0, 1],
                          total_things=4)


async def drive(stub: StubServer, stall: bool):
    pool = HttpPool("127.0.0.1", stub.port, 16)
    schedule = traffic.open_schedule(7, RATE, DURATION_S)
    start_delay = 0.05
    if stall:
        stub.stall_at = time.perf_counter() + start_delay + STALL_AT_S
    result = await traffic.open_loop(pool, schedule, TARGETS,
                                     start_delay_s=start_delay)
    await pool.close()
    return result


def main() -> int:
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}"
                                                      if detail else ""))
        if not ok:
            failures.append(name)

    a = traffic.open_schedule(11, 300.0, 5.0)
    check("open schedule repeats for one seed",
          a == traffic.open_schedule(11, 300.0, 5.0))
    check("open schedule differs across seeds",
          a != traffic.open_schedule(12, 300.0, 5.0))
    rate = len(a) / 5.0
    check("open schedule offers the configured rate",
          abs(rate - 300.0) < 0.1 * 300.0, f"{rate:.1f}/s")

    for stall in (False, True):
        stub = StubServer(STALL_S).start()
        try:
            result = asyncio.run(drive(stub, stall))
        finally:
            stub.stop()
        latencies = sorted(o.latency_s for o in result.outcomes)
        p99_ms = traffic.percentile_ms(latencies, 99)
        lag_ms = traffic.percentile_ms(result.gen_lag_s, 99)
        label = "stalled" if stall else "healthy"
        check(f"{label}: every request answered",
              not any(o.failed or not o.body_ok for o in result.outcomes))
        check(f"{label}: generator kept its schedule",
              lag_ms < 20.0, f"gen lag p99 {lag_ms:.2f} ms")
        if not stall:
            check("healthy: p99 latency well under the stall",
                  p99_ms < STALL_S * 1e3 / 4, f"p99 {p99_ms:.1f} ms")
            continue
        waited = sum(1 for lat in latencies if lat >= STALL_S / 3)
        expected = RATE * STALL_S * 2 / 3
        check("stalled: requests due during the stall wait it out",
              waited >= expected / 2,
              f"{waited} requests >= {STALL_S / 3 * 1e3:.0f} ms "
              f"(~{expected:.0f} due in that window)")
        check("stalled: the stall shows in p99 and max",
              p99_ms >= STALL_S * 1e3 / 2
              and latencies[-1] >= 0.8 * STALL_S,
              f"p99 {p99_ms:.1f} ms, max {latencies[-1] * 1e3:.1f} ms")
    print(json.dumps({"selftest": "pass" if not failures else "fail",
                      "failed": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
