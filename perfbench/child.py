"""Gateway server process for the benchmark's HTTP phases.

    python3 perfbench/child.py --workload gateway-mixed --seed 1 --trace 0

Hosts the workload's fleet behind a free-paced ``GatewayBridge`` and a
``GatewayServer`` on an ephemeral loopback port, so load generation
(in the parent) and serving do not share one interpreter lock or event
loop.  After the warm-up advance it prints ``{"port": N}`` and then
answers one-word commands on stdin, one JSON line each:

* ``collect`` — run a full garbage collection, so the measured phases
  start without the collection debt that set-up left behind;
* ``stats`` — this process's CPU time so far (every thread), the
  server's own decomposition records (queue wait, sim execution, reply
  write, by request id) since the last ``stats``, plus the traced
  run's layer spans, which are then reset;
* ``report`` — the fleet digest, the request log, the decomposition
  op count and this process's peak RSS;
* ``quit`` — stop serving and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402  (benchmark module next to this file)
from fleetwork import peak_rss_kb, serve_scenario_for  # noqa: E402

from repro.gateway.__main__ import WARMUP_NS  # noqa: E402
from repro.gateway.bridge import GatewayBridge, Op  # noqa: E402
from repro.gateway.obs import GatewayObservability  # noqa: E402
from repro.gateway.server import GatewayServer  # noqa: E402


class RecordCapture:
    """Keeps every decomposition record the server's obs layer returns.

    ``record_op`` returns the record dict and the server later writes
    the reply-write time into that same dict, so holding the references
    is enough to read all three components per request.
    """

    def __init__(self) -> None:
        self.records = []

    def install(self) -> None:
        original = GatewayObservability.record_op
        capture = self

        def record_op(obs, *args, **kwargs):
            record = original(obs, *args, **kwargs)
            capture.records.append(record)
            return record

        GatewayObservability.record_op = record_op

    def drain(self) -> list:
        records, self.records = self.records, []
        return [[r["request_id"], r["kind"], r["status"],
                 r["queue_wait_ms"], r["sim_exec_ms"], r["reply_write_ms"]]
                for r in records]


def emit(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


async def serve(workload: str, seed: int, tracer, capture) -> None:
    bridge = GatewayBridge(serve_scenario_for(workload, seed))
    server = await GatewayServer(bridge).start()
    ops_captured = 0
    try:
        await asyncio.wrap_future(
            bridge.submit(Op("advance", value=WARMUP_NS)))
        emit({"port": server.port})
        loop = asyncio.get_running_loop()
        while True:
            command = (await loop.run_in_executor(
                None, sys.stdin.readline)).strip()
            if command == "collect":
                gc.collect()
                emit({})
            elif command == "stats":
                records = capture.drain() if capture else []
                ops_captured += len(records)
                spans = tracer.snapshot() if tracer else {}
                if tracer:
                    tracer.reset()
                emit({"cpu_s": time.process_time(), "records": records,
                      "spans": spans})
            elif command == "report":
                digest = await asyncio.wrap_future(
                    bridge.submit_call(bridge.digest))
                log = await asyncio.wrap_future(
                    bridge.submit_call(bridge.log.to_json))
                summary = await asyncio.wrap_future(
                    bridge.submit_call(bridge.obs.summary))
                emit({"digest": digest, "log": log,
                      "obs_ops": sum(kind["count"] for kind
                                     in summary["kinds"].values()),
                      "ops_captured": ops_captured + (
                          len(capture.records) if capture else 0),
                      "peak_rss_kb": peak_rss_kb()})
            else:  # "quit" or the parent went away (EOF)
                return
    finally:
        await server.close()
        bridge.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = capture = None
    if args.trace:
        tracer = layers.LayerTracer()
        layers.install(tracer, wire=True)
        capture = RecordCapture()
        capture.install()
    asyncio.run(serve(args.workload, args.seed, tracer, capture))
    return 0


if __name__ == "__main__":
    sys.exit(main())
