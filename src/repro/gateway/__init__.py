"""repro.gateway: a live HTTP/WebSocket service over simulated fleets.

Publishes every Thing of a running :class:`FleetScenario` as a W3C-style
Thing Description with live endpoints, bridged into the deterministic
simulation by a single-threaded request serializer.  See DESIGN.md §11.

Layers:

* :mod:`repro.gateway.thing_description` — pure TD generation from the
  driver catalogue and registry state;
* :mod:`repro.gateway.bridge` — the op queue the serving event loop
  drains into the sims, admission pacing, request log, replay
  determinism;
* :mod:`repro.gateway.wire` — stdlib HTTP/1.1 + RFC 6455 primitives;
* :mod:`repro.gateway.server` — asyncio routing and streaming;
* :mod:`repro.gateway.obs` — request-scoped observability: latency
  decomposition, slow-op journal, SLO-triggered flight recorder
  (DESIGN.md §12);
* :mod:`repro.gateway.loadgen` — open-loop load generation with
  SLO-judged latency/error measurements.
"""

from repro.gateway.bridge import GatewayBridge, Op, OpResult, RequestLog
from repro.gateway.loadgen import LoadConfig, LoadResult, run_load
from repro.gateway.obs import GatewayObsConfig, GatewayObservability
from repro.gateway.server import GatewayServer, GatewayStats
from repro.gateway.thing_description import (
    directory_entry,
    driver_affordances,
    thing_description,
)

__all__ = [
    "GatewayBridge",
    "GatewayObsConfig",
    "GatewayObservability",
    "GatewayServer",
    "GatewayStats",
    "LoadConfig",
    "LoadResult",
    "Op",
    "OpResult",
    "RequestLog",
    "directory_entry",
    "driver_affordances",
    "run_load",
    "thing_description",
]
