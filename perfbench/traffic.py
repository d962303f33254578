"""The benchmark's own HTTP load: a seeded open loop.

The open loop drives a gateway over the program's public
:class:`~repro.gateway.loadgen.HttpPool`.  What is sent is a pure
function of the workload seed and the discovered target lists: the
arrival times are Poisson at one fixed offered rate and the operation
kinds and targets come from one seeded stream (:func:`open_schedule`).

Open-loop latency is timed from each request's *due* time, not from
when it was sent, so a stall delays the requests scheduled behind it
and shows in the percentiles (no coordinated omission).  How late the
generator itself ran is recorded as ``gen_lag``.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.drivers.catalog import CATALOG
from repro.gateway.loadgen import HttpPool, discover_targets
from repro.gateway.thing_description import driver_affordances
from repro.gateway.wire import WireError
from repro.sim.stats import percentile

#: Operation mix: mostly property reads, some directory and Thing
#: Description lookups (no sim work) and a few state-changing writes.
MIX: Tuple[Tuple[str, float], ...] = (
    ("read", 0.95), ("td", 0.02), ("list", 0.01), ("write", 0.02))

#: Per-request wall timeout; a timeout counts as a failed request.
TIMEOUT_S = 10.0

#: Properties whose read waits for an external event: the ID-20LA RFID
#: reader answers only when a card enters its field, so a read of it
#: times out in-fleet (HTTP 504) by design.  They are not read targets.
EVENT_DRIVEN_READS = ("id20la",)

#: Request-id prefix of the open-loop requests (``X-Request-Id``); the
#: crawl's requests carry server-generated ids.
OPEN_ID_PREFIX = "o"

#: Statuses a correct gateway may answer: 404 is the service-layer
#: answer for a property unplugged by churn since discovery.
OK_STATUSES = (200, 404)


def _kind(u: float) -> str:
    for kind, weight in MIX:
        if u < weight:
            return kind
        u -= weight
    return MIX[-1][0]


def open_schedule(seed: int, rate_per_s: float,
                  duration_s: float) -> List[Tuple[float, str, float, int]]:
    """``(due_s, kind, pick, value)`` for every open-loop arrival."""
    rng = random.Random(f"perfbench-open:{seed}")
    schedule = []
    due = 0.0
    while True:
        due += rng.expovariate(rate_per_s)
        if due >= duration_s:
            return schedule
        schedule.append((due, _kind(rng.random()), rng.random(),
                         rng.randrange(2)))


@dataclass
class Targets:
    """What the gateway serves: probed-readable properties, writable
    actions on those Things, and every Thing id."""

    reads: List[Tuple[int, str]]
    writes: List[Tuple[int, str]]
    things: List[int]
    total_things: int
    #: ``reads`` grouped by property name, and the names in order.
    reads_by_name: Dict[str, List[Tuple[int, str]]] = field(init=False)
    read_names: List[str] = field(init=False)

    def __post_init__(self) -> None:
        self.reads_by_name = {}
        for target in self.reads:
            self.reads_by_name.setdefault(target[1], []).append(target)
        self.read_names = sorted(self.reads_by_name)


def writable_properties() -> set:
    return {key for key, spec in CATALOG.items()
            if f"{key}-write" in driver_affordances(key, spec)["actions"]}


async def discover(pool: HttpPool) -> Targets:
    """Crawl the directory and TDs; keep properties that answer a read."""
    status, directory = await pool.request("GET", "/things")
    if status != 200:
        raise RuntimeError(f"directory fetch failed: {status}")
    total = len(directory["things"])
    reads = [(thing, name)
             for thing, name in await discover_targets(pool, total,
                                                       probe=True)
             if name not in EVENT_DRIVEN_READS]
    writable = writable_properties()
    writes = [(thing, f"{name}-write") for thing, name in reads
              if name in writable]
    things = sorted({thing for thing, _ in reads})
    if not reads or not writes:
        raise RuntimeError("no readable/writable targets after warm-up")
    return Targets(reads, writes, things, total)


def request_for(kind: str, pick: float, value: int, targets: Targets):
    """``(method, path, body, expected)`` for one drawn operation."""
    if kind == "read":
        # Every property name gets the same share of the reads, so the
        # mix of peripherals read (whose reads cost the fleet different
        # amounts of simulated work) does not depend on which of them
        # the seed's fleet happens to carry most.
        names = targets.read_names
        scaled = pick * len(names)
        group = targets.reads_by_name[names[int(scaled)]]
        thing, name = group[int((scaled - int(scaled)) * len(group))]
        return ("GET", f"/things/{thing}/properties/{name}", None,
                ("property", name))
    if kind == "write":
        thing, name = targets.writes[int(pick * len(targets.writes))]
        return ("POST", f"/things/{thing}/actions/{name}",
                {"value": value}, ("action", name))
    if kind == "td":
        thing = targets.things[int(pick * len(targets.things))]
        return "GET", f"/things/{thing}", None, ("id", thing)
    return "GET", "/things", None, ("things", targets.total_things)


def body_ok(status: int, body, expected) -> bool:
    """Does a 200 answer carry what was asked for?"""
    if status != 200:
        return True
    if not isinstance(body, dict):
        return False
    key, want = expected
    if key == "id":
        return str(body.get("id", "")).endswith(f":{want}")
    if key == "things":
        return len(body.get("things", ())) == want
    return body.get(key) == want


@dataclass
class Outcome:
    kind: str
    status: object          # int, or "timeout" / "transport"
    latency_s: float        # from due
    service_s: float        # from send to reply
    body_ok: bool = True

    @property
    def failed(self) -> bool:
        return self.status not in OK_STATUSES


async def _issue(pool: HttpPool, request, request_id: str):
    method, path, body, expected = request
    try:
        status, payload = await pool.request(
            method, path, body=body, timeout_s=TIMEOUT_S,
            headers={"X-Request-Id": request_id})
    except asyncio.TimeoutError:
        return "timeout", True
    except (ConnectionError, OSError, WireError,
            asyncio.IncompleteReadError):
        return "transport", True
    return status, body_ok(status, payload, expected)


@dataclass
class OpenLoopResult:
    outcomes: List[Outcome] = field(default_factory=list)
    #: Request id -> outcome index, for joining the server's records.
    ids: Dict[str, int] = field(default_factory=dict)
    gen_lag_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0


async def open_loop(pool: HttpPool, schedule, targets: Targets,
                    *, start_delay_s: float = 0.05) -> OpenLoopResult:
    """Send every scheduled request at its due time, whatever is still
    in flight; latency is measured from the due time."""
    result = OpenLoopResult()
    result.outcomes = [None] * len(schedule)  # type: ignore[list-item]
    origin = perf_counter() + start_delay_s

    async def one(index: int, due_abs: float, kind: str, request) -> None:
        request_id = f"{OPEN_ID_PREFIX}{index}"
        result.ids[request_id] = index
        sent = perf_counter()
        status, good = await _issue(pool, request, request_id)
        done = perf_counter()
        result.outcomes[index] = Outcome(kind, status, done - due_abs,
                                         done - sent, good)

    tasks = []
    for index, (due, kind, pick, value) in enumerate(schedule):
        due_abs = origin + due
        delay = due_abs - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.gen_lag_s.append(max(0.0, perf_counter() - due_abs))
        tasks.append(asyncio.ensure_future(
            one(index, due_abs, kind, request_for(kind, pick, value,
                                                  targets))))
    await asyncio.gather(*tasks)
    result.wall_s = perf_counter() - origin
    return result


def percentile_ms(values_s: List[float], q: float) -> Optional[float]:
    return percentile(values_s, q) * 1e3 if values_s else None


def read_percentile_ms(outcomes: List[Outcome], q: float
                       ) -> Tuple[float, int]:
    """Percentile of the read latencies, and how many reads lie beyond
    it (the sample count that supports it)."""
    latencies = [o.latency_s for o in outcomes if o.kind == "read"]
    value = percentile(latencies, q)
    return value * 1e3, sum(1 for x in latencies if x > value)
