"""The benchmark's fleets and the in-process phases run on them.

Every workload hosts one fleet scenario.  The workload seed becomes
``FleetScenario.seed``; nothing else about the scenario varies.
"""

from __future__ import annotations

import resource
import shutil
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.fleet import SCENARIOS, FleetScenario, Metrics, run_scenario
from repro.fleet import runner as fleet_runner
from repro.fleet.sampling import SamplingConfig
from repro.gateway.bridge import GatewayBridge, Op
from repro.sim.kernel import ns_from_s
from repro.snapshot import checkpoint as snapshot_checkpoint
from repro.snapshot import digest_document, shard_summary

# live_shards, save_shard and load_shard are called through their
# modules, so the traced run's wrappers (layers.py) see these calls.

#: Workload name -> its fleet scenario (seed applied per run).
SCENARIO_BY_WORKLOAD: Dict[str, FleetScenario] = {
    # Sampler-dense duty cycling with the kernel's idle fast-forward:
    # almost every event is applied analytically.
    "fleet-duty": SCENARIOS["duty"].scaled(
        name="bench-duty", things=100, shard_size=5, duration_s=20.0,
        sampling=SamplingConfig(sensor_interval_ms=2,
                                baseline_interval_ms=4),
        fast_forward=True),
    # The live-service reference: calm churn, 1 s telemetry sweeps.
    "gateway-mixed": SCENARIOS["gateway"].scaled(
        name="bench-gateway", things=300, shard_size=100, duration_s=30.0),
}


def peak_rss_kb() -> int:
    """This process's own peak resident set, in KiB.

    ``/proc/self/status`` VmHWM belongs to the current address space.
    ``getrusage`` is only the fallback: on Linux its ``ru_maxrss``
    survives ``execve``, so a process spawned from a larger one starts
    with its parent's peak.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def scenario_for(workload: str, seed: int) -> FleetScenario:
    return SCENARIO_BY_WORKLOAD[workload].scaled(seed=seed)


#: Mean interval that leaves a scenario's own client traffic idle.
IDLE_S = 1e9


def serve_scenario_for(workload: str, seed: int) -> FleetScenario:
    """The fleet the gateway hosts in the serve phase.

    The gateway's HTTP clients replace the scenario's synthetic client
    traffic (discoveries, reads, streams), which goes idle after its
    first round; churn and driver updates keep running.  The synthetic
    reads share the gateway's ``Client`` and make some bridged reads
    time out in-fleet (HTTP 504), which would count as failures.
    """
    scenario = scenario_for(workload, seed)
    return scenario.scaled(churn=replace(
        scenario.churn, discovery_interval_s=IDLE_S,
        read_interval_s=IDLE_S, stream_probability=0.0))


class DriveResult:
    """One drive phase: repeated build + run-to-horizon + merge.

    Times are host seconds as measured; ``factors`` holds each
    repetition's scale to the reference machine's speed (``pace.py``),
    which the caller appends once the timings around it are taken.
    """

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.drive_s: List[float] = []
        self.events: List[int] = []
        self.factors: List[float] = []
        self.digests: List[str] = []
        self.merged: Optional[dict] = None
        self.deployments: list = []
        self.ff_events = 0

    @property
    def reps(self) -> int:
        return len(self.drive_s)

    @property
    def events_per_s(self) -> List[float]:
        """At the reference speed."""
        return [n / (t * f) for n, t, f
                in zip(self.events, self.drive_s, self.factors)]


def drive_once(scenario: FleetScenario, result: DriveResult,
               on_built: Optional[Callable] = None,
               on_done: Optional[Callable] = None) -> None:
    """Build every shard, run each serially to the horizon, finalize
    and merge: the hosted fleet path, ``workers=1``."""
    started = time.perf_counter()
    deployments = fleet_runner.live_shards(scenario)
    built = time.perf_counter()
    if on_built is not None:
        on_built(deployments)
    horizon = ns_from_s(scenario.duration_s)
    for deployment in deployments:
        deployment.sim.run_until(horizon)
        if on_done is not None:
            on_done(deployment)
    merged = Metrics.merge([d.finalize().snapshot() for d in deployments])
    finished = time.perf_counter()
    result.setup_s.append(built - started)
    result.drive_s.append(finished - built)
    result.events.append(merged["counters"]["sim.events"])
    result.digests.append(digest_document(merged))
    result.merged = merged
    result.deployments = deployments
    result.ff_events = sum(d.sim.ff_events for d in deployments)


def reference_digest(scenario: FleetScenario) -> str:
    """Merged digest of the library's own batch path, for the check."""
    return digest_document(run_scenario(scenario, workers=1).merged)


class CheckpointResult:
    def __init__(self) -> None:
        self.save_s: List[float] = []
        self.restore_s: List[float] = []
        self.factors: List[float] = []
        self.bytes = 0
        self.saved_digest = ""
        self.restored_digests: List[str] = []


def fleet_state_digest(deployments) -> str:
    """Digest of every shard's structural summary, in shard order."""
    return digest_document([shard_summary(d) for d in deployments])


def checkpoint(deployments, workdir: Path, result: CheckpointResult) -> None:
    """Save every shard, then restore every shard, appending both times
    to *result*.

    ``load_shard`` audits every restore against its own saved summary;
    this also compares the restored fleet with the saved one from
    outside, through the shards' structural summaries (a digest of the
    simulated state).
    """
    result.saved_digest = fleet_state_digest(deployments)
    shutil.rmtree(workdir, ignore_errors=True)
    dirs = [workdir / f"shard-{i:04d}" for i in range(len(deployments))]
    started = time.perf_counter()
    for deployment, directory in zip(deployments, dirs):
        snapshot_checkpoint.save_shard(deployment, directory)
    saved = time.perf_counter()
    restored = [snapshot_checkpoint.load_shard(d).deployment for d in dirs]
    finished = time.perf_counter()
    result.save_s.append(saved - started)
    result.restore_s.append(finished - saved)
    result.restored_digests.append(fleet_state_digest(restored))
    result.bytes = sum((d / "state.bin").stat().st_size for d in dirs)
    shutil.rmtree(workdir, ignore_errors=True)


class ReplayResult:
    """Replays of one recorded gateway log.

    Only the open-loop part of the log is timed (from its first
    request on): the warm-up advance and the crawl before it are
    replayed untimed, because the crawl's probe reads of event-driven
    properties run to their in-fleet timeout, and how many of those
    the fleet holds depends on the seed.
    """

    def __init__(self, entries: List[dict], open_id_prefix: str) -> None:
        self.ops = [Op.from_json(entry) for entry in entries]
        self.start = next(
            (i for i, op in enumerate(self.ops)
             if op.request_id.startswith(open_id_prefix)), len(self.ops))
        self.elapsed_s: List[float] = []
        self.factors: List[float] = []
        self.digests: List[str] = []

    @property
    def timed_ops(self) -> int:
        return len(self.ops) - self.start

    @property
    def wall_s(self) -> float:
        return sum(self.elapsed_s)

    @property
    def rates(self) -> List[float]:
        """At the reference speed."""
        return [self.timed_ops / (t * f)
                for t, f in zip(self.elapsed_s, self.factors)]


def replay(scenario: FleetScenario, result: ReplayResult) -> None:
    """Apply a recorded gateway request log inline: bridge and sim
    only, no wire.  The whole log is replayed on a fresh bridge, built
    outside the timed region; the open-loop part's time and the
    digest go to *result*."""
    bridge = GatewayBridge(scenario)
    try:
        for op in result.ops[:result.start]:
            bridge.execute(op)
        started = time.perf_counter()
        for op in result.ops[result.start:]:
            bridge.execute(op)
        result.elapsed_s.append(time.perf_counter() - started)
        result.digests.append(bridge.digest())
    finally:
        bridge.close()
