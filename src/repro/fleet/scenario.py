"""Declarative fleet scenarios: many-gateway µPnP deployments.

A :class:`FleetScenario` describes a whole deployment — how many Things,
how they are grouped into gateway shards, which peripherals the
population carries, and the stochastic churn driving it (plug/unplug
cycles, driver hot-updates, client discovery/read/stream traffic).

Everything here is a frozen dataclass of primitives, so scenarios and
:class:`ShardSpec` partitions are pickle-safe and can cross process
boundaries to the shard runner.  All randomness inside a shard derives
from ``RngRegistry(seed).fork(f"shard-{index}")`` and then per-node
forks, so a shard's behaviour depends only on ``(scenario, index)`` —
never on which worker process executes it or how many workers exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.fleet.sampling import SamplingConfig
from repro.profile.config import ProfileConfig
from repro.protocol.reliability import RetryPolicy
from repro.telemetry.config import TelemetryConfig


@dataclass(frozen=True)
class ChurnProfile:
    """Stochastic load shaping for a fleet run.

    Intervals are means of exponential delays (memoryless processes);
    probabilities are per-decision.
    """

    #: Every Thing plugs its first board uniformly inside this window.
    initial_plug_window_s: float = 1.0
    #: Mean delay between churn actions (plug or unplug) per Thing.
    churn_interval_s: float = 12.0
    #: A churn action unplugs an occupied channel with this probability
    #: (otherwise it plugs a new board into a free channel).
    unplug_probability: float = 0.35
    #: Mean delay between manager-driven driver hot-updates, per shard.
    hot_update_interval_s: float = 15.0
    #: Mean delay between client peripheral discoveries, per shard.
    discovery_interval_s: float = 2.0
    #: Collection window for each discovery.
    discovery_timeout_s: float = 0.5
    #: Mean delay between client reads of known peripherals, per shard.
    read_interval_s: float = 1.0
    #: After a successful discovery, subscribe to a stream with this
    #: probability.
    stream_probability: float = 0.25
    #: Requested stream period.
    stream_interval_ms: int = 1000
    #: Cancel each stream after roughly this long (exercises timer
    #: cancellation, i.e. kernel tombstones).
    stream_lifetime_s: float = 6.0
    #: Per-read request timeout.  Under fault campaigns this must cover
    #: the retry policy's worst-case retransmission span.
    read_timeout_s: float = 2.0


#: Relative weights of catalogue peripherals in the deployed population.
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("tmp36", 4.0),
    ("hih4030", 2.0),
    ("bmp180", 2.0),
    ("id20la", 1.0),
    ("max6675", 1.0),
    ("relay", 1.0),
)


@dataclass(frozen=True)
class FleetScenario:
    """A whole µPnP deployment, declaratively.

    The fleet is partitioned into gateway *shards*: each shard is an
    independent network (one manager/border-router, one client, up to
    ``shard_size`` Things) running on its own simulator, which is what
    makes fleet runs embarrassingly parallel.
    """

    name: str = "custom"
    #: Total Things across the whole fleet.
    things: int = 50
    #: Things per gateway shard.
    shard_size: int = 25
    #: Channels (peripheral slots) per Thing.
    channels: int = 3
    #: Simulated duration of the run.
    duration_s: float = 30.0
    #: Master seed; all shard randomness forks from it.
    seed: int = 1
    peripheral_mix: Tuple[Tuple[str, float], ...] = DEFAULT_MIX
    churn: ChurnProfile = field(default_factory=ChurnProfile)
    #: Record a cross-layer trace (:mod:`repro.obs`) on every shard.
    trace: bool = False
    #: Per-shard tracer ring-buffer bound when tracing.
    trace_limit: int = 100_000
    #: Endpoint reliability layer (retransmission + duplicate control).
    #: Off reproduces the pre-reliability protocol for A/B benchmarks.
    reliability: bool = True
    #: Client/manager request retry schedule (``None`` = library default).
    #: :class:`~repro.protocol.reliability.RetryPolicy` is a frozen
    #: dataclass of primitives, so scenarios stay pickle-safe.
    retry: Optional[RetryPolicy] = None
    #: Thing driver-install retry schedule (``None`` = library default).
    install_retry: Optional[RetryPolicy] = None
    #: Sample fleet-wide time series (:mod:`repro.telemetry`) on every
    #: shard.  ``None`` (the default) attaches nothing — the disabled
    #: mode costs zero on the hot paths.
    telemetry: Optional[TelemetryConfig] = None
    #: Profile every shard (:mod:`repro.profile`): per-event cost,
    #: opcode heat, idle-gap analysis.  ``None`` attaches nothing: the
    #: hot paths keep only their observer guards, as with ``trace``.
    profile: Optional[ProfileConfig] = None
    #: Duty-cycled sampling load (:mod:`repro.fleet.sampling`): periodic
    #: per-Thing sensor reads and baseline energy accrual.  These events
    #: are fast-forward certified, so they dominate the idle windows the
    #: kernel can skip analytically.  ``None`` installs nothing.
    sampling: Optional["SamplingConfig"] = None
    #: Enable the kernel's closed-form idle fast-forward on every shard.
    #: Digest-neutral by construction (the differential suite proves it);
    #: off by default so existing scenarios run exactly as before.
    fast_forward: bool = False

    def __post_init__(self) -> None:
        if self.things < 1:
            raise ValueError("a fleet needs at least one Thing")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.peripheral_mix:
            raise ValueError("peripheral_mix must not be empty")

    # ------------------------------------------------------------- sharding
    @property
    def shard_count(self) -> int:
        return (self.things + self.shard_size - 1) // self.shard_size

    def shards(self) -> List["ShardSpec"]:
        """Partition into pickle-safe, independently runnable shards.

        The partition is a pure function of the scenario — worker count
        never changes shard boundaries, which is what keeps merged
        metrics identical across ``--workers`` settings.
        """
        specs = []
        for index in range(self.shard_count):
            first = index * self.shard_size
            count = min(self.shard_size, self.things - first)
            specs.append(ShardSpec(self, index, first, count))
        return specs

    def scaled(self, **overrides) -> "FleetScenario":
        """A copy with the given fields replaced (CLI overrides)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class ShardSpec:
    """One gateway shard: the unit of parallel execution."""

    scenario: FleetScenario
    index: int
    #: Global id of this shard's first Thing (ids label metrics/events).
    first_thing: int
    #: Number of Things in this shard.
    things: int


#: Named scenarios runnable via ``python -m repro.fleet --scenario``.
SCENARIOS: Dict[str, FleetScenario] = {
    "smoke": FleetScenario(
        name="smoke", things=10, shard_size=5, duration_s=10.0,
    ),
    "metro": FleetScenario(
        name="metro", things=50, shard_size=25, duration_s=30.0,
    ),
    "dense": FleetScenario(
        name="dense", things=200, shard_size=25, duration_s=30.0,
        churn=ChurnProfile(churn_interval_s=8.0, discovery_interval_s=1.5),
    ),
    # The duty-cycled profiling reference: sparse churn and slow reads
    # leave long inter-event gaps, so the idle-gap analyzer has real
    # fast-forward opportunity to quantify.
    "default": FleetScenario(
        name="default", things=20, shard_size=10, duration_s=20.0,
        churn=ChurnProfile(
            churn_interval_s=30.0, discovery_interval_s=5.0,
            read_interval_s=4.0, hot_update_interval_s=40.0,
            stream_probability=0.15,
        ),
    ),
    # The live-service hosting reference (repro.gateway): calm churn
    # and no client-side stream noise, so most sim events while serving
    # are the gateway's own bridged reads/actions.  duration_s is only
    # the default horizon for batch runs — a hosted gateway serves
    # indefinitely.
    "gateway": FleetScenario(
        name="gateway", things=20, shard_size=20, duration_s=60.0,
        churn=ChurnProfile(
            churn_interval_s=60.0, discovery_interval_s=10.0,
            read_interval_s=8.0, hot_update_interval_s=90.0,
            stream_probability=0.0,
        ),
        # Telemetry on by default: the gateway's /stream pushes each
        # shard's sample ticks to WebSocket subscribers.
        telemetry=TelemetryConfig(cadence_s=1.0),
    ),
    # "default" plus the duty-cycled sampling load: every Thing wakes
    # every 50 ms to read a sensor and every 100 ms to accrue sleep
    # energy.  >95% of its events are fast-forward certified, making it
    # the reference workload for ``--fast-forward`` speedups (and the
    # scenario the fastforward benchmarks/differential tests run).
    "duty": FleetScenario(
        name="duty", things=20, shard_size=10, duration_s=20.0,
        churn=ChurnProfile(
            churn_interval_s=30.0, discovery_interval_s=5.0,
            read_interval_s=4.0, hot_update_interval_s=40.0,
            stream_probability=0.15,
        ),
        sampling=SamplingConfig(),
    ),
}


__all__ = [
    "ChurnProfile",
    "FleetScenario",
    "ShardSpec",
    "SCENARIOS",
    "DEFAULT_MIX",
]
