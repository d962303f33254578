"""Duty-cycled periodic sampling load for fleet nodes.

μPnP nodes in the field are >99% idle: they wake on a timer, read a
sensor, accrue a little energy, and sleep.  This module models that
duty cycle explicitly — a per-Thing :class:`SensorSampler` and
:class:`BaselineAccrual` registered through ``Simulator.every`` — and
is the primary workload the closed-form fast-forward tier
(:meth:`repro.sim.kernel.Simulator.run_until`) accelerates: both
samplers are **fast-forward certified** (their callbacks never touch
the event queue, their state is disjoint per handle, and each ships a
``bulk(n)`` applier whose effect is bit-identical to n sequential
ticks, including the order of float adds into the energy meter).

The sampled readings feed integer accumulators that
``ShardDeployment._collect_final`` folds into the merged fleet metrics
(so the digest-parity machinery proves fast-forward changed nothing),
and the per-tick energy lands in each Thing's meter under dedicated
``sensor`` / ``idle`` categories that surface through the existing
``energy.*_joules`` gauges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.kernel import ns_from_ms

#: Event names of the two sampler cadences.
SENSOR_EVENT = "sensor-sample"
BASELINE_EVENT = "baseline-accrue"


@dataclass(frozen=True)
class SamplingConfig:
    """Periodic sampling load per Thing (frozen → pickle-safe)."""

    #: Sensor read cadence per Thing.
    sensor_interval_ms: int = 50
    #: Baseline (sleep-current) accrual cadence per Thing.
    baseline_interval_ms: int = 100
    #: Energy per sensor read, microjoules (ADC + bus transaction).
    sensor_read_uj: float = 1.8
    #: Energy per baseline tick, microjoules (sleep draw integrated
    #: over one tick).
    baseline_uj: float = 0.33

    def __post_init__(self) -> None:
        if self.sensor_interval_ms <= 0 or self.baseline_interval_ms <= 0:
            raise ValueError("sampling intervals must be positive")


class SensorSampler:
    """One Thing's periodic sensor read.

    The reading is a deterministic 11-bit LCG stream seeded from the
    Thing's global id, so counts and sums are reproducible and
    shard-order mergeable.  ``apply(n)`` advances the stream by n
    ticks with the identical arithmetic a tick-by-tick run performs —
    the loop is the closed form here; what fast-forward removes is the
    n× kernel dispatch around it, not the integer work itself.
    """

    __slots__ = ("_x", "_read_j", "_meter", "count", "total")

    def __init__(self, global_id: int, meter, read_uj: float) -> None:
        self._x = (global_id * 2654435761 + 1) & 0x7FFFFFFF
        self._read_j = read_uj * 1e-6
        self._meter = meter
        self.count = 0
        self.total = 0

    def tick(self) -> None:
        x = (self._x * 1103515245 + 12345) & 0x7FFFFFFF
        self._x = x
        self.count += 1
        self.total += x >> 20
        self._meter.add("sensor", self._read_j)

    def apply(self, n: int) -> None:
        x = self._x
        total = 0
        for _ in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += x >> 20
        self._x = x
        self.count += n
        self.total += total
        self._meter.add_n("sensor", self._read_j, n)


class BaselineAccrual:
    """One Thing's sleep-current energy accrual."""

    __slots__ = ("_tick_j", "_meter", "count")

    def __init__(self, meter, tick_uj: float) -> None:
        self._tick_j = tick_uj * 1e-6
        self._meter = meter
        self.count = 0

    def tick(self) -> None:
        self.count += 1
        self._meter.add("idle", self._tick_j)

    def apply(self, n: int) -> None:
        self.count += n
        self._meter.add_n("idle", self._tick_j, n)


def install_sampling(sim, things, config: SamplingConfig, first_id: int = 0):
    """Register certified samplers for every Thing on *sim*.

    Returns ``(samplers, baselines)`` in Thing order, for final-stat
    folding.  ``first_id`` is the shard's first global Thing id, so LCG
    seeds are fleet-unique.
    """
    sensor_ns = ns_from_ms(config.sensor_interval_ms)
    baseline_ns = ns_from_ms(config.baseline_interval_ms)
    samplers = []
    baselines = []
    for local, thing in enumerate(things):
        sampler = SensorSampler(
            first_id + local, thing.meter, config.sensor_read_uj)
        sim.every(sensor_ns, sampler.tick, name=SENSOR_EVENT,
                  fast_forward=True, bulk=sampler.apply)
        samplers.append(sampler)
        accrual = BaselineAccrual(thing.meter, config.baseline_uj)
        sim.every(baseline_ns, accrual.tick, name=BASELINE_EVENT,
                  fast_forward=True, bulk=accrual.apply)
        baselines.append(accrual)
    return samplers, baselines


__all__ = [
    "SamplingConfig",
    "SensorSampler",
    "BaselineAccrual",
    "install_sampling",
    "SENSOR_EVENT",
    "BASELINE_EVENT",
]
