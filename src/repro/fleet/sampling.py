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

The sensor applier jumps its LCG stream ahead with packed big-int
arithmetic (:func:`_jump_table`, cut per jump length by
:func:`_jump_slices`), so a window costs a few C-level operations per
4,096 ticks instead of one Python step per tick (below
``_STEP_MAX`` ticks it steps the LCG in a local loop); the
energy meter still receives n individual float adds
(:meth:`repro.hw.power.EnergyMeter.add_n`).

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


#: The sensor stream: ``x' = (LCG_MUL * x + LCG_INC) mod 2**31``, one
#: step per reading; a reading is the state's top 11 bits.
LCG_MUL = 1103515245
LCG_INC = 12345
LCG_MASK = 0x7FFFFFFF
READ_SHIFT = 20
READ_MASK = 0x7FF

#: Most ticks one jump-ahead covers; longer runs take several chunks,
#: which bounds the table at three ints of ``_CHUNK`` slots (~100 KB).
_CHUNK = 4096
#: Bits per packed slot: ``A * x + C < 2**62`` for 31-bit ``A``, ``x``
#: and ``C``, so no carry crosses into the next slot.
_SLOT = 64
#: ``2**64 ≡ 1`` modulo this, so reducing a packed int sums its slots.
_FOLD = (1 << _SLOT) - 1

#: ``(length, P, Q, H)``: slot ``i`` (bits ``64*i`` up) of ``P`` and
#: ``Q`` holds the jump coefficients ``A_k = LCG_MUL**k mod 2**31`` and
#: ``C_k`` of ``k = length - i`` steps, so ``x_k = (A_k*x + C_k) mod
#: 2**31``; every slot of ``H`` is ``READ_MASK``.  Grown on demand and
#: shared process-wide: its content depends on ``length`` alone.
_jump = (0, 0, 0, 0)


def _jump_table(n: int) -> tuple:
    """The jump-ahead table, grown to at least *n* (≤ ``_CHUNK``) slots."""
    global _jump
    if n > _jump[0]:
        length = min(_CHUNK, max(n, 2 * _jump[0]))
        coeffs = []
        a, c = 1, 0
        for _ in range(length):
            a = (a * LCG_MUL) & LCG_MASK
            c = (c * LCG_MUL + LCG_INC) & LCG_MASK
            coeffs.append((a, c))
        # Slot 0 holds the most steps: shifting the table right by
        # length - k slots leaves steps 1..k, with step k in slot 0.
        coeffs.reverse()
        width = _SLOT // 8
        _jump = (
            length,
            int.from_bytes(b"".join(a.to_bytes(width, "little")
                                    for a, _ in coeffs), "little"),
            int.from_bytes(b"".join(c.to_bytes(width, "little")
                                    for _, c in coeffs), "little"),
            int.from_bytes(READ_MASK.to_bytes(width, "little") * length,
                           "little"),
        )
    return _jump


#: Below this many ticks, :meth:`SensorSampler.apply` steps the LCG in
#: a local loop: for one to three ticks that beats the big-int jump.
_STEP_MAX = 4
#: ``k -> (P_k, Q_k, H)`` for ``k ≤ _CUT_MAX``: the table cut to its
#: last ``k`` slots, ready to multiply (``H`` needs no cut: masking
#: with it keeps only the slots the product has).  Cutting shifts the
#: whole table, so short jumps, which are most of them (the median
#: sensor window on fleet-duty is 4 ticks), keep their cut; longer
#: ones cut per call.  Like the table, a cut depends on ``k`` alone;
#: the cache holds at most ~9 KB.
_cuts: dict = {}
_CUT_MAX = 32


def _jump_slices(k: int) -> tuple:
    """``(P_k, Q_k, H)`` for a jump of ``k`` (≤ ``_CHUNK``) ticks."""
    cut = _cuts.get(k)
    if cut is None:
        length, p, q, h = _jump_table(k)
        drop = _SLOT * (length - k)
        cut = (p >> drop, q >> drop, h)
        if k <= _CUT_MAX:
            _cuts[k] = cut
    return cut


class SensorSampler:
    """One Thing's periodic sensor read.

    The reading is a deterministic 11-bit LCG stream seeded from the
    Thing's global id, so counts and sums are reproducible and
    shard-order mergeable.  :meth:`tick` is the specification;
    :meth:`apply` reaches the identical state, count and total for n
    ticks in closed form.  Per chunk of k ≤ 4,096 ticks it evaluates
    every intermediate state at once as ``z = P_k*x + Q_k`` — slot j
    of ``z`` is ``A*x + C`` for ``k - j`` steps, whose low 31 bits are
    that state — takes the new state from slot 0, and sums the
    readings (bits 20–30 of each slot) by masking them with ``H`` and
    reducing modulo ``2**64 - 1``, which adds the slots: the sum stays
    below ``2**23``, so the reduction is exact.
    """

    __slots__ = ("_x", "_read_j", "_meter", "count", "total")

    def __init__(self, global_id: int, meter, read_uj: float) -> None:
        self._x = (global_id * 2654435761 + 1) & LCG_MASK
        self._read_j = read_uj * 1e-6
        self._meter = meter
        self.count = 0
        self.total = 0

    def tick(self) -> None:
        x = (self._x * LCG_MUL + LCG_INC) & LCG_MASK
        self._x = x
        self.count += 1
        self.total += x >> READ_SHIFT
        self._meter.add("sensor", self._read_j)

    def apply(self, n: int) -> None:
        # The meter goes first: it rejects n < 0 before any state moves.
        self._meter.add_n("sensor", self._read_j, n)
        x = self._x
        total = 0
        if n < _STEP_MAX:
            for _ in range(n):
                x = (x * LCG_MUL + LCG_INC) & LCG_MASK
                total += x >> READ_SHIFT
        else:
            left = n
            while left > 0:
                k = min(left, _CHUNK)
                p, q, h = _jump_slices(k)
                z = p * x + q
                x = z & LCG_MASK
                total += ((z >> READ_SHIFT) & h) % _FOLD
                left -= k
        self._x = x
        self.count += n
        self.total += total


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
        self._meter.add_n("idle", self._tick_j, n)
        self.count += n


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
