"""Energy bookkeeping for the hardware and radio models.

All models report energy through an :class:`EnergyMeter`, categorised so
the experiment harnesses (e.g. Figure 12) can decompose totals by
source (identification, interconnect traffic, radio, baseline draw).
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable

#: :meth:`EnergyMeter.add_n` adds fewer contributions than this one by
#: one; from here on :func:`repeat_add` is cheaper than the loop.
_ADD_LOOP_MAX = 100
_MIN_NORMAL = sys.float_info.min
_MAX_FLOAT = sys.float_info.max


def repeat_add(total: float, step: float, n: int) -> float:
    """``total`` after ``n`` sequential ``total += step``, bit for bit,
    for ``step >= 0``.

    Within one binade of ``total`` (ulp ``u``, so ``total == a * u``
    with ``2**52 <= a < 2**53``), each add rounds ``total + step`` to
    the nearest multiple of ``u``.  Its increment is therefore ``step /
    u`` rounded to an integer ``b``, the same for every add, unless
    ``step / u`` ends in exactly one half (round-half-even then depends
    on ``a``).  So a run of adds whose exact sums stay below the
    binade's top ``2**53 * u`` is one multiply-add on integers.  Adds
    that cross into the next binade, ties, and zero or subnormal
    totals are made one at a time; a run costs O(1), and a call
    crosses few binades.
    """
    num, den = step.as_integer_ratio()
    while n > 0:
        if not _MIN_NORMAL <= total <= _MAX_FLOAT:
            total += step
            n -= 1
            continue
        u = math.ulp(total)
        a = int(total / u)
        k = math.frexp(u)[1] - 1  # u == 2.0 ** k
        # step / u == p / q, exactly.
        if k >= 0:
            p, q = num, den << k
        else:
            p, q = num << -k, den
        # The i-th add of a run stays in the binade iff
        # (a + i*b) * q + p < 2**53 * q, that is i * b * q < room.
        room = (q << 53) - p - a * q
        if room <= 0 or 2 * (p % q) == q:
            total += step
            n -= 1
            continue
        b = (2 * p + q) // (2 * q)
        m = n if b == 0 else min(n, -(-room // (b * q)))
        total = (a + m * b) * u
        n -= m
    return total


@dataclass(frozen=True)
class PowerDraw:
    """A constant current draw at a supply voltage."""

    current_a: float
    voltage_v: float = 3.3

    @property
    def watts(self) -> float:
        return self.current_a * self.voltage_v

    def energy_joules(self, duration_s: float) -> float:
        """Energy dissipated over *duration_s* seconds."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        return self.watts * duration_s


class EnergyMeter:
    """Accumulates energy per named category (joules)."""

    SNAPSHOT_SCHEMA = {
        "layer": "hw",
        "version": 1,
        "fields": ("_by_category",),
    }

    def __init__(self) -> None:
        self._by_category: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------ checkpoint
    def snapshot_state(self) -> dict:
        return {
            "_schema": self.SNAPSHOT_SCHEMA["version"],
            "by_category": self.snapshot(),
        }

    def restore_state(self, state: dict) -> None:
        from repro.snapshot.migrate import upgrade_state

        state = upgrade_state(type(self), state)
        self._by_category = defaultdict(float)
        self._by_category.update(state["by_category"])

    __getstate__ = snapshot_state
    __setstate__ = restore_state

    def add(self, category: str, joules: float) -> None:
        if joules < 0:
            raise ValueError("energy contributions must be non-negative")
        self._by_category[category] += joules

    def add_n(self, category: str, joules: float, n: int) -> None:
        """Accrue *n* identical contributions, bit-exactly.

        Fast-forwarded periodic accruals must leave the accumulator
        byte-identical to n sequential :meth:`add` calls (a closed-form
        ``n * joules`` add rounds differently), because the fleet digest
        hashes these sums.  Short runs loop over the float adds; longer
        ones take :func:`repeat_add`, which makes the same adds a binade
        at a time.  ``n == 0`` is a no-op, as zero adds would be: it
        does not create *category*.
        """
        if joules < 0:
            raise ValueError("energy contributions must be non-negative")
        if n < 0:
            raise ValueError("contribution count must be non-negative")
        if not n:
            return
        total = self._by_category[category]
        if n < _ADD_LOOP_MAX:
            for _ in range(n):
                total += joules
        else:
            total = repeat_add(total, joules, n)
        self._by_category[category] = total

    def add_draw(self, category: str, draw: PowerDraw, duration_s: float) -> None:
        """Account a constant *draw* sustained for *duration_s*."""
        self.add(category, draw.energy_joules(duration_s))

    def total(self) -> float:
        return sum(self._by_category.values())

    def by_category(self) -> Dict[str, float]:
        return dict(self._by_category)

    def get(self, category: str) -> float:
        return self._by_category.get(category, 0.0)

    def reset(self) -> None:
        self._by_category.clear()

    # -------------------------------------------------------------- snapshots
    def snapshot(self) -> Dict[str, float]:
        """A JSON/pickle-safe category → joules view, sorted by category.

        The sort makes snapshots byte-stable under JSON encoding, which
        is what lets fleet shards ship meter state across process
        boundaries and still merge deterministically.
        """
        return {k: self._by_category[k] for k in sorted(self._by_category)}

    @staticmethod
    def merge(snapshots: Iterable[Dict[str, float]]) -> Dict[str, float]:
        """Sum per-category snapshots (energy is additive across nodes).

        Merging in a fixed order (callers pass node/shard order) keeps
        float sums deterministic regardless of worker count.
        """
        merged: Dict[str, float] = {}
        for snap in snapshots:
            for category, joules in snap.items():
                merged[category] = merged.get(category, 0.0) + joules
        return {k: merged[k] for k in sorted(merged)}


__all__ = ["PowerDraw", "EnergyMeter", "repeat_add"]
