"""Small statistics helpers used by the experiment harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class Summary:
    """Mean / standard deviation / extrema of a sample."""

    n: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    #: Sorted sample, kept when built via :func:`summarize` so that
    #: :meth:`percentile` can interpolate; empty for hand-built summaries.
    values: Tuple[float, ...] = ()

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile of the underlying sample."""
        if not self.values:
            raise ValueError("this Summary carries no sample values")
        return percentile(self.values, q)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"n={self.n} mean={self.mean:.4g} sd={self.stdev:.4g}"


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary`; sample (n-1) standard deviation."""
    data = list(values)
    if not data:
        raise ValueError("summarize() requires at least one value")
    n = len(data)
    mean = sum(data) / n
    if n > 1:
        var = sum((x - mean) ** 2 for x in data) / (n - 1)
    else:
        var = 0.0
    return Summary(n=n, mean=mean, stdev=math.sqrt(var),
                   minimum=min(data), maximum=max(data),
                   values=tuple(sorted(data)))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile() requires at least one value")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1 - frac) + data[hi] * frac


class Histogram:
    """Fixed log-spaced-bucket histogram, mergeable across shards.

    Bucket boundaries are a pure function of ``(lo, hi,
    buckets_per_decade)``, so histograms built independently on
    different worker processes merge exactly: merging is a plain
    element-wise addition of bucket counts, which makes it associative
    and commutative — the merged result is identical no matter how the
    shards were grouped.

    Values below ``lo`` land in an underflow bucket, values at or above
    ``hi`` in an overflow bucket; exact ``sum``/``min``/``max`` are kept
    alongside so means and extrema stay precise.
    """

    __slots__ = ("lo", "hi", "buckets_per_decade", "_edges", "counts",
                 "total", "minimum", "maximum")

    def __init__(self, lo: float, hi: float, buckets_per_decade: int = 16) -> None:
        if not (0 < lo < hi):
            raise ValueError("histogram bounds require 0 < lo < hi")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.lo = float(lo)
        self.hi = float(hi)
        self.buckets_per_decade = int(buckets_per_decade)
        span = math.log10(self.hi) - math.log10(self.lo)
        n = max(1, int(math.ceil(span * self.buckets_per_decade - 1e-9)))
        # Interior edges; full edge list is [lo, *edges, hi].
        self._edges: List[float] = [
            self.lo * 10.0 ** (i / self.buckets_per_decade) for i in range(1, n)
        ]
        # counts[0] = underflow, counts[1..n] = log buckets, counts[n+1] = overflow.
        self.counts: List[int] = [0] * (n + 2)
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    # ------------------------------------------------------------- recording
    def observe(self, value: float) -> None:
        value = float(value)
        counts = self.counts
        if value < self.lo:
            index = 0
        elif value >= self.hi:
            index = len(counts) - 1
        else:
            offset = math.log10(value / self.lo) * self.buckets_per_decade
            index = 1 + min(len(counts) - 3, int(offset))
        counts[index] += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def mean(self) -> float:
        n = self.count
        if n == 0:
            raise ValueError("empty histogram has no mean")
        return self.total / n

    # --------------------------------------------------------------- merging
    def compatible_with(self, other: "Histogram") -> bool:
        return (self.lo, self.hi, self.buckets_per_decade) == (
            other.lo, other.hi, other.buckets_per_decade
        )

    def merge(self, other: "Histogram") -> "Histogram":
        """Element-wise sum of two same-shaped histograms (non-mutating)."""
        if not self.compatible_with(other):
            raise ValueError("cannot merge histograms with different buckets")
        out = Histogram(self.lo, self.hi, self.buckets_per_decade)
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.total = self.total + other.total
        out.minimum = min(self.minimum, other.minimum)
        out.maximum = max(self.maximum, other.maximum)
        return out

    # ------------------------------------------------------------ percentiles
    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile by interpolating within buckets.

        Follows the same rank convention as :func:`percentile`
        (``pos = (n - 1) * q / 100``); exact for the extrema, bucket-
        interpolated in between.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be within [0, 100]")
        n = self.count
        if n == 0:
            raise ValueError("percentile() of an empty histogram")
        if q == 0.0:
            return self.minimum
        if q == 100.0:
            return self.maximum
        pos = (n - 1) * q / 100.0
        edges = [self.lo, *self._edges, self.hi]
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if pos <= seen + bucket_count - 1 or index == len(self.counts) - 1:
                # Bucket bounds, clamped to the observed extrema so the
                # open-ended under/overflow buckets stay finite.
                if index == 0:
                    b_lo, b_hi = self.minimum, min(self.lo, self.maximum)
                elif index == len(self.counts) - 1:
                    b_lo, b_hi = max(self.hi, self.minimum), self.maximum
                else:
                    b_lo, b_hi = edges[index - 1], edges[index]
                b_lo = max(b_lo, self.minimum)
                b_hi = min(b_hi, self.maximum)
                if bucket_count == 1:
                    return (b_lo + b_hi) / 2.0
                frac = max(0.0, min(1.0, (pos - seen) / (bucket_count - 1)))
                return b_lo + (b_hi - b_lo) * frac
            seen += bucket_count
        return self.maximum  # pragma: no cover - defensive

    # ---------------------------------------------------------- serialisation
    def to_json(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "buckets_per_decade": self.buckets_per_decade,
            "counts": list(self.counts),
            "total": self.total,
            "minimum": self.minimum if self.count else None,
            "maximum": self.maximum if self.count else None,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Histogram":
        hist = cls(data["lo"], data["hi"], data["buckets_per_decade"])
        counts = [int(c) for c in data["counts"]]
        if len(counts) != len(hist.counts):
            raise ValueError("bucket count mismatch in histogram snapshot")
        hist.counts = counts
        hist.total = float(data["total"])
        if data.get("minimum") is not None:
            hist.minimum = float(data["minimum"])
        if data.get("maximum") is not None:
            hist.maximum = float(data["maximum"])
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n = self.count
        if not n:
            return f"Histogram(lo={self.lo:g}, hi={self.hi:g}, empty)"
        return (f"Histogram(n={n}, mean={self.mean:.4g}, "
                f"min={self.minimum:.4g}, max={self.maximum:.4g})")
