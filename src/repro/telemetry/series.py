"""Ring-buffer time series and the deterministic shard-order merge.

A :class:`TimeSeries` is a bounded sequence of ``(time_ns, value)``
samples for one metric with one label set.  Shards record into their
own :class:`SeriesBank` while simulating and export a pickle/JSON-safe
snapshot; :meth:`SeriesBank.merge` folds per-shard snapshots in
shard-index order — the same byte-identical-merge discipline as
:class:`repro.fleet.metrics.Metrics` — so the merged document is a pure
function of ``(scenario, seed)`` no matter how many worker processes
executed the shards.

Merge semantics are declared per series:

* ``sum``  — additive quantities sampled fleet-wide on every shard
  (joules, bytes, retransmit counts): samples align by timestamp and
  values add;
* ``max``  — level-style quantities where the fleet-wide value is the
  worst shard (queue depth);
* ``last`` — values every shard reports identically (configuration).

Series whose label sets differ (e.g. a ``shard`` or ``node`` label)
never collide, so per-node trajectories simply union into the merged
document.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.snapshot.state import DeclaredState

#: Legal series kinds, in OpenMetrics terms.
SERIES_KINDS = ("counter", "gauge")

#: Legal cross-shard merge modes.
MERGE_MODES = ("sum", "max", "last")

#: Exemplars kept per series (OpenMetrics allows roughly one per
#: sample; we keep the most recent few, which is what a scraper sees).
EXEMPLAR_LIMIT = 32


def series_key(name: str, labels: Optional[Dict[str, str]]) -> Tuple:
    """Canonical identity of one series: name + sorted label items."""
    if not labels:
        return (name,)
    return (name,) + tuple(sorted(labels.items()))


class TimeSeries:
    """One metric trajectory: a fixed-capacity ring of timed samples."""

    __slots__ = ("name", "labels", "kind", "merge", "unit", "help",
                 "_samples", "dropped", "exemplars")

    def __init__(
        self,
        name: str,
        *,
        kind: str = "gauge",
        merge: str = "sum",
        labels: Optional[Dict[str, str]] = None,
        unit: str = "",
        help: str = "",
        capacity: int = 4096,
    ) -> None:
        if kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind: {kind!r}")
        if merge not in MERGE_MODES:
            raise ValueError(f"unknown merge mode: {merge!r}")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.kind = kind
        self.merge = merge
        self.unit = unit
        self.help = help
        self._samples: Deque[Tuple[int, float]] = deque(maxlen=capacity)
        #: Samples evicted by the ring bound (oldest first).
        self.dropped = 0
        #: Recent ``(time_ns, value, trace_id)`` exemplar triples tying
        #: samples to obs traces.
        self.exemplars: List[Tuple[int, float, int]] = []

    # ------------------------------------------------------------- recording
    def record(self, time_ns: int, value: float,
               trace_id: Optional[int] = None) -> None:
        samples = self._samples
        if len(samples) == samples.maxlen:
            self.dropped += 1
        samples.append((int(time_ns), float(value)))
        if trace_id is not None:
            exemplars = self.exemplars
            if len(exemplars) >= EXEMPLAR_LIMIT:
                exemplars.pop(0)
            exemplars.append((int(time_ns), float(value), int(trace_id)))

    # --------------------------------------------------------------- reading
    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Tuple[Tuple[int, float], ...]:
        return tuple(self._samples)

    @property
    def last(self) -> Optional[Tuple[int, float]]:
        return self._samples[-1] if self._samples else None

    @property
    def key(self) -> Tuple:
        return series_key(self.name, self.labels)

    # -------------------------------------------------------------- snapshot
    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "labels": dict(sorted(self.labels.items())),
            "kind": self.kind,
            "merge": self.merge,
            "unit": self.unit,
            "help": self.help,
            "samples": [[t, v] for t, v in self._samples],
            "dropped": self.dropped,
        }
        if self.exemplars:
            out["exemplars"] = [[t, v, i] for t, v, i in self.exemplars]
        return out


class SeriesBank(DeclaredState):
    """A registry of named series; one per shard while collecting."""

    SNAPSHOT_SCHEMA = {
        "layer": "telemetry",
        "version": 1,
        "fields": ("_capacity", "_series"),
    }

    def __init__(self, *, capacity: int = 4096) -> None:
        self._capacity = capacity
        self._series: Dict[Tuple, TimeSeries] = {}

    def series(
        self,
        name: str,
        *,
        kind: str = "gauge",
        merge: str = "sum",
        labels: Optional[Dict[str, str]] = None,
        unit: str = "",
        help: str = "",
    ) -> TimeSeries:
        key = series_key(name, labels)
        ts = self._series.get(key)
        if ts is None:
            ts = self._series[key] = TimeSeries(
                name, kind=kind, merge=merge, labels=labels,
                unit=unit, help=help, capacity=self._capacity,
            )
        return ts

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self):
        for key in sorted(self._series):
            yield self._series[key]

    def get(self, name: str,
            labels: Optional[Dict[str, str]] = None) -> Optional[TimeSeries]:
        return self._series.get(series_key(name, labels))

    # ------------------------------------------------------------- snapshots
    def snapshot(self) -> dict:
        """Pickle/JSON-safe view, series sorted by (name, labels)."""
        return {
            "series": [self._series[k].to_dict()
                       for k in sorted(self._series)],
        }

    @staticmethod
    def merge(snapshots: Iterable[Optional[dict]]) -> dict:
        """Merge per-shard snapshots in the order given (shard order).

        Series sharing (name, labels) combine pointwise by their
        declared merge mode over the union of timestamps; disjoint
        series pass through.  Iterating shards in index order makes the
        float sums — hence the JSON encoding — byte-identical for any
        worker count.
        """
        merged: Dict[Tuple, dict] = {}
        # Per-key ordered timestamp -> value maps (python dicts keep
        # insertion order; timestamps arrive sorted within one shard).
        values: Dict[Tuple, Dict[int, float]] = {}
        for snap in snapshots:
            if not snap:
                continue
            for data in snap.get("series", ()):
                key = series_key(data["name"], data.get("labels"))
                mode = data.get("merge", "sum")
                if key not in merged:
                    base = dict(data)
                    base["samples"] = []
                    base.pop("exemplars", None)
                    base["exemplars"] = list(data.get("exemplars", ()))
                    merged[key] = base
                    values[key] = {int(t): v for t, v in data["samples"]}
                    continue
                base = merged[key]
                base["dropped"] += data.get("dropped", 0)
                exemplars = base["exemplars"]
                exemplars.extend(data.get("exemplars", ()))
                if len(exemplars) > EXEMPLAR_LIMIT:
                    del exemplars[:len(exemplars) - EXEMPLAR_LIMIT]
                acc = values[key]
                for t, v in data["samples"]:
                    t = int(t)
                    if t not in acc:
                        acc[t] = v
                    elif mode == "sum":
                        acc[t] += v
                    elif mode == "max":
                        acc[t] = max(acc[t], v)
                    else:  # "last"
                        acc[t] = v
        out = []
        for key in sorted(merged):
            data = merged[key]
            data["samples"] = [[t, v] for t, v in
                               sorted(values[key].items())]
            if not data["exemplars"]:
                data.pop("exemplars")
            out.append(data)
        return {"series": out}


def iter_series(document: dict, name: Optional[str] = None):
    """Iterate series dicts of a snapshot/merged document, optionally
    restricted to one metric name (any label set)."""
    for data in document.get("series", ()):
        if name is None or data["name"] == name:
            yield data


__all__ = ["TimeSeries", "SeriesBank", "series_key", "iter_series",
           "SERIES_KINDS", "MERGE_MODES", "EXEMPLAR_LIMIT"]
