"""The shard profiler: cross-layer cost attribution for one shard.

One :class:`ShardProfiler` serves one
:class:`~repro.fleet.deployment.ShardDeployment`.  It attaches to the
kernel through :meth:`Simulator.attach_profiler`, which binds the same
observed ``step``/``schedule_at`` pair as ``attach_tracer``, so a
simulator without an observer keeps running the branch-free original
paths and disabled-mode overhead is exactly zero —
and to every Thing's VM through an
:class:`~repro.profile.vmheat.OpcodeHeatRecorder`.

Collected data lives on two planes:

* the **deterministic plane** — event counts, simulated-time gaps,
  schedule-delay signatures, opcode hit arrays, idle-gap histograms —
  is a pure function of ``(scenario, seed)``; merged documents are
  byte-identical across worker counts and the profile digest is
  computed over this plane only;
* the **wall plane** — per-event-kind host nanoseconds and their
  histograms — describes *this* execution and is excluded from the
  digest (two perfectly deterministic runs never share wall clocks).

Profilers are Checkpointable: state survives checkpoint/restore, so a
resumed run's deterministic plane is byte-identical to the
uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from repro.profile.config import ProfileConfig
from repro.profile.vmheat import OpcodeHeatRecorder, merge_heat
from repro.sim.stats import Histogram
from repro.snapshot.state import DeclaredState

#: Wall-cost histogram bounds: 100 ns .. 1 s, 8 buckets per decade.
WALL_HIST_ARGS = (100.0, 1e9, 8)
#: Inter-event gap histogram bounds: 1 µs .. 100 s, 4 buckets per decade.
GAP_HIST_ARGS = (1e3, 1e11, 4)
#: Distinct schedule delays kept per name before declaring it aperiodic.
_MAX_DELAYS = 9

#: Event-name prefix -> layer, for flame-graph grouping.  Checked in
#: order; the first match wins, default ``kernel``.
_LAYER_PREFIXES = (
    ("fleet-", "workload"),
    ("chaos-", "workload"),
    ("telemetry-", "telemetry"),
    ("router-", "vm"),
    ("driver-", "vm"),
    ("stack-", "net"),
    ("net-", "net"),
    ("group-", "net"),
    ("uart", "hw"),
    ("i2c", "hw"),
    ("spi", "hw"),
    ("flash-", "hw"),
    ("identification", "hw"),
)
_PROTOCOL_MARKERS = ("retransmit", "timeout", "retry", "expire", "lookup",
                     "discover", "stream", "request")


def layer_for(name: str) -> str:
    """Map an event name onto its owning layer (for stack grouping)."""
    for prefix, layer in _LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    for marker in _PROTOCOL_MARKERS:
        if marker in name:
            return "protocol"
    return "kernel"


class ShardProfiler(DeclaredState):
    """Attach event/VM/idle collectors to one shard deployment."""

    #: Checkpoint contract (see :mod:`repro.snapshot.state`).
    SNAPSHOT_SCHEMA = {
        "layer": "profile",
        "version": 2,
        "fields": ("deployment", "config", "shard", "_events", "_delays",
                   "_idle_by_name", "_gap_hist", "_gap_count",
                   "_gap_total_ns", "_last_event_ns", "_recorders", "_ff"),
    }

    def __init__(self, deployment, config: ProfileConfig) -> None:
        self.deployment = deployment
        self.config = config
        self.shard = deployment.spec.index
        #: name -> [count, sim_gap_ns, wall_ns, wall Histogram].
        self._events: Dict[str, list] = {}
        #: name -> distinct schedule delays (ns), capped at _MAX_DELAYS.
        self._delays: Dict[str, List[int]] = {}
        #: name -> [idle windows ended, idle ns ended] (gap >= threshold).
        self._idle_by_name: Dict[str, list] = {}
        self._gap_hist = Histogram(*GAP_HIST_ARGS)
        self._gap_count = 0
        self._gap_total_ns = 0
        #: Sim time of the last executed event.  Gaps are measured from
        #: here rather than from the kernel clock: ``run_until`` clamps
        #: the clock at checkpoint instants, and measuring from the
        #: clock would split the spanning gap in two — breaking the
        #: "idle report identical across checkpoint/restore" contract.
        self._last_event_ns = 0
        #: name -> [windows, events, sim span ns] applied analytically
        #: by the kernel's fast-forward tier (deterministic plane).
        self._ff: Dict[str, list] = {}
        #: (node label, OpcodeHeatRecorder) per Thing, attach order.
        self._recorders: List[tuple] = []
        deployment.sim.attach_profiler(self)
        if config.vm:
            for thing in deployment.things:
                recorder = OpcodeHeatRecorder()
                thing.drivers.vm.attach_hit_recorder(recorder)
                self._recorders.append((thing.label, recorder))

    # ------------------------------------------------------------ kernel hook
    def on_event(self, name: str, prev_ns: int, time_ns: int,
                 wall_ns: int) -> None:
        """One kernel event just ran (called from the observed step).

        *prev_ns* (the kernel clock before the event) is ignored for
        gap purposes — see ``_last_event_ns``.
        """
        key = name or "<unnamed>"
        gap = time_ns - self._last_event_ns
        self._last_event_ns = time_ns
        if self.config.events:
            record = self._events.get(key)
            if record is None:
                record = self._events[key] = [
                    0, 0, 0, Histogram(*WALL_HIST_ARGS)]
            record[0] += 1
            record[1] += gap
            record[2] += wall_ns
            record[3].observe(wall_ns)
        if self.config.idle and gap > 0:
            self._gap_hist.observe(gap)
            self._gap_count += 1
            self._gap_total_ns += gap
            if gap >= self.config.idle_threshold_ns:
                idle = self._idle_by_name.get(key)
                if idle is None:
                    idle = self._idle_by_name[key] = [0, 0]
                idle[0] += 1
                idle[1] += gap

    def on_fast_forward(self, name: str, count: int, first_ns: int,
                        last_ns: int) -> None:
        """A fast-forward window applied *count* occurrences of *name*
        analytically (never individually dispatched).

        The skipped span advances ``_last_event_ns`` so the next
        stepped event is charged only the genuine gap after the window
        — the sampler-to-sampler micro-gaps that stepping would have
        recorded are accounted here instead, under their own layer.
        """
        key = name or "<unnamed>"
        record = self._ff.get(key)
        if record is None:
            record = self._ff[key] = [0, 0, 0]
        record[0] += 1
        record[1] += count
        record[2] += last_ns - first_ns
        if last_ns > self._last_event_ns:
            self._last_event_ns = last_ns

    def on_schedule(self, name: str, delay_ns: int) -> None:
        """An event was scheduled *delay_ns* into the future."""
        delays = self._delays.get(name)
        if delays is None:
            self._delays[name] = [delay_ns]
        elif delay_ns not in delays and len(delays) < _MAX_DELAYS:
            delays.append(delay_ns)

    # --------------------------------------------------------------- control
    def detach(self) -> None:
        """Detach every collector (the profile data stays readable)."""
        self.deployment.sim.detach_profiler()
        if self.config.vm:
            for thing in self.deployment.things:
                thing.drivers.vm.detach_hit_recorder()

    # --------------------------------------------------------------- exports
    def periodic_names(self) -> List[str]:
        """Names classified as periodic / known-cost (deterministic)."""
        return _classify_periodic(
            {name: record[0] for name, record in self._events.items()},
            self._delays, self.config,
        )

    def snapshot(self) -> dict:
        """Pickle/JSON-safe view; rides the metrics snapshot across the
        process boundary from fleet workers."""
        events = {
            name: {
                "count": record[0],
                "sim_gap_ns": record[1],
                "wall_ns": record[2],
                "wall_hist": record[3].to_json(),
            }
            for name, record in sorted(self._events.items())
        }
        delays = {
            name: {"delays": sorted(values),
                   "overflow": len(values) >= _MAX_DELAYS}
            for name, values in sorted(self._delays.items())
        }
        idle = {
            "threshold_ns": self.config.idle_threshold_ns,
            "gap_count": self._gap_count,
            "gap_total_ns": self._gap_total_ns,
            "sim_now_ns": self.deployment.sim.now_ns,
            "gap_hist": self._gap_hist.to_json(),
            "by_name": {
                name: {"windows": record[0], "idle_ns": record[1]}
                for name, record in sorted(self._idle_by_name.items())
            },
        }
        vm = {
            "executions": sum(r.executions for _, r in self._recorders),
            "images": merge_heat(r.snapshot() for _, r in self._recorders)
            ["images"],
            "nodes": {
                label: {"executions": recorder.executions,
                        "steps": recorder.total_steps}
                for label, recorder in self._recorders
            },
        }
        fastforward = {
            name: {"windows": record[0], "events": record[1],
                   "sim_span_ns": record[2]}
            for name, record in sorted(self._ff.items())
        }
        return {
            "shard": self.shard,
            "config": _config_dict(self.config),
            "events": events,
            "schedule_delays": delays,
            "idle": idle,
            "vm": vm,
            "fastforward": fastforward,
        }


def _config_dict(config: ProfileConfig) -> dict:
    from dataclasses import asdict

    return asdict(config)


def _classify_periodic(counts: Dict[str, int], delays: Dict[str, dict],
                       config: ProfileConfig) -> List[str]:
    """Names whose firings and delay signatures look periodic."""
    out = []
    for name, count in counts.items():
        if count < config.periodic_min_count:
            continue
        signature = delays.get(name)
        if signature is None:
            continue
        values = signature["delays"] if isinstance(signature, dict) \
            else signature
        overflow = signature.get("overflow", False) \
            if isinstance(signature, dict) else len(values) >= _MAX_DELAYS
        if overflow or len(values) > config.periodic_max_delays:
            continue
        out.append(name)
    return sorted(out)


# ----------------------------------------------------------------- merging
def merge_profiles(snapshots) -> dict:
    """Fold per-shard profile snapshots into one fleet document.

    Snapshots are folded in iteration (= shard-index) order; every
    aggregate is associative-commutative (sums, histogram adds, sorted
    unions), so the merged document is a pure function of
    ``(scenario, seed)`` — identical for any worker count.  ``None``
    entries (shards that did not profile) are skipped.
    """
    shards: List[int] = []
    config: Optional[dict] = None
    events: Dict[str, dict] = {}
    delays: Dict[str, dict] = {}
    idle_by_name: Dict[str, dict] = {}
    gap_hist: Optional[Histogram] = None
    idle = {"threshold_ns": 0, "gap_count": 0, "gap_total_ns": 0,
            "sim_now_ns": 0, "sim_time_total_ns": 0}
    heat_parts: List[dict] = []
    nodes: Dict[str, dict] = {}
    executions = 0
    fastforward: Dict[str, dict] = {}
    for snap in snapshots:
        if snap is None:
            continue
        shards.append(snap["shard"])
        if config is None:
            config = snap.get("config")
        for name, record in snap["events"].items():
            merged = events.get(name)
            if merged is None:
                events[name] = {
                    "count": record["count"],
                    "sim_gap_ns": record["sim_gap_ns"],
                    "wall_ns": record["wall_ns"],
                    "wall_hist": Histogram.from_json(record["wall_hist"]),
                }
            else:
                merged["count"] += record["count"]
                merged["sim_gap_ns"] += record["sim_gap_ns"]
                merged["wall_ns"] += record["wall_ns"]
                merged["wall_hist"] = merged["wall_hist"].merge(
                    Histogram.from_json(record["wall_hist"]))
        for name, signature in snap["schedule_delays"].items():
            merged = delays.get(name)
            if merged is None:
                delays[name] = {"delays": list(signature["delays"]),
                                "overflow": signature["overflow"]}
            else:
                union = sorted(set(merged["delays"])
                               | set(signature["delays"]))
                merged["overflow"] = (merged["overflow"]
                                      or signature["overflow"]
                                      or len(union) >= _MAX_DELAYS)
                merged["delays"] = union[:_MAX_DELAYS]
        snap_idle = snap["idle"]
        idle["threshold_ns"] = snap_idle["threshold_ns"]
        idle["gap_count"] += snap_idle["gap_count"]
        idle["gap_total_ns"] += snap_idle["gap_total_ns"]
        idle["sim_now_ns"] = max(idle["sim_now_ns"],
                                 snap_idle["sim_now_ns"])
        idle["sim_time_total_ns"] += snap_idle["sim_now_ns"]
        shard_hist = Histogram.from_json(snap_idle["gap_hist"])
        gap_hist = shard_hist if gap_hist is None \
            else gap_hist.merge(shard_hist)
        for name, record in snap_idle["by_name"].items():
            merged = idle_by_name.get(name)
            if merged is None:
                idle_by_name[name] = dict(record)
            else:
                merged["windows"] += record["windows"]
                merged["idle_ns"] += record["idle_ns"]
        for name, record in snap.get("fastforward", {}).items():
            merged = fastforward.get(name)
            if merged is None:
                fastforward[name] = dict(record)
            else:
                merged["windows"] += record["windows"]
                merged["events"] += record["events"]
                merged["sim_span_ns"] += record["sim_span_ns"]
        snap_vm = snap["vm"]
        executions += snap_vm["executions"]
        heat_parts.append({"executions": 0, "images": snap_vm["images"]})
        nodes.update(snap_vm["nodes"])
    if gap_hist is None:
        gap_hist = Histogram(*GAP_HIST_ARGS)
    idle["gap_hist"] = gap_hist.to_json()
    idle["by_name"] = {name: idle_by_name[name]
                       for name in sorted(idle_by_name)}
    merged_events = {
        name: {
            "count": record["count"],
            "sim_gap_ns": record["sim_gap_ns"],
            "wall_ns": record["wall_ns"],
            "wall_hist": record["wall_hist"].to_json(),
        }
        for name, record in sorted(events.items())
    }
    return {
        "shards": sorted(shards),
        "config": config,
        "events": merged_events,
        "schedule_delays": {name: delays[name] for name in sorted(delays)},
        "idle": idle,
        "vm": {
            "executions": executions,
            "images": merge_heat(heat_parts)["images"],
            "nodes": {label: nodes[label] for label in sorted(nodes)},
        },
        "fastforward": {name: fastforward[name]
                        for name in sorted(fastforward)},
    }


#: Keys carrying host wall-clock data; stripped from the digest plane.
_WALL_KEYS = ("wall_ns", "wall_hist")


def deterministic_view(document):
    """*document* with every wall-plane leaf removed, recursively."""
    if isinstance(document, dict):
        return {
            key: deterministic_view(value)
            for key, value in document.items() if key not in _WALL_KEYS
        }
    if isinstance(document, list):
        return [deterministic_view(item) for item in document]
    return document


def profile_digest(merged: dict) -> str:
    """Canonical digest of a merged profile's deterministic plane."""
    blob = json.dumps(deterministic_view(merged), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def merged_periodic_names(merged: dict) -> List[str]:
    """Periodic / known-cost classification over a merged document."""
    config = ProfileConfig(**(merged.get("config") or {}))
    counts = {name: record["count"]
              for name, record in merged["events"].items()}
    return _classify_periodic(counts, merged["schedule_delays"], config)


def install_profiler(deployment, config: ProfileConfig) -> ShardProfiler:
    """Create and attach a profiler for *deployment*."""
    return ShardProfiler(deployment, config)


__all__ = [
    "ShardProfiler",
    "deterministic_view",
    "install_profiler",
    "layer_for",
    "merge_profiles",
    "merged_periodic_names",
    "profile_digest",
    "GAP_HIST_ARGS",
    "WALL_HIST_ARGS",
]
