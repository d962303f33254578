"""Human-readable and JSON renderings of a fleet run's merged metrics."""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import List

from repro.fleet.metrics import Metrics
from repro.fleet.runner import FleetResult

#: Latency histograms shown with percentiles, in report order.
LATENCY_ROWS = (
    ("latency.identification_s", "identification"),
    ("latency.discovery_s", "discovery"),
    ("latency.driver_install_s", "driver install"),
    ("latency.read_s", "remote read"),
)


def render_report(result: FleetResult) -> str:
    """The CLI's metrics report for one fleet run."""
    scenario = result.scenario
    merged = result.merged
    lines: List[str] = []
    lines.append(
        f"fleet scenario '{scenario.name}': {scenario.things} things in "
        f"{scenario.shard_count} shards ({scenario.shard_size}/shard), "
        f"{scenario.duration_s:g} s simulated, seed {scenario.seed}"
    )
    mode = "process pool" if result.used_processes else "serial"
    clamp = ("" if result.workers == result.workers_requested
             else f" of {result.workers_requested} requested")
    lines.append(
        f"executed with {result.workers} worker(s){clamp} [{mode}] in "
        f"{result.wall_s:.2f} s wall ({result.events_per_s:,.0f} sim events/s)"
    )
    if result.ff_windows_skipped:
        lines.append(
            f"fast-forward: {result.ff_events_skipped:,} events applied "
            f"analytically in {result.ff_windows_skipped:,} windows"
        )
    lines.append("")
    lines.append("counters")
    for name, value in merged.get("counters", {}).items():
        lines.append(f"  {name:<28} {value:>12,}")
    gauges = merged.get("gauges", {})
    if gauges:
        lines.append("gauges")
        for name, value in gauges.items():
            lines.append(f"  {name:<28} {value:>12.4f}")
    lines.append("latency percentiles (ms)")
    header = f"  {'':<16}{'p50':>9} {'p95':>9} {'p99':>9} {'count':>9}"
    lines.append(header)
    for key, label in LATENCY_ROWS:
        hist = Metrics.histogram_from(merged, key)
        if hist is None or hist.count == 0:
            lines.append(f"  {label:<16}{'-':>9} {'-':>9} {'-':>9} {0:>9}")
            continue
        p50, p95, p99 = (hist.percentile(q) * 1e3 for q in (50, 95, 99))
        lines.append(
            f"  {label:<16}{p50:>9.2f} {p95:>9.2f} {p99:>9.2f} "
            f"{hist.count:>9,}"
        )
    traces = [t for t in result.shard_traces if t]
    if traces:
        events = sum(len(t.get("events", ())) for t in traces)
        dropped = sum(t.get("dropped", 0) for t in traces)
        line = (f"trace: {events:,} events from {len(traces)} shard tracer(s)")
        if dropped:
            line += f", {dropped:,} dropped (ring full)"
        lines.append("")
        lines.append(line)
    return "\n".join(lines)


def result_to_json(result: FleetResult) -> dict:
    """A JSON document for ``--json``: scenario, execution, metrics."""
    return {
        "scenario": asdict(result.scenario),
        "execution": {
            "workers": result.workers,
            "workers_requested": result.workers_requested,
            "used_processes": result.used_processes,
            "wall_s": result.wall_s,
            "sim_events": result.sim_events,
            "events_per_s": result.events_per_s,
            "shards": len(result.shard_snapshots),
            "ff_windows": result.ff_windows_skipped,
            "ff_events": result.ff_events_skipped,
        },
        "metrics": result.merged,
    }


def write_json(result: FleetResult, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(result_to_json(result), handle, indent=2, sort_keys=True)
        handle.write("\n")


__all__ = ["render_report", "result_to_json", "write_json", "LATENCY_ROWS"]
