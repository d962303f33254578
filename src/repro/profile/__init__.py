"""Deterministic cross-layer profiler for fleet runs.

Attributes host wall-clock and simulated-time cost across the layers of
a µPnP fleet simulation — kernel events, VM opcodes, protocol timers —
with the same zero-cost-when-disabled discipline as :mod:`repro.obs`
and :mod:`repro.telemetry`: a scenario without a
:class:`~repro.profile.config.ProfileConfig` leaves every hot path
untouched.

Three collectors (see :class:`~repro.profile.collector.ShardProfiler`):

* **events** — per-event-kind wall-ns / sim-ns with mergeable
  histograms, hooked into the kernel's observed ``step`` (the one
  attach-time pair it shares with the tracer);
* **vm** — opcode and basic-block heat over every Thing's VM, layered
  on the fastpath translation cache;
* **idle** — inter-event gap histograms plus a periodicity classifier
  that quantifies analytically skippable ("fast-forwardable") windows.

Exports: collapsed stacks (``flamegraph.pl``), speedscope JSON,
terminal reports, and profile diffs.  The deterministic plane of a
merged profile is a pure function of ``(scenario, seed)`` — byte
identical for any worker count — and survives checkpoint/restore.
"""

from repro.profile.collector import (
    ShardProfiler,
    deterministic_view,
    layer_for,
    merge_profiles,
    merged_periodic_names,
    profile_digest,
)
from repro.profile.config import DEFAULT_PROFILE, ProfileConfig
from repro.profile.diff import diff_profiles
from repro.profile.export import (
    collapsed_stacks,
    speedscope_document,
    write_collapsed,
    write_speedscope,
)
from repro.profile.report import (
    idle_report,
    render_diff,
    render_report,
)
from repro.profile.vmheat import (
    OpcodeHeatRecorder,
    basic_blocks,
    hot_blocks,
    merge_heat,
    opcode_totals,
)

__all__ = [
    "DEFAULT_PROFILE",
    "OpcodeHeatRecorder",
    "ProfileConfig",
    "ShardProfiler",
    "basic_blocks",
    "collapsed_stacks",
    "deterministic_view",
    "diff_profiles",
    "hot_blocks",
    "idle_report",
    "layer_for",
    "merge_heat",
    "merge_profiles",
    "merged_periodic_names",
    "opcode_totals",
    "profile_digest",
    "render_diff",
    "render_report",
    "speedscope_document",
    "write_collapsed",
    "write_speedscope",
]
