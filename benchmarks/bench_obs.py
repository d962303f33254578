"""Engineering bench: tracing overhead in disabled and enabled modes.

The tracing subsystem promises near-zero cost when off.  The kernel
keeps its hot paths literally branch-free until a tracer attaches
(:meth:`Simulator.attach_tracer` shadows ``step`` / ``schedule_at``
with the observed pair on that instance only), and every other layer guards
its hooks with one ``sim.tracer`` attribute check.

This bench verifies the promise two ways:

1. **Kernel microbench (the gate).**  A tight schedule/dispatch loop —
   the path every simulated event crosses — timed against a baseline
   with guard-free method copies monkeypatched in (the pre-tracing
   kernel).  Rounds alternate modes so machine drift hits both equally;
   min-of-N discards stalls.  **Fails (exit 1) if disabled-mode
   overhead exceeds 2%.**

2. **End-to-end fleet workload (reported).**  One serial fleet smoke
   sweep, disabled vs tracing enabled, plus a cross-check that the
   merged metrics are bit-identical in every mode — instrumentation
   must never perturb simulated behaviour.

    PYTHONPATH=src python benchmarks/bench_obs.py [--fast] [--out PATH]

Writes ``BENCH_obs.json``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import time
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet.runner import run_scenario  # noqa: E402
from repro.fleet.scenario import SCENARIOS  # noqa: E402
from repro.obs.tracer import install_tracer  # noqa: E402
from repro.sim.kernel import (  # noqa: E402
    EventHandle,
    SimulationError,
    Simulator,
    _ScheduledEvent,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

#: The acceptance gate: disabled-mode overhead on the kernel hot path.
MAX_DISABLED_OVERHEAD = 0.02


# --------------------------------------------------------------- baseline
# Guard-free copies of the two kernel hot paths — the kernel exactly as
# it stood before tracing support.  Patched in for the baseline mode.

def _baseline_step(self) -> bool:
    while self._queue:
        time_ns, _, event = heapq.heappop(self._queue)
        event.popped = True
        if event.cancelled:
            self._tombstones -= 1
            continue
        self._now_ns = time_ns
        for hook in self._trace_hooks:
            hook(time_ns, event.name)
        event.callback()
        return True
    return False


def _baseline_schedule_at(self, time_ns, callback, *, name=""):
    time_ns = int(time_ns)
    if time_ns < self._now_ns:
        raise SimulationError(
            f"cannot schedule in the past: {time_ns} < {self._now_ns}"
        )
    event = _ScheduledEvent(time_ns, self._seq, callback, name)
    heapq.heappush(self._queue, (time_ns, self._seq, event))
    self._seq += 1
    return EventHandle(event, self)


@contextmanager
def guard_free_kernel():
    saved = (Simulator.step, Simulator.schedule_at)
    Simulator.step = _baseline_step
    Simulator.schedule_at = _baseline_schedule_at
    try:
        yield
    finally:
        Simulator.step, Simulator.schedule_at = saved


# --------------------------------------------------- kernel microbench
def _drive_kernel(events: int, *, trace: bool) -> float:
    """Wall seconds to schedule+dispatch a chain of *events* events."""
    sim = Simulator()
    if trace:
        # Default categories exclude "kernel", matching fleet --trace.
        install_tracer(sim, limit=10_000)
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < events:
            sim.schedule(10, tick)

    sim.schedule(10, tick)
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started


def kernel_bench(events: int, rounds: int) -> dict:
    best = {"baseline": None, "disabled": None, "enabled": None}

    def note(mode: str, wall: float) -> None:
        if best[mode] is None or wall < best[mode]:
            best[mode] = wall

    _drive_kernel(events, trace=False)  # warm-up
    for _ in range(rounds):
        with guard_free_kernel():
            note("baseline", _drive_kernel(events, trace=False))
        note("disabled", _drive_kernel(events, trace=False))
        note("enabled", _drive_kernel(events, trace=True))
    return best


# ------------------------------------------------------ fleet workload
def fleet_bench(things: int, duration_s: float, seed: int,
                rounds: int) -> dict:
    def run(trace: bool) -> dict:
        scenario = SCENARIOS["smoke"].scaled(
            things=things, duration_s=duration_s, seed=seed, trace=trace,
        )
        return run_scenario(scenario, workers=1)

    best = {"disabled": None, "enabled": None}
    merged = {}
    run(False)  # warm-up
    for _ in range(rounds):
        for mode, trace in (("disabled", False), ("enabled", True)):
            started = time.perf_counter()
            result = run(trace)
            wall = time.perf_counter() - started
            if best[mode] is None or wall < best[mode]:
                best[mode] = wall
            merged[mode] = result.merged
    best["metrics_identical"] = merged["disabled"] == merged["enabled"]
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="fewer rounds / smaller workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="where to write BENCH_obs.json")
    args = parser.parse_args(argv)
    kernel_events = 100_000 if args.fast else 300_000
    kernel_rounds = 5 if args.fast else 9
    fleet_rounds = 2 if args.fast else 3
    fleet_things = 10 if args.fast else 25

    kernel = kernel_bench(kernel_events, kernel_rounds)
    disabled_overhead = (
        (kernel["disabled"] - kernel["baseline"]) / kernel["baseline"])
    enabled_overhead = (
        (kernel["enabled"] - kernel["baseline"]) / kernel["baseline"])
    print(f"kernel hot path ({kernel_events:,} events, min of "
          f"{kernel_rounds} alternating rounds):")
    print(f"  baseline (guard-free): {kernel['baseline']:7.3f} s")
    print(f"  disabled (no tracer):  {kernel['disabled']:7.3f} s  "
          f"overhead {disabled_overhead * 100:+.2f}%")
    print(f"  enabled (tracer on):   {kernel['enabled']:7.3f} s  "
          f"overhead {enabled_overhead * 100:+.2f}%")

    fleet = fleet_bench(fleet_things, 10.0, args.seed, fleet_rounds)
    fleet_enabled_overhead = (
        (fleet["enabled"] - fleet["disabled"]) / fleet["disabled"])
    print(f"fleet smoke workload ({fleet_things} things):")
    print(f"  disabled: {fleet['disabled']:7.3f} s   "
          f"enabled: {fleet['enabled']:7.3f} s  "
          f"({fleet_enabled_overhead * 100:+.2f}%)")
    if not fleet["metrics_identical"]:
        print("FATAL: tracing changed the merged simulation metrics — "
              "instrumentation must never perturb behaviour",
              file=sys.stderr)
        return 1
    print("  merged metrics identical across modes: yes")

    document = {
        "bench": "obs",
        "seed": args.seed,
        "kernel": {
            "events": kernel_events,
            "rounds": kernel_rounds,
            "baseline_wall_s": round(kernel["baseline"], 4),
            "disabled_wall_s": round(kernel["disabled"], 4),
            "enabled_wall_s": round(kernel["enabled"], 4),
        },
        "fleet": {
            "things": fleet_things,
            "rounds": fleet_rounds,
            "disabled_wall_s": round(fleet["disabled"], 4),
            "enabled_wall_s": round(fleet["enabled"], 4),
            "enabled_overhead": round(fleet_enabled_overhead, 4),
            "metrics_identical": fleet["metrics_identical"],
        },
        "disabled_overhead": round(disabled_overhead, 4),
        "enabled_overhead": round(enabled_overhead, 4),
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "passed": disabled_overhead <= MAX_DISABLED_OVERHEAD,
    }
    Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")
    if disabled_overhead > MAX_DISABLED_OVERHEAD:
        print(f"FAIL: disabled-mode overhead {disabled_overhead * 100:.2f}% "
              f"exceeds the {MAX_DISABLED_OVERHEAD * 100:.0f}% budget",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
