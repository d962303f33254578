"""Engineering bench: pre-decoded threaded VM dispatch vs the reference
interpreter, plus the kernel event-loop hot path.

Three sections, written to ``BENCH_vm.json``:

1. **VM microbench (the headline).**  Synthetic handler workloads —
   control-flow, arithmetic and array-memory dominated — executed
   repeatedly under both engines.  Reports steps/s per mode and the
   speedup; the tentpole target is >=3x.  Per-handler cycle counts are
   cross-checked for exact equality on every workload *and* on every
   catalogue driver handler: the fastpath must be indistinguishable
   from the reference interpreter in everything but wall-clock.

2. **Kernel microbench.**  A tight schedule/dispatch chain over the
   tuple-keyed heap (events/s) — the path every simulated event
   crosses.

3. **Fleet workload.**  One serial metro sweep per mode on the same
   scenario/seed as BENCH_fleet.json, with all translate/compile caches
   dropped before each mode so the reference number approximates the
   pre-PR interpreter.  Merged metric digests must be bit-identical
   across modes; target >=1.5x events/s.

``--smoke`` runs a reduced version and **fails (exit 1)** if the
fastpath falls below reference throughput anywhere, if any cycle count
diverges, or if the fleet digest changes between modes — the CI
regression gate.

    PYTHONPATH=src python benchmarks/bench_vm.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.vmperf import _encode, _i, _image_for  # noqa: E402
from repro.drivers.catalog import CATALOG  # noqa: E402
from repro.dsl.bytecode import Op, _unpack_cached  # noqa: E402
from repro.dsl.compiler import (  # noqa: E402
    compile_source,
    _compile_source_default,
)
from repro.dsl.lint import _lint_source_cached  # noqa: E402
from repro.fleet.runner import run_scenario  # noqa: E402
from repro.fleet.scenario import SCENARIOS  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.vm import fastpath  # noqa: E402
from repro.vm.machine import (  # noqa: E402
    DriverInstance,
    VirtualMachine,
    VmTrap,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_vm.json"
FLEET_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: Tentpole targets (reported; the --smoke gate only enforces >=1x).
VM_TARGET_SPEEDUP = 3.0
FLEET_TARGET_SPEEDUP = 1.5


# ----------------------------------------------------------- VM workloads
def _loop(body, iterations):
    """countdown loop: slot 7 runs *iterations* times around *body*."""
    body_code = _encode(*body)
    return _encode(
        _i(Op.PUSH16, iterations), _i(Op.STG, 7),
        *body,
        _i(Op.DECG, 7),
        _i(Op.JNZS, -(len(body_code) + 4)),
        _i(Op.RET),
    )


def vm_workloads(iterations):
    """name -> (image, args): synthetic handlers dominated by different
    instruction classes."""
    control = _loop((), iterations)
    arith = _loop((
        _i(Op.LDG, 0), _i(Op.PUSH8, 3), _i(Op.MUL), _i(Op.PUSH8, 7),
        _i(Op.ADD), _i(Op.LDP, 0), _i(Op.BXOR), _i(Op.STG, 0),
    ), iterations)
    memory = _loop((
        _i(Op.LDG, 7), _i(Op.PUSH8, 7), _i(Op.BAND), _i(Op.DUP),
        _i(Op.LDE, 8), _i(Op.PUSH1), _i(Op.ADD),
        _i(Op.STE, 8),
    ), iterations)
    return {
        "control_flow": (_image_for(control, n_params=1), (1,)),
        "arithmetic": (_image_for(arith, n_params=1), (0x5A5A,)),
        "array_memory": (_image_for(memory, n_params=1), (1,)),
    }


def _time_workload(mode, image, args, repeats):
    """(wall seconds, total steps, cycles of one run) for *repeats*
    executions of handler 0 under *mode*."""
    vm = VirtualMachine(mode=mode)
    instance = DriverInstance(image)
    handler = image.handlers[0]
    # Warm once outside the clock: translation (fast mode) + allocator.
    result = vm.execute(instance, handler, args)
    started = time.perf_counter()
    for _ in range(repeats):
        vm.execute(instance, handler, args)
    wall = time.perf_counter() - started
    return wall, result.steps * repeats, result.cycles


def vm_bench(iterations, repeats, rounds):
    section = {"workloads": [], "repeats": repeats, "iterations": iterations}
    worst = None
    for name, (image, args) in vm_workloads(iterations).items():
        best = {}
        cycles = {}
        for _ in range(rounds):
            for mode in ("reference", "fast"):
                wall, steps, cyc = _time_workload(mode, image, args, repeats)
                rate = steps / wall
                if mode not in best or rate > best[mode]:
                    best[mode] = rate
                cycles[mode] = cyc
        speedup = best["fast"] / best["reference"]
        section["workloads"].append({
            "name": name,
            "reference_steps_per_s": round(best["reference"]),
            "fastpath_steps_per_s": round(best["fast"]),
            "speedup": round(speedup, 2),
            "cycles_identical": cycles["fast"] == cycles["reference"],
        })
        if worst is None or speedup < worst:
            worst = speedup
    section["worst_speedup"] = round(worst, 2)
    section["meets_3x_target"] = worst >= VM_TARGET_SPEEDUP
    return section


def cycle_parity_check():
    """Every catalogue driver handler: identical cycles/steps or the
    identical trap under both engines.  Returns list of failures."""
    failures = []
    for spec in CATALOG.values():
        image = compile_source(spec.dsl_source(), spec.device_id.value)
        for handler in image.handlers:
            outcomes = {}
            for mode in ("reference", "fast"):
                vm = VirtualMachine(mode=mode)
                instance = DriverInstance(image)
                args = tuple(range(handler.n_params))
                try:
                    result = vm.execute(
                        instance, handler, args,
                        signal_sink=lambda *_: None,
                        return_sink=lambda _: None,
                    )
                    outcomes[mode] = (result.cycles, result.steps)
                except VmTrap as trap:
                    outcomes[mode] = ("trap", str(trap))
            if outcomes["fast"] != outcomes["reference"]:
                failures.append(
                    f"{spec.name} handler {handler.name_id}: "
                    f"{outcomes['reference']} != {outcomes['fast']}"
                )
    return failures


# --------------------------------------------------------- kernel section
def kernel_bench(events, rounds):
    """Schedule+dispatch chain throughput over the tuple-keyed heap."""
    best = 0.0
    for _ in range(rounds):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < events:
                sim.schedule(10, tick)

        sim.schedule(10, tick)
        started = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - started
        best = max(best, events / wall)
    return {"chain_events": events, "events_per_s": round(best)}


# ---------------------------------------------------------- fleet section
def _clear_caches():
    fastpath.clear_cache()
    _compile_source_default.cache_clear()
    _lint_source_cached.cache_clear()
    _unpack_cached.cache_clear()


def _fleet_run(mode, nodes, duration_s, seed):
    os.environ["REPRO_VM_MODE"] = mode
    try:
        scenario = SCENARIOS["metro"].scaled(
            name=f"metro-{nodes}", things=nodes,
            duration_s=duration_s, seed=seed,
        )
        result = run_scenario(scenario, workers=1)
    finally:
        os.environ.pop("REPRO_VM_MODE", None)
    blob = json.dumps(result.merged, sort_keys=True).encode()
    return {
        "wall_s": result.wall_s,
        "sim_events": result.sim_events,
        "events_per_s": result.events_per_s,
        "merged_digest": hashlib.sha256(blob).hexdigest()[:16],
    }


def fleet_bench(nodes, duration_s, seed, rounds):
    """Reference drops every cache before each round (approximating the
    pre-PR engine, which recompiled per shard and re-decoded per step);
    fastpath drops caches once, then runs warm — the steady-state
    behaviour a deployed fleet sees after the first shard."""
    points = {}
    for mode in ("reference", "fast"):
        _clear_caches()
        if mode == "fast":
            _fleet_run(mode, nodes, duration_s, seed)  # warm translations
        best = None
        for _ in range(rounds):
            if mode == "reference":
                _clear_caches()
            point = _fleet_run(mode, nodes, duration_s, seed)
            if best is None or point["events_per_s"] > best["events_per_s"]:
                best = point
        points[mode] = best
    speedup = points["fast"]["events_per_s"] / points["reference"]["events_per_s"]
    section = {
        "scenario": "metro",
        "nodes": nodes,
        "duration_s": duration_s,
        "seed": seed,
        "reference": points["reference"],
        "fastpath": points["fast"],
        "speedup": round(speedup, 2),
        "digests_identical": (points["fast"]["merged_digest"]
                              == points["reference"]["merged_digest"]),
        "meets_1_5x_target": speedup >= FLEET_TARGET_SPEEDUP,
    }
    previous = _previous_fleet_number(nodes)
    if previous is not None:
        section["pre_pr_events_per_s"] = previous
        section["speedup_vs_pre_pr"] = round(
            points["fast"]["events_per_s"] / previous, 2)
    return section


def _previous_fleet_number(nodes):
    """The recorded pre-PR events/s for (nodes, workers=1), if any."""
    if not FLEET_BASELINE.exists():
        return None
    try:
        recorded = json.loads(FLEET_BASELINE.read_text())
        for point in recorded.get("sweep", []):
            if point["nodes"] == nodes and point["workers"] == 1:
                return point["events_per_s"]
    except (ValueError, KeyError):
        return None
    return None


# ------------------------------------------------------------------ main
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes + hard regression gate")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)

    if args.smoke:
        iterations, repeats, rounds = 2_000, 20, 2
        kernel_events, fleet_nodes, fleet_duration = 20_000, 20, 5.0
    else:
        iterations, repeats, rounds = 10_000, 60, 3
        kernel_events, fleet_nodes, fleet_duration = 200_000, 50, 10.0

    report = {
        "bench": "vm",
        "smoke": args.smoke,
        "vm": vm_bench(iterations, repeats, rounds),
        "kernel": kernel_bench(kernel_events, rounds),
        "fleet": fleet_bench(fleet_nodes, fleet_duration, args.seed, rounds),
    }
    parity_failures = cycle_parity_check()
    report["catalog_cycle_parity"] = not parity_failures

    failures = list(parity_failures)
    for workload in report["vm"]["workloads"]:
        if not workload["cycles_identical"]:
            failures.append(f"cycle divergence in {workload['name']}")
        if workload["speedup"] < 1.0:
            failures.append(
                f"fastpath slower than reference on {workload['name']} "
                f"({workload['speedup']}x)"
            )
    if not report["fleet"]["digests_identical"]:
        failures.append("fleet merged digest changed between VM modes")
    if report["fleet"]["speedup"] < 1.0:
        failures.append(
            f"fastpath fleet run slower than reference "
            f"({report['fleet']['speedup']}x)"
        )
    report["gate_failures"] = failures

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")

    vm = report["vm"]
    print(f"VM workloads (worst speedup {vm['worst_speedup']}x, "
          f"target {VM_TARGET_SPEEDUP}x):")
    for workload in vm["workloads"]:
        print(f"  {workload['name']:14s} "
              f"ref {workload['reference_steps_per_s']:>12,} steps/s   "
              f"fast {workload['fastpath_steps_per_s']:>12,} steps/s   "
              f"{workload['speedup']}x")
    print(f"kernel chain: {report['kernel']['events_per_s']:,} events/s")
    fleet = report["fleet"]
    print(f"fleet metro-{fleet['nodes']}: "
          f"ref {fleet['reference']['events_per_s']:,.0f} ev/s   "
          f"fast {fleet['fastpath']['events_per_s']:,.0f} ev/s   "
          f"{fleet['speedup']}x  digest match: {fleet['digests_identical']}")
    if "speedup_vs_pre_pr" in fleet:
        print(f"  vs recorded pre-PR number: {fleet['speedup_vs_pre_pr']}x")
    print(f"wrote {out}")

    if failures:
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
