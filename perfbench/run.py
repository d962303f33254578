#!/usr/bin/env python3
"""The repository benchmark: one fleet workload per run, end to end.

    python3 perfbench/run.py --workload fleet-duty --seed 1 --seconds 50

Run from the root of a checkout.  Each run hosts the workload's fleet
scenario (seeded by ``--seed``) and measures:

1. serve — a gateway child process serves the fleet over loopback
   HTTP to a seeded open loop at a fixed offered rate;
2. rounds, until the budget is spent — drive (build every shard with
   ``live_shards``, run each serially to the horizon, finalize and
   merge, ``workers=1``), then ``save_shard`` and ``load_shard`` over
   every shard of the driven fleet, then the child's request log
   applied inline to a fresh bridge (replay).

The rounds interleave the three in-process phases over the whole
budget, so each median samples the host across the run rather than in
one window of it, and each step's host time is scaled to the reference
machine's speed by a fixed kernel timed next to it (``pace.py``); the
unscaled medians are printed too.  Every output is checked: identical merged
digests across repeats and against ``run_scenario``; restored state
equal to saved state; the live gateway digest equal to every replay's
digest; every answer's status and body.  ``--trace 1`` wraps each
layer's entry points (see ``layers.py``) and reports the per-layer
metrics instead of the end-to-end ones.  The last line of output is
one JSON object.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("fleet-duty", "gateway-mixed")


@dataclass(frozen=True)
class Settings:
    """Fixed per-workload load and time split."""

    #: Open-loop offered rate, requests/s: about half of the lowest
    #: closed-loop capacity measured on the commit that defined the
    #: benchmark (2 shared CPUs), fixed so every later commit gets the
    #: same load.
    open_rps: float
    #: Share of ``--seconds`` for the open loop; the rest is rounds.
    open: float
    #: Share of the rounds' time spent driving (the rest checkpoints
    #: and replays, one of each per round).
    drive: float
    #: Gateway children started; all but the last are stopped as soon
    #: as they are up.  Their median start-up is gateway-mixed's
    #: ``setup_s`` (fleet-duty's is the drives' ``live_shards`` time).
    spawns: int


SETTINGS = {
    # Bridged ops on the sampler-dense fleet are ~10x dearer: its open
    # loop offers fewer requests per second, and a replay of its log
    # takes longer than one of the gateway fleet's.
    "fleet-duty": Settings(45.0, 0.20, 0.40, 1),
    "gateway-mixed": Settings(150.0, 0.20, 0.35, 3),
}

#: Untraced drive repetitions before the wrappers go in (traced run):
#: the first warms caches, the others are the overhead baseline.
UNTRACED_REPS = 3

#: The end-to-end metrics of the JSON result (BENCHMARK.json).
E2E_UNITS = {
    "setup_s": "s", "sim_events_per_s": "events/s", "peak_rss_mb": "MB",
    "checkpoint_save_s": "s", "checkpoint_restore_s": "s",
    "replay_ops_per_s": "ops/s", "serve_cpu_ms": "ms",
}

#: Printed with them but not in the JSON result: on 2 shared vCPUs the
#: loopback latencies, which need both CPUs at once, move 2-4x between
#: runs with the host's load, more than any regression bound the
#: benchmark may set.
PRINTED_UNITS = {**E2E_UNITS, "read_p50_ms": "ms", "read_p99_ms": "ms"}


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else unknown."""
    if not (ROOT / ".git").exists():  # do not pick up an enclosing repo
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Child:
    """The gateway server process (``child.py``)."""

    def __init__(self, workload: str, seed: int, trace: int) -> None:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=env, text=True)
        self.port = self.recv(120.0)["port"]
        #: Spawn to warm-up advance done: interpreter, imports, fleet
        #: build and start, warm-up.
        self.setup_s = perf_counter() - self.started

    def recv(self, timeout_s: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("gateway child did not answer")
        return json.loads(line)

    def ask(self, command: str, timeout_s: float = 60.0) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.recv(timeout_s)

    def close(self) -> None:
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=15)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Checks:
    """Named output checks; a failed check is a failed operation."""

    def __init__(self) -> None:
        self.results = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


# ---------------------------------------------------------------- phases
def _add_spans(into: dict, spans: dict) -> None:
    for key in ("calls", "self", "sums"):
        part = into.setdefault(key, {})
        for name, value in spans.get(key, {}).items():
            part[name] = part.get(name, 0) + value


class Rounds:
    """Drive, checkpoint and replay, interleaved over one time budget.

    A round drives the fleet (build + run to the horizon + merge)
    until the drive has its share of the time spent so far, saves and
    restores the last driven fleet once, frees it and replays the
    recorded gateway log once.  Rounds repeat until the budget is
    spent (at least ``MIN_ROUNDS``), so every median samples the
    machine across the whole phase rather than in one window: the
    host's speed drifts in phases from seconds to minutes long.  Each
    step starts from a settled heap, with the previous fleet freed, so
    neither its time nor the peak RSS depends on how many steps fit,
    and is followed by a reference-kernel timing (``pace.py``); the
    steps' speed factors are drawn from those timings at the end.
    With a tracer, the wrapped layers' spans are kept per phase.
    """

    MIN_ROUNDS = 2

    def __init__(self, pace, tracer=None) -> None:
        self.pace = pace
        self.tracer = tracer
        self.spans = {"drive": {}, "checkpoint": {}, "replay": {}}
        #: Host seconds per phase, whole steps.
        self.spent = {"drive": 0.0, "checkpoint": 0.0, "replay": 0.0}
        #: (result, start, end) of every step, in order.
        self.steps = []

    def _step(self, phase: str, work, result) -> None:
        gc.collect()
        started = perf_counter()
        work()
        ended = perf_counter()
        self.pace.mark()
        self.spent[phase] += ended - started
        self.steps.append((result, started, ended))
        if self.tracer is not None:
            _add_spans(self.spans[phase], self.tracer.snapshot())
            self.tracer.reset()

    def run(self, scenario, serve_scenario, budget_s: float,
            drive_share: float, drive, ckpt, replayed, workdir: Path,
            on_built=None, on_done=None) -> None:
        import fleetwork

        deadline = perf_counter() + budget_s
        ratio = drive_share / (1.0 - drive_share)
        rounds = 0
        self.pace.mark()

        def more() -> bool:
            return rounds < self.MIN_ROUNDS or perf_counter() < deadline

        while more():
            while True:
                drive.deployments = []
                self._step("drive", lambda: fleetwork.drive_once(
                    scenario, drive, on_built, on_done), drive)
                if self.spent["drive"] >= ratio * (
                        self.spent["checkpoint"] + self.spent["replay"]):
                    break
            if not more():
                break
            try:
                self._step("checkpoint", lambda: fleetwork.checkpoint(
                    drive.deployments, workdir, ckpt), ckpt)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
                try:
                    workdir.parent.rmdir()
                except OSError:  # another run is still using it
                    pass
            drive.deployments = []
            self._step("replay", lambda: fleetwork.replay(
                serve_scenario, replayed), replayed)
            rounds += 1
        for result, started, ended in self.steps:
            result.factors.append(self.pace.factor(started, ended))


def untraced_drives(scenario, result, pace) -> None:
    """``UNTRACED_REPS`` plain drive repetitions (the traced run's
    overhead baseline; the first warms caches)."""
    import fleetwork

    pace.mark()
    spans = []
    for _ in range(UNTRACED_REPS):
        result.deployments = []
        gc.collect()
        started = perf_counter()
        fleetwork.drive_once(scenario, result)
        spans.append((started, perf_counter()))
        pace.mark()
    result.factors.extend(pace.factor(*span) for span in spans)
    result.deployments = []


async def _serve_phases(child: Child, workload: str, seed: int,
                        seconds: float):
    from repro.gateway.loadgen import HttpPool
    import traffic

    pool = HttpPool("127.0.0.1", child.port, 64)
    targets = await traffic.discover(pool)
    # Start measuring from settled heaps on both sides: set-up garbage
    # must not be collected inside the open-loop phase.
    child.ask("collect")
    gc.collect()
    before = child.ask("stats")  # drops the crawl's records and spans
    settings = SETTINGS[workload]
    schedule = traffic.open_schedule(seed, settings.open_rps,
                                     settings.open * seconds)
    opened = await traffic.open_loop(pool, schedule, targets)
    open_stats = child.ask("stats")
    open_stats["cpu_s"] -= before["cpu_s"]
    await pool.close()
    # Let the server see every connection close before it is told to
    # quit, so no handler is cancelled mid-close.
    await asyncio.sleep(0.2)
    return targets, schedule, opened, open_stats


def start_child(workload: str, seed: int, trace: int, pace):
    """A gateway child, and the speed factor of its start-up."""
    pace.mark()  # the parent waits while the child starts
    child = Child(workload, seed, trace)
    pace.mark()
    return child, pace.factor(child.started,
                              child.started + child.setup_s)


def serve_phase(workload: str, seed: int, seconds: float, trace: int,
                pace):
    setups = []
    for _ in range(SETTINGS[workload].spawns - 1):
        child, factor = start_child(workload, seed, trace, pace)
        child.close()
        setups.append((child.setup_s, factor))
    child, factor = start_child(workload, seed, trace, pace)
    setups.append((child.setup_s, factor))
    try:
        targets, schedule, opened, open_stats = asyncio.run(
            _serve_phases(child, workload, seed, seconds))
        report = child.ask("report", timeout_s=120.0)
    finally:
        child.close()
    return {"setup_s": [t for t, _ in setups],
            "setup_factors": [f for _, f in setups], "targets": targets,
            "schedule": schedule, "open": opened, "open_stats": open_stats,
            "report": report}


# --------------------------------------------------------------- metrics
def _scaled(times, factors):
    """Host times at the reference machine's speed."""
    return [t * f for t, f in zip(times, factors)]


def e2e_metrics(workload, drive, ckpt, served, replayed, parent_rss_kb):
    import traffic

    opened = served["open"]
    setup = (median(_scaled(served["setup_s"], served["setup_factors"]))
             if workload == "gateway-mixed"
             else median(_scaled(drive.setup_s, drive.factors)))
    rss_kb = max(parent_rss_kb, served["report"]["peak_rss_kb"])
    p99_ms, beyond = traffic.read_percentile_ms(opened.outcomes, 99)
    values = {
        "setup_s": setup,
        "sim_events_per_s": median(drive.events_per_s),
        "peak_rss_mb": rss_kb / 1024.0,
        "checkpoint_save_s": median(_scaled(ckpt.save_s, ckpt.factors)),
        "checkpoint_restore_s": median(_scaled(ckpt.restore_s,
                                               ckpt.factors)),
        "read_p50_ms": traffic.read_percentile_ms(opened.outcomes, 50)[0],
        "read_p99_ms": p99_ms,
        "replay_ops_per_s": median(replayed.rates),
        "serve_cpu_ms": (served["open_stats"]["cpu_s"] * 1e3
                         / len(opened.outcomes)),
    }
    extra = {"reads": sum(1 for o in opened.outcomes if o.kind == "read"),
             "reads_beyond_p99": beyond,
             "drive_reps": drive.reps, "checkpoint_reps": len(ckpt.save_s),
             "open_requests": len(opened.outcomes),
             "replay_ops": len(replayed.ops),
             "replay_timed_ops": replayed.timed_ops,
             "replays": len(replayed.rates),
             "peak_rss_mb": {"bench": parent_rss_kb / 1024.0,
                             "gateway": served["report"]["peak_rss_kb"]
                             / 1024.0},
             # The same medians before scaling to the reference speed.
             "unscaled": {
                 "setup_s": (median(served["setup_s"])
                             if workload == "gateway-mixed"
                             else median(drive.setup_s)),
                 "sim_events_per_s": median(
                     n / t for n, t in zip(drive.events, drive.drive_s)),
                 "checkpoint_save_s": median(ckpt.save_s),
                 "checkpoint_restore_s": median(ckpt.restore_s),
                 "replay_ops_per_s": median(
                     replayed.timed_ops / t for t in replayed.elapsed_s)},
             "speed_factor": median(drive.factors + ckpt.factors
                                    + replayed.factors)}
    return values, extra


def _share(seconds: float, wall: float) -> float:
    return seconds / wall if wall > 0 else 0.0


def layer_metrics(drive, untraced, clocks, tracer_phases, ckpt, served,
                  traced_wall_s, things):
    """Per-layer metrics of the traced run (see README.md)."""
    from repro.sim.stats import percentile

    reps = drive.reps
    counters = drive.merged["counters"]
    dspans = tracer_phases["drive"]
    calls = dspans["calls"]
    sums = dspans["sums"]
    # Function self time over every traced phase, both processes.
    self_s = {}
    for spans in (list(tracer_phases.values())
                  + [served["open_stats"]["spans"]]):
        for name, value in spans.get("self", {}).items():
            self_s[name] = self_s.get(name, 0.0) + value
    busy = {}
    for clock in clocks:
        for layer, value in clock.busy.items():
            busy[layer] = busy.get(layer, 0.0) + value
    busy_total = sum(busy.values())
    events = counters["sim.events"]
    records = served["open_stats"]["records"]
    qwait = [r[3] for r in records]
    sexec = [r[4] for r in records]
    reply = [r[5] for r in records if r[5] is not None]
    open_wall = served["open"].wall_s
    outcomes = served["open"].outcomes
    wire_ms = []
    for request_id, _kind, _status, q, s, w in records:
        index = served["open"].ids.get(request_id)
        if index is not None and w is not None:
            wire_ms.append(outcomes[index].service_s * 1e3 - (q + s + w))
    ospans = served["open_stats"]["spans"]
    m = {
        "sim.events": sums.get("sim.events", 0) // reps,
        "sim.ff_share": drive.ff_events / events,
        "sim.self_share": _share(self_s.get("sim", 0.0), traced_wall_s),
        "sampling.busy_share": _share(self_s.get("sampling", 0.0),
                                      traced_wall_s),
        "vm.execute.calls": calls.get("vm.execute", 0) // reps,
        "vm.execute.self_share": _share(self_s.get("vm.execute", 0.0),
                                        traced_wall_s),
        "net.send.calls": calls.get("net.send", 0) // reps,
        "net.send.self_share": _share(self_s.get("net.send", 0.0),
                                      traced_wall_s),
        "net.deliver.calls": calls.get("net.deliver", 0) // reps,
        "net.deliver.self_share": _share(self_s.get("net.deliver", 0.0),
                                         traced_wall_s),
        "net.bytes_sent": sums.get("net.bytes_sent", 0) // reps,
        "core.read.calls": calls.get("core.read", 0) // reps,
        "core.read.ok_share": (counters.get("reads.ok", 0)
                               / max(1, counters.get("reads.sent", 0))),
        "protocol.retransmits": counters.get("reliability.retransmits", 0),
        "hw.identifications": counters.get("identifications", 0),
        "dsl.compile.calls": calls.get("dsl.compile", 0) // reps,
        "dsl.compile.busy_share": _share(self_s.get("dsl.compile", 0.0),
                                         traced_wall_s),
        "fleet.setup.busy_share": _share(self_s.get("fleet.setup", 0.0),
                                         traced_wall_s),
        "fleet.merge.busy_share": _share(self_s.get("fleet.merge", 0.0),
                                         traced_wall_s),
        "snapshot.save.busy_s": median(ckpt.save_s),
        "snapshot.restore.busy_s": median(ckpt.restore_s),
        "snapshot.bytes_per_node": ckpt.bytes / things,
        "telemetry.sample.calls": calls.get("telemetry.sample", 0) // reps,
        "telemetry.sample.self_share": _share(
            self_s.get("telemetry.sample", 0.0), traced_wall_s),
        "gateway.queue_wait_ms.p50": percentile(qwait, 50),
        "gateway.queue_wait_ms.p99": percentile(qwait, 99),
        "gateway.sim_exec_ms.p50": percentile(sexec, 50),
        "gateway.sim_exec_ms.p99": percentile(sexec, 99),
        "gateway.reply_write_ms.p99": percentile(reply, 99),
        "gateway.bridge_busy_share": _share(sum(sexec) / 1e3, open_wall),
        "gateway.wire.calls": ospans.get("calls", {}).get("gateway.wire", 0),
        "gateway.wire.self_share": _share(
            ospans.get("self", {}).get("gateway.wire", 0.0), open_wall),
        "gateway.wire_ms.p50": percentile(wire_ms, 50),
        "bench.gen_lag_ms.p99": percentile(served["open"].gen_lag_s, 99) * 1e3,
        "bench.trace_overhead": (
            median(_scaled(drive.drive_s, drive.factors))
            / median(_scaled(untraced.drive_s, untraced.factors)[1:])),
    }
    for layer in LAYER_SHARES:
        m[f"drive.{layer}_share"] = _share(busy.get(layer, 0.0), busy_total)
    return m


#: Event-kind layers of the drive breakdown (EventClock).
LAYER_SHARES = ("kernel", "vm", "net", "protocol", "hw", "workload",
                "sampling", "telemetry")

LAYER_UNITS = {
    "sim.events": "count", "sim.ff_share": "fraction",
    "sim.self_share": "fraction", "sampling.busy_share": "fraction",
    "vm.execute.calls": "count", "vm.execute.self_share": "fraction",
    "net.send.calls": "count", "net.send.self_share": "fraction",
    "net.deliver.calls": "count", "net.deliver.self_share": "fraction",
    "net.bytes_sent": "bytes", "core.read.calls": "count",
    "core.read.ok_share": "fraction", "protocol.retransmits": "count",
    "hw.identifications": "count", "dsl.compile.calls": "count",
    "dsl.compile.busy_share": "fraction",
    "fleet.setup.busy_share": "fraction",
    "fleet.merge.busy_share": "fraction",
    "snapshot.save.busy_s": "s", "snapshot.restore.busy_s": "s",
    "snapshot.bytes_per_node": "bytes",
    "telemetry.sample.calls": "count",
    "telemetry.sample.self_share": "fraction",
    "gateway.queue_wait_ms.p50": "ms", "gateway.queue_wait_ms.p99": "ms",
    "gateway.sim_exec_ms.p50": "ms", "gateway.sim_exec_ms.p99": "ms",
    "gateway.reply_write_ms.p99": "ms",
    "gateway.bridge_busy_share": "fraction",
    "gateway.wire.calls": "count", "gateway.wire.self_share": "fraction",
    "gateway.wire_ms.p50": "ms", "bench.gen_lag_ms.p99": "ms",
    "bench.trace_overhead": "ratio",
    **{f"drive.{layer}_share": "fraction" for layer in LAYER_SHARES},
}


def trace_checks(checks: Checks, drive, untraced, tracer_phases,
                 served) -> None:
    """The wrappers must count what the program counts, and perturb
    nothing it simulates."""
    reps = drive.reps
    counters = drive.merged["counters"]
    spans = tracer_phases["drive"]
    pairs = (
        ("sim.events", spans["sums"].get("sim.events", 0),
         counters["sim.events"]),
        ("net.send.calls", spans["calls"].get("net.send", 0),
         counters["net.datagrams_sent"]),
        ("net.bytes_sent", spans["sums"].get("net.bytes_sent", 0),
         counters["net.bytes_sent"]),
        ("core.read.calls", spans["calls"].get("core.read", 0),
         counters.get("reads.sent", 0)),
        ("sampling.ticks", spans["sums"].get("sampling.ticks", 0),
         counters.get("sampling.reads", 0)
         + counters.get("sampling.baseline_ticks", 0)),
    )
    for name, traced, counted in pairs:
        checks.check(f"trace counts {name}", traced == reps * counted,
                     f"{traced} vs {reps} x {counted}")
    # Wrappers and event clocks must not perturb what is simulated.
    checks.check("traced digest equals untraced digest",
                 set(drive.digests) == set(untraced.digests))
    report = served["report"]
    checks.check("captured gateway ops equal /debug/ops count",
                 report["ops_captured"] == report["obs_ops"],
                 f"{report['ops_captured']} vs {report['obs_ops']}")


# ------------------------------------------------------------------ main
def run(args) -> int:
    import fleetwork
    import layers
    import traffic
    from pace import Pace

    scenario = fleetwork.scenario_for(args.workload, args.seed)
    seconds = float(args.seconds)
    checks = Checks()
    tracer = layers.LayerTracer() if args.trace else None
    workdir = ROOT / ".perfbench_work" / str(os.getpid())

    settings = SETTINGS[args.workload]
    drive = fleetwork.DriveResult()
    untraced = fleetwork.DriveResult()
    ckpt = fleetwork.CheckpointResult()
    clocks = []
    phase_s = {}

    started = perf_counter()
    pace = Pace()
    served = serve_phase(args.workload, args.seed, seconds, args.trace,
                         pace)
    phase_s["serve"] = perf_counter() - started
    bad = [o for o in served["open"].outcomes if not o.body_ok]
    checks.check("open-loop answers match their requests", not bad,
                 f"{len(bad)} mismatched")
    failures = Counter((o.kind, o.status) for o in served["open"].outcomes
                       if o.failed)
    failed_requests = sum(failures.values())

    replayed = fleetwork.ReplayResult(served["report"]["log"],
                                      traffic.OPEN_ID_PREFIX)
    serve_scenario = fleetwork.serve_scenario_for(args.workload, args.seed)
    rounds = Rounds(pace, tracer)
    on_built = on_done = None
    started = perf_counter()
    if tracer is not None:
        # Plain repetitions first, then the wrappers, and one
        # EventClock per shard for every traced drive.
        untraced_drives(scenario, untraced, pace)
        layers.install(tracer)
        tracer.reset()
        clock_of = {}

        def on_built(deployments):
            for deployment in deployments:
                clock = layers.EventClock()
                deployment.sim.add_trace_hook(clock.hook, bulk=clock.bulk)
                clock_of[id(deployment)] = clock
                clocks.append(clock)

        def on_done(deployment):
            clock_of.pop(id(deployment)).stop()

    try:
        rounds.run(scenario, serve_scenario, (1.0 - settings.open) * seconds,
                   settings.drive, drive, ckpt, replayed, workdir,
                   on_built, on_done)
    finally:
        if tracer is not None:
            tracer.unpatch()
    tracer_phases = rounds.spans
    phase_s["rounds"] = perf_counter() - started
    checks.check("live gateway digest equals replay digest",
                 set(replayed.digests) == {served["report"]["digest"]})
    checks.check("drive digests identical across repetitions",
                 len(set(drive.digests)) == 1)
    checks.check("restored state equals saved state",
                 set(ckpt.restored_digests) == {ckpt.saved_digest})
    parent_rss = fleetwork.peak_rss_kb()

    started = perf_counter()
    reference = fleetwork.reference_digest(scenario)
    checks.check("hosted fleet digest equals run_scenario digest",
                 drive.digests[-1] == reference)
    phase_s["reference"] = perf_counter() - started

    attempted = (drive.reps + len(untraced.digests) + len(ckpt.save_s)
                 + len(served["open"].outcomes) + len(replayed.digests) + 1)
    values, extra = e2e_metrics(args.workload, drive, ckpt, served,
                                replayed, parent_rss)
    if tracer is not None:
        trace_checks(checks, drive, untraced, tracer_phases, served)
        traced_wall = sum(rounds.spent.values()) + served["open"].wall_s
        metrics = layer_metrics(drive, untraced, clocks, tracer_phases,
                                ckpt, served, traced_wall, scenario.things)
        units = LAYER_UNITS
    else:
        metrics, units = values, E2E_UNITS
    failed = checks.failed + failed_requests

    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "workers": 1, "transport": "loopback-tcp",
        "open_loop_rps": SETTINGS[args.workload].open_rps,
        "open_loop_connections": 64,
        "things": scenario.things, "shards": scenario.shard_count,
        "seed_commit_layer_shares": seed_layer_shares(args.workload),
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {drive.digests[-1]}  (merged fleet, {args.workload} "
          f"seed {args.seed})")
    for name, ok, detail in checks.results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail and not ok else ""))
    for name, value in values.items():
        print(f"{name:<24} {value:>16.6g} {PRINTED_UNITS[name]}")
    print(f"{'error_rate':<24} {failed / attempted:>16.6g} fraction "
          f"({failed} failed of {attempted} attempted)")
    print("samples " + json.dumps(extra, sort_keys=True))
    if failures:
        print("failed requests " + ", ".join(
            f"{kind} {status}: {n}"
            for (kind, status), n in sorted(failures.items(), key=str)))
    print("phase_s " + json.dumps({k: round(v, 3) for k, v in phase_s.items()},
                                  sort_keys=True))
    if tracer is not None:
        for name in LAYER_UNITS:
            print(f"{name:<30} {metrics[name]:>16.6g} {LAYER_UNITS[name]}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def seed_layer_shares(workload: str) -> dict:
    path = HERE / "seed_layers.json"
    try:
        return json.loads(path.read_text()).get(workload, {})
    except (OSError, ValueError):
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        return run(args)
    except Exception:  # a broken program must not look like a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
