"""Overhead gates: one alternating A/B routine for every cost budget.

Each gate times two arms of one workload in this process: a
*baseline* arm and the *measured* arm, which is the live code in the
configuration the gate guards.  The routine warms each arm for
``MIN_WALL_S``, then times ``PAIRS`` pairs, alternating which arm runs
first.  In a pair each arm runs for at least ``MIN_WALL_S``, in turns
of at least ``SLICE_S``; the pair's ratio is the measured arm's median
time per repetition over the baseline's.

The routine prints the median paired ratio, its interquartile range
and in how many pairs the measured arm was slower.  A gate fails only
when the measured arm is slower in at least ``FAIL_PAIRS`` of the
``PAIRS`` pairs *and* the median ratio exceeds ``1 + bound``: the
project's rule for claiming a gain, applied to a regression.  A gate
is printed ``unresolved`` when its IQR is wider than its bound and
reaches past ``1 + bound``: the run cannot tell whether the bound
holds.  The exit status is 1 when any gate fails.

Baseline arms that stand for "the code without the guarded lines" are
built from the live source by :func:`strip`, which asserts that every
line it removes is still there, so an edit to a guarded method fails
loudly instead of comparing against a stale copy.  A table of guarded
lines is keyed by ``(owner, name)``: a class and its method, or a
module and its function.

==============  =====  ================================================
gate            bound  measured arm vs baseline arm
==============  =====  ================================================
obs             2%     fleet smoke, tracing off, vs the per-event
                       ``sim.tracer`` guards stripped (the kernel's
                       ``step``/``schedule_at`` observer guard too)
telemetry       3%     fleet smoke, telemetry off, vs the payload-byte
                       and VM-cycle counters stripped
profile         3%     fleet smoke on the reference VM engine,
                       profiling off, vs the hit-recorder lines stripped
profile-fast    3%     fleet smoke on the fast VM engine, profiling
                       off, vs ``execute_fast``'s hit-recorder lines
                       stripped
gateway-obs     3%     bridged property reads, request observability
                       on vs off
reliability     10%    lossless metro fleet, reliability layer on vs off
vm-*            0%     fastpath vs reference engine: three synthetic
                       handlers and a metro fleet
==============  =====  ================================================

    PYTHONPATH=src python benchmarks/overhead.py
"""

from __future__ import annotations

import inspect
import os
import platform
import statistics
import sys
import textwrap
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.vmperf import _encode, _i, _image_for  # noqa: E402
from repro.core.client import Client  # noqa: E402
from repro.core.manager import Manager  # noqa: E402
from repro.core.thing import Thing  # noqa: E402
from repro.dsl.bytecode import Op  # noqa: E402
from repro.fleet.runner import run_scenario  # noqa: E402
from repro.fleet.scenario import SCENARIOS  # noqa: E402
from repro.gateway.bridge import GatewayBridge  # noqa: E402
from repro.gateway.bridge import Op as GatewayOp  # noqa: E402
from repro.gateway.obs import GatewayObsConfig  # noqa: E402
from repro.net.network import Network  # noqa: E402
from repro.net.stack import NetworkStack  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.vm import fastpath  # noqa: E402
from repro.vm.machine import DriverInstance, VirtualMachine  # noqa: E402
from repro.vm.router import EventRouter  # noqa: E402

#: Every timed run lasts at least this long (the project's work floor).
MIN_WALL_S = 0.75
PAIRS = 10
FAIL_PAIRS = 9
#: Shortest turn of one arm inside a pair.
SLICE_S = 0.05

#: Fleet smoke workload of the obs, telemetry and profile gates.
SMOKE = SCENARIOS["smoke"].scaled(things=10, duration_s=30.0, seed=1)
#: Lossless metro workload of the reliability and VM fleet gates.
METRO = SCENARIOS["metro"].scaled(things=20, duration_s=10.0, seed=1)

#: Per-event methods and the tracer guards they carry.
TRACER_GUARDS = {
    (Simulator, "step"): (
        "if self.tracer is not None or self.profiler is not None:",
    ),
    (Simulator, "schedule_at"): (
        "if self.tracer is not None or self.profiler is not None:",
    ),
    (EventRouter, "post"): (
        "tracer = self._sim.tracer",
        "if tracer is not None and tracer.current is not None:",
    ),
    (EventRouter, "_dispatch_next"): (
        "tracer = self._sim.tracer",
        "if tracer is not None:",
        'if tracer is not None and tracer.enabled_for("vm"):',
    ),
    (Network, "send"): (
        "tracer = self._sim.tracer",
        'if tracer is not None and tracer.enabled_for("proto"):',
    ),
    (Network, "_send_unicast"): (
        "tracer = self._sim.tracer",
        'trace_net = tracer is not None and tracer.enabled_for("net")',
        "if trace_net:",
    ),
    (Network, "_send_multicast"): (
        "tracer = self._sim.tracer",
        'trace_net = tracer is not None and tracer.enabled_for("net")',
        "if trace_net:",
        "if trace_net:",
    ),
    (NetworkStack, "sendto"): (
        'self._trace_cpu("stack.send", cpu, datagram.size)',
    ),
    (NetworkStack, "deliver"): (
        'self._trace_cpu("stack.recv", cpu, datagram.size)',
    ),
    (Thing, "_on_datagram"): (
        "tracer = self.sim.tracer",
        'if tracer is not None and tracer.enabled_for("core"):',
    ),
    (Manager, "_on_datagram"): (
        "tracer = self.sim.tracer",
        'if tracer is not None and tracer.enabled_for("core"):',
    ),
    (Client, "_send_unicast"): (
        "self._trace_begin(kind, seq, pending, device_id)",
    ),
    (Client, "_on_datagram"): (
        "self._trace_end(pending)",
    ),
}

#: The two counters the telemetry layer keeps on always-hot paths.
TELEMETRY_COUNTERS = {
    (Network, "_hop_delay"): (
        "self.stats.mac_payload_bytes += frame_payload",
    ),
    (EventRouter, "_dispatch_next"): (
        "self.stats.cycles += cycles",
    ),
}

#: The reference interpreter's opcode-heat recording.
RECORDER_LINES = {
    (VirtualMachine, "execute"): (
        "recorder = self._hit_recorder",
        "hits = None",
        "if recorder is not None:",
        "if hits is not None:",
    ),
}

#: The fast engine's opcode-heat recording.
FAST_RECORDER_LINES = {
    (fastpath, "execute_fast"): (
        "recorder = vm._hit_recorder",
        "hits = None",
        "if recorder is not None:",
        "if hits is not None:",
    ),
}


# ------------------------------------------------------------ baselines
def strip(func, lines):
    """*func* recompiled from its live source without *lines*.

    Each entry matches one whole source line, indentation aside, and
    removes its first remaining occurrence; a line that opens a block
    (ends in ``:``) takes its block with it.  A missing line raises.
    """
    source = inspect.getsource(func).splitlines(keepends=True)
    for line in lines:
        at = next((n for n, text in enumerate(source)
                   if text.strip() == line), None)
        if at is None:
            raise SystemExit(f"overhead: {func.__qualname__} no longer "
                             f"has the line {line!r}")
        end = at + 1
        if line.endswith(":"):
            indent = len(source[at]) - len(source[at].lstrip())
            while end < len(source) and (
                    not source[end].strip()
                    or len(source[end]) - len(source[end].lstrip())
                    > indent):
                end += 1
        del source[at:end]
    namespace = vars(inspect.getmodule(func)).copy()
    exec(compile(textwrap.dedent("".join(source)),
                 f"<stripped {func.__qualname__}>", "exec"), namespace)
    return namespace[func.__name__]


def stripped(table, work):
    """*work* run with each function of *table* stripped of its lines."""
    patches = [(owner, name, strip(getattr(owner, name), lines))
               for (owner, name), lines in table.items()]

    def arm():
        saved = [(owner, name, vars(owner)[name])
                 for owner, name, _ in patches]
        for owner, name, func in patches:
            setattr(owner, name, func)
        try:
            work()
        finally:
            for owner, name, func in saved:
                setattr(owner, name, func)
    return arm


@contextmanager
def vm_mode(mode):
    saved = os.environ.get("REPRO_VM_MODE")
    os.environ["REPRO_VM_MODE"] = mode
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_VM_MODE"]
        else:
            os.environ["REPRO_VM_MODE"] = saved


def fleet(scenario, mode=None):
    def run():
        if mode is None:
            run_scenario(scenario, workers=1)
        else:
            with vm_mode(mode):
                run_scenario(scenario, workers=1)
    return run


# ---------------------------------------------------------------- gates
@contextmanager
def obs_gate():
    yield stripped(TRACER_GUARDS, fleet(SMOKE)), fleet(SMOKE)


@contextmanager
def telemetry_gate():
    yield stripped(TELEMETRY_COUNTERS, fleet(SMOKE)), fleet(SMOKE)


@contextmanager
def profile_gate():
    smoke = fleet(SMOKE, "reference")
    yield stripped(RECORDER_LINES, smoke), smoke


@contextmanager
def profile_fast_gate():
    smoke = fleet(SMOKE, "fast")
    yield stripped(FAST_RECORDER_LINES, smoke), smoke


@contextmanager
def gateway_obs_gate():
    scenario = SCENARIOS["gateway"].scaled(things=200, shard_size=200,
                                           seed=2)
    bridges = [GatewayBridge(scenario,
                             obs=GatewayObsConfig(enabled=enabled))
               for enabled in (False, True)]
    try:
        yield tuple(_reads(bridge, 50) for bridge in bridges)
    finally:
        for bridge in bridges:
            bridge.close()


def _reads(bridge, count):
    """An arm that runs *count* serial property reads through *bridge*."""
    bridge.execute(GatewayOp("advance", value=2_000_000_000),
                   timeout=300.0)
    targets = []
    for entry in bridge.execute(GatewayOp("list")).body["things"]:
        thing = int(entry["id"].rsplit(":", 1)[1])
        for prop in bridge.execute(
                GatewayOp("td", thing=thing)).body.get("properties", ()):
            if bridge.execute(GatewayOp("read", thing=thing,
                                         name=prop)).status == 200:
                targets.append((thing, prop))
        if len(targets) >= 16:
            break

    def arm():
        for n in range(count):
            thing, prop = targets[n % len(targets)]
            bridge.execute(GatewayOp("read", thing=thing, name=prop),
                           timeout=60.0)
    return arm


@contextmanager
def reliability_gate():
    yield (fleet(METRO.scaled(reliability=False)),
           fleet(METRO.scaled(reliability=True)))


def _loop(body, iterations=2_000):
    """Countdown loop: slot 7 runs *iterations* times around *body*."""
    body_code = _encode(*body)
    return _encode(
        _i(Op.PUSH16, iterations), _i(Op.STG, 7),
        *body,
        _i(Op.DECG, 7),
        _i(Op.JNZS, -(len(body_code) + 4)),
        _i(Op.RET),
    )


#: Synthetic handlers dominated by different instruction classes.
HANDLERS = {
    "control": (_loop(()), 1),
    "arithmetic": (_loop((
        _i(Op.LDG, 0), _i(Op.PUSH8, 3), _i(Op.MUL), _i(Op.PUSH8, 7),
        _i(Op.ADD), _i(Op.LDP, 0), _i(Op.BXOR), _i(Op.STG, 0),
    )), 0x5A5A),
    "memory": (_loop((
        _i(Op.LDG, 7), _i(Op.PUSH8, 7), _i(Op.BAND), _i(Op.DUP),
        _i(Op.LDE, 8), _i(Op.PUSH1), _i(Op.ADD), _i(Op.STE, 8),
    )), 1),
}


def _handler(mode, code, arg):
    image = _image_for(code, n_params=1)
    vm = VirtualMachine(mode=mode)
    instance = DriverInstance(image)
    return lambda: vm.execute(instance, image.handlers[0], (arg,))


def vm_handler_gate(name):
    @contextmanager
    def gate():
        code, arg = HANDLERS[name]
        yield _handler("reference", code, arg), _handler("fast", code, arg)
    return gate


@contextmanager
def vm_fleet_gate():
    yield fleet(METRO, "reference"), fleet(METRO, "fast")


#: name -> (bound, gate); a gate yields its (baseline, measured) arms.
GATES = {
    "obs": (0.02, obs_gate),
    "telemetry": (0.03, telemetry_gate),
    "profile": (0.03, profile_gate),
    "profile-fast": (0.03, profile_fast_gate),
    "gateway-obs": (0.03, gateway_obs_gate),
    "reliability": (0.10, reliability_gate),
    **{f"vm-{name}": (0.0, vm_handler_gate(name)) for name in HANDLERS},
    "vm-fleet": (0.0, vm_fleet_gate),
}


# --------------------------------------------------------------- the A/B
def run(arm, seconds):
    """Repeat *arm* until *seconds* have passed; (elapsed, repeats)."""
    count, started = 0, time.perf_counter()
    while True:
        arm()
        count += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return elapsed, count


def compare(baseline, measured):
    """Paired ratios measured/baseline of the time per repetition.

    Within a pair the arms take turns of at least ``SLICE_S`` until
    each has run for ``MIN_WALL_S``.  A turn's time per repetition is
    one sample, and the pair's ratio is that of the arms' median
    samples, so a stall of the host that hits one turn moves neither.
    """
    arms = (baseline, measured)
    for arm in arms:
        run(arm, MIN_WALL_S)
    ratios = []
    for pair in range(PAIRS):
        samples = {arm: [] for arm in arms}
        spent = dict.fromkeys(arms, 0.0)
        while min(spent.values()) < MIN_WALL_S:
            for arm in (arms if pair % 2 == 0 else arms[::-1]):
                elapsed, count = run(arm, SLICE_S)
                samples[arm].append(elapsed / count)
                spent[arm] += elapsed
        ratios.append(statistics.median(samples[measured])
                      / statistics.median(samples[baseline]))
    return ratios


def judge(name, bound, ratios):
    """Print one gate's line; True unless the gate fails."""
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    median = statistics.median(ratios)
    slower = sum(ratio > 1.0 for ratio in ratios)
    failed = slower >= FAIL_PAIRS and median > 1.0 + bound
    verdict = ("FAIL" if failed
               else "unresolved" if q3 - q1 > bound and q3 > 1.0 + bound
               else "pass")
    print(f"{name:<14} bound {bound:>4.0%}  median {median:.3f}  "
          f"IQR {q1:.3f}-{q3:.3f}  slower {slower}/{len(ratios)}  "
          f"{verdict}", flush=True)
    return not failed


def main() -> int:
    print(f"{PAIRS} alternating pairs per gate, each arm at least "
          f"{MIN_WALL_S} s per pair; Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs", flush=True)
    failed = []
    for name, (bound, gate) in GATES.items():
        with gate() as (baseline, measured):
            ratios = compare(baseline, measured)
        if not judge(name, bound, ratios):
            failed.append(name)
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
