"""Unit tests: the shard profiler's collectors, merge and digest.

Uses a bare Simulator wrapped in a minimal fake deployment so event
and idle-gap attribution can be asserted against hand-scheduled
workloads, plus synthetic shard snapshots to pin the merge algebra
(associativity, shard-order independence, wall-plane exclusion).
"""

from __future__ import annotations

import pytest

from repro.obs.tracer import install_tracer
from repro.profile.collector import (
    ShardProfiler,
    deterministic_view,
    layer_for,
    merge_profiles,
    merged_periodic_names,
    profile_digest,
)
from repro.profile.config import ProfileConfig
from repro.sim.kernel import NS_PER_MS, Simulator
from repro.snapshot.codec import dumps_state, loads_state


class _FakeSpec:
    index = 0


class _FakeDeployment:
    """Just enough deployment for a ShardProfiler without VM things."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.spec = _FakeSpec()
        self.things = []


def _profiled(config=None):
    deployment = _FakeDeployment()
    profiler = ShardProfiler(deployment, config or ProfileConfig())
    return deployment.sim, profiler


# ------------------------------------------------------------------ config
def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        ProfileConfig(idle_threshold_ns=0)
    with pytest.raises(ValueError):
        ProfileConfig(events=False, vm=False, idle=False)
    with pytest.raises(ValueError):
        ProfileConfig(periodic_max_delays=0)


# ------------------------------------------------------------------ layers
def test_layer_for_maps_known_prefixes_and_protocol_markers():
    assert layer_for("fleet-read") == "workload"
    assert layer_for("router-dispatch") == "vm"
    assert layer_for("stack-send") == "net"
    assert layer_for("uart-tx-done") == "hw"
    assert layer_for("telemetry-sample") == "telemetry"
    assert layer_for("client-retransmit") == "protocol"
    assert layer_for("whatever") == "kernel"


# ------------------------------------------------------------ event counts
def test_profiler_counts_events_and_attributes_sim_gaps():
    sim, profiler = _profiled()
    sim.schedule(10, lambda: None, name="a")
    sim.schedule(30, lambda: None, name="b")
    sim.run()
    snap = profiler.snapshot()
    assert snap["events"]["a"]["count"] == 1
    assert snap["events"]["b"]["count"] == 1
    assert snap["events"]["a"]["sim_gap_ns"] == 10
    assert snap["events"]["b"]["sim_gap_ns"] == 20  # 30 - 10
    assert snap["events"]["a"]["wall_ns"] > 0


def test_attach_shadows_and_detach_restores_the_kernel_hot_paths():
    sim, profiler = _profiled()
    assert sim.step.__func__ is Simulator._observed_step
    assert sim.schedule_at.__func__ is Simulator._observed_schedule_at
    profiler.detach()
    assert sim.step.__func__ is Simulator.step
    assert sim.profiler is None
    # Data recorded before detach stays readable.
    assert profiler.snapshot()["shard"] == 0


@pytest.mark.parametrize("first", ["tracer", "profiler"])
def test_tracer_and_profiler_compose_on_one_observed_pair(first):
    sim, profiler = _profiled()
    tracer = install_tracer(sim)
    seen = []

    def leaf():
        seen.append(tracer.current)

    def root():
        tracer.current = tracer.new_trace()
        sim.schedule(10, leaf, name="leaf")

    def burst():
        sim.schedule(0, root, name="root")
        sim.run()

    def bound():
        return (sim.step.__func__ is Simulator._observed_step,
                sim.schedule_at.__func__ is Simulator._observed_schedule_at)

    burst()
    assert seen == [1]
    assert profiler.snapshot()["events"]["leaf"]["count"] == 1
    assert bound() == (True, True)

    if first == "tracer":
        sim.detach_tracer()
    else:
        profiler.detach()
    assert bound() == (True, True)
    burst()
    # The remaining observer still sees everything it observes.
    if first == "tracer":
        # Nothing resets the context any more: it leaks past the run.
        assert tracer.current == 2
        assert profiler.snapshot()["events"]["leaf"]["count"] == 2
    else:
        assert tracer.current is None
        assert seen == [1, 2]
        assert profiler.snapshot()["events"]["leaf"]["count"] == 1

    if first == "tracer":
        profiler.detach()
    else:
        sim.detach_tracer()
    assert bound() == (False, False)
    burst()
    assert profiler.snapshot()["events"]["leaf"]["count"] == \
        (2 if first == "tracer" else 1)


def test_checkpoint_restore_rebinds_the_observed_pair():
    sim, profiler = _profiled()
    tracer = install_tracer(sim)
    sim.schedule(5, lambda: None, name="pending")
    clone, clone_profiler, clone_tracer = loads_state(
        dumps_state((sim, profiler, tracer)))
    assert "step" not in sim.snapshot_state()
    assert clone.step.__func__ is Simulator._observed_step
    assert clone.schedule_at.__func__ is Simulator._observed_schedule_at
    assert clone.tracer is clone_tracer
    assert clone.profiler is clone_profiler
    seen = []

    def root():
        clone_tracer.current = clone_tracer.new_trace()
        clone.schedule(1, lambda: seen.append(clone_tracer.current),
                       name="leaf")

    clone.schedule(0, root, name="root")
    clone.run()
    assert seen == [1]
    events = clone_profiler.snapshot()["events"]
    assert events["pending"]["count"] == events["leaf"]["count"] == 1


# --------------------------------------------------------------- idle gaps
def test_idle_windows_charge_the_event_ending_the_gap():
    sim, profiler = _profiled(ProfileConfig(idle_threshold_ns=NS_PER_MS))
    sim.schedule(5 * NS_PER_MS, lambda: None, name="wakeup")
    sim.schedule(5 * NS_PER_MS + 10, lambda: None, name="follow")
    sim.run()
    snap = profiler.snapshot()
    by_name = snap["idle"]["by_name"]
    assert by_name == {"wakeup": {"windows": 1, "idle_ns": 5 * NS_PER_MS}}
    assert snap["idle"]["gap_count"] == 2  # both gaps histogrammed
    assert snap["idle"]["gap_total_ns"] == 5 * NS_PER_MS + 10


def test_periodic_classification_needs_few_delays_and_enough_firings():
    sim, profiler = _profiled(
        ProfileConfig(periodic_min_count=4, periodic_max_delays=2))
    # Fixed-interval periodic task: one distinct delay, many firings.
    handle = sim.every(NS_PER_MS, lambda: None, name="tick")
    # Aperiodic: distinct delay every time, same firing count.
    for index in range(8):
        sim.schedule(index * NS_PER_MS + index + 1, lambda: None,
                     name="jittery")
    sim.run_until(8 * NS_PER_MS)
    handle.cancel()
    assert profiler.periodic_names() == ["tick"]
    snap = profiler.snapshot()
    assert snap["schedule_delays"]["tick"]["delays"] == [NS_PER_MS]
    assert len(snap["schedule_delays"]["jittery"]["delays"]) > 2


# ------------------------------------------------------------------- merge
def _synthetic_snapshot(shard: int, count: int) -> dict:
    sim, profiler = _profiled()
    profiler.shard = shard
    for index in range(count):
        sim.schedule(index * 10 + 1, lambda: None, name="work")
    sim.run()
    return profiler.snapshot()


def test_merge_is_shard_order_independent_on_the_deterministic_plane():
    a = _synthetic_snapshot(0, 3)
    b = _synthetic_snapshot(1, 5)
    forward = merge_profiles([a, b])
    backward = merge_profiles([b, a])
    assert profile_digest(forward) == profile_digest(backward)
    assert forward["events"]["work"]["count"] == 8
    assert forward["shards"] == [0, 1]


def test_merge_skips_missing_shards_and_sums_idle_totals():
    a = _synthetic_snapshot(0, 2)
    merged = merge_profiles([None, a, None])
    assert merged["shards"] == [0]
    assert merged["idle"]["sim_time_total_ns"] == a["idle"]["sim_now_ns"]


# ------------------------------------------------------------------ digest
def test_digest_ignores_wall_clock_but_not_counts():
    a = _synthetic_snapshot(0, 4)
    b = _synthetic_snapshot(0, 4)  # same schedule, different wall times
    assert a["events"]["work"]["wall_ns"] != b["events"]["work"]["wall_ns"] \
        or True  # wall times may coincide; digest equality is the contract
    assert profile_digest(merge_profiles([a])) == \
        profile_digest(merge_profiles([b]))
    c = _synthetic_snapshot(0, 5)
    assert profile_digest(merge_profiles([a])) != \
        profile_digest(merge_profiles([c]))


def test_deterministic_view_strips_wall_keys_recursively():
    document = {
        "events": {"x": {"count": 1, "wall_ns": 5, "wall_hist": {}}},
        "nested": [{"wall_ns": 2, "keep": 3}],
    }
    view = deterministic_view(document)
    assert view == {"events": {"x": {"count": 1}}, "nested": [{"keep": 3}]}


def test_merged_periodic_names_round_trips_through_the_merge():
    sim, profiler = _profiled()
    handle = sim.every(NS_PER_MS, lambda: None, name="beat")
    sim.run_until(10 * NS_PER_MS)
    handle.cancel()
    merged = merge_profiles([profiler.snapshot()])
    assert "beat" in merged_periodic_names(merged)


# -------------------------------------------------------------- checkpoint
def test_profiler_state_round_trips_through_pickle():
    import pickle

    sim, profiler = _profiled()
    sim.schedule(7, lambda: None, name="x")
    sim.run()
    clone = pickle.loads(pickle.dumps(profiler))
    assert deterministic_view(clone.snapshot()) == \
        deterministic_view(profiler.snapshot())
