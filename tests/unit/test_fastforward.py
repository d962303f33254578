"""Unit tests for the kernel's closed-form idle fast-forward tier.

Every test here is a parity test at heart: a fast-forwarded run must be
indistinguishable — counts, float accumulators, clock, sequence
counter, pending events, subsequent event order — from the same run
stepped event by event.  The only observable difference permitted is
the ``ff_windows``/``ff_events`` statistics.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs.tracer import install_tracer
from repro.profile.collector import ShardProfiler
from repro.profile.config import ProfileConfig
from repro.sim.kernel import NS_PER_MS, Simulator
from repro.snapshot.codec import dumps_state, loads_state


class Sampler:
    """A certified periodic task: LCG state + float accumulator, with a
    bulk variant whose cumulative effect is bit-exact."""

    def __init__(self, seed: int) -> None:
        self.x = seed & 0x7FFFFFFF
        self.count = 0
        self.total = 0
        self.energy = 0.0

    def tick(self) -> None:
        self.x = (self.x * 1103515245 + 12345) & 0x7FFFFFFF
        self.count += 1
        self.total += self.x >> 20
        self.energy += 1.8e-6

    def apply(self, n: int) -> None:
        x = self.x
        total = self.total
        energy = self.energy
        for _ in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += x >> 20
            energy += 1.8e-6
        self.x = x
        self.count += n
        self.total = total
        self.energy = energy

    def state(self) -> tuple:
        return (self.x, self.count, self.total, self.energy)


def _world(*, fast_forward: bool, barrier_ms: int = 50,
           cancel_at: int = 0):
    """A small duty-cycled world: two independent certified samplers,
    one ordered certified observer, one uncertified barrier chain."""
    sim = Simulator()
    a = Sampler(11)
    b = Sampler(23)
    observations = []
    barriers = []

    sim.every(7 * NS_PER_MS, a.tick, name="sampler-a",
              fast_forward=True, bulk=a.apply)
    handle_b = sim.every(13 * NS_PER_MS, b.tick, name="sampler-b",
                         fast_forward=True, bulk=b.apply)

    def observe():
        observations.append((sim.now_ns, a.count, b.count, a.total))
        if cancel_at and len(observations) == cancel_at:
            handle_b.cancel()

    sim.every(29 * NS_PER_MS, observe, name="observer",
              fast_forward=True, independent=False)

    def barrier():
        barriers.append(sim.now_ns)
        sim.schedule(barrier_ms * NS_PER_MS, barrier, name="barrier")

    sim.schedule(barrier_ms * NS_PER_MS, barrier, name="barrier")
    if fast_forward:
        sim.enable_fast_forward()
    return sim, a, b, observations, barriers


def _observable(sim, a, b, observations, barriers) -> tuple:
    return (sim.now_ns, sim._seq, sim.pending_count(),
            a.state(), b.state(), observations, barriers)


def _attach_profiler(sim) -> None:
    deployment = SimpleNamespace(sim=sim, spec=SimpleNamespace(index=0),
                                 things=[])
    ShardProfiler(deployment, ProfileConfig())


def _hook(seen: list):
    return lambda t, name: seen.append(1)


def _bulk(seen: list):
    return lambda t, name, n: seen.append(n)


#: (observer, attach(sim, seen), needs_per_event): the stand-down table.
OBSERVERS = [
    ("no-observer", lambda sim, seen: None, False),
    ("profiler", lambda sim, seen: _attach_profiler(sim), False),
    ("bulk-hook", lambda sim, seen: sim.add_trace_hook(
        _hook(seen), bulk=_bulk(seen)), False),
    ("per-event-hook", lambda sim, seen: sim.add_trace_hook(_hook(seen)),
     True),
    ("tracer", lambda sim, seen: install_tracer(sim), True),
]


@pytest.mark.parametrize("attach, needs_per_event",
                         [o[1:] for o in OBSERVERS],
                         ids=[o[0] for o in OBSERVERS])
def test_fast_forward_matches_stepping_exactly(attach, needs_per_event):
    horizon = 2_000 * NS_PER_MS
    off = _world(fast_forward=False)
    on = _world(fast_forward=True)
    seen: list = []
    attach(on[0], seen)
    assert on[0].needs_per_event is needs_per_event
    stepped = off[0].run_until(horizon)
    assert on[0].run_until(horizon) == stepped
    assert _observable(*on) == _observable(*off)
    assert (on[0].ff_windows > 0) is not needs_per_event
    assert (on[0].ff_events > 0) is not needs_per_event
    assert off[0].ff_windows == 0
    if seen:
        # A hook sees every event, skipped ones through its bulk variant.
        assert sum(seen) == stepped


def test_fast_forward_preserves_future_event_order():
    # After identical horizons, the next events must pop in the same
    # (time, seq) order — the sequence counter emulation is exact.
    horizon = 500 * NS_PER_MS
    worlds = [_world(fast_forward=ff) for ff in (False, True)]
    orders = []
    for sim, *_ in worlds:
        sim.run_until(horizon)
        # Step the continuation event-by-event in both worlds so the
        # recorded (time, name) stream is directly comparable.
        sim._ff_enabled = False
        popped = []
        sim.add_trace_hook(
            lambda t, name, log=popped: log.append((t, name)),
            bulk=lambda t, name, n, log=popped: log.append((t, name, n)))
        sim.run_until(horizon + 100 * NS_PER_MS)
        orders.append(popped)
    assert orders[0] == orders[1]


def test_ordered_observer_sees_merged_order_inside_windows():
    # The observer reads both samplers' counters; every observation must
    # reflect exactly the occurrences at strictly earlier (time, seq).
    off = _world(fast_forward=False, barrier_ms=400)
    on = _world(fast_forward=True, barrier_ms=400)
    off[0].run_until(1_200 * NS_PER_MS)
    on[0].run_until(1_200 * NS_PER_MS)
    assert on[3] == off[3]
    assert on[0].ff_windows > 0


def test_cancel_during_skip_stops_cancelled_handle_exactly():
    # The ordered observer cancels sampler-b mid-window: occurrences of
    # b past the cancellation instant must not be applied, even though
    # the window was planned before the cancel ran.
    horizon = 1_500 * NS_PER_MS
    off = _world(fast_forward=False, cancel_at=10)
    on = _world(fast_forward=True, cancel_at=10)
    off[0].run_until(horizon)
    on[0].run_until(horizon)
    assert _observable(*on) == _observable(*off)
    assert on[0].ff_windows > 0
    # b really was cancelled mid-run, not at the end.
    assert on[2].count < on[1].count


def test_cancelled_before_window_never_fires():
    sim = Simulator()
    s = Sampler(5)
    handle = sim.every(NS_PER_MS, s.tick, name="s",
                       fast_forward=True, bulk=s.apply)
    sim.enable_fast_forward()
    handle.cancel()
    sim.run_until(100 * NS_PER_MS)
    assert s.count == 0
    assert sim.ff_events == 0


def test_cohort_and_exact_paths_agree(monkeypatch):
    # Force the per-occurrence emulation path and compare against the
    # cohort-compressed planner on a cohort-friendly world (many
    # same-interval handles registered back to back).
    def build(exact_only: bool):
        sim = Simulator()
        samplers = [Sampler(3 + i) for i in range(8)]
        for i, s in enumerate(samplers):
            sim.every(5 * NS_PER_MS, s.tick, name=f"s{i}",
                      fast_forward=True, bulk=s.apply)
        chain = []

        def barrier():
            chain.append(sim.now_ns)
            sim.schedule(120 * NS_PER_MS, barrier, name="barrier")

        sim.schedule(120 * NS_PER_MS, barrier, name="barrier")
        sim.enable_fast_forward()
        if exact_only:
            monkeypatch.setattr(
                Simulator, "_ff_cohorts",
                lambda self, *args, **kwargs: None)
        sim.run_until(1_000 * NS_PER_MS)
        monkeypatch.undo()
        return (sim.now_ns, sim._seq, sim.pending_count(),
                [s.state() for s in samplers], chain,
                sim.ff_windows, sim.ff_events)

    assert build(False) == build(True)


def test_suppression_marker_keeps_tiny_windows_correct():
    # Barriers every 3 ms against a 2 ms sampler: windows are tiny, so
    # the suppression marker engages; results must still match stepping.
    def build(ff: bool):
        sim = Simulator()
        s = Sampler(7)
        sim.every(2 * NS_PER_MS, s.tick, name="s",
                  fast_forward=True, bulk=s.apply)
        hits = []

        def barrier():
            hits.append(sim.now_ns)
            sim.schedule(3 * NS_PER_MS, barrier, name="barrier")

        sim.schedule(3 * NS_PER_MS, barrier, name="barrier")
        if ff:
            sim.enable_fast_forward()
        sim.run_until(200 * NS_PER_MS)
        return (sim.now_ns, sim._seq, s.state(), hits)

    assert build(True) == build(False)


def _queue_keys(sim) -> list:
    return sorted((t, s, ev.name) for t, s, ev in sim._queue
                  if not ev.cancelled)


@pytest.mark.parametrize("stop_after", [1, 3, 8])
def test_until_on_a_barrier_event_matches_stepping(stop_after):
    # The predicate flips on an uncertified (barrier) event, so no
    # window may run past it: state, the sequence counter and every
    # re-pushed (time, seq) key must equal plain stepping's.
    horizon = 2_000 * NS_PER_MS
    worlds = [_world(fast_forward=ff) for ff in (False, True)]
    for sim, _, _, _, barriers in worlds:
        sim.run_until(horizon,
                      until=lambda b=barriers: len(b) >= stop_after)
        assert sim.now_ns == stop_after * 50 * NS_PER_MS
    off, on = worlds
    assert _observable(*on) == _observable(*off)
    assert _queue_keys(on[0]) == _queue_keys(off[0])
    assert on[0].ff_windows > 0
    # And the two continue identically to the horizon.
    off[0].run_until(horizon)
    on[0].run_until(horizon)
    assert _observable(*on) == _observable(*off)
    assert _queue_keys(on[0]) == _queue_keys(off[0])


def test_until_is_checked_after_each_applied_window():
    # A predicate over certified state is seen at window granularity:
    # the run returns after the window that made it true, with the
    # clock at that window's last occurrence rather than the target.
    sim = Simulator()
    s = Sampler(5)
    sim.every(7 * NS_PER_MS, s.tick, name="s",
              fast_forward=True, bulk=s.apply)
    sim.enable_fast_forward()
    sim.run_until(1_000 * NS_PER_MS, until=lambda: s.count > 0)
    assert sim.ff_windows == 1
    assert s.count == 142
    assert sim.now_ns == 994 * NS_PER_MS


def test_max_events_disables_fast_forward():
    sim, *_ = _world(fast_forward=True)
    sim.run_until(500 * NS_PER_MS, max_events=10_000)
    assert sim.ff_windows == 0


def test_uncertified_queue_never_fast_forwards():
    sim = Simulator()
    count = [0]
    sim.every(NS_PER_MS, lambda: count.__setitem__(0, count[0] + 1),
              name="plain")
    sim.enable_fast_forward()
    sim.run_until(50 * NS_PER_MS)
    assert sim.ff_windows == 0
    assert count[0] == 50


def test_checkpoint_mid_run_rederives_windows():
    # Snapshot a fast-forwarding world mid-run, restore it, and finish:
    # the resumed half must re-derive its own windows and land on the
    # same observable state as the uninterrupted run.
    full = _world(fast_forward=True)
    full[0].run_until(2_000 * NS_PER_MS)

    half = _world(fast_forward=True)
    sim, a, b, observations, barriers = half
    sim.run_until(730 * NS_PER_MS)
    restored_sim, restored_a, restored_b, restored_obs, restored_bar = (
        loads_state(dumps_state((sim, a, b, observations, barriers))))
    restored_sim.run_until(2_000 * NS_PER_MS)
    assert _observable(restored_sim, restored_a, restored_b,
                       restored_obs, restored_bar) == _observable(*full)
    assert restored_sim.ff_windows > sim.ff_windows


def test_periodic_handle_restores_from_pre_ff_checkpoints():
    # __setstate__ must default the certification slots when they are
    # absent (checkpoints written before the fast-forward tier).
    sim = Simulator()
    handle = sim.every(NS_PER_MS, lambda: None, name="old")
    state = handle.__reduce_ex__(2)
    handle.__setstate__((None, {"_interval_ns": 42}))
    assert handle._ff is False
    assert handle._independent is True
    assert handle._bulk is None
    assert handle._interval_ns == 42
    assert state  # silences the unused-variable lint

def test_stochastic_chains_act_as_ff_barriers():
    # Pins the fast-forward tier's structural limitation: a plain
    # (uncertified) self-rescheduling chain — the shape of the fleet's
    # churn/read/discovery processes, whose RNG draws cannot be
    # certified — bounds every candidate window.  When such a chain
    # fires more often than the certified period, no window ever fits
    # a certified event and the kernel must skip nothing, while still
    # matching the stepped run exactly.
    def build(ff: bool):
        sim = Simulator()
        sampler = Sampler(31)
        sim.every(5 * NS_PER_MS, sampler.tick, name="certified",
                  fast_forward=True, bulk=sampler.apply)
        state = [77]
        fires = []

        def stochastic():
            # LCG-driven pseudo-random gap in [1, 4] ms, like churn.
            state[0] = (state[0] * 1103515245 + 12345) & 0x7FFFFFFF
            fires.append(sim.now_ns)
            gap = NS_PER_MS * (1 + state[0] % 4)
            sim.schedule(gap, stochastic, name="stochastic")

        sim.schedule(NS_PER_MS, stochastic, name="stochastic")
        if ff:
            sim.enable_fast_forward()
        sim.run_until(1_000 * NS_PER_MS)
        return sim, sampler, fires

    on_sim, on_sampler, on_fires = build(True)
    off_sim, off_sampler, off_fires = build(False)
    assert on_sampler.state() == off_sampler.state()
    assert on_fires == off_fires
    assert (on_sim.now_ns, on_sim._seq) == (off_sim.now_ns, off_sim._seq)
    # The limitation itself: every window is cut short by the next
    # stochastic event, so nothing was skippable.
    assert on_sim.ff_windows == 0
    assert on_sim.ff_events == 0


def test_fleet_shard_ff_is_starved_by_churn_processes():
    # The same limitation observed at fleet scale: a gateway-hosted
    # shard with fast-forward enabled still executes nearly every event
    # one at a time, because the churn/discovery/read chains are
    # uncertified barriers scattered through the timeline.  This is the
    # measured reason `repro.gateway` free pacing cannot cheaply leap
    # the fleet between requests — if chain certification ever lands,
    # this pin should break and be renegotiated.
    from repro.fleet.scenario import SCENARIOS
    from repro.fleet.deployment import ShardDeployment

    scenario = SCENARIOS["gateway"].scaled(
        things=4, shard_size=4, seed=9, fast_forward=True)
    deployment = ShardDeployment(scenario.shards()[0])
    deployment.start()
    sim = deployment.sim
    assert sim._ff_enabled
    executed = sim.run_until(5_000 * NS_PER_MS)
    assert executed > 0
    # Fewer than 2% of events were analytically skipped: the certified
    # load (telemetry sampling) is starved of windows by the chains.
    assert sim.ff_events <= 0.02 * (executed + sim.ff_events)
