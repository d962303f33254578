"""Unit tests for the kernel's closed-form idle fast-forward tier.

Every test here is a parity test at heart: a fast-forwarded run must be
indistinguishable — counts, float accumulators, clock, sequence
counter, pending events, subsequent event order — from the same run
stepped event by event.  The only observable difference permitted is
the ``ff_windows``/``ff_events`` statistics.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs.tracer import install_tracer
from repro.profile.collector import ShardProfiler
from repro.profile.config import ProfileConfig
from repro.sim.kernel import (
    NS_PER_MS,
    PeriodicHandle,
    SimulationError,
    Simulator,
)
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
    """A small duty-cycled world: two certified samplers, one plain
    observer reading both, one plain barrier chain."""
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

    sim.every(29 * NS_PER_MS, observe, name="observer")

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


def test_plain_observer_sees_exact_state_between_windows():
    # The observer reads both samplers' counters; its events end
    # windows, so every observation must reflect exactly the
    # occurrences at strictly earlier (time, seq).
    off = _world(fast_forward=False, barrier_ms=400)
    on = _world(fast_forward=True, barrier_ms=400)
    off[0].run_until(1_200 * NS_PER_MS)
    on[0].run_until(1_200 * NS_PER_MS)
    assert on[3] == off[3]
    assert on[0].ff_windows > 0


def test_cancel_during_skip_stops_cancelled_handle_exactly():
    # The observer cancels sampler-b between two windows: occurrences of
    # b past the cancellation instant must not be applied, and the next
    # window must drop b's cohort member.
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
    # The fleet-duty shape: 2 ms and 4 ms handles registered back to
    # back, so every window holds two cohorts whose rounds tie at each
    # 4 ms instant.  The closed-form cohort path must match plain
    # stepping, and so must a run whose every window is declined by
    # the ranking (run_until steps those).
    def build(mode: str):
        sim = Simulator()
        samplers = [Sampler(3 + i) for i in range(10)]
        for i, s in enumerate(samplers):
            sim.every((2 if i < 6 else 4) * NS_PER_MS, s.tick,
                      name=f"s{i}", fast_forward=True, bulk=s.apply)
        chain = []

        def barrier():
            chain.append(sim.now_ns)
            sim.schedule(121 * NS_PER_MS, barrier, name="barrier")

        sim.schedule(121 * NS_PER_MS, barrier, name="barrier")
        if mode != "stepped":
            sim.enable_fast_forward()
        if mode == "exact":
            monkeypatch.setattr(
                Simulator, "_ff_rank", lambda *args: False)
        sim.run_until(1_000 * NS_PER_MS)
        monkeypatch.undo()
        return ((sim.now_ns, sim._seq, sim.pending_count(),
                 [s.state() for s in samplers], chain, _queue_keys(sim)),
                (sim.ff_windows, sim.ff_events))

    cohort, exact, stepped = (build(m) for m in
                              ("cohort", "exact", "stepped"))
    assert cohort[0] == exact[0] == stepped[0]
    assert exact[1] == (0, 0)
    assert cohort[1][0] > 0


def closed_form_cohorts(cohorts, window_end, seq):
    """The kernel's closed-form plan (:meth:`Simulator._ff_rank`, then
    :meth:`Simulator._ff_plan`) for a window's ``(interval, first
    fire) -> items`` dict, in the shape :func:`heap_cohorts` returns;
    None when the ranking declines."""
    records = [[0, interval, t0, members, None, None]
               for (interval, t0), members in cohorts.items()]
    if not Simulator._ff_rank(records):
        return None
    end_seq, planned = Simulator._ff_plan(records, window_end, seq)
    return end_seq, [(rec[3], rec[1], rounds, last, base)
                     for rec, rounds, last, base in planned]


def heap_cohorts(cohorts, window_end, seq):
    """Reference cohort plan: one heap transaction per cohort round,
    keyed (time, block base) exactly as merged stepping orders the
    rounds.  The oracle for :func:`closed_form_cohorts`, which
    computes the same plan in closed form."""
    metas = []
    ranges = []
    for (interval, t0), members in cohorts.items():
        members = sorted(members, key=lambda it: it[1])
        # meta: [interval, members in seq order, rounds,
        #        last allocation base, last fire]
        metas.append([interval, members, 0, 0, 0])
        ranges.append((members[0][1], members[-1][1], t0, len(metas) - 1))
    ranges.sort()
    prev_hi = -1
    heap = []
    for lo, hi, t0, k in ranges:
        if lo <= prev_hi:
            return None
        prev_hi = hi
        heap.append((t0, lo, k))
    heapq.heapify(heap)
    while heap:
        t, _, k = heapq.heappop(heap)
        meta = metas[k]
        base = seq
        seq += len(meta[1])
        meta[2] += 1
        meta[3] = base
        meta[4] = t
        nt = t + meta[0]
        if nt <= window_end:
            heapq.heappush(heap, (nt, base, k))
    return seq, [(members, interval, rounds, last, base)
                 for interval, members, rounds, base, last in metas]


def _window_cohorts(items, window_end) -> dict:
    """The plan's input, grouped as the kernel groups a window: items
    due in the window by (interval, first fire); a cancelled handle's
    event is a tombstone the kernel's scan never collects."""
    cohorts: dict = {}
    for item in items:
        t, _, _, h = item
        if t <= window_end and not h._cancelled:
            cohorts.setdefault((h._interval_ns, t), []).append(item)
    return cohorts


def _cohort_items(cohorts, order, gaps, cancelled):
    """Window items for *cohorts* ``[(interval, first_fire, members)]``,
    with seq blocks laid out contiguously in *order*, ``gaps[i]``
    unused seqs before the i-th block and the handles of the items
    numbered in *cancelled* cancelled; returns (items, next free seq)."""
    items = []
    s = 0
    for pos, k in enumerate(order):
        interval, t0, members = cohorts[k]
        s += gaps[pos]
        for _ in range(members):
            h = SimpleNamespace(_interval_ns=interval,
                                _cancelled=len(items) in cancelled)
            items.append((t0, s, SimpleNamespace(name=f"c{k}"), h))
            s += 1
    items.sort(key=lambda it: (it[0], it[1]))
    return items, s


def _both_cohort_paths(items, window_end, seq):
    """``(end seq or None, [counts, first fire, last fire, final key]
    per item)`` from the closed-form plan and from the heap oracle."""
    outs = []
    for plan in (closed_form_cohorts, heap_cohorts):
        lists = [[0] * len(items) for _ in range(3)] + [[None] * len(items)]
        out = plan(_window_cohorts(items, window_end), window_end, seq)
        if out is None:
            outs.append((None, lists))
            continue
        end_seq, planned = out
        index = {id(item): i for i, item in enumerate(items)}
        for members, interval, rounds, last, base in planned:
            for m, item in enumerate(members):
                i = index[id(item)]
                lists[0][i] = rounds
                lists[1][i] = item[0]
                lists[2][i] = last
                lists[3][i] = (last + interval, base + m)
        outs.append((end_seq, lists))
    return outs


cohort_layouts = st.lists(
    st.tuples(st.sampled_from([2, 3, 4, 6, 12]),
              st.integers(min_value=0, max_value=24),
              st.integers(min_value=1, max_value=4)),
    min_size=1, max_size=5)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), cohorts=cohort_layouts,
       span=st.integers(min_value=0, max_value=80),
       seq_gap=st.integers(min_value=0, max_value=50))
def test_closed_form_cohorts_match_heap_oracle(data, cohorts, span,
                                               seq_gap):
    # Same-interval-different-phase pairs: copy a drawn cohort's
    # interval onto a shifted phase.
    if data.draw(st.booleans(), label="phase_pair"):
        interval, t0, _ = cohorts[0]
        shift = data.draw(st.integers(min_value=1, max_value=3),
                          label="shift")
        cohorts.append((interval, t0 + shift * interval,
                        data.draw(st.integers(1, 4), label="members")))
    order = data.draw(st.permutations(range(len(cohorts))), label="order")
    gaps = data.draw(st.lists(st.integers(0, 3), min_size=len(cohorts),
                              max_size=len(cohorts)), label="gaps")
    cancelled = data.draw(st.sets(st.integers(0, 20), max_size=2),
                          label="cancelled")
    items, next_seq = _cohort_items(cohorts, order, gaps, cancelled)
    window_end = min(t for t, *_ in items) + span
    (got, got_lists), (want, want_lists) = _both_cohort_paths(
        items, window_end, next_seq + seq_gap)
    assert got == want
    assert got_lists == want_lists


def _interleaved(labels: list) -> bool:
    runs = 1 + sum(a != b for a, b in zip(labels, labels[1:]))
    return runs >= 3


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.tuples(st.sampled_from([2, 3, 4, 6, 12]),
                               st.integers(min_value=0, max_value=24)),
                     min_size=2, max_size=2, unique=True),
       labels=st.lists(st.sampled_from([0, 1]), min_size=3,
                       max_size=8).filter(_interleaved),
       span=st.integers(min_value=0, max_value=80),
       seq_gap=st.integers(min_value=0, max_value=50))
def test_interleaved_cohort_ranges_are_declined_by_both(keys, labels, span,
                                                        seq_gap):
    # Two cohorts in the window whose seq ranges interleave (labels in
    # seq order, e.g. 0 1 0): neither path may compress the window.
    items = []
    for s, k in enumerate(labels):
        interval, t0 = keys[k]
        items.append((t0, s, SimpleNamespace(name=f"c{k}"),
                      SimpleNamespace(_interval_ns=interval,
                                      _cancelled=False)))
    items.sort(key=lambda it: (it[0], it[1]))
    window_end = max(t0 for _, t0 in keys) + span
    outs = _both_cohort_paths(items, window_end, len(labels) + seq_gap)
    assert outs[0][0] is None
    assert outs[1][0] is None


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


def _entries(sim) -> list:
    """Every queued entry, main heap then lane."""
    return sim._queue + sim._lane


def _queue_keys(sim) -> list:
    return sorted((t, s, ev.name) for t, s, ev in _entries(sim)
                  if not ev.cancelled)


@pytest.mark.parametrize("stop_after", [1, 3, 8])
def test_until_on_a_barrier_event_matches_stepping(stop_after):
    # The predicate flips on an uncertified (barrier) event, so no
    # window may run past it: state, the sequence counter and every
    # re-keyed (time, seq) key must equal plain stepping's.
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
    assert not hasattr(handle, "_independent")
    assert handle._bulk is None
    assert handle._interval_ns == 42
    assert state  # silences the unused-variable lint


def test_ordered_handle_from_an_old_checkpoint_resumes_as_a_barrier(
        monkeypatch):
    # Checkpoints written while readers of shared state could still be
    # certified as ordered hold such a handle (the telemetry sampler)
    # in the lane, pickled with ``_independent=False``.  It restores as a
    # plain periodic whose queued event leaves the lane before any
    # window can skip it, so a resumed run with fast-forward on matches
    # stepping exactly.
    def build():
        sim = Simulator()
        s = Sampler(19)
        sim.every(7 * NS_PER_MS, s.tick, name="sampler",
                  fast_forward=True, bulk=s.apply)
        log = []
        observer = sim.every(
            29 * NS_PER_MS, lambda: log.append((sim.now_ns, s.count)),
            name="observer", fast_forward=True)

        def barrier():
            sim.schedule(450 * NS_PER_MS, barrier, name="barrier")

        sim.schedule(450 * NS_PER_MS, barrier, name="barrier")
        return sim, s, log, observer

    full = build()
    full[0].run_until(1_200 * NS_PER_MS)
    saved = build()
    saved[0].run_until(100 * NS_PER_MS)
    assert any(ev.ff is saved[3] for _, _, ev in saved[0]._lane)

    def v5_state(handle):
        slots = {name: getattr(handle, name)
                 for name in PeriodicHandle.__slots__
                 if hasattr(handle, name)}
        if handle is saved[3]:
            slots["_independent"] = False
        return None, slots

    monkeypatch.setattr(PeriodicHandle, "__getstate__", v5_state,
                        raising=False)
    blob = dumps_state(saved)
    monkeypatch.undo()
    resumed = []
    for ff in (True, False):
        sim, s, log, observer = loads_state(blob)
        assert observer._ff is False
        if ff:
            sim.enable_fast_forward()
        sim.run_until(1_200 * NS_PER_MS)
        _assert_lanes(sim)
        resumed.append((sim.now_ns, sim._seq, sim.pending_count(),
                        s.state(), log, _queue_keys(sim)))
        assert (sim.ff_windows > 0) is ff
    want = (full[0].now_ns, full[0]._seq, full[0].pending_count(),
            full[1].state(), full[2], _queue_keys(full[0]))
    assert resumed == [want, want]
    assert want[4][-2:] == [(1_160 * NS_PER_MS, 165), (1_189 * NS_PER_MS, 169)]


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


def _rekey_world(kind: str, ff: bool):
    """``(sim, certified handles, samplers)``.  ``cohort``: the
    fleet-duty shape, whose windows are cohort-accounted once stepping
    has linearized the seq ranges.  ``observed``: :func:`_world` with
    barriers far enough apart that the plain observer bounds most
    windows."""
    if kind == "observed":
        sim, a, b, _, _ = _world(fast_forward=ff, barrier_ms=400)
        samplers = [a, b]
    else:
        sim = Simulator()
        samplers = [Sampler(61 + i) for i in range(6)]
        for i, s in enumerate(samplers):
            sim.every((2 if i < 4 else 4) * NS_PER_MS, s.tick,
                      name=f"s{i}", fast_forward=True, bulk=s.apply)

        def barrier():
            sim.schedule(97 * NS_PER_MS, barrier, name="barrier")

        sim.schedule(97 * NS_PER_MS, barrier, name="barrier")
        if ff:
            sim.enable_fast_forward()
    handles = sorted((ev.ff for _, _, ev in _entries(sim) if ev.ff),
                     key=lambda h: h._handle._event.seq)
    return sim, handles, samplers


def _assert_handles_queued(sim, handles) -> None:
    """Every live handle's event is queued under the event's own key,
    each heap is a heap holding its own kind of event, and
    ``pending_count()`` is exact."""
    live = {id(ev): (t, s) for t, s, ev in _entries(sim)
            if not ev.cancelled}
    assert sim.pending_count() == len(live)
    for h in handles:
        ev = h._handle._event
        if not h.cancelled:
            assert live[id(ev)] == (ev.time_ns, ev.seq)
    _assert_lanes(sim)


def _spy_rekeying(sim, handles) -> list:
    """Check every applied window of *sim* re-keys in place.  Returns
    one entry per applied window: True when its seqs were
    cohort-accounted."""
    window = Simulator._fast_forward_window.__get__(sim)
    plan = Simulator._ff_plan
    paths: list = []

    def spy_plan(*args):
        paths[-1] = True
        return plan(*args)

    def cancelled(sim) -> set:
        return {id(ev) for _, _, ev in _entries(sim) if ev.cancelled}

    def spy_window(target_ns):
        tombstones = cancelled(sim)
        kept = [h._handle for h in handles]
        paths.append(None)
        applied = window(target_ns)
        if not applied:
            paths.pop()
            return 0
        # No tombstone is left behind (a window may pop or purge old
        # ones), and the counter stays exact.
        assert cancelled(sim) <= tombstones
        assert sim._tombstones == len(cancelled(sim))
        assert all(h._handle is handle  # kept its EventHandle
                   for h, handle in zip(handles, kept))
        _assert_handles_queued(sim, handles)
        return applied

    sim._fast_forward_window = spy_window
    sim._ff_plan = spy_plan
    return paths


@pytest.mark.parametrize("kind", ["cohort", "observed"])
def test_windows_rekey_certified_events_in_place(kind):
    on, on_handles, on_samplers = _rekey_world(kind, ff=True)
    off, off_handles, off_samplers = _rekey_world(kind, ff=False)
    paths = _spy_rekeying(on, on_handles)
    horizon = 1_000 * NS_PER_MS
    assert on.run_until(horizon) == off.run_until(horizon)
    assert paths and all(paths)
    assert on.pending_count() == off.pending_count()
    assert _queue_keys(on) == _queue_keys(off)
    # cancel() through the kept handle suppresses the next occurrence.
    counts = [s.count for s in on_samplers]
    for handles in (on_handles, off_handles):
        handles[0].cancel()
    assert on.pending_count() == off.pending_count()
    for sim in (on, off):
        sim.run_until(2 * horizon)
    assert on_samplers[0].count == counts[0]
    assert [s.state() for s in on_samplers] == \
        [s.state() for s in off_samplers]
    assert (on.now_ns, on._seq, on.pending_count()) == \
        (off.now_ns, off._seq, off.pending_count())
    assert _queue_keys(on) == _queue_keys(off)


def test_rekey_finds_events_after_a_mid_window_compaction():
    # The observer cancels a dozen far-future plain events at its
    # second firing, so _maybe_compact rebinds both heaps between two
    # windows; the re-keys after it must
    # find each handle's event where the rebuilt heaps put it.
    def build(ff: bool):
        sim = Simulator()
        samplers = [Sampler(5 + i) for i in range(3)]
        for i, s in enumerate(samplers):
            sim.every((i + 1) * NS_PER_MS, s.tick, name=f"s{i}",
                      fast_forward=True, bulk=s.apply)
        far = [sim.schedule(10_000 * NS_PER_MS, lambda: None, name="far")
               for _ in range(12)]
        observations = []

        def observe():
            observations.append([s.count for s in samplers])
            if len(observations) == 2:
                for handle in far:
                    handle.cancel()

        sim.every(7 * NS_PER_MS, observe, name="observer")
        if ff:
            sim.enable_fast_forward()
        return sim, samplers, observations

    on, on_samplers, on_obs = build(True)
    off, off_samplers, off_obs = build(False)
    handles = [ev.ff for _, _, ev in _entries(on) if ev.ff]
    heap = on._queue
    for sim in (on, off):
        sim.run_until(100 * NS_PER_MS)
    assert on.ff_windows > 2
    assert on._queue is not heap  # compacted between windows
    _assert_handles_queued(on, handles)
    assert on_obs == off_obs
    assert [s.state() for s in on_samplers] == \
        [s.state() for s in off_samplers]
    assert (on.now_ns, on._seq, on.pending_count()) == \
        (off.now_ns, off._seq, off.pending_count())
    assert _queue_keys(on) == _queue_keys(off)


def _named_world(ff: bool, log: list):
    """Mixed-name cohorts: each (interval, phase) cohort holds handles
    of two names, and each name spans two intervals.  The trace hook
    logs ``(t, name)`` per stepped event; with *ff*, its bulk variant
    logs ``(t, name, n)``."""
    sim = Simulator()
    samplers = [Sampler(71 + i) for i in range(8)]
    for i, s in enumerate(samplers):
        sim.every((2 if i % 4 < 2 else 6) * NS_PER_MS, s.tick,
                  name="even" if i % 2 == 0 else "odd",
                  fast_forward=True, bulk=s.apply)

    def barrier():
        sim.schedule(89 * NS_PER_MS, barrier, name="barrier")

    sim.schedule(89 * NS_PER_MS, barrier, name="barrier")
    sim.add_trace_hook(lambda t, name: log.append((t, name)),
                       bulk=lambda t, name, n: log.append((t, name, n)))
    if ff:
        sim.enable_fast_forward()
    return sim, samplers


def test_bulk_hooks_are_called_once_per_name_per_window():
    # A fused window calls a bulk hook once per event name, with the
    # name's summed count stamped at its last occurrence: per window
    # and in total, exactly the stepped run's per-event calls.
    horizon = 1_000 * NS_PER_MS
    stepped: list = []
    off, off_samplers = _named_world(False, stepped)
    off.run_until(horizon)

    log: list = []
    on, on_samplers = _named_world(True, log)
    window = Simulator._fast_forward_window.__get__(on)
    windows: list = []  # [start, end, planned, first log index]

    def spy_window(target_ns):
        # A window opens at the lane head.
        windows.append([on._lane[0][0], None, False, len(log)])
        applied = window(target_ns)
        windows[-1][1] = on.now_ns
        if not applied:
            windows.pop()
        return applied

    def spy_plan(*args):
        plan = Simulator._ff_plan(*args)
        windows[-1][2] = plan is not None
        return plan

    on._fast_forward_window = spy_window
    on._ff_plan = spy_plan
    on.run_until(horizon)
    assert [s.state() for s in on_samplers] == \
        [s.state() for s in off_samplers]
    assert len(windows) == on.ff_windows > 0
    assert sum(planned for _, _, planned, _ in windows) >= 5
    bounds = [w[3] for w in windows] + [len(log)]
    for (start, end, planned, _), lo, hi in zip(windows, bounds,
                                                bounds[1:]):
        bulk_calls = [call for call in log[lo:hi] if len(call) == 3]
        names = [name for _, name, _ in bulk_calls]
        if planned:
            assert sorted(names) == ["even", "odd"]
        for name in set(names):
            occurrences = [t for t, nm in stepped
                           if nm == name and start <= t <= end]
            assert sum(n for _, nm, n in bulk_calls
                       if nm == name) == len(occurrences)
            assert max(t for t, nm, _ in bulk_calls
                       if nm == name) == max(occurrences)
    totals: dict = {}
    for call in log:
        totals[call[1]] = totals.get(call[1], 0) + \
            (call[2] if len(call) == 3 else 1)
    want: dict = {}
    for _, name in stepped:
        want[name] = want.get(name, 0) + 1
    assert totals == want


@pytest.mark.parametrize("with_bulk", [True, False],
                         ids=["bulk", "callback"])
def test_applier_scheduling_in_a_fused_window_raises(with_bulk):
    # One cohort, so the window takes the fused path; the
    # applier (bulk or repeated callback) schedules work, which the
    # per-applier seq guard must catch and name.
    sim = Simulator()
    quiet = [Sampler(3 + i) for i in range(3)]
    for i, s in enumerate(quiet):
        sim.every(2 * NS_PER_MS, s.tick, name=f"quiet{i}",
                  fast_forward=True, bulk=s.apply)

    def sneak(*_):
        sim.schedule(NS_PER_MS, lambda: None, name="sneaked")

    sim.every(2 * NS_PER_MS, sneak, name="sneaky", fast_forward=True,
              bulk=sneak if with_bulk else None)
    sim.enable_fast_forward()
    plans: list = []
    sim._ff_plan = lambda *args: plans.append(
        Simulator._ff_plan(*args)) or plans[-1]
    with pytest.raises(SimulationError, match="'sneaky'"):
        sim.run_until(100 * NS_PER_MS)
    assert plans and plans[-1] is not None


def test_fused_rekey_survives_an_applier_compacting_the_heap():
    # An applier that cancels far-future work trips _maybe_compact in
    # the middle of the fused loop; every certified event must still
    # sit in the heap under its planned key, as under stepping.
    def build(ff: bool):
        sim = Simulator()
        samplers = [Sampler(13 + i) for i in range(4)]
        far = [sim.schedule(10_000 * NS_PER_MS, lambda: None, name="far")
               for _ in range(12)]

        def cancel_far(*_):
            for handle in far:
                handle.cancel()

        for i, s in enumerate(samplers):
            sim.every(3 * NS_PER_MS, s.tick, name=f"s{i}",
                      fast_forward=True, bulk=s.apply)
        sim.every(3 * NS_PER_MS, cancel_far, name="canceller",
                  fast_forward=True, bulk=cancel_far)
        for s in samplers[2:]:
            sim.every(5 * NS_PER_MS, s.tick, name="late",
                      fast_forward=True, bulk=s.apply)
        if ff:
            sim.enable_fast_forward()
        return sim, samplers

    on, on_samplers = build(True)
    off, off_samplers = build(False)
    heap = on._queue
    for sim in (on, off):
        sim.run_until(200 * NS_PER_MS)
    assert on.ff_windows > 0
    assert on._queue is not heap
    handles = [ev.ff for _, _, ev in _entries(on) if ev.ff]
    _assert_handles_queued(on, handles)
    assert [s.state() for s in on_samplers] == \
        [s.state() for s in off_samplers]
    assert (on.now_ns, on._seq, on.pending_count()) == \
        (off.now_ns, off._seq, off.pending_count())
    assert _queue_keys(on) == _queue_keys(off)


# ------------------------------------------------------------ lane suite
def _assert_lanes(sim) -> None:
    """Certified events queue only in the lane, plain ones only in the
    main heap, and each heap is a heap."""
    assert all(ev.ff is None for _, _, ev in sim._queue)
    assert all(ev.ff is not None for _, _, ev in sim._lane)
    for heap in (sim._queue, sim._lane):
        assert all(heap[(i - 1) // 2][:2] < heap[i][:2]
                   for i in range(1, len(heap)))


def _lane_world(spec: dict, ff: bool) -> SimpleNamespace:
    """A world drawn by :func:`lane_specs`: certified handles (samplers
    with or without a bulk applier, and plain periodic observers)
    registered at t=0 or later by plain events, plain barrier chains,
    far-future plain events that observers cancel in bulk (tripping
    compaction between windows), and handle cancels from plain events
    and from observers.  Every plain callback logs ``(now, name,
    sampler counts, pending)`` and checks the lanes."""
    sim = Simulator()
    w = SimpleNamespace(sim=sim, log=[], samplers={}, handles={},
                        plain=[0], fires={})

    def snapshot(name: str) -> None:
        _assert_lanes(sim)
        w.log.append((sim.now_ns, name,
                      tuple(s.count for _, s in sorted(w.samplers.items())),
                      sim.pending_count()))

    far = [sim.schedule(100_000 * NS_PER_MS, lambda: None, name="far")
           for _ in range(spec["far"])]

    def act(action) -> None:
        if action == "far":
            for handle in far:
                handle.cancel()
        elif action in w.handles:
            w.handles[action].cancel()

    for i, (interval, delay, kind) in enumerate(spec["handles"]):
        def register(i=i, interval=interval, kind=kind) -> None:
            if kind == "observer":
                def observe(i=i) -> None:
                    w.fires[i] = w.fires.get(i, 0) + 1
                    snapshot(f"o{i}")
                    for actor, nth, action in spec["acts"]:
                        if actor == i and nth == w.fires[i]:
                            act(action)

                w.handles[i] = sim.every(
                    interval * NS_PER_MS, observe, name=f"o{i}")
            else:
                s = w.samplers[i] = Sampler(97 + i)
                w.handles[i] = sim.every(
                    interval * NS_PER_MS, s.tick, name=f"s{i % 3}",
                    fast_forward=True,
                    bulk=s.apply if kind == "bulk" else None)

        if delay:
            sim.schedule(delay * NS_PER_MS, register, name="register")
        else:
            register()

    for c, period in enumerate(spec["chains"]):
        def barrier(c=c, period=period) -> None:
            w.plain[0] += 1
            snapshot(f"p{c}")
            sim.schedule(period * NS_PER_MS, barrier, name=f"p{c}")

        sim.schedule(period * NS_PER_MS, barrier, name=f"p{c}")
    for at, target in spec["cancels"]:
        sim.schedule(at * NS_PER_MS, lambda target=target: act(target),
                     name="cancel")
    if ff:
        sim.enable_fast_forward()
    return w


def _lane_observable(w) -> tuple:
    sim = w.sim
    return (sim.now_ns, sim._seq, sim.pending_count(), w.log,
            [s.state() for _, s in sorted(w.samplers.items())],
            _queue_keys(sim))


def _run_lane_world(spec: dict, ff: bool) -> SimpleNamespace:
    w = _lane_world(spec, ff)
    if spec["until"]:
        w.sim.run_until(spec["horizon"] * NS_PER_MS,
                        until=lambda: w.plain[0] >= spec["until"])
        _assert_lanes(w.sim)
    if spec["checkpoint"]:
        w.sim.run_until(max(w.sim.now_ns, spec["checkpoint"] * NS_PER_MS))
        _assert_lanes(w.sim)
        w = loads_state(dumps_state(w))
        _assert_lanes(w.sim)
    w.sim.run_until(spec["horizon"] * NS_PER_MS)
    _assert_lanes(w.sim)
    return w


@st.composite
def lane_specs(draw) -> dict:
    handles = draw(st.lists(
        st.tuples(st.sampled_from([1, 2, 3, 4, 6]),
                  st.sampled_from([0, 0, 2, 3, 6, 12, 24]),
                  st.sampled_from(["bulk", "bulk", "callback",
                                   "observer"])),
        min_size=1, max_size=7))
    n = len(handles)
    targets = st.one_of(st.integers(0, n - 1), st.just("far"))
    observers = [i for i, (_, _, kind) in enumerate(handles)
                 if kind == "observer"]
    acts = draw(st.lists(st.tuples(st.sampled_from(observers),
                                   st.integers(1, 6), targets),
                         max_size=3)) if observers else []
    horizon = draw(st.integers(60, 400))
    return {
        "handles": handles,
        "chains": draw(st.lists(st.integers(5, 90), max_size=3)),
        "far": draw(st.sampled_from([0, 0, 6, 30])),
        "acts": acts,
        "cancels": draw(st.lists(st.tuples(st.integers(1, horizon),
                                           targets), max_size=2)),
        "until": draw(st.sampled_from([0, 0, 1, 3])),
        "checkpoint": draw(st.sampled_from([0, 0, horizon // 3,
                                            horizon // 2 + 1])),
        "horizon": horizon,
    }


@settings(max_examples=120, deadline=None)
@given(spec=lane_specs())
@example(spec={  # a declined window whose grouping rebuilds the lane
    "handles": [(3, 0, "bulk"), (1, 0, "bulk")], "chains": [5], "far": 0,
    "acts": [], "cancels": [(1, 0)], "until": 0, "checkpoint": 0,
    "horizon": 60})
@example(spec={  # two cached cohorts sharing (interval, next fire)
    "handles": [(2, 0, "bulk")] * 2 + [(2, 12, "bulk")] * 2
    + [(4, 0, "callback")], "chains": [97], "far": 0, "acts": [],
    "cancels": [], "until": 0, "checkpoint": 0, "horizon": 300})
def test_lane_matches_stepping_and_keeps_its_invariant(spec):
    # Callback order (with the sampler counts and pending count each
    # callback sees), the sequence counter, pending_count() and the
    # queued keys equal fast-forward-off stepping; at every callback
    # and every stop, no certified event sits in the main heap and no
    # plain event in the lane.
    on = _run_lane_world(spec, ff=True)
    off = _run_lane_world(spec, ff=False)
    assert _lane_observable(on) == _lane_observable(off)
    assert off.sim.ff_windows == 0


def test_cohort_cache_keeps_same_phase_cohorts_apart():
    # Samplers registered at 12 ms, at the same 2 ms phase as others
    # whose 12 ms firing is still queued, are grouped as a separate
    # cohort; after that window both cohorts share (interval, next
    # fire), and the cached records keep them apart, ordered by rank.
    spec = {"handles": [(2, 0, "bulk")] * 3 + [(2, 12, "bulk")] * 3
            + [(4, 0, "callback")],
            "chains": [97], "far": 0, "acts": [], "cancels": [],
            "until": 0, "checkpoint": 0, "horizon": 1_000}
    on = _lane_world(spec, ff=True)
    window = Simulator._fast_forward_window.__get__(on.sim)
    plan = Simulator._ff_plan
    shared = []
    reused = []

    def spy_window(target_ns):
        cached = on.sim._ff_cache is not None
        applied = window(target_ns)
        if applied:
            reused.append(cached)
        return applied

    def spy_plan(records, window_end, seq):
        keys = [(rec[1], rec[2]) for rec in records]
        shared.append(len(set(keys)) < len(keys))
        return plan(records, window_end, seq)

    on.sim._fast_forward_window = spy_window
    on.sim._ff_plan = spy_plan
    on.sim.run_until(spec["horizon"] * NS_PER_MS)
    off = _run_lane_world(spec, ff=False)
    assert _lane_observable(on) == _lane_observable(off)
    assert any(shared)
    assert reused.count(True) >= len(reused) - 3 > 0


def test_fleet_duty_shard_windows_reuse_the_cohort_cache():
    # On the fleet-duty shape, back-to-back windows skip regrouping:
    # only the first windows of a shard group the lane.
    from repro.fleet.deployment import ShardDeployment
    from repro.fleet.scenario import SCENARIOS

    scenario = SCENARIOS["duty"].scaled(things=5, shard_size=5,
                                        duration_s=4.0, fast_forward=True)
    deployment = ShardDeployment(scenario.shards()[0])
    deployment.start()
    sim = deployment.sim
    window = Simulator._fast_forward_window.__get__(sim)
    reused = []

    def spy_window(target_ns):
        cached = sim._ff_cache is not None
        applied = window(target_ns)
        if applied:
            reused.append(cached)
        return applied

    sim._fast_forward_window = spy_window
    sim.run_until(4 * 1_000 * NS_PER_MS)
    _assert_lanes(sim)
    assert len(reused) == sim.ff_windows > 0
    assert reused.count(True) > 0
    assert reused.count(False) <= 3


def test_drain_between_windows_drops_the_cohort_cache():
    # drain() cancels lane entries directly (no handle cancel), so it
    # must drop the cache too: the drained samplers never fire again.
    spec = {"handles": [(2, 0, "bulk")] * 4 + [(4, 0, "bulk")] * 2,
            "chains": [53], "far": 0, "acts": [], "cancels": [],
            "until": 0, "checkpoint": 0, "horizon": 600}
    worlds = [_lane_world(spec, ff) for ff in (True, False)]
    for w in worlds:
        w.sim.run_until(300 * NS_PER_MS)
        w.sim.drain(["s1"])
        w.sim.run_until(spec["horizon"] * NS_PER_MS)
        _assert_lanes(w.sim)
    on, off = worlds
    assert on.sim.ff_windows > 0
    assert _lane_observable(on) == _lane_observable(off)
