"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import (
    NS_PER_MS,
    NS_PER_S,
    SimulationError,
    Simulator,
    ns_from_ms,
    ns_from_s,
    ns_from_us,
)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, lambda: fired.append("c"))
    sim.schedule(10, lambda: fired.append("a"))
    sim.schedule(20, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for name in "abcd":
        sim.schedule(5, lambda n=name: fired.append(n))
    sim.run()
    assert fired == list("abcd")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(7 * NS_PER_MS, lambda: seen.append(sim.now_ns))
    sim.run()
    assert seen == [7 * NS_PER_MS]
    assert sim.now_ms == 7.0


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now_ns))
        sim.schedule(5, inner)

    def inner():
        fired.append(("inner", sim.now_ns))

    sim.schedule(10, outer)
    sim.run()
    assert fired == [("outer", 10), ("inner", 15)]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, lambda: fired.append("x"))
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(10, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.run() == 0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)


def test_run_until_executes_boundary_event_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(10))
    sim.schedule(20, lambda: fired.append(20))
    sim.schedule(30, lambda: fired.append(30))
    sim.run_until(20)
    assert fired == [10, 20]
    assert sim.now_ns == 20
    sim.run()
    assert fired == [10, 20, 30]


def test_run_for_is_relative():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run_until(100)
    fired = []
    sim.schedule(50, lambda: fired.append(sim.now_ns))
    sim.run_for(50)
    assert fired == [150]


def test_run_until_past_raises():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(SimulationError):
        sim.run_until(50)


def test_run_until_past_error_names_target_and_current_time():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(SimulationError, match=r"50 ns.*now 100 ns"):
        sim.run_until(50)


def test_run_until_past_non_strict_clamps_instead_of_raising():
    sim = Simulator()
    fired = []
    sim.schedule(200, lambda: fired.append(sim.now_ns))
    sim.run_until(100)
    assert sim.run_until(50, strict=False) == 0
    assert sim.now_ns == 100  # clock never moves backwards
    sim.run_until(200)
    assert fired == [200]  # queue untouched by the clamped call


def test_call_soon_runs_at_current_instant_after_pending():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: (fired.append("first"),
                              sim.call_soon(lambda: fired.append("soon"))))
    sim.schedule(10, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first", "second", "soon"]
    assert sim.now_ns == 10


def test_max_events_bound():
    sim = Simulator()
    for _ in range(10):
        sim.schedule(1, lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.pending_count() == 6


def test_run_until_stops_right_after_the_event_that_satisfies_until():
    sim = Simulator()
    fired = []
    for t, name in ((10, "a"), (20, "b"), (20, "c"), (30, "d")):
        sim.schedule(t, lambda n=name: fired.append(n))
    assert sim.run_until(100, until=lambda: "b" in fired) == 2
    assert fired == ["a", "b"]
    # The clock stays at the completing event, and the later event at
    # the same instant is still queued.
    assert sim.now_ns == 20
    assert sim.pending_count() == 2
    sim.run_until(100)
    assert fired == ["a", "b", "c", "d"]
    assert sim.now_ns == 100


def test_run_until_with_unmet_until_reaches_the_target():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    assert sim.run_until(100, until=lambda: False) == 1
    assert sim.now_ns == 100


def test_until_composes_with_max_events():
    sim = Simulator()
    fired = []
    for t in range(1, 11):
        sim.schedule(t, lambda t=t: fired.append(t))
    # The cap binds first ...
    assert sim.run_until(100, max_events=3,
                         until=lambda: len(fired) >= 5) == 3
    assert sim.now_ns == 3
    # ... then the predicate does, inside a larger cap.
    assert sim.run_until(100, max_events=10,
                         until=lambda: len(fired) >= 5) == 2
    assert fired == [1, 2, 3, 4, 5]
    assert sim.now_ns == 5


def test_trace_hook_sees_names():
    sim = Simulator()
    traced = []
    sim.add_trace_hook(lambda t, name: traced.append((t, name)))
    sim.schedule(5, lambda: None, name="hello")
    sim.run()
    assert traced == [(5, "hello")]


def test_drain_cancels_everything():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.drain()
    assert sim.pending_count() == 0
    assert sim.run() == 0


def test_run_until_with_cancelled_head_event():
    """A cancelled event at the head of the queue must not block or
    mis-advance run_until."""
    sim = Simulator()
    fired = []
    head = sim.schedule(5, lambda: fired.append("head"))
    sim.schedule(10, lambda: fired.append("tail"))
    head.cancel()
    assert sim.run_until(10) == 1
    assert fired == ["tail"]
    assert sim.now_ns == 10


def test_run_until_all_heads_cancelled_advances_clock():
    sim = Simulator()
    handles = [sim.schedule(i, lambda: None) for i in range(1, 4)]
    for handle in handles:
        handle.cancel()
    assert sim.run_until(50) == 0
    assert sim.now_ns == 50
    assert sim.pending_count() == 0


def test_drain_names_selectivity():
    sim = Simulator()
    fired = []
    sim.schedule(1, lambda: fired.append("keep"), name="keep")
    sim.schedule(2, lambda: fired.append("drop-a"), name="drop")
    sim.schedule(3, lambda: fired.append("drop-b"), name="drop")
    sim.schedule(4, lambda: fired.append("other"), name="other")
    sim.drain(names=["drop"])
    assert sim.pending_count() == 2
    sim.run()
    assert fired == ["keep", "other"]


def test_drain_is_idempotent_and_counts_once():
    sim = Simulator()
    sim.schedule(1, lambda: None, name="x")
    sim.drain(names=["x"])
    sim.drain(names=["x"])  # same tombstone must not be counted twice
    assert sim.pending_count() == 0
    assert sim.run() == 0


def test_fifo_tie_break_survives_cancellation():
    """Equal-timestamp FIFO order is preserved when a middle event in
    the tie group is cancelled."""
    sim = Simulator()
    fired = []
    handles = [sim.schedule(7, lambda n=n: fired.append(n)) for n in "abcd"]
    handles[1].cancel()
    sim.run()
    assert fired == ["a", "c", "d"]


def test_pending_count_is_live_event_count():
    sim = Simulator()
    handles = [sim.schedule(i + 1, lambda: None) for i in range(10)]
    assert sim.pending_count() == 10
    for handle in handles[:4]:
        handle.cancel()
    assert sim.pending_count() == 6
    handles[0].cancel()  # double-cancel must not double-count
    assert sim.pending_count() == 6
    sim.run()
    assert sim.pending_count() == 0


def test_cancellation_compacts_the_heap():
    """Tombstones are reclaimed lazily once they outnumber live events."""
    sim = Simulator()
    handles = [sim.schedule(1000 + i, lambda: None) for i in range(1000)]
    for handle in handles[:900]:
        handle.cancel()
    assert sim.pending_count() == 100
    # Compaction kicked in: the heap cannot still hold all 900 tombstones.
    assert len(sim._queue) < 300
    assert sim.run() == 100


def test_cancel_after_fire_is_harmless():
    sim = Simulator()
    handle = sim.schedule(1, lambda: None)
    other = sim.schedule(2, lambda: None)
    sim.run()
    handle.cancel()  # late cancel of an already-fired event
    assert sim.pending_count() == 0
    sim.schedule(5, lambda: None)
    assert sim.pending_count() == 1
    del other


def test_heap_entries_are_plain_key_tuples():
    """The heap stores ``(time_ns, seq, event)`` so ordering is decided
    by integer comparison alone — the event object itself must never be
    compared (``seq`` is unique per event)."""
    sim = Simulator()
    sim.schedule(5, lambda: None, name="a")
    sim.schedule(5, lambda: None, name="b")
    for entry in sim._queue:
        time_ns, seq, event = entry
        assert entry[:2] == (time_ns, seq) == (event.time_ns, event.seq)
    (_, seq_a, _), (_, seq_b, _) = sorted(sim._queue)
    assert seq_a < seq_b  # FIFO tie-break still encoded in the key


def test_scheduled_event_has_no_dict():
    """__slots__ keeps per-event memory flat at fleet scale."""
    sim = Simulator()
    sim.schedule(1, lambda: None)
    event = sim._queue[0][2]
    assert not hasattr(event, "__dict__")


def test_compaction_preserves_fifo_ties_and_exact_counts():
    """Heap rebuild after heavy cancellation must keep equal-timestamp
    FIFO order and an exact tombstone count."""
    sim = Simulator()
    fired = []
    keep = [sim.schedule(50, lambda n=n: fired.append(n)) for n in range(4)]
    doomed = [sim.schedule(10 + i, lambda: fired.append("x"))
              for i in range(40)]
    for handle in doomed:
        handle.cancel()  # triggers compaction (tombstones > live)
    assert sim._tombstones == 0  # compaction reset the counter exactly
    assert sim.pending_count() == 4
    sim.run()
    assert fired == [0, 1, 2, 3]
    del keep


def test_unit_conversions():
    assert ns_from_us(1.5) == 1_500
    assert ns_from_ms(2.5) == 2_500_000
    assert ns_from_s(0.001) == NS_PER_MS
    assert ns_from_s(1) == NS_PER_S


# ------------------------------------------------------------------- periodic
def test_every_fires_on_cadence_and_cancels():
    sim = Simulator()
    fired = []
    handle = sim.every(ns_from_s(1.0), lambda: fired.append(sim.now_ns),
                       name="tick")
    sim.run_until(ns_from_s(3.5))
    assert fired == [ns_from_s(1.0), ns_from_s(2.0), ns_from_s(3.0)]
    handle.cancel()
    sim.run_until(ns_from_s(10.0))
    assert len(fired) == 3
    handle.cancel()  # idempotent


def test_every_reschedules_before_callback_runs():
    """A callback that inspects the queue sees its own next tick — the
    periodic keeps itself alive without a trailing gap."""
    sim = Simulator()
    depths = []
    sim.every(ns_from_s(1.0), lambda: depths.append(sim.pending_count()),
              name="tick")
    sim.run_until(ns_from_s(2.0))
    assert all(depth >= 1 for depth in depths)


def test_every_rejects_non_positive_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0, lambda: None)
    with pytest.raises(SimulationError):
        sim.every(-5, lambda: None)


def test_every_cancel_lets_run_terminate():
    sim = Simulator()
    handle = sim.every(ns_from_s(1.0), lambda: None, name="tick")
    sim.run_until(ns_from_s(2.0))
    handle.cancel()
    # With the periodic cancelled the queue drains completely.
    sim.run()
    assert sim.pending_count() == 0
