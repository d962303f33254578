"""Deterministic discrete-event simulation kernel.

Every timed subsystem in the reproduction (hardware identification pulses,
VM instruction retirement, radio frames, protocol timers) runs on top of
this kernel.  Time is kept in integer nanoseconds so that runs are exactly
reproducible: two events scheduled for the same instant fire in the order
they were scheduled (FIFO tie-break via a monotonically increasing
sequence number).
"""

from __future__ import annotations

import heapq
from time import perf_counter_ns
from typing import Any, Callable, Iterable, Optional

from repro.snapshot.state import DeclaredState

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


class SimulationError(Exception):
    """Raised on kernel misuse (negative delays, running a finished sim)."""


class _ScheduledEvent:
    """One queued callback.

    The heap itself stores ``(time_ns, seq, event)`` tuples so heappush
    and heappop compare plain integers in C — the event object is never
    compared (``seq`` is unique).  A plain ``__slots__`` class beats the
    previous ``@dataclass(order=True)`` on both allocation cost and the
    per-comparison ``__lt__`` dispatch the old heap paid on every
    push/pop.  A fast-forward window re-keys a certified event in place
    (``time_ns``, ``seq`` and its heap tuple together).  Certified
    events (``ff`` set) queue in the simulator's lane heap, every other
    event in its main heap.
    """

    __slots__ = ("time_ns", "seq", "callback", "name", "cancelled",
                 "popped", "trace_id", "ff")

    def __init__(
        self,
        time_ns: int,
        seq: int,
        callback: Callable[[], None],
        name: str = "",
    ) -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False
        #: True once the event has left the heap (fired or discarded); a
        #: late cancel() must not touch the simulator's tombstone counter.
        self.popped = False
        self.ff = None
        # ``trace_id`` is declared in __slots__ but deliberately left
        # unassigned: the observed scheduling path (attach_tracer) sets it,
        # and untraced simulations pay nothing for it — hasattr() stays
        # False exactly as with the previous dynamic attribute.
        # ``ff`` defaults to None and is set only on events owned by a
        # fast-forward-certified PeriodicHandle, where it points back at
        # the handle so run_until can recognise analytically skippable
        # work with a single slot load.


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _ScheduledEvent, sim: "Simulator") -> None:
        self._event = event
        self._sim = sim

    @property
    def time_ns(self) -> int:
        return self._event.time_ns

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        event = self._event
        if event.cancelled:
            return
        event.cancelled = True
        if not event.popped:
            self._sim._note_cancelled()


class PeriodicHandle:
    """Handle for a repeating callback registered via :meth:`Simulator.every`.

    The underlying events reschedule themselves after each firing, so a
    periodic task never drains the queue on its own; drivers that use
    :meth:`Simulator.run` (rather than ``run_until``) must :meth:`cancel`
    their periodic tasks or the run will not terminate.  A handle
    certified for fast-forward (``_ff``, see :meth:`Simulator.every`)
    queues its events in the simulator's lane; any other queues them
    in the main heap, where they end fast-forward windows.
    """

    __slots__ = ("_sim", "_interval_ns", "_callback", "_name", "_handle",
                 "_cancelled", "_ff", "_bulk")

    def __init__(self, sim: "Simulator", interval_ns: int,
                 callback: Callable[[], None], name: str,
                 fast_forward: bool = False,
                 bulk: Optional[Callable[[int], None]] = None) -> None:
        self._sim = sim
        self._interval_ns = interval_ns
        self._callback = callback
        self._name = name
        self._cancelled = False
        #: Fast-forward certification (see Simulator.every).
        self._ff = bool(fast_forward)
        self._bulk = bulk
        if self._ff:
            self._handle = sim._schedule_certified(self)
        else:
            self._handle = sim.schedule(interval_ns, self._fire, name=name)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def interval_ns(self) -> int:
        return self._interval_ns

    def _fire(self) -> None:
        if self._cancelled:  # pragma: no cover - cancel() kills the event
            return
        # Reschedule before the callback so a callback that raises does
        # not silently kill the period, and so the callback observes the
        # queue as it will stand for the rest of this instant.
        if self._ff:
            self._handle = self._sim._schedule_certified(self)
        else:
            self._handle = self._sim.schedule(
                self._interval_ns, self._fire, name=self._name)
        self._callback()

    def cancel(self) -> None:
        """Stop firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        if self._ff:
            # Its queued event is a lane entry: drop the cohort cache.
            self._sim._ff_cache = None
        self._handle.cancel()

    def __setstate__(self, state: tuple) -> None:
        # Checkpoints written before the fast-forward tier predate the
        # _ff/_bulk slots; default them uncertified.  Older certified
        # handles may carry an ``_independent`` slot: False marked a
        # reader of shared state, which now fires as a plain periodic
        # (Simulator._ff_group moves its queued event to the main heap).
        _, slots = state
        slots = dict(slots or {})
        if not slots.pop("_independent", True):
            slots["_ff"] = False
        self._ff = False
        self._bulk = None
        for name, value in slots.items():
            setattr(self, name, value)


class Simulator(DeclaredState):
    """A single-threaded discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5 * NS_PER_MS, lambda: fired.append(sim.now_ns))
    >>> sim.run()
    >>> fired == [5 * NS_PER_MS]
    True
    """

    #: Checkpoint contract (see :mod:`repro.snapshot.state`): bump
    #: ``version`` and register a migration whenever the restorable
    #: attribute set changes shape.  ``_ff_cache`` and the observed
    #: ``step``/``schedule_at`` shadows are derived, never saved.
    SNAPSHOT_SCHEMA = {
        "layer": "sim",
        "version": 5,
        "fields": ("_now_ns", "_seq", "_queue", "_lane", "_tombstones",
                   "_running", "_trace_hooks", "_bulk_hooks", "tracer",
                   "profiler", "_ff_enabled", "_ff_skip_until",
                   "ff_windows", "ff_events"),
    }

    def __init__(self) -> None:
        self._now_ns = 0
        self._seq = 0
        #: Min-heap of ``(time_ns, seq, event)`` tuples; see
        #: :class:`_ScheduledEvent` for why keys are explicit.
        self._queue: list[tuple[int, int, _ScheduledEvent]] = []
        #: The certified lane: a second min-heap of the same tuples,
        #: holding exactly the events of fast-forward-certified periodic
        #: handles (``event.ff`` set), which never sit in ``_queue``.
        #: Keys are unique across both heaps, so stepping pops the
        #: smaller head and merged order is that of one heap.  None
        #: only after restoring a schema-v4 checkpoint: its single heap
        #: keeps the saved order (the restore audit digests it) until
        #: the first run_until or certified push splits it
        #: (:meth:`_split_lane`); stepping it unsplit is still exact.
        self._lane: Optional[list] = []
        #: Cancelled events still sitting in either heap.  Kept exact so
        #: :meth:`pending_count` is O(1) and so churn-heavy runs can
        #: compact the heaps once tombstones outnumber live events.
        self._tombstones = 0
        self._running = False
        self._trace_hooks: list[Callable[[int, str], None]] = []
        #: Parallel to ``_trace_hooks``: each slot is either None or a
        #: bulk variant ``hook(time_ns, name, n)`` whose effect must
        #: equal n sequential per-event calls.  Fast-forward engages
        #: only when every registered hook has one.
        self._bulk_hooks: list[Optional[Callable[[int, str, int], None]]] = []
        #: Closed-form idle fast-forward (see :meth:`run_until`).
        self._ff_enabled = False
        #: Suppression marker: no fast-forward window is attempted for
        #: heads before this instant (set after an empty/tiny window so
        #: its O(lane) grouping is not repeated every event).
        self._ff_skip_until = 0
        #: Cohort cache: the ranked cohort records as the last window
        #: left them, reused by the next window while no lane entry has
        #: been pushed, popped or cancelled since (a live lane pop fires
        #: a handle, which pushes first; a lane tombstone exists only
        #: after a cancel).  Derived state: never checkpointed.
        self._ff_cache: Optional[list] = None
        #: Fast-forward statistics (windows applied / events skipped).
        self.ff_windows = 0
        self.ff_events = 0
        #: Optional :class:`repro.obs.Tracer`.  None (the default)
        #: keeps every instrumentation point in the stack down to a
        #: single attribute check; the kernel's own hot paths carry no
        #: observer branches at all until :meth:`attach_tracer` binds
        #: the observed pair.
        self.tracer = None
        #: Optional :class:`repro.profile.ShardProfiler`.  Binds the
        #: same observed pair as ``tracer``: a simulator with neither
        #: runs the branch-free original paths.
        self.profiler = None

    # ------------------------------------------------------------------ time
    @property
    def now_ns(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now_ns

    @property
    def now_us(self) -> float:
        return self._now_ns / NS_PER_US

    @property
    def now_ms(self) -> float:
        return self._now_ns / NS_PER_MS

    @property
    def now_s(self) -> float:
        return self._now_ns / NS_PER_S

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay_ns: int,
        callback: Callable[[], None],
        *,
        name: str = "",
    ) -> EventHandle:
        """Schedule *callback* to run ``delay_ns`` nanoseconds from now."""
        delay_ns = int(delay_ns)
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.schedule_at(self._now_ns + delay_ns, callback, name=name)

    def schedule_at(
        self,
        time_ns: int,
        callback: Callable[[], None],
        *,
        name: str = "",
    ) -> EventHandle:
        """Schedule *callback* at absolute simulation time ``time_ns``."""
        time_ns = int(time_ns)
        if time_ns < self._now_ns:
            raise SimulationError(
                f"cannot schedule in the past: {time_ns} < {self._now_ns}"
            )
        event = _ScheduledEvent(time_ns, self._seq, callback, name)
        heapq.heappush(self._queue, (time_ns, self._seq, event))
        self._seq += 1
        return EventHandle(event, self)

    def _schedule_certified(self, handle: PeriodicHandle) -> EventHandle:
        """Queue a certified handle's next firing, one interval from
        now, in the lane.

        The key is allocated exactly as :meth:`schedule` allocates it,
        and attached observers see the event as they see any other.
        """
        lane = self._lane
        if lane is None:
            lane = self._split_lane()
        time_ns = self._now_ns + handle._interval_ns
        event = _ScheduledEvent(time_ns, self._seq, handle._fire,
                                handle._name)
        event.ff = handle
        if self.tracer is not None or self.profiler is not None:
            self._observe_schedule(event, handle._interval_ns)
        heapq.heappush(lane, (time_ns, self._seq, event))
        self._seq += 1
        self._ff_cache = None
        return EventHandle(event, self)

    def call_soon(self, callback: Callable[[], None], *, name: str = "") -> EventHandle:
        """Schedule *callback* at the current instant (after pending events
        already scheduled for this instant)."""
        return self.schedule(0, callback, name=name)

    def every(
        self,
        interval_ns: int,
        callback: Callable[[], None],
        *,
        name: str = "",
        fast_forward: bool = False,
        bulk: Optional[Callable[[int], None]] = None,
    ) -> PeriodicHandle:
        """Run *callback* every ``interval_ns`` nanoseconds until cancelled.

        The first firing is one interval from now.  This is the sampling
        hook the telemetry layer builds on: a periodic task is ordinary
        scheduled work, so an un-registered sampler costs the kernel
        nothing at all.

        ``fast_forward=True`` certifies the task for closed-form idle
        fast-forward: the callback must never schedule or cancel events,
        never read the kernel clock, and touch only state that no other
        task reads, so a window may apply its occurrences per handle
        instead of in merged order.  ``bulk(n)``, when given, must have
        the exact cumulative effect — bitwise, for float accumulators —
        of ``n`` sequential callbacks.  A task that reads shared state
        (a telemetry sampler) stays plain: its events are barriers that
        end windows, so it sees exactly the stepped state.
        """
        interval_ns = int(interval_ns)
        if interval_ns <= 0:
            raise SimulationError(f"non-positive period: {interval_ns}")
        return PeriodicHandle(self, interval_ns, callback, name,
                              fast_forward=fast_forward, bulk=bulk)

    # ---------------------------------------------------------------- running
    def step(self) -> bool:
        """Run the single next event.  Returns False when the queue is empty."""
        while True:
            queue = self._queue
            lane = self._lane
            # Keys are unique across both heaps: the smaller head is the
            # next event in merged order.
            heap = lane if lane and (not queue or lane[0] < queue[0]) \
                else queue
            if not heap:
                return False
            time_ns, _, event = heapq.heappop(heap)
            event.popped = True
            if event.cancelled:
                self._tombstones -= 1
                continue
            self._now_ns = time_ns
            for hook in self._trace_hooks:
                hook(time_ns, event.name)
            event.callback()
            return True

    def run(self, *, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains.  Returns events executed."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count

    def run_until(self, time_ns: int, *, max_events: Optional[int] = None,
                  strict: bool = True,
                  until: Optional[Callable[[], bool]] = None) -> int:
        """Run events with timestamps <= ``time_ns``; advance clock to it.

        Events scheduled exactly at ``time_ns`` do fire.  A target
        before the current time raises :class:`SimulationError`; with
        ``strict=False`` it clamps to now instead (runs nothing,
        returns 0) — convenient for replay drivers that feed
        already-passed instants.

        ``until`` is a stop predicate, checked after every stepped
        event and after every applied fast-forward window.  Once it is
        true the run returns at once: later events (even at the same
        instant) stay queued and the clock stays at the last event
        run, not at ``time_ns``.  Windows still span up to the next
        non-certified event, so a predicate that only non-certified
        events can flip is never skipped past.
        """
        time_ns = int(time_ns)
        if time_ns < self._now_ns:
            if strict:
                raise SimulationError(
                    f"run_until target {time_ns} ns is in the past "
                    f"(now {self._now_ns} ns)"
                )
            return 0
        if self._lane is None:
            self._split_lane()
        count = 0
        # Fast-forward, the kernel's one optional speed tier, engages
        # only for unbounded runs that no observer needs stepped one by
        # one: a max_events cap would have to split windows.
        ff_ok = (self._ff_enabled and max_events is None
                 and not self.needs_per_event)
        # NOTE: both heaps must be re-read every iteration — any
        # callback can cancel events and trip ``_maybe_compact``, which
        # rebinds them, and a window rebuilds the lane.
        while True:
            queue = self._queue
            lane = self._lane
            heap = lane if lane and (not queue or lane[0] < queue[0]) \
                else queue
            if not heap:
                break
            head_time, _, head = heap[0]
            if head.cancelled:
                heapq.heappop(heap)
                head.popped = True
                self._tombstones -= 1
                continue
            if head_time > time_ns:
                break
            if ff_ok and heap is lane and head_time >= self._ff_skip_until:
                skipped = self._fast_forward_window(time_ns)
                if skipped:
                    count += skipped
                    if until is not None and until():
                        return count
                    continue
                # Declined; its grouping may have rebuilt the lane.
                self.step()
            elif self.tracer is not None or self.profiler is not None:
                self.step()  # the observed step (see _reshadow)
            else:
                # :meth:`step`, with the head this loop already chose.
                heapq.heappop(heap)
                head.popped = True
                self._now_ns = head_time
                for hook in self._trace_hooks:
                    hook(head_time, head.name)
                head.callback()
            count += 1
            if max_events is not None and count >= max_events:
                return count
            if until is not None and until():
                return count
        self._now_ns = max(self._now_ns, time_ns)
        return count

    def _fast_forward_window(self, target_ns: int) -> int:
        """Apply one certified idle window analytically; 0 = declined.

        The window runs from the lane head to one nanosecond before
        the main heap's earliest live event (the barrier: in-flight
        packets, chaos faults, protocol timers — anything not owned by
        a fast-forward-certified periodic handle), clamped to the
        run_until target so checkpoints taken at instants re-derive
        rather than replay skipped occurrences.  Ending one ns short of
        the barrier leaves same-instant tie-breaking to normal
        stepping.

        Seq allocation matches stepping exactly (each skipped firing
        consumes one sequence number, allocated before its callback,
        matching ``PeriodicHandle._fire``), so the re-keyed queued
        event of every handle carries the identical (time, seq) key it
        would have had under stepping.  A window is one pass over
        cohorts: the lane's entries grouped by (interval, first fire)
        and ranked by seq (:meth:`_ff_group`, :meth:`_ff_rank`), or the
        cohort cache the previous window left when nothing touched the
        lane since; :meth:`_ff_plan` gives each due cohort's seqs in
        closed form, and one loop per cohort applies every member's
        rounds and re-keys its event in place.  Bulk trace hooks are
        called once per event name, with the name's summed count
        stamped at its last occurrence.  A window whose cohorts' seq
        ranges interleave is declined, and ``run_until`` steps it.
        """
        cached = self._ff_cache
        # Grouping first: it may move lane entries to the main heap.
        records = self._ff_group() if cached is None else cached
        queue = self._queue
        # Tombstones above the barrier are popped here, as stepping
        # would pop them before it.
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)[2].popped = True
            self._tombstones -= 1
        if queue:
            barrier_t = queue[0][0]
            window_end = min(target_ns, barrier_t - 1)
        else:
            barrier_t = None
            window_end = target_ns
        total = 0
        for rec in records:
            t0 = rec[2]
            if t0 <= window_end:
                total += ((window_end - t0) // rec[1] + 1) * len(rec[3])
        if total < 4:
            # Not worth the work; suppress re-attempts until the head
            # moves past the barrier (stepping remains exact, so a
            # missed window is only a missed optimization).
            limit = barrier_t if barrier_t is not None else target_ns
            self._ff_skip_until = limit + 1
            return 0

        if cached is None and not self._ff_rank(records):
            return 0
        seq, planned = self._ff_plan(records, window_end, self._seq)
        self._seq = seq
        bulks = self._bulk_hooks
        if bulks:
            # name -> [occurrences, last occurrence]
            named: dict = {}
            for rec, rounds, last, _ in planned:
                for name, members in rec[4]:
                    acc = named.get(name)
                    if acc is None:
                        named[name] = [rounds * members, last]
                    else:
                        acc[0] += rounds * members
                        if last > acc[1]:
                            acc[1] = last
            for name, (n, last) in named.items():
                for b in bulks:
                    b(last, name, n)
        # Any lane push or cancel by an applier drops this marker.
        self._ff_cache = records
        profiler = self.profiler
        now = self._now_ns
        for rec, rounds, last, base in planned:
            if last > now:
                now = last
            t0 = rec[2]
            ft = last + rec[1]
            entries = []
            for _, _, ev, h in rec[3]:
                bulk_cb = h._bulk
                if bulk_cb is not None:
                    bulk_cb(rounds)
                else:
                    cb = h._callback
                    for _ in range(rounds):
                        cb()
                if self._seq != seq:
                    raise SimulationError(
                        f"fast-forward applier for '{ev.name}' scheduled "
                        f"new work; certified callbacks must not touch "
                        f"the event queue")
                # The handle's queued event becomes its one post-window
                # event: re-key it in place with the planned (time, seq)
                # key, so the handle and its event stay and no tombstone
                # is left behind.
                ev.time_ns = ft
                ev.seq = base
                entries.append((ft, base, ev))
                base += 1
                if profiler is not None:
                    profiler.on_fast_forward(ev.name, rounds, t0, last)
            rec[0] = entries[0][1]
            rec[2] = ft
            rec[5] = entries
        self._now_ns = now
        if self._ff_cache is records:
            # The records hold every live lane entry (grouping purged
            # the tombstones): rebuild the lane from them, and keep them
            # ranked for the next window.
            records.sort()
            lane = []
            for rec in records:
                lane += rec[5]
            heapq.heapify(lane)
            self._lane = lane
        else:
            # An applier cancelled a certified handle (and perhaps
            # compacted, rebinding the lane): take every key afresh
            # from its event.
            lane = self._lane
            lane[:] = [(ev.time_ns, ev.seq, ev) for _, _, ev in lane]
            heapq.heapify(lane)
        self.ff_windows += 1
        self.ff_events += total
        return total

    def _ff_group(self) -> list:
        """Cohort records from one pass over the lane.

        A record is ``[lo, interval, first fire, members, names,
        entries]`` with members ``(time, seq, event, handle)`` sharing
        the interval and first fire; :meth:`_ff_rank` fills the rest.
        Tombstones are purged from the lane on the way (as compaction
        would), so the records hold every live lane entry.  So are the
        entries of handles restored uncertified (see
        :meth:`PeriodicHandle.__setstate__`), which move to the main
        heap with their keys.
        """
        lane = self._lane
        cohorts: dict = {}
        dead = moved = 0
        for t, s, ev in lane:
            if ev.cancelled:
                ev.popped = True
                dead += 1
                continue
            h = ev.ff
            if not h._ff:
                ev.ff = None
                heapq.heappush(self._queue, (t, s, ev))
                moved += 1
                continue
            rec = cohorts.get((h._interval_ns, t))
            if rec is None:
                cohorts[(h._interval_ns, t)] = \
                    [0, h._interval_ns, t, [(t, s, ev, h)], None, None]
            else:
                rec[3].append((t, s, ev, h))
        if dead or moved:
            lane = [e for e in lane if e[2].ff is not None
                    and not e[2].cancelled]
            heapq.heapify(lane)
            self._lane = lane
            self._tombstones -= dead
        return list(cohorts.values())

    @staticmethod
    def _ff_rank(records: list) -> bool:
        """Rank cohort records for :meth:`_ff_plan`; False = declined.

        Sorts each record's members by seq and the records by their
        lowest seq ``lo``, and fills ``lo``, ``names`` (``(event name,
        member count)`` pairs in member order) and ``entries`` (the
        members' heap tuples).  Declines when two cohorts' seq ranges
        interleave: the plan does not apply.  Such ranges are typical
        right after registration; stepping the events of the declined
        window turns them into blocks.
        """
        for rec in records:
            members = rec[3]
            if len(members) > 1:
                members.sort()
            rec[0] = members[0][1]
            names: dict = {}
            for item in members:
                name = item[2].name
                names[name] = names.get(name, 0) + 1
            rec[4] = list(names.items())
            rec[5] = [item[:3] for item in members]
        # Sorted by pre-window seq, so list position breaks first-round
        # ties in the plan.
        records.sort()
        prev_hi = -1
        for rec in records:
            if rec[0] <= prev_hi:
                return False
            prev_hi = rec[3][-1][1]
        return True

    @staticmethod
    def _ff_plan(records: list, window_end: int, seq: int):
        """Closed-form seq plan for the due cohorts of ranked records.

        A *cohort* — certified items sharing interval and first fire —
        fires at identical timestamps forever, in a fixed relative
        order.  When every cohort's seq set forms a range disjoint
        from every other's (:meth:`_ff_rank`), merged order at any
        shared timestamp is whole blocks ordered by block base, and
        each round hands the firing cohorts fresh consecutive blocks,
        so the layout holds for the whole window.  Seq accounting then
        needs no emulation at all:

        * cohort k (interval I, first fire t0, n members) fires
          ``R = (window_end - t0) // I + 1`` rounds, the last at
          ``L = t0 + (R - 1) * I``;
        * the block base of that last round is ``seq + n * (R - 1)``
          plus, for every other cohort j, ``n_j`` times the rounds j
          fired before L, counting a round at L itself when j pops
          first there;
        * at a shared instant a cohort on its first round pops first
          (its key is its pre-window seq, below every base allocated
          in the window; two such cohorts go by that seq); otherwise
          the larger interval pops first (its previous round, and so
          its block base, is earlier); equal intervals with different
          phase are ordered by the later first fire, which led at its
          first round and keeps the lead; two cohorts with the same
          interval and first fire (kept apart by the cohort cache) go
          by rank.

        Returns ``(end seq, [(record, R, L, base), ...])``, cohorts in
        rank order; member m of a cohort is re-keyed to ``(L + I, base
        + m)``.  That is O(cohorts**2) floor divisions per window, and
        the end seq and every key match stepping bit for bit.
        """
        due = []
        for rec in records:
            t0 = rec[2]
            if t0 <= window_end:
                interval = rec[1]
                rounds = (window_end - t0) // interval + 1
                due.append((rec, interval, t0, t0 + (rounds - 1) * interval,
                            rounds, len(rec[3])))
        end_seq = seq
        planned = []
        for k, (rec, interval, t0, last, rounds, n) in enumerate(due):
            end_seq += rounds * n
            base = seq + (rounds - 1) * n
            k_first = t0 == last
            for j, (_, ij, tj, _, _, nj) in enumerate(due):
                if j == k or tj > last:
                    continue
                before = (last - tj) // ij
                if before * ij == last - tj:
                    # j also fires at ``last``: count that round if j
                    # pops first there.
                    j_first = tj == last
                    if j_first or k_first:
                        leads = j_first and (not k_first or j < k)
                    else:
                        leads = ij > interval or (ij == interval and (
                            tj > t0 or (tj == t0 and j < k)))
                    before += leads
                else:
                    before += 1
                base += before * nj
            planned.append((rec, rounds, last, base))
        return end_seq, planned

    def run_for(self, duration_ns: int, *, max_events: Optional[int] = None) -> int:
        """Run for ``duration_ns`` of simulated time from now."""
        return self.run_until(self._now_ns + int(duration_ns), max_events=max_events)

    # ------------------------------------------------------------ observers
    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer`; swaps in the observed paths.

        The observed :meth:`step` / :meth:`schedule_at` pair shadows the
        class methods on this instance only, so every simulator without
        an observer keeps running the branch-free originals —
        disabled-mode tracing overhead in the kernel is exactly zero.
        """
        self.tracer = tracer
        self._reshadow()

    def detach_tracer(self) -> None:
        """Remove the tracer; the observed pair stays bound while a
        profiler is still attached."""
        self.tracer = None
        self._reshadow()

    def attach_profiler(self, profiler) -> None:
        """Attach a :class:`repro.profile.ShardProfiler`.

        Binds the same observed pair as :meth:`attach_tracer`, so
        profiling and tracing compose on one pair and disabled-mode
        profiling overhead in the kernel is exactly zero.
        """
        self.profiler = profiler
        self._reshadow()

    def detach_profiler(self) -> None:
        """Remove the profiler; the observed pair stays bound while a
        tracer is still attached."""
        self.profiler = None
        self._reshadow()

    @property
    def needs_per_event(self) -> bool:
        """True while some observer needs every event stepped one by one.

        That is an attached tracer (its per-event records cannot be
        synthesized for skipped work) or a trace hook registered without
        a bulk variant.  It is the only rule fast-forward consults; a
        profiler alone does not count, because it takes each applied
        window in aggregate (``on_fast_forward``).
        """
        return self.tracer is not None or any(
            b is None for b in self._bulk_hooks)

    def _reshadow(self) -> None:
        """Bind the observed step/schedule_at pair while a tracer or a
        profiler is attached; otherwise leave the class methods."""
        for name in ("schedule_at", "step"):
            try:
                delattr(self, name)
            except AttributeError:  # not shadowed: the class method
                pass
        if self.tracer is not None or self.profiler is not None:
            self.schedule_at = self._observed_schedule_at  # type: ignore[method-assign]
            self.step = self._observed_step  # type: ignore[method-assign]

    def _observed_schedule_at(
        self,
        time_ns: int,
        callback: Callable[[], None],
        *,
        name: str = "",
    ) -> EventHandle:
        """:meth:`schedule_at`, plus causal-context capture and
        schedule-delay capture.

        The tracer's *current* trace id (if any) is stamped onto the
        event, so causality follows every split-phase hop — stack CPU
        delays, radio frames, router dispatches, bus completions —
        with no per-layer plumbing.  The profiler records every named
        event's distinct scheduling delays — the signature its idle-gap
        analyzer uses to classify periodic (analytically
        fast-forwardable) work offline.
        """
        time_ns = int(time_ns)
        if time_ns < self._now_ns:
            raise SimulationError(
                f"cannot schedule in the past: {time_ns} < {self._now_ns}"
            )
        event = _ScheduledEvent(time_ns, self._seq, callback, name)
        self._observe_schedule(event, time_ns - self._now_ns)
        heapq.heappush(self._queue, (time_ns, self._seq, event))
        self._seq += 1
        return EventHandle(event, self)

    def _observe_schedule(self, event: _ScheduledEvent,
                          delay_ns: int) -> None:
        """Stamp the tracer's current trace id on *event* and report
        its delay to the profiler (both heaps' pushes)."""
        tracer = self.tracer
        if tracer is not None and tracer.current is not None:
            event.trace_id = tracer.current
        profiler = self.profiler
        if profiler is not None and event.name:
            profiler.on_schedule(event.name, delay_ns)

    def _observed_step(self) -> bool:
        """:meth:`step`, plus causal-context restore around callbacks and
        wall-clock and sim-gap attribution.

        With a tracer attached, the event's stamped trace id is current
        while its callback runs.  With a profiler attached, each event's
        host cost (``perf_counter_ns`` around the callback) and the
        simulated-time gap it closed are reported keyed by event name.
        """
        while True:
            queue = self._queue
            lane = self._lane
            heap = lane if lane and (not queue or lane[0] < queue[0]) \
                else queue
            if not heap:
                return False
            time_ns, _, event = heapq.heappop(heap)
            event.popped = True
            if event.cancelled:
                self._tombstones -= 1
                continue
            prev_ns = self._now_ns
            self._now_ns = time_ns
            for hook in self._trace_hooks:
                hook(time_ns, event.name)
            tracer = self.tracer
            profiler = self.profiler
            if profiler is not None:
                started = perf_counter_ns()
            if tracer is None:
                event.callback()
            else:
                trace_id = getattr(event, "trace_id", None)
                tracer.current = trace_id
                if event.name and tracer.enabled_for("kernel"):
                    tracer.instant(event.name, "kernel", trace_id=trace_id)
                try:
                    event.callback()
                finally:
                    tracer.current = None
            if profiler is not None:
                profiler.on_event(
                    event.name, prev_ns, time_ns, perf_counter_ns() - started
                )
            return True

    # ------------------------------------------------------------ checkpoint
    def _rebuild_derived(self) -> None:
        # Both heaps travel as saved (ordering keys and tombstones
        # intact); the shadows are re-bound as the attach_* calls do.
        self._ff_cache = None
        self._reshadow()

    # ----------------------------------------------------------------- extras
    def add_trace_hook(
        self,
        hook: Callable[[int, str], None],
        *,
        bulk: Optional[Callable[[int, str, int], None]] = None,
    ) -> None:
        """Register a hook called (time_ns, event_name) before each event.

        ``bulk(time_ns, name, n)`` is the hook's aggregated variant; it
        must equal n per-event calls.  One bulk call may cover the
        occurrences of several handles sharing *name* (a fast-forward
        window calls it once per event name), stamped with the time of
        the last of them.  A hook without one sets
        :attr:`needs_per_event`, which keeps fast-forward disengaged.
        """
        self._trace_hooks.append(hook)
        self._bulk_hooks.append(bulk)

    def enable_fast_forward(self) -> None:
        """Allow :meth:`run_until` to apply certified idle windows
        analytically.  Stepping semantics are unchanged for any window
        containing a non-certified event."""
        self._ff_enabled = True

    def disable_fast_forward(self) -> None:
        self._ff_enabled = False

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1)."""
        return len(self._queue) + len(self._lane or ()) - self._tombstones

    def drain(self, names: Iterable[str] = ()) -> None:
        """Cancel every queued event (optionally only those matching *names*)."""
        names = set(names)
        self._ff_cache = None
        for heap in (self._queue, self._lane or ()):
            for _, _, event in heap:
                if event.cancelled:
                    continue
                if not names or event.name in names:
                    event.cancelled = True
                    self._tombstones += 1
        self._maybe_compact()

    # ------------------------------------------------------------ tombstones
    def _note_cancelled(self) -> None:
        """A queued event was just cancelled via its handle."""
        self._tombstones += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heaps once cancelled entries outnumber live ones.

        Long churn-heavy runs (fleet scenarios cancelling timers and
        stream ticks) would otherwise accumulate tombstones forever,
        growing memory and slowing every ``heappush``.  Amortised O(1)
        per cancellation.  The threshold counts both heaps together,
        as when they were one.
        """
        queue = self._queue
        lane = self._lane or []
        if self._tombstones * 2 <= len(queue) + len(lane):
            return
        for heap in (queue, lane):
            for _, _, event in heap:
                if event.cancelled:
                    event.popped = True
        self._queue = _live(queue)
        if lane:
            self._lane = _live(lane)
        self._tombstones = 0

    def _split_lane(self) -> list:
        """Move the certified entries of a restored schema-v4 single
        heap into the lane; returns the lane.

        Keys are unchanged, so merged order is too.  Events pickled
        before the fast-forward tier carry no ``ff`` slot at all.
        """
        entries = self._queue
        self._queue = [e for e in entries
                       if getattr(e[2], "ff", None) is None]
        self._lane = [e for e in entries
                      if getattr(e[2], "ff", None) is not None]
        heapq.heapify(self._queue)
        heapq.heapify(self._lane)
        return self._lane


def _live(heap: list) -> list:
    """A new heap of *heap*'s entries without its tombstones."""
    out = [entry for entry in heap if not entry[2].cancelled]
    heapq.heapify(out)
    return out


def ns_from_us(us: float) -> int:
    """Convert microseconds (float) to integer nanoseconds."""
    return int(round(us * NS_PER_US))


def ns_from_ms(ms: float) -> int:
    """Convert milliseconds (float) to integer nanoseconds."""
    return int(round(ms * NS_PER_MS))


def ns_from_s(s: float) -> int:
    """Convert seconds (float) to integer nanoseconds."""
    return int(round(s * NS_PER_S))
