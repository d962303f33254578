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
    (``time_ns``, ``seq`` and its heap tuple together).
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
    their periodic tasks or the run will not terminate.
    """

    __slots__ = ("_sim", "_interval_ns", "_callback", "_name", "_handle",
                 "_cancelled", "_ff", "_independent", "_bulk")

    def __init__(self, sim: "Simulator", interval_ns: int,
                 callback: Callable[[], None], name: str,
                 fast_forward: bool = False, independent: bool = True,
                 bulk: Optional[Callable[[int], None]] = None) -> None:
        self._sim = sim
        self._interval_ns = interval_ns
        self._callback = callback
        self._name = name
        self._cancelled = False
        #: Fast-forward certification (see Simulator.run_until).  A
        #: certified handle asserts its callback neither schedules nor
        #: cancels events; ``independent`` additionally asserts the
        #: callback touches state disjoint from every other certified
        #: handle and never reads the kernel clock, so N occurrences can
        #: be applied out of merged order.  ``bulk``, when given, must
        #: have the exact cumulative effect of N sequential callbacks.
        self._ff = bool(fast_forward)
        self._independent = bool(independent)
        self._bulk = bulk
        self._handle = sim.schedule(interval_ns, self._fire, name=name)
        if self._ff:
            self._handle._event.ff = self

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
        self._handle = self._sim.schedule(
            self._interval_ns, self._fire, name=self._name)
        if self._ff:
            self._handle._event.ff = self
        self._callback()

    def cancel(self) -> None:
        """Stop firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        self._handle.cancel()

    def __setstate__(self, state: tuple) -> None:
        # Checkpoints written before the fast-forward tier predate the
        # _ff/_independent/_bulk slots; default them uncertified.
        _, slots = state
        self._ff = False
        self._independent = True
        self._bulk = None
        for name, value in (slots or {}).items():
            setattr(self, name, value)


class Simulator:
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
    #: attribute set changes shape.
    SNAPSHOT_SCHEMA = {
        "layer": "sim",
        "version": 4,
        "fields": ("_now_ns", "_seq", "_queue", "_tombstones", "_running",
                   "_trace_hooks", "_bulk_hooks", "tracer", "profiler",
                   "_ff_enabled", "_ff_skip_until", "ff_windows",
                   "ff_events"),
    }

    def __init__(self) -> None:
        self._now_ns = 0
        self._seq = 0
        #: Min-heap of ``(time_ns, seq, event)`` tuples; see
        #: :class:`_ScheduledEvent` for why keys are explicit.
        self._queue: list[tuple[int, int, _ScheduledEvent]] = []
        #: Cancelled events still sitting in the heap.  Kept exact so
        #: :meth:`pending_count` is O(1) and so churn-heavy runs can
        #: compact the heap once tombstones outnumber live events.
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
        #: the O(queue) barrier scan is not repeated every event).
        self._ff_skip_until = 0
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
        independent: bool = True,
        bulk: Optional[Callable[[int], None]] = None,
    ) -> PeriodicHandle:
        """Run *callback* every ``interval_ns`` nanoseconds until cancelled.

        The first firing is one interval from now.  This is the sampling
        hook the telemetry layer builds on: a periodic task is ordinary
        scheduled work, so an un-registered sampler costs the kernel
        nothing at all.

        ``fast_forward=True`` certifies the task for closed-form idle
        fast-forward (the ``FastForwardable`` protocol): the callback
        must never schedule or cancel events.  ``independent=True``
        (the default) further asserts the callback's state is disjoint
        from every other certified task and clock-free, so occurrences
        may be applied per-handle instead of in merged order; pass
        ``independent=False`` for readers of shared state (telemetry
        samplers), which are then fired one-by-one in exact merged
        order inside the window.  ``bulk(n)``, when given, must have
        the exact cumulative effect — bitwise, for float accumulators —
        of ``n`` sequential callbacks.
        """
        interval_ns = int(interval_ns)
        if interval_ns <= 0:
            raise SimulationError(f"non-positive period: {interval_ns}")
        return PeriodicHandle(self, interval_ns, callback, name,
                              fast_forward=fast_forward,
                              independent=independent, bulk=bulk)

    # ---------------------------------------------------------------- running
    def step(self) -> bool:
        """Run the single next event.  Returns False when the queue is empty."""
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
        count = 0
        # Fast-forward, the kernel's one optional speed tier, engages
        # only for unbounded runs that no observer needs stepped one by
        # one: a max_events cap would have to split windows.
        ff_ok = (self._ff_enabled and max_events is None
                 and not self.needs_per_event)
        # NOTE: ``self._queue`` must be re-read every iteration — any
        # callback can cancel events and trip ``_maybe_compact``, which
        # rebinds the heap to a fresh list.
        while self._queue:
            queue = self._queue
            head_time, _, head = queue[0]
            if head.cancelled:
                heapq.heappop(queue)
                head.popped = True
                self._tombstones -= 1
                continue
            if head_time > time_ns:
                break
            if ff_ok and head_time >= self._ff_skip_until and \
                    head.ff is not None:
                skipped = self._fast_forward_window(time_ns)
                if skipped:
                    count += skipped
                    if until is not None and until():
                        return count
                    continue
            self.step()
            count += 1
            if max_events is not None and count >= max_events:
                return count
            if until is not None and until():
                return count
        self._now_ns = max(self._now_ns, time_ns)
        return count

    def _fast_forward_window(self, target_ns: int) -> int:
        """Apply one certified idle window analytically; 0 = declined.

        The window runs from the queue head to one nanosecond before
        the earliest live *non-certified* event (the barrier: in-flight
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
        would have had under stepping.  Windows in which no ordered
        handle fires take one fused pass: the heap scan groups the
        certified items into cohorts (keeping each item's heap index),
        :meth:`_ff_cohorts` plans each due cohort's seqs in closed
        form, and a single loop per cohort applies every member's
        rounds, re-keys its event in place and reports it.  Bulk trace
        hooks are called once per event name, with the name's summed
        count stamped at its last occurrence.  The other windows
        (:meth:`_ff_emulate`) emulate seq allocation occurrence by
        occurrence in merged order.
        """
        queue = self._queue
        barrier_t: Optional[int] = None
        first_ordered: Optional[int] = None
        # (interval, first fire) -> [(first fire, seq, event, handle,
        # heap index)]: the certified items, grouped as they are found.
        cohorts: dict = {}
        for pos, (t, s, ev) in enumerate(queue):
            if ev.cancelled:
                continue
            h = ev.ff
            if h is None:
                if barrier_t is None or t < barrier_t:
                    barrier_t = t
                continue
            members = cohorts.get((h._interval_ns, t))
            if members is None:
                cohorts[(h._interval_ns, t)] = [(t, s, ev, h, pos)]
            else:
                members.append((t, s, ev, h, pos))
            if not h._independent and (first_ordered is None
                                       or t < first_ordered):
                first_ordered = t
        window_end = target_ns if barrier_t is None \
            else min(target_ns, barrier_t - 1)
        due: dict = {}
        total = 0
        for key, members in cohorts.items():
            interval, t0 = key
            if t0 <= window_end:
                due[key] = members
                total += ((window_end - t0) // interval + 1) * len(members)
        if total < 4:
            # Not worth the scan; suppress re-attempts until the head
            # moves past the barrier (stepping remains exact, so a
            # missed window is only a missed optimization).
            limit = barrier_t if barrier_t is not None else target_ns
            self._ff_skip_until = limit + 1
            return 0

        # An ordered handle due after the window does not count: when
        # none fires in it, occurrence order among the independent
        # handles is unobservable and only seq *accounting* has to be
        # exact, which the cohort plan gets in closed form.
        if first_ordered is not None and first_ordered <= window_end:
            plan = None
        else:
            plan = self._ff_cohorts(due, window_end, self._seq)
        if plan is None:
            return self._ff_emulate(
                [item for members in cohorts.values() for item in members],
                window_end)
        seq, planned = plan
        self._seq = seq
        bulks = self._bulk_hooks
        if bulks:
            # name -> [occurrences, last occurrence]
            named: dict = {}
            for members, _, rounds, last, _ in planned:
                for item in members:
                    acc = named.get(item[2].name)
                    if acc is None:
                        named[item[2].name] = [rounds, last]
                    else:
                        acc[0] += rounds
                        if last > acc[1]:
                            acc[1] = last
            for name, (n, last) in named.items():
                for b in bulks:
                    b(last, name, n)
        profiler = self.profiler
        now = self._now_ns
        for members, interval, rounds, last, base in planned:
            if last > now:
                now = last
            ft = last + interval
            for t0, _, ev, h, pos in members:
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
                queue[pos] = (ft, base, ev)
                base += 1
                if profiler is not None:
                    profiler.on_fast_forward(ev.name, rounds, t0, last)
        self._now_ns = now
        if self._queue is not queue:
            # An applier cancelled work and tripped _maybe_compact,
            # which rebound the heap mid-loop: take every key afresh
            # from its event.
            queue = self._queue
            queue[:] = [(ev.time_ns, ev.seq, ev) for _, _, ev in queue]
        # Keys only grew; one heapify restores the heap invariant.
        heapq.heapify(queue)
        self.ff_windows += 1
        self.ff_events += total
        return total

    @staticmethod
    def _ff_cohorts(cohorts: dict, window_end: int, seq: int):
        """Closed-form seq plan for a window's cohorts; None = not
        applicable.

        *cohorts* maps ``(interval, first fire)`` to the window items
        sharing it (``item[1]`` is the item's queued seq; multi-member
        lists are sorted by seq in place).  Such a *cohort* fires at
        identical timestamps forever, in a fixed relative order.  When
        every cohort's current seq set forms a contiguous-block range
        disjoint from every other cohort's, merged order at any shared
        timestamp is whole blocks ordered by block base, and each round
        hands the firing cohorts fresh consecutive blocks, so the
        layout holds for the whole window.  Seq accounting then needs
        no emulation at all:

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
          first round and keeps the lead.

        Returns ``(end seq, [(members, interval, R, L, base), ...])``,
        cohorts in pre-window seq order; member m of a cohort is
        re-keyed to ``(L + I, base + m)``.  That is O(cohorts**2) floor
        divisions per window, and the end seq and every key match the
        per-occurrence path bit for bit.

        Interleaved ranges (typical right after registration, before a
        first window linearizes them) return None and the exact
        per-occurrence path runs; the window after that, ranges are
        blocks and this path engages.
        """
        ranked = []
        for (interval, t0), members in cohorts.items():
            if len(members) > 1:
                members.sort()
            rounds = (window_end - t0) // interval + 1
            ranked.append((members[0][1], members[-1][1], interval, t0,
                           t0 + (rounds - 1) * interval, rounds, members))
        if len(ranked) > 1:
            # Sorted by pre-window seq, so list position breaks
            # first-round ties.
            ranked.sort()
            prev_hi = -1
            for cohort in ranked:
                if cohort[0] <= prev_hi:
                    return None
                prev_hi = cohort[1]
        end_seq = seq
        planned = []
        for k, (_, _, interval, t0, last, rounds, members) in \
                enumerate(ranked):
            end_seq += rounds * len(members)
            base = seq + (rounds - 1) * len(members)
            k_first = t0 == last
            for j, (_, _, ij, tj, _, _, jmembers) in enumerate(ranked):
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
                        leads = ij > interval or (
                            ij == interval and tj > t0)
                    before += leads
                else:
                    before += 1
                base += before * len(jmembers)
            planned.append((members, interval, rounds, last, base))
        return end_seq, planned

    def _ff_emulate(self, items: list, window_end: int) -> int:
        """The per-occurrence window path: ordered handles, or cohort
        seq ranges that interleave.

        Emulates seq allocation occurrence by occurrence in merged
        order.  Independent handles' effects are deferred and applied
        in per-handle bulk; ordered handles (``independent=False``)
        fire in place after a flush, observing exactly the state they
        would have seen.
        """
        queue = self._queue
        items.sort()  # by (first time, seq): seqs are unique
        n_items = len(items)
        pending = [0] * n_items
        counts = [0] * n_items
        first_t = [0] * n_items
        last_t = [0] * n_items
        final: list = [None] * n_items
        seq = self._seq
        hooks = self._trace_hooks
        bulks = self._bulk_hooks
        push = heapq.heappush
        pop = heapq.heappop
        applied = 0

        def flush() -> None:
            nonlocal seq
            for j in range(n_items):
                p = pending[j]
                if not p:
                    continue
                pending[j] = 0
                hj = items[j][3]
                t_j = last_t[j]
                name_j = items[j][2].name
                for b in bulks:
                    b(t_j, name_j, p)
                self._seq = seq
                bulk_cb = hj._bulk
                if bulk_cb is not None:
                    bulk_cb(p)
                else:
                    cb = hj._callback
                    for _ in range(p):
                        cb()
                if self._seq != seq:
                    raise SimulationError(
                        f"fast-forward applier for '{name_j}' scheduled "
                        f"new work; certified callbacks must not touch "
                        f"the event queue")

        emu = [(t, s, i) for i, (t, s, ev, h, _) in enumerate(items)
               if t <= window_end]
        heapq.heapify(emu)
        while emu:
            t, s, i = pop(emu)
            h = items[i][3]
            if h._cancelled:
                # Cancelled mid-window (by an ordered callback): the
                # remaining occurrences must not be applied.
                continue
            nseq = seq
            seq += 1
            counts[i] += 1
            if counts[i] == 1:
                first_t[i] = t
            last_t[i] = t
            applied += 1
            nt = t + h._interval_ns
            if nt <= window_end:
                push(emu, (nt, nseq, i))
            else:
                final[i] = (nt, nseq)
            if h._independent:
                pending[i] += 1
                continue
            flush()
            self._now_ns = t
            self._seq = seq
            name = items[i][2].name
            for hook in hooks:
                hook(t, name)
            h._callback()
            if self._seq != seq:
                raise SimulationError(
                    f"fast-forwarded event '{name}' scheduled new "
                    f"work; only schedule-free callbacks may be "
                    f"certified")
        flush()
        self._seq = seq

        profiler = self.profiler
        heap_pos = None
        if self._queue is not queue:
            # An ordered callback cancelled work and tripped
            # _maybe_compact, which rebound the heap: entries moved.
            queue = self._queue
            heap_pos = {s: pos for pos, (_, s, _) in enumerate(queue)}
        for i in range(n_items):
            c = counts[i]
            if not c:
                continue
            t0, s0, ev, h, pos = items[i]
            if last_t[i] > self._now_ns:
                self._now_ns = last_t[i]
            if profiler is not None:
                profiler.on_fast_forward(ev.name, c, first_t[i], last_t[i])
            if h._cancelled:
                # cancel() already tombstoned the placeholder event; no
                # final occurrence to re-key.
                continue
            # Re-keyed in place with the emulated key, as in the fused
            # pass.
            ft, fs = final[i]
            ev.time_ns = ft
            ev.seq = fs
            queue[pos if heap_pos is None else heap_pos[s0]] = (ft, fs, ev)
        heapq.heapify(queue)
        self.ff_windows += 1
        self.ff_events += applied
        return applied

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
        self.__dict__.pop("schedule_at", None)
        self.__dict__.pop("step", None)
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
        tracer = self.tracer
        if tracer is not None and tracer.current is not None:
            event.trace_id = tracer.current
        profiler = self.profiler
        if profiler is not None and name:
            profiler.on_schedule(name, time_ns - self._now_ns)
        heapq.heappush(self._queue, (time_ns, self._seq, event))
        self._seq += 1
        return EventHandle(event, self)

    def _observed_step(self) -> bool:
        """:meth:`step`, plus causal-context restore around callbacks and
        wall-clock and sim-gap attribution.

        With a tracer attached, the event's stamped trace id is current
        while its callback runs.  With a profiler attached, each event's
        host cost (``perf_counter_ns`` around the callback) and the
        simulated-time gap it closed are reported keyed by event name.
        """
        while self._queue:
            time_ns, _, event = heapq.heappop(self._queue)
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
        return False

    # ------------------------------------------------------------ checkpoint
    def snapshot_state(self) -> dict:
        """Complete restorable kernel state (the heap travels as-is:
        ``(time_ns, seq, event)`` tuples keep their ordering keys, and
        tombstoned events keep their ``cancelled`` flags)."""
        state = dict(self.__dict__)
        # The observed paths are bound methods shadowing the class
        # ones on this instance; restore_state re-binds them, so the
        # checkpoint never carries method objects.
        state.pop("schedule_at", None)
        state.pop("step", None)
        state["_schema"] = self.SNAPSHOT_SCHEMA["version"]
        return state

    def restore_state(self, state: dict) -> None:
        from repro.snapshot.migrate import upgrade_state

        state = dict(upgrade_state(type(self), state))
        state.pop("_schema", None)
        self.__dict__.clear()
        self.__dict__.update(state)
        # Re-shadow the observed paths exactly as the attach_* calls do.
        self._reshadow()

    __getstate__ = snapshot_state
    __setstate__ = restore_state

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
        return len(self._queue) - self._tombstones

    def drain(self, names: Iterable[str] = ()) -> None:
        """Cancel every queued event (optionally only those matching *names*)."""
        names = set(names)
        for _, _, event in self._queue:
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
        """Rebuild the heap once cancelled entries outnumber live ones.

        Long churn-heavy runs (fleet scenarios cancelling timers and
        stream ticks) would otherwise accumulate tombstones forever,
        growing memory and slowing every ``heappush``.  Amortised O(1)
        per cancellation.
        """
        if self._tombstones * 2 <= len(self._queue):
            return
        live = [entry for entry in self._queue if not entry[2].cancelled]
        for _, _, event in self._queue:
            if event.cancelled:
                event.popped = True
        self._queue = live
        heapq.heapify(self._queue)
        self._tombstones = 0


def ns_from_us(us: float) -> int:
    """Convert microseconds (float) to integer nanoseconds."""
    return int(round(us * NS_PER_US))


def ns_from_ms(ms: float) -> int:
    """Convert milliseconds (float) to integer nanoseconds."""
    return int(round(ms * NS_PER_MS))


def ns_from_s(s: float) -> int:
    """Convert seconds (float) to integer nanoseconds."""
    return int(round(s * NS_PER_S))
