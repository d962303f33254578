"""The shard telemetry collector: sim-time sampling of every layer.

One :class:`ShardTelemetry` serves one
:class:`~repro.fleet.deployment.ShardDeployment`.  On a configurable
sim-time cadence (via the kernel's :meth:`Simulator.every` hook) it
probes:

* energy by category from each Thing's :class:`EnergyMeter`;
* radio TX/RX bytes, frames and the derived duty cycle (exact airtime
  from the network's frame counters);
* retransmission / duplicate-suppression / reply-cache-hit counts from
  the :mod:`repro.protocol.reliability` layer (as surfaced through the
  shard's metrics and the Things' caches);
* pending-table depth across client, manager and Things;
* VM cycles retired by the event routers;
* kernel event-queue depth.

Fleet-wide additive quantities are recorded without labels (they
``sum``-merge pointwise across shards); level-style quantities carry a
``shard`` label so merged documents keep per-shard trajectories; with
``per_node=True``, per-Thing energy/TX series carry a ``node`` label.

Sampling callbacks are read-only: they never mutate simulation state,
consume no RNG, and schedule nothing but their own next tick — a
telemetry-enabled run's workload behaviour is byte-identical to a
disabled run's (only the ``sim.events`` count differs, by exactly the
number of sampling ticks).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.hw.power import EnergyMeter
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.series import SeriesBank
from repro.sim.kernel import ns_from_s

#: Counter series fed from shard metrics counters: telemetry name →
#: (metrics counter, help text).
_METRIC_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("reads_sent_total", "reads.sent", "Client read requests sent"),
    ("reads_ok_total", "reads.ok", "Client reads completed"),
    ("reads_timeout_total", "reads.timeout", "Client reads timed out"),
    ("driver_requests_total", "driver.requests",
     "Driver install requests issued by Things"),
    ("driver_installs_total", "driver.installs",
     "Driver images installed on Things"),
    ("identifications_total", "identifications",
     "Peripheral identification rounds completed"),
    ("reliability_retransmits_total", "reliability.retransmits",
     "Datagram retransmissions by the reliability layer"),
    ("reliability_dups_suppressed_total", "reliability.dups_suppressed",
     "Duplicate datagrams suppressed by receivers"),
    ("sim_events_total", "sim.events", "Simulator events executed"),
)


class ShardTelemetry:
    """Attach sim-time sampling to one shard deployment."""

    def __init__(self, deployment, config: TelemetryConfig) -> None:
        self.deployment = deployment
        self.config = config
        self.shard = deployment.spec.index
        self.bank = SeriesBank(capacity=config.capacity)
        self.cadence_ns = ns_from_s(config.cadence_s)
        self._shard_labels = {"shard": str(self.shard)}
        #: Previous cumulative values, for per-interval deltas
        #: (duty cycle, exemplar attachment).
        self._prev: Dict[str, float] = {}
        self._prev_airtime = 0.0
        #: Most recent traced operation seen since the last sample:
        #: ``(time_ns, trace_id)`` or None.
        self._last_traced: Optional[Tuple[int, int]] = None
        self._last_sample_ns = -1
        #: Sample subscribers (gateway streaming hook): called with
        #: ``(time_ns, collector)`` after every completed sample.
        #: Subscribers must be read-only, like sampling itself.
        self._sample_listeners = []
        self._exemplar_listener = None
        tracer = deployment.sim.tracer
        if config.exemplars and tracer is not None:
            self._exemplar_listener = self._on_trace_event
            tracer.add_listener(self._exemplar_listener)
        # A plain periodic: sample() reads state (meters, metric
        # counters, queue depths) that fast-forward samplers mutate, so
        # its events are barriers that end fast-forward windows.
        self._periodic = deployment.sim.every(
            self.cadence_ns, self.sample, name="telemetry-sample")
        # Anchor every series with a t=0 sample so window deltas and
        # plots start from the origin.
        self.sample()

    # ---------------------------------------------------------------- control
    def stop(self) -> None:
        """Stop sampling (lets ``sim.run()`` terminate).  Idempotent."""
        self._periodic.cancel()
        tracer = self.deployment.sim.tracer
        if tracer is not None and self._exemplar_listener is not None:
            tracer.remove_listener(self._exemplar_listener)
            self._exemplar_listener = None

    def _on_trace_event(self, event) -> None:
        if event.trace_id is not None:
            self._last_traced = (event.time_ns, event.trace_id)

    def add_sample_listener(self, listener) -> None:
        """Subscribe to sampling ticks: ``listener(time_ns, collector)``
        fires after each completed sample (the gateway's ``/stream``
        telemetry push rides this).  Listeners must not mutate
        simulation state — the read-only sampling contract extends to
        them."""
        self._sample_listeners.append(listener)

    def remove_sample_listener(self, listener) -> None:
        """Detach a sample subscriber.  Idempotent."""
        try:
            self._sample_listeners.remove(listener)
        except ValueError:
            pass

    # --------------------------------------------------------------- sampling
    def _counter(self, name: str, value: float, help: str = "",
                 unit: str = "") -> None:
        """Record a fleet-wide cumulative counter sample; attaches the
        interval's exemplar when the counter advanced under a trace."""
        trace_id = None
        prev = self._prev.get(name)
        if (self._last_traced is not None and prev is not None
                and value > prev):
            trace_id = self._last_traced[1]
        self._prev[name] = value
        self.bank.series(
            name, kind="counter", merge="sum", unit=unit, help=help,
        ).record(self._now_ns, value, trace_id)

    def _level(self, name: str, value: float, help: str = "",
               unit: str = "") -> None:
        """Record a per-shard level gauge (labelled, max-merge)."""
        self.bank.series(
            name, kind="gauge", merge="max", labels=self._shard_labels,
            unit=unit, help=help,
        ).record(self._now_ns, value)

    def sample(self) -> None:
        """Take one sample of every probe at the current sim time.

        Idempotent per timestamp: a finalize-time sample that coincides
        with the last periodic tick is skipped, so merged documents
        never carry duplicate timestamps.
        """
        deployment = self.deployment
        now_ns = deployment.sim.now_ns
        if now_ns == self._last_sample_ns:
            return
        self._last_sample_ns = now_ns
        self._now_ns = now_ns
        things = deployment.things
        metrics_counters = deployment.metrics._counters

        # --- energy, by category and per node --------------------------
        meters = [thing.meter.snapshot() for thing in things]
        by_category = EnergyMeter.merge(meters)
        total = sum(by_category.values())
        self._counter("energy_joules_total", total,
                      "Energy dissipated by this fleet's Things",
                      unit="joules")
        for category, joules in by_category.items():
            self.bank.series(
                "energy_category_joules_total", kind="counter",
                merge="sum", labels={"category": category}, unit="joules",
                help="Energy dissipated, decomposed by source category",
            ).record(self._now_ns, joules)

        # --- radio ------------------------------------------------------
        net = deployment.network
        stats = net.stats
        self._counter("radio_tx_bytes_total", stats.bytes_sent,
                      "Datagram payload bytes offered to the radio",
                      unit="bytes")
        rx_bytes = (sum(t.stack.stats.bytes_received for t in things)
                    + deployment.client.stack.stats.bytes_received
                    + deployment.manager.stack.stats.bytes_received)
        self._counter("radio_rx_bytes_total", rx_bytes,
                      "Datagram payload bytes received by stacks",
                      unit="bytes")
        self._counter("radio_frames_total", stats.frames_sent,
                      "802.15.4 frames put on the air")
        airtime = net.airtime_s()
        self._counter("radio_airtime_seconds_total", airtime,
                      "Cumulative radio time-on-air", unit="seconds")
        interval_s = self.cadence_ns / 1e9
        duty = (airtime - self._prev_airtime) / interval_s
        self._prev_airtime = airtime
        self._level("radio_duty_cycle", duty,
                    "Fraction of the last interval the radio spent "
                    "transmitting")

        # --- reliability --------------------------------------------------
        for name, counter, help in _METRIC_COUNTERS:
            value = metrics_counters.get(counter)
            self._counter(name, value.value if value is not None else 0,
                          help)
        hits = sum(t.reply_cache_hits for t in things)
        self._counter("reliability_reply_cache_hits_total", hits,
                      "Duplicate requests answered from reply caches")

        # --- pending tables / queues -------------------------------------
        pending = (deployment.client.pending_count()
                   + deployment.manager.pending_count()
                   + sum(t.pending_installs() for t in things))
        self._level("pending_requests", pending,
                    "In-flight request-table entries (client + manager "
                    "+ Thing installs)")
        self._level("kernel_queue_depth", deployment.sim.pending_count(),
                    "Live events queued in the simulation kernel")
        self._level("vm_queue_depth",
                    sum(t.router.queue_depth for t in things),
                    "Deliveries queued at Thing event routers")

        # --- VM -----------------------------------------------------------
        self._counter("vm_cycles_total",
                      sum(t.router.stats.cycles for t in things),
                      "MCU cycles retired by VM event dispatch")

        # --- per node (optional) -----------------------------------------
        if self.config.per_node:
            first = deployment.spec.first_thing
            for local, thing in enumerate(things):
                labels = {"node": str(first + local)}
                self.bank.series(
                    "node_energy_joules_total", kind="counter",
                    merge="sum", labels=labels, unit="joules",
                    help="Energy dissipated per Thing",
                ).record(self._now_ns, thing.meter.total())
                self.bank.series(
                    "node_tx_bytes_total", kind="counter", merge="sum",
                    labels=labels, unit="bytes",
                    help="Stack bytes sent per Thing",
                ).record(self._now_ns, thing.stack.stats.bytes_sent)

        self._last_traced = None
        for listener in self._sample_listeners:
            listener(now_ns, self)

    # --------------------------------------------------------------- exports
    def snapshot(self) -> dict:
        """Pickle/JSON-safe view; rides the metrics snapshot across the
        process boundary from fleet workers."""
        snap = self.bank.snapshot()
        snap["cadence_ns"] = self.cadence_ns
        snap["shard"] = self.shard
        return snap


def install_telemetry(deployment, config: TelemetryConfig) -> ShardTelemetry:
    """Create and attach a collector for *deployment*."""
    return ShardTelemetry(deployment, config)


__all__ = ["ShardTelemetry", "install_telemetry"]
