"""Unit tests for repro.gateway.obs: decomposition, journal, flight.

All recording here goes through the public API with explicit ``now_ns``
overrides, so every assertion is exact — no sleeping, no sockets.
"""

import json

import pytest

from repro.gateway.bridge import Op, OpResult
from repro.gateway.obs import (
    COMPONENTS,
    DEFAULT_GATEWAY_SLOS,
    GatewayObsConfig,
    LATENCY_HIST_ARGS,
    GatewayObservability,
)
from repro.sim.stats import percentile
from repro.telemetry.health import SloRule, evaluate
from repro.telemetry.export import to_openmetrics, validate_openmetrics


def _result(status=200, admitted_ns=0, sim_latency_ns=0, trace_id=None):
    return OpResult(status=status, body={}, admitted_ns=admitted_ns,
                    sim_latency_ns=sim_latency_ns, trace_id=trace_id)


def _record(obs, index, *, kind="read", queue_ms=1.0, exec_ms=2.0,
            status=200, admitted_ns=0, sim_latency_ns=0, trace_id=None,
            now_ns=None):
    return obs.record_op(
        index,
        Op(kind, thing=0, name="temp", request_id=f"req-{index}"),
        _result(status=status, admitted_ns=admitted_ns,
                sim_latency_ns=sim_latency_ns, trace_id=trace_id),
        queue_wait_ns=int(queue_ms * 1e6),
        sim_exec_ns=int(exec_ms * 1e6),
        now_ns=now_ns if now_ns is not None else (index + 1) * 1_000_000)


class TestConfig:
    def test_defaults(self):
        config = GatewayObsConfig()
        assert config.enabled
        assert config.flight_dir is None
        assert config.slos == DEFAULT_GATEWAY_SLOS
        assert config.journal_size == 32
        assert config.ring_size == 256

    def test_frozen(self):
        with pytest.raises(Exception):
            GatewayObsConfig().enabled = False


class TestDecomposition:
    def test_record_op_math(self):
        obs = GatewayObservability()
        record = _record(obs, 0, queue_ms=1.5, exec_ms=2.25,
                         admitted_ns=10, sim_latency_ns=1_000_000,
                         trace_id=7)
        assert record["queue_wait_ms"] == pytest.approx(1.5)
        assert record["sim_exec_ms"] == pytest.approx(2.25)
        assert record["wall_ms"] == pytest.approx(3.75)
        assert record["reply_write_ms"] is None
        assert record["request_id"] == "req-0"
        assert record["trace_id"] == 7
        assert record["admitted_ns"] == 10

    def test_reply_mutates_shared_record(self):
        obs = GatewayObservability()
        record = _record(obs, 0)
        obs.record_reply(record, reply_ns=4_000_000)
        assert record["reply_write_ms"] == pytest.approx(4.0)
        # The journal holds the same dict, so /debug/ops sees it too.
        assert obs.journal_snapshot()[0]["reply_write_ms"] == \
            pytest.approx(4.0)

    def test_error_counting(self):
        obs = GatewayObservability()
        _record(obs, 0, status=200)
        _record(obs, 1, status=504)
        _record(obs, 2, status=404)  # client errors are not 5xx errors
        summary = obs.summary()["kinds"]["read"]
        assert summary["count"] == 3
        assert summary["errors"] == 1

    def test_summary_percentiles(self):
        obs = GatewayObservability()
        samples = [float(i + 1) for i in range(100)]
        for i, exec_ms in enumerate(samples):
            _record(obs, i, queue_ms=0.0, exec_ms=exec_ms)
        stats = obs.summary()["kinds"]["read"]["sim_exec_ms"]
        assert stats["count"] == 100
        assert stats["max"] == pytest.approx(100.0)
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]
        assert set(COMPONENTS) < set(obs.summary()["kinds"]["read"])
        # Bucketed estimates stay within one bucket of the exact value.
        bucket = 10.0 ** (1.0 / LATENCY_HIST_ARGS[2])
        for q in (50, 95, 99):
            exact = percentile(samples, q)
            assert exact / bucket <= stats[f"p{q}"] <= exact * bucket, q

    def test_component_counts_do_not_saturate(self):
        obs = GatewayObservability()
        ops = 70_000
        for i in range(ops):
            _record(obs, i, queue_ms=0.5, exec_ms=1.0 + (i % 7))
        kind = obs.summary()["kinds"]["read"]
        assert kind["count"] == ops
        for component in ("queue_wait_ms", "sim_exec_ms", "wall_ms"):
            assert kind[component]["count"] == ops, component
        assert kind["sim_exec_ms"]["max"] == pytest.approx(7.0)


class TestJournalAndRing:
    def test_journal_keeps_worst_n(self):
        obs = GatewayObservability(GatewayObsConfig(journal_size=4))
        for i in range(20):
            _record(obs, i, queue_ms=0.0, exec_ms=float(i))
        worst = obs.journal_snapshot()
        assert len(worst) == 4
        assert [r["index"] for r in worst] == [19, 18, 17, 16]

    def test_ring_bounded(self):
        obs = GatewayObservability(GatewayObsConfig(ring_size=8))
        for i in range(32):
            _record(obs, i)
        assert len(obs.ring) == 8
        assert obs.ring[0]["index"] == 24


class TestTwoPlanes:
    def test_deterministic_view_excludes_wall_plane(self):
        obs = GatewayObservability()
        _record(obs, 0, admitted_ns=1_000, sim_latency_ns=2_000_000)
        obs.record_stream_dropped(1, now_ns=5)
        view = obs.deterministic_view()
        names = {s["name"] for s in view["series"]}
        assert names == {"gateway_sim_ops_total", "gateway_sim_latency_ms"}
        # Sim-plane timestamps are simulated time, not wall time.
        latency = next(s for s in view["series"]
                       if s["name"] == "gateway_sim_latency_ms")
        assert latency["samples"] == [[2_001_000, 2.0]]

    def test_unadmitted_ops_stay_off_the_sim_plane(self):
        obs = GatewayObservability()
        _record(obs, 0, admitted_ns=0, sim_latency_ns=0)  # e.g. list/td
        assert obs.deterministic_view()["series"] == []

    def test_deterministic_view_is_replay_stable(self):
        def run():
            obs = GatewayObservability()
            for i in range(5):
                _record(obs, i, admitted_ns=(i + 1) * 1_000,
                        sim_latency_ns=500_000, now_ns=i * 7_777_777)
            return json.dumps(obs.deterministic_view(), sort_keys=True)
        assert run() == run()

    def test_openmetrics_exposition_is_valid(self):
        obs = GatewayObservability(op_kinds=("read", "write"))
        _record(obs, 0, admitted_ns=10, sim_latency_ns=1_000)
        obs.record_reply(obs.ring[0], reply_ns=100_000)
        obs.record_stream_dropped(2, now_ns=50)
        text = to_openmetrics(obs.bank.snapshot())
        assert validate_openmetrics(text) == []
        assert "gateway_queue_wait_ms" in text
        assert "gateway_stream_dropped_total" in text


class TestFlightRecorder:
    IMPOSSIBLE = ("always: gateway_op_wall_ms.p95 < 0.000001 window=60",)

    def test_dump_on_degraded(self, tmp_path):
        obs = GatewayObservability(GatewayObsConfig(
            flight_dir=str(tmp_path), slos=self.IMPOSSIBLE,
            slo_check_interval_s=0.0))
        _record(obs, 0, trace_id=42)
        report = obs.maybe_check_slo(
            context=lambda: {"pacing": "free"},
            trace_lookup=lambda ids: {str(i): [{"name": "x"}] for i in ids},
            now_ns=1)
        assert report.status == "degraded"
        assert len(obs.flight_dumps) == 1
        flight = json.loads((tmp_path / "flight-0000.json").read_text())
        assert flight["reason"] == "slo-degraded"
        assert flight["requests"][0]["request_id"] == "req-0"
        assert flight["traces"]["42"] == [{"name": "x"}]
        assert flight["context"] == {"pacing": "free"}
        assert flight["slo"]["status"] == "degraded"

    def test_disarm_until_recovery(self, tmp_path):
        obs = GatewayObservability(GatewayObsConfig(
            flight_dir=str(tmp_path), slos=self.IMPOSSIBLE,
            slo_check_interval_s=0.0))
        _record(obs, 0)
        obs.maybe_check_slo(now_ns=1)
        obs.maybe_check_slo(now_ns=2)  # still degraded: no second dump
        assert len(obs.flight_dumps) == 1
        # Recovery re-arms: wipe the breach by using a fresh rule window.
        obs._rules = ()
        assert obs.maybe_check_slo(now_ns=3) is None

    def test_flight_limit(self, tmp_path):
        obs = GatewayObservability(GatewayObsConfig(
            flight_dir=str(tmp_path), slos=self.IMPOSSIBLE,
            slo_check_interval_s=0.0, flight_limit=1))
        _record(obs, 0)
        obs.maybe_check_slo(now_ns=1)
        obs._armed = True  # simulate recovery + new breach
        obs.maybe_check_slo(now_ns=2)
        assert len(obs.flight_dumps) == 1

    def test_no_dir_means_no_dump(self):
        obs = GatewayObservability(GatewayObsConfig(
            slos=self.IMPOSSIBLE, slo_check_interval_s=0.0))
        _record(obs, 0)
        report = obs.maybe_check_slo(now_ns=1)
        assert report.status == "degraded"
        assert obs.flight_dumps == []

    def test_interval_gating(self, tmp_path):
        obs = GatewayObservability(GatewayObsConfig(
            flight_dir=str(tmp_path), slos=self.IMPOSSIBLE,
            slo_check_interval_s=1.0))
        _record(obs, 0)
        assert obs.maybe_check_slo(now_ns=10).status == "degraded"
        # Within the 1 s interval: skipped entirely.
        assert obs.maybe_check_slo(now_ns=500_000_000) is None
        assert obs.maybe_check_slo(now_ns=2_000_000_000) is not None


class TestStreamDropped:
    def test_counter_recorded(self):
        obs = GatewayObservability()
        obs.record_stream_dropped(3, now_ns=9)
        assert obs.summary()["stream_dropped"] == 3
        snap = obs.bank.snapshot()
        series = next(s for s in snap["series"]
                      if s["name"] == "gateway_stream_dropped_total")
        assert series["samples"][-1][1] == 3


class TestWallPlaneSampling:
    def test_one_sample_per_interval_with_the_worst_op_as_exemplar(self):
        obs = GatewayObservability(op_kinds=("read",))
        for i, exec_ms in enumerate([1.0, 9.0, 4.0]):
            _record(obs, i, exec_ms=exec_ms, trace_id=100 + i)
        series = {(s.name, s.labels.get("kind")): s for s in obs.bank}
        wall = series[("gateway_op_wall_ms", "read")]
        assert len(wall) == 0
        obs.maybe_check_slo(now_ns=5_000_000)
        assert wall.samples == ((5_000_000, 10.0),)
        assert wall.exemplars == [(5_000_000, 10.0, 101)]
        assert series[("gateway_ops_total", "read")].samples == \
            ((5_000_000, 3.0),)
        assert series[("gateway_sim_exec_ms", "read")].last[1] == 9.0
        # Nothing new in the next interval: no new samples.
        obs.maybe_check_slo(now_ns=2_000_000_000)
        assert len(wall) == 1
        assert len(series[("gateway_ops_total", "read")]) == 1


def _per_op_document(samples, names):
    """The reference input of ``telemetry.health.evaluate``: every
    per-op sample of the named series, one series per (name, kind)."""
    series = {}
    for name, kind, t, value in samples:
        series.setdefault((name, kind), []).append([t, value])
    document = [{"name": n, "labels": {"kind": k}, "samples": s}
                for (n, k), s in series.items() if n in names]
    return {"series": document
            + [{"name": n, "labels": {}, "samples": []} for n in names]}


class TestSloWindowsMatchTheDocumentEvaluation:
    RULES = DEFAULT_GATEWAY_SLOS + (
        "sim_tail: gateway_sim_latency_ms.p95 < 40 window=1",
        "exec_mean: gateway_sim_exec_ms.mean < 500 window=2",
        "queue_last: gateway_queue_wait_ms.last < 50 window=3",
        "error_burst: gateway_op_errors_total.delta < 3 window=4",
        "exec_max: gateway_sim_exec_ms.max <= 900",
    )

    def _drive(self, rules):
        """Healthy, then slow and failing, then healthy again; the
        old per-op evaluation and the new windows judged side by side
        at every 1 s check."""
        obs = GatewayObservability(
            GatewayObsConfig(slos=rules, slo_check_interval_s=1.0),
            op_kinds=("read", "write"))
        parsed = [SloRule.parse(text) for text in rules]
        names = ({r.series for r in parsed}
                 | {r.ratio_to for r in parsed if r.ratio_to})
        samples, counts, errors = [], {}, {}
        statuses = []
        sim_ns = 0
        for i in range(300):
            t = 37_000_000 + i * 100_000_000       # one op per 100 ms
            kind = ("read", "write")[i % 3 == 0]
            bad = 100 <= i < 160
            exec_ms = 1_000.0 if bad else 5.0 + i % 7
            queue_ms = 60.0 if bad and i % 2 else 2.0
            status = 504 if bad and i % 4 == 0 else 200
            sim_ns += 50_000_000
            latency_ns = (80 if bad else 10) * 1_000_000
            result = OpResult(status=status, admitted_ns=sim_ns,
                              sim_latency_ns=latency_ns)
            obs.record_op(i, Op(kind), result,
                          queue_wait_ns=int(queue_ms * 1e6),
                          sim_exec_ns=int(exec_ms * 1e6), now_ns=t)
            counts[kind] = counts.get(kind, 0) + 1
            errors[kind] = errors.get(kind, 0) + (status >= 500)
            samples += [
                ("gateway_ops_total", kind, t, counts[kind]),
                ("gateway_op_errors_total", kind, t, errors[kind]),
                ("gateway_queue_wait_ms", kind, t, queue_ms),
                ("gateway_sim_exec_ms", kind, t, exec_ms),
                ("gateway_op_wall_ms", kind, t, queue_ms + exec_ms),
                ("gateway_sim_latency_ms", kind, sim_ns + latency_ns,
                 latency_ns / 1e6),
            ]
            report = obs.maybe_check_slo(now_ns=t)
            if report is None:
                continue
            expected = evaluate(parsed, _per_op_document(samples, names))
            assert report.as_dict() == expected.as_dict(), i
            statuses.append(report.status)
            self.last = report
        return statuses

    def test_default_rules_degrade_then_recover(self):
        statuses = self._drive(DEFAULT_GATEWAY_SLOS)
        assert statuses[0] == "ok"
        assert "degraded" in statuses
        assert statuses[-1] == "recovered"

    def test_every_aggregate_and_the_sim_plane_agree(self):
        statuses = self._drive(self.RULES)
        assert statuses[0] == "ok" and "degraded" in statuses
        final = {r.rule.name: r.status for r in self.last.results}
        assert final.pop("gateway_op_p95") == "ok"
        assert set(final.values()) == {"recovered"}

    def test_sim_plane_rule_alone(self):
        statuses = self._drive(self.RULES[2:3])
        assert statuses[0] == "ok" and statuses[-1] == "recovered"
