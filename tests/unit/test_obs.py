"""Unit tests for the repro.obs tracing core and Chrome exporter."""

import json
import pickle
from pathlib import Path

from repro.obs.export import chrome_events, merge_traces
from repro.obs.report import collect_traces, critical_path, render_summary
from repro.obs.tracer import Tracer, install_tracer
from repro.sim.kernel import Simulator

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "golden_trace.json"


def make_tracer(sim=None, **kwargs):
    return Tracer(sim if sim is not None else Simulator(), **kwargs)


# ------------------------------------------------------------------ recording
def test_ring_buffer_evicts_oldest_and_counts_drops():
    tracer = make_tracer(limit=3)
    for index in range(5):
        tracer.instant(f"e{index}", "core")
    assert [event.name for event in tracer.events] == ["e2", "e3", "e4"]
    assert tracer.dropped == 2
    tracer.clear()
    assert tracer.events == ()
    assert tracer.dropped == 0


def test_category_gating_records_only_requested_categories():
    tracer = make_tracer(categories=("net",))
    assert tracer.enabled_for("net")
    assert not tracer.enabled_for("vm")
    assert not tracer.enabled_for("kernel")
    # None means everything, including the kernel firehose.
    assert make_tracer(categories=None).enabled_for("kernel")


def test_enable_category_reports_whether_it_changed_anything():
    tracer = make_tracer(categories=("net",))
    assert tracer.enable_category("proto") is True
    assert tracer.enable_category("proto") is False
    assert tracer.enabled_for("proto")
    tracer.disable_category("proto")
    assert not tracer.enabled_for("proto")


def test_span_end_is_idempotent_and_nesting_is_recorded():
    sim = Simulator()
    tracer = make_tracer(sim)
    outer = tracer.begin("outer", "core", 1)
    inner = tracer.begin("inner", "core", 1)
    inner.end()
    inner.end()  # double end: ignored
    outer.end()
    outer.end()
    phases = [(event.phase, event.name) for event in tracer.events]
    assert phases == [("B", "outer"), ("B", "inner"),
                      ("E", "inner"), ("E", "outer")]


def test_span_context_manager_closes_on_exit():
    tracer = make_tracer()
    with tracer.begin("op", "core", 1) as span:
        assert span.open
    assert not span.open
    assert [event.phase for event in tracer.events] == ["B", "E"]


def test_trace_ids_are_offset_by_the_shard_base():
    tracer = make_tracer(trace_id_base=(3 + 1) << 32)
    assert tracer.new_trace() == (4 << 32) + 1
    assert tracer.new_trace() == (4 << 32) + 2


def test_seq_bindings_evict_fifo_at_the_bound():
    from repro.obs import tracer as tracer_mod

    tracer = make_tracer()
    limit = tracer_mod._SEQ_BINDING_LIMIT
    for seq in range(limit + 10):
        tracer.bind_seq(seq, 1000 + seq)
    assert tracer.trace_for_seq(0) is None  # oldest evicted
    assert tracer.trace_for_seq(9) is None
    assert tracer.trace_for_seq(10) == 1010
    assert tracer.trace_for_seq(limit + 9) == 1000 + limit + 9


def test_tracks_get_stable_ids_from_one():
    tracer = make_tracer()
    assert tracer.track("a") == 1
    assert tracer.track("b") == 2
    assert tracer.track("a") == 1


def test_listeners_observe_recorded_events():
    tracer = make_tracer()
    seen = []
    tracer.add_listener(seen.append)
    tracer.instant("x", "core")
    tracer.remove_listener(seen.append)
    tracer.remove_listener(seen.append)  # idempotent
    tracer.instant("y", "core")
    assert [event.name for event in seen] == ["x"]


def test_snapshot_is_json_and_pickle_safe():
    tracer = make_tracer(label="shard-0")
    tracer.complete("slice", "net", tracer.track("t"), 100, args={"n": 1})
    snap = tracer.snapshot()
    assert pickle.loads(pickle.dumps(snap)) == snap
    # Payload bytes are only sanitised at export time.
    assert json.loads(json.dumps(snap)) == snap
    assert snap["label"] == "shard-0"
    assert snap["tracks"] == {"t": 1}


# --------------------------------------------------------------- kernel hooks
def test_attach_and_detach_by_assignment_toggle_kernel_tracing():
    # A tracer is attached and detached by assigning ``sim.tracer``:
    # step, run_until and schedule_at read it per event.
    sim = Simulator()
    tracer = install_tracer(sim, categories=None)
    assert sim.tracer is tracer
    seen = []

    def leaf():
        seen.append(tracer.current)

    tracer.current = tracer.new_trace()
    sim.schedule(1, leaf, name="leaf")
    sim.schedule(2, leaf, name="leaf")
    tracer.current = None
    assert sim.step()  # traced: the stamped id is current again
    sim.tracer = None
    recorded = len(tracer.events)
    sim.run_until(10)  # stamped too, but nothing restores it now
    assert seen == [1, None]
    assert len(tracer.events) == recorded == 1
    tracer.current = tracer.new_trace()
    handle = sim.schedule(1, leaf, name="untraced")
    tracer.current = None
    assert not hasattr(handle._event, "trace_id")


def test_kernel_propagates_the_current_trace_across_schedules():
    sim = Simulator()
    tracer = install_tracer(sim)
    seen = []

    def leaf():
        seen.append(tracer.current)

    def root():
        tracer.current = tracer.new_trace()
        sim.schedule(10, leaf)
        sim.schedule(20, leaf)

    sim.schedule(0, root)
    sim.schedule(50, leaf)  # scheduled outside any trace context
    sim.run()
    assert seen == [1, 1, None]
    assert tracer.current is None  # always reset after each event


def test_untraced_simulator_events_carry_no_trace_attribute():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: fired.append(True))
    event = sim._queue[0][2]
    assert not hasattr(event, "trace_id")
    sim.run()
    assert fired == [True]


# ------------------------------------------------------------------- exporter
def _golden_session():
    """A fully scripted tracer session: byte-deterministic by design."""
    sim = Simulator()
    tracer = install_tracer(sim, limit=64, label="golden")
    track = tracer.track("worker")
    trace = tracer.new_trace()
    tracer.async_begin("client.read", "core", trace)
    tracer.complete("stack.send", "net", track, 2_000, ts_ns=1_000,
                    trace_id=trace, args={"payload": b"\x01\x02"})
    tracer.instant("thing.rx", "core", track, trace_id=trace)
    tracer.complete("adc.sample", "interconnect", track, 500, ts_ns=4_000,
                    trace_id=trace)
    tracer.async_end("client.read", "core", trace)
    return merge_traces([tracer.snapshot()])


def test_chrome_export_matches_the_golden_file():
    document = _golden_session()
    rendered = json.dumps(document, indent=1, sort_keys=True) + "\n"
    assert rendered == GOLDEN.read_text(), (
        "exporter output drifted from tests/data/golden_trace.json; if the "
        "change is intentional, regenerate the golden file")


def test_export_emits_metadata_flow_and_async_ids():
    document = _golden_session()
    events = document["traceEvents"]
    names = {(e["ph"], e["name"]) for e in events}
    assert ("M", "process_name") in names
    assert ("M", "thread_name") in names
    flows = [e for e in events if e.get("cat") == "trace"]
    assert [f["ph"] for f in flows] == ["s", "t"]  # one start, then steps
    assert all(f["id"] == "0x1" for f in flows)
    asyncs = [e for e in events if e["ph"] in ("b", "e")]
    assert [a["id"] for a in asyncs] == ["0x1", "0x1"]
    payload = next(e for e in events if e["name"] == "stack.send")
    assert payload["args"]["payload"] == "0102"  # bytes -> hex
    assert payload["dur"] == 2.0  # ns -> us


def test_merge_preserves_shard_order_and_reserves_missing_pids():
    snap = make_tracer(label="s2").snapshot()
    document = merge_traces([None, None, snap])
    pids = {event["pid"] for event in document["traceEvents"]}
    assert pids == {2}


_TELEMETRY_SNAP = {
    "series": [
        {"name": "fleet.reads_ok", "labels": {}, "kind": "counter",
         "unit": "", "help": "", "samples": [[1_000_000, 1.0],
                                             [2_000_000, 3.0]]},
        {"name": "fleet.energy_joules", "labels": {"node": "thing-0"},
         "kind": "gauge", "unit": "J", "help": "",
         "samples": [[1_000_000, 0.5]]},
    ],
}


def test_counter_events_render_telemetry_series_as_chrome_counters():
    from repro.obs.export import counter_events

    events = counter_events(_TELEMETRY_SNAP, pid=3)
    assert all(e["ph"] == "C" and e["pid"] == 3 for e in events)
    reads = [e for e in events if e["name"] == "fleet.reads_ok"]
    assert [e["ts"] for e in reads] == [1000.0, 2000.0]  # ns -> us
    assert [e["args"]["reads_ok"] for e in reads] == [1.0, 3.0]
    # Label sets decorate the track name (OpenMetrics style).
    labeled = [e for e in events if "{" in e["name"]]
    assert labeled and labeled[0]["name"] == \
        "fleet.energy_joules{node=thing-0}"


def test_merge_traces_embeds_telemetry_counters_on_the_shard_pid():
    snap = make_tracer(label="s0").snapshot()
    document = merge_traces([snap], telemetry=[_TELEMETRY_SNAP])
    counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
    assert len(counters) == 3
    assert {e["pid"] for e in counters} == {0}
    # Tracer events are untouched alongside.
    assert any(e["ph"] != "C" for e in document["traceEvents"])


# --------------------------------------------------------------------- report
def test_collect_traces_and_critical_path_reports_waits():
    document = _golden_session()
    traces = collect_traces(document)
    assert set(traces) == {1}
    summary = traces[1]
    assert summary.label == "client.read"
    assert summary.by_cat_us == {"net": 2.0, "interconnect": 0.5}
    path = critical_path(summary)
    assert [name for _, _, name, _ in path] == ["stack.send", "adc.sample"]
    rendered = render_summary(document)
    assert "client.read" in rendered
    assert "wait" in rendered  # the 1 us gap between the slices
