"""Integration: cross-layer causal tracing, fleet trace merge, CLIs."""

import json

from repro.drivers.catalog import TMP36_ID, make_peripheral_board
from repro.fleet.runner import run_scenario
from repro.fleet.scenario import ChurnProfile, FleetScenario
from repro.obs.export import chrome_events
from repro.obs.smoke import read_trace_layers, traced_read
from repro.obs.tracer import install_tracer
from repro.protocol.trace import ProtocolTracer
from repro.sim.kernel import Simulator

#: Two shards so the merge actually has something to order.
TRACED_FLEET = FleetScenario(
    name="traced", things=4, shard_size=2, duration_s=6.0, seed=7,
    churn=ChurnProfile(churn_interval_s=2.0, discovery_interval_s=1.0,
                       hot_update_interval_s=3.0, read_interval_s=1.0),
    trace=True, trace_limit=20_000,
)


# --------------------------------------------------------------- causal chain
def test_one_client_read_becomes_one_multi_layer_trace():
    document, info = traced_read(hops=2)
    assert info["result"] is not None and info["result"].ok
    assert info["read_trace_id"] is not None
    # The single trace tree crosses client core, net, VM and the bus.
    assert {"net", "vm", "interconnect"} <= info["layers"]


def test_more_hops_mean_more_net_hop_slices_in_the_same_trace():
    def hop_slices(hops):
        document, info = traced_read(hops=hops)
        trace_id = info["read_trace_id"]
        return sum(
            1
            for event in document["traceEvents"]
            if event.get("ph") == "X" and event.get("name") == "net.hop"
            and event.get("args", {}).get("trace_id") == trace_id
        )

    one, three = hop_slices(1), hop_slices(3)
    assert one >= 2          # request + reply cross the radio at least once
    assert three > one       # every extra relay adds hops to the same trace


def test_trace_ids_ride_seq_numbers_across_the_wire(world):
    tracer = install_tracer(world.sim)
    world.thing.plug(make_peripheral_board("tmp36", rng=world.rng.stream("m")))
    world.run(4.0)
    tracer.clear()
    results = []
    world.client.read(world.thing.address, TMP36_ID, results.append)
    world.run(2.0)
    assert results and results[0].ok
    trace_id, layers = read_trace_layers(
        {"traceEvents": chrome_events(tracer.snapshot())})
    # The Thing adopted the client's trace id from the message seq:
    # its rx instant and the VM/bus slices all belong to the read trace.
    assert trace_id is not None
    assert {"net", "vm", "interconnect"} <= layers


# ----------------------------------------------------------- tracer lifetimes
def test_protocol_tracer_installs_and_close_detaches(world):
    assert world.sim.tracer is None
    with ProtocolTracer(world.network) as tracer:
        assert world.sim.tracer is not None
        world.thing.plug(
            make_peripheral_board("tmp36", rng=world.rng.stream("m")))
        world.run(3.0)
        assert tracer.numbers() == [4, 5, 1]
    # close() uninstalled the tracer it created and restored the kernel.
    assert world.sim.tracer is None
    assert world.sim.step.__func__ is Simulator.step
    tracer.close()  # idempotent


def test_protocol_tracer_reuses_an_existing_tracer(world):
    existing = install_tracer(world.sim)
    tracer = ProtocolTracer(world.network)
    world.thing.plug(make_peripheral_board("tmp36", rng=world.rng.stream("m")))
    world.run(3.0)
    assert tracer.numbers() == [4, 5, 1]
    tracer.close()
    assert world.sim.tracer is existing  # not ours to uninstall
    assert existing.enabled_for("proto")  # was already on; left alone


def test_network_remove_monitor_is_idempotent(world):
    seen = []

    class Monitor:
        def on_send(self, *args, **kwargs):
            seen.append(args)

    monitor = Monitor()
    world.network.add_monitor(monitor)
    world.network.remove_monitor(monitor)
    world.network.remove_monitor(monitor)  # second remove: no error
    world.thing.plug(make_peripheral_board("tmp36", rng=world.rng.stream("m")))
    world.run(3.0)
    assert seen == []


# ----------------------------------------------------------------- fleet runs
def test_fleet_trace_merge_is_identical_for_any_worker_count():
    serial = run_scenario(TRACED_FLEET, workers=1)
    parallel = run_scenario(TRACED_FLEET, workers=2)
    assert serial.trace_document() == parallel.trace_document()
    # Shard traces exist and pids follow shard order.
    document = serial.trace_document()
    assert len(serial.shard_traces) == TRACED_FLEET.shard_count
    assert all(snap is not None for snap in serial.shard_traces)
    pids = sorted({event["pid"] for event in document["traceEvents"]})
    assert pids == [0, 1]


def test_untraced_fleet_has_no_shard_traces():
    result = run_scenario(TRACED_FLEET.scaled(trace=False), workers=1)
    assert result.shard_traces == [None, None]
    assert result.trace_document()["traceEvents"] == []


def test_fleet_cli_writes_a_loadable_trace(tmp_path, capsys):
    from repro.fleet.__main__ import main

    out = tmp_path / "fleet-trace.json"
    code = main(["--scenario", "smoke", "--nodes", "4", "--duration", "6",
                 "--trace", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    assert document["traceEvents"]
    assert "trace:" in capsys.readouterr().out


def test_obs_smoke_cli_passes_and_writes_the_trace(tmp_path, capsys):
    from repro.obs.__main__ import main

    out = tmp_path / "read-trace.json"
    assert main(["smoke", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["traceEvents"]
    assert main(["report", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "client.read" in stdout
    assert "critical path:" in stdout
