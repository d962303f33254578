"""Unit tests for the fleet scenario engine and its metrics core."""

import json
import pickle

import pytest

from repro.fleet.metrics import Metrics
from repro.fleet.runner import (
    CheckpointPlan,
    FleetResult,
    effective_workers,
    resume_scenario,
    run_scenario,
    run_shard,
)
from repro.fleet.scenario import SCENARIOS, ChurnProfile, FleetScenario

#: Small but real: every churn process fires at least once.
TINY = FleetScenario(
    name="tiny", things=4, shard_size=2, duration_s=6.0, seed=7,
    churn=ChurnProfile(churn_interval_s=2.0, discovery_interval_s=1.0,
                       hot_update_interval_s=3.0, read_interval_s=1.0),
)


# -------------------------------------------------------------------- metrics
def test_metrics_counters_and_gauges_merge_by_sum():
    a = Metrics()
    a.inc("x", 2)
    a.gauge("g").add(1.5)
    b = Metrics()
    b.inc("x", 3)
    b.inc("y")
    b.gauge("g").add(0.5)
    merged = Metrics.merge([a.snapshot(), b.snapshot()])
    assert merged["counters"] == {"x": 5, "y": 1}
    assert merged["gauges"]["g"] == 2.0


def test_metrics_histograms_merge_bucketwise():
    a = Metrics()
    b = Metrics()
    for value in (0.01, 0.02):
        a.observe("lat", value)
    b.observe("lat", 0.04)
    merged = Metrics.merge([a.snapshot(), b.snapshot()])
    hist = Metrics.histogram_from(merged, "lat")
    assert hist.count == 3
    assert Metrics.percentiles(merged, "lat") is not None
    assert Metrics.percentiles(merged, "missing") is None


def test_metrics_snapshot_is_json_and_pickle_safe():
    metrics = Metrics()
    metrics.inc("c")
    metrics.observe("h", 0.1)
    snap = metrics.snapshot()
    assert json.loads(json.dumps(snap)) == snap
    assert pickle.loads(pickle.dumps(snap)) == snap


def test_merge_is_independent_of_grouping():
    snaps = []
    for i in range(4):
        m = Metrics()
        m.inc("n", i + 1)
        m.observe("h", 0.01 * (i + 1))
        snaps.append(m.snapshot())
    all_at_once = Metrics.merge(snaps)
    two_stage = Metrics.merge(
        [Metrics.merge(snaps[:2]), Metrics.merge(snaps[2:])]
    )
    assert all_at_once == two_stage


# ------------------------------------------------------------------- scenario
def test_scenario_sharding_covers_all_things_exactly_once():
    scenario = FleetScenario(things=55, shard_size=25)
    specs = scenario.shards()
    assert scenario.shard_count == 3
    assert [s.things for s in specs] == [25, 25, 5]
    assert [s.first_thing for s in specs] == [0, 25, 50]
    assert sum(s.things for s in specs) == scenario.things


def test_scenario_validation():
    with pytest.raises(ValueError):
        FleetScenario(things=0)
    with pytest.raises(ValueError):
        FleetScenario(duration_s=0)
    with pytest.raises(ValueError):
        FleetScenario(peripheral_mix=())


def test_shard_specs_are_pickle_safe():
    for spec in TINY.shards():
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


def test_named_scenarios_are_well_formed():
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name
        assert scenario.shard_count >= 1


# --------------------------------------------------------------------- runner
def test_shard_runs_are_deterministic():
    spec = TINY.shards()[0]
    assert run_shard(spec) == run_shard(spec)


def test_shards_differ_from_each_other():
    first, second = TINY.shards()[:2]
    assert run_shard(first) != run_shard(second)


def test_run_scenario_end_to_end_serial():
    result = run_scenario(TINY, workers=1)
    assert isinstance(result, FleetResult)
    assert result.counter("identifications") >= TINY.things
    assert result.counter("sim.events") > 0
    assert result.counter("net.datagrams_sent") > 0
    assert result.counter("vm.events_dispatched") > 0
    assert result.merged["gauges"]["energy.things_joules"] > 0
    latencies = result.percentiles("latency.identification_s")
    assert latencies is not None and latencies[0] > 0
    assert len(result.shard_snapshots) == TINY.shard_count


def test_run_scenario_merged_metrics_independent_of_workers():
    serial = run_scenario(TINY, workers=1)
    parallel = run_scenario(TINY, workers=2)
    assert serial.merged == parallel.merged


def test_workers_clamp_to_cpus_and_shards(monkeypatch, tmp_path):
    parallel = run_scenario(TINY, workers=2)
    monkeypatch.setattr("repro.fleet.runner.os.cpu_count", lambda: 1)
    clamped = run_scenario(
        TINY, workers=4,
        checkpoint=CheckpointPlan(directory=str(tmp_path), at_s=3.0))
    assert not clamped.used_processes
    assert (clamped.workers, clamped.workers_requested) == (1, 4)
    assert clamped.merged == parallel.merged
    resumed = resume_scenario(tmp_path, workers=3)
    assert not resumed.used_processes
    assert (resumed.workers, resumed.workers_requested) == (1, 3)
    assert resumed.merged == parallel.merged

    monkeypatch.setattr("repro.fleet.runner.os.cpu_count", lambda: 16)
    assert effective_workers(8, TINY.shard_count) == TINY.shard_count
    monkeypatch.setattr("repro.fleet.runner.os.cpu_count", lambda: None)
    assert effective_workers(8, TINY.shard_count) == 1


def test_seed_changes_the_run():
    base = run_scenario(TINY, workers=1)
    other = run_scenario(TINY.scaled(seed=8), workers=1)
    assert base.merged != other.merged


# ------------------------------------------------------------------------ CLI
def test_cli_smoke(capsys, tmp_path):
    from repro.fleet.__main__ import main

    out_json = tmp_path / "fleet.json"
    code = main(["--scenario", "smoke", "--nodes", "4", "--shard-size", "2",
                 "--duration", "5", "--seed", "3", "--workers", "1",
                 "--json", str(out_json)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "identifications" in printed
    assert "latency percentiles" in printed
    document = json.loads(out_json.read_text())
    assert document["scenario"]["things"] == 4
    assert document["metrics"]["counters"]["identifications"] >= 4


def test_cli_list_and_unknown(capsys):
    from repro.fleet.__main__ import main

    assert main(["--list"]) == 0
    assert "smoke" in capsys.readouterr().out
    assert main(["--scenario", "nope"]) == 2


# ---------------------------------------------------------------- gauge modes
def test_gauge_modes_merge_sum_max_last():
    snaps = []
    for value in (3.0, 7.0, 5.0):
        m = Metrics()
        m.gauge("s").add(value)
        m.gauge("peak", mode="max").add(value)
        m.gauge("cfg", mode="last").add(value)
        snaps.append(m.snapshot())
    merged = Metrics.merge(snaps)
    assert merged["gauges"]["s"] == 15.0
    assert merged["gauges"]["peak"] == 7.0
    assert merged["gauges"]["cfg"] == 5.0  # highest shard index wins
    assert merged["gauge_modes"] == {"cfg": "last", "peak": "max"}


def test_gauge_mode_conflict_raises():
    m = Metrics()
    m.gauge("g", mode="max")
    with pytest.raises(ValueError):
        m.gauge("g", mode="sum")
    # Re-requesting with the same mode is fine.
    assert m.gauge("g", mode="max") is m.gauge("g", mode="max")


def test_gauge_rejects_unknown_mode():
    with pytest.raises(ValueError):
        Metrics().gauge("g", mode="median")


def test_snapshot_omits_gauge_modes_when_all_sum():
    """Back-compat: sum-only snapshots keep the pre-mode shape, so old
    merged documents and their digests are unchanged."""
    m = Metrics()
    m.inc("c")
    m.gauge("g").add(1.0)
    snap = m.snapshot()
    assert "gauge_modes" not in snap
    merged = Metrics.merge([snap])
    assert "gauge_modes" not in merged


def test_merge_defaults_unlabelled_gauges_to_sum():
    """Snapshots from older code (no gauge_modes key) still sum."""
    merged = Metrics.merge([
        {"counters": {}, "gauges": {"g": 1.0}, "histograms": {}},
        {"counters": {}, "gauges": {"g": 2.0}, "histograms": {}},
    ])
    assert merged["gauges"]["g"] == 3.0
