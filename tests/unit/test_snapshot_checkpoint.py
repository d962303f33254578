"""Unit tests for checkpoint manifests, migrations, diff and fork."""

import hashlib
import io
import json
import random
from collections import Counter

import pytest

from repro.analysis.vmperf import _encode, _i, _image_for
from repro.dsl.bytecode import Op
from repro.fleet.deployment import ShardDeployment
from repro.fleet.scenario import SCENARIOS
from repro.profile.config import ProfileConfig
from repro.sim.kernel import Simulator, ns_from_ms, ns_from_s
from repro.sim.rng import RngRegistry
from repro.snapshot.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    _save_shard_sim_v4,
    digest_document,
    load_fleet_meta,
    load_shard,
    read_manifest,
    read_summary,
    save_fleet_meta,
    save_shard,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.snapshot.codec import (
    SnapshotPickler,
    dumps_state,
    loads_state,
    pack_stream,
)
from repro.snapshot.diff import diff_documents, diff_lines, flatten
from repro.snapshot.migrate import register_state_migration, upgrade_state
from repro.snapshot.state import (
    RNG_DIGEST_KEY,
    DeclaredState,
    _digest,
    _legacy_rng_state_digest,
    _rng_state_digest,
    _rng_summary,
    layer_schemas,
    schema_hash,
    shard_summary,
)
from repro.telemetry.config import TelemetryConfig
from repro.vm import fastpath
from repro.vm.machine import DriverInstance, VirtualMachine


def _small_deployment():
    scenario = SCENARIOS["smoke"].scaled(
        things=4, shard_size=4, duration_s=2.0)
    deployment = ShardDeployment(scenario.shards()[0])
    deployment.start()
    deployment.sim.run_until(ns_from_s(1.0))
    return deployment


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ckpt") / "shard-0000"
    deployment = _small_deployment()
    manifest = save_shard(deployment, directory, label="unit")
    return directory, deployment, manifest


def _copy_checkpoint(directory, copy):
    copy.mkdir()
    for name in ("manifest.json", "summary.json", "state.bin"):
        (copy / name).write_bytes((directory / name).read_bytes())
    return copy


def _rewrite_manifest(copy, **fields):
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest.update(fields)
    (copy / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _rewrite_summary_as_legacy(copy):
    """Put *copy*'s summary.json in the form saved before the RNG digest
    marker: ``repr`` stream digests, no marker, indented."""
    deployment = loads_state((copy / "state.bin").read_bytes())
    summary = read_summary(copy)
    del summary[RNG_DIGEST_KEY]
    summary["rng"] = _rng_summary(deployment.rng, _legacy_rng_state_digest)
    (copy / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _rewrite_manifest(copy, summary_sha256=digest_document(summary))
    return summary


def test_manifest_carries_format_version_and_schema_hashes(saved):
    directory, _, manifest = saved
    on_disk = json.loads((directory / "manifest.json").read_text())
    assert on_disk["format_version"] == FORMAT_VERSION
    assert on_disk["label"] == "unit"
    assert on_disk["layer_schemas"] == layer_schemas()
    # Every Checkpointable layer is represented with a content hash of
    # its schema, so any schema drift shows up in the manifest.
    assert {"sim", "vm", "net", "protocol", "hw", "core",
            "telemetry"} <= set(on_disk["layer_schemas"])
    for classes in on_disk["layer_schemas"].values():
        for entry in classes.values():
            assert len(entry["hash"]) == 16


def test_schema_hash_tracks_schema_content():
    class A:
        SNAPSHOT_SCHEMA = {"layer": "x", "version": 1, "fields": ("a",)}

    class B:
        SNAPSHOT_SCHEMA = {"layer": "x", "version": 2, "fields": ("a",)}

    assert schema_hash(A) != schema_hash(B)
    B.SNAPSHOT_SCHEMA = dict(A.SNAPSHOT_SCHEMA)
    assert schema_hash(A) == schema_hash(B)


def test_load_restores_equivalent_summary(saved):
    directory, deployment, _ = saved
    restored = load_shard(directory)
    assert digest_document(shard_summary(restored.deployment)) == \
        digest_document(shard_summary(deployment))
    assert restored.sim_time_ns == deployment.sim.now_ns


def test_corrupted_payload_is_rejected(saved, tmp_path):
    directory, _, _ = saved
    copy = _copy_checkpoint(directory, tmp_path / "mangled")
    blob = bytearray((copy / "state.bin").read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    (copy / "state.bin").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_shard(copy)


def test_future_format_version_is_rejected(saved, tmp_path):
    directory, _, _ = saved
    copy = _copy_checkpoint(directory, tmp_path / "future")
    _rewrite_manifest(copy, format_version=FORMAT_VERSION + 1)
    with pytest.raises(CheckpointError):
        read_manifest(copy)


def test_v1_manifest_migrates(saved, tmp_path):
    directory, _, _ = saved
    copy = _copy_checkpoint(directory, tmp_path / "v1")
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["format_version"] = 1
    manifest["time_ns"] = manifest.pop("sim_time_ns")
    manifest.pop("label", None)
    (copy / "manifest.json").write_text(json.dumps(manifest))
    migrated = read_manifest(copy)
    assert migrated["format_version"] == FORMAT_VERSION
    assert "sim_time_ns" in migrated
    assert migrated["label"] == ""


def test_truncated_summary_raises_checkpoint_error(saved, tmp_path):
    directory, _, _ = saved
    copy = _copy_checkpoint(directory, tmp_path / "truncated")
    text = (copy / "summary.json").read_text()
    (copy / "summary.json").write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError, match="corrupt summary"):
        read_summary(copy)
    with pytest.raises(CheckpointError, match="corrupt summary"):
        load_shard(copy)


def test_truncated_fleet_meta_raises_checkpoint_error(tmp_path):
    scenario = SCENARIOS["smoke"].scaled(things=4, shard_size=4)
    save_fleet_meta(tmp_path, scenario, sim_time_ns=ns_from_s(1.0), shards=1)
    assert load_fleet_meta(tmp_path)["shards"] == 1
    text = (tmp_path / "fleet.json").read_text()
    (tmp_path / "fleet.json").write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError, match="corrupt fleet metadata"):
        load_fleet_meta(tmp_path)


def test_summary_json_is_compact_and_matches_manifest_digest(saved):
    directory, _, _ = saved
    text = (directory / "summary.json").read_text()
    assert "\n" not in text.rstrip("\n")
    summary = json.loads(text)
    assert summary[RNG_DIGEST_KEY] == "mt-words"
    manifest = read_manifest(directory)
    assert manifest["summary_sha256"] == digest_document(summary)


def test_save_packs_each_stream_once_with_identical_summary_bytes(
        tmp_path, monkeypatch):
    # The summary digests the words the codec packed for the payload:
    # a save packs no stream more often than the payload alone does,
    # and its summary.json is byte for byte the summary computed by
    # packing every stream afresh.
    import repro.snapshot.codec as codec
    import repro.snapshot.state as state

    calls = []

    def counting(stream):
        calls.append(stream)
        return pack_stream(stream)

    monkeypatch.setattr(codec, "pack_stream", counting)
    monkeypatch.setattr(state, "pack_stream", counting)
    deployment = _small_deployment()
    dumps_state(deployment)
    payload_packs = len(calls)
    assert payload_packs >= len(_rng_summary(deployment.rng))
    del calls[:]
    directory = save_shard(deployment, tmp_path / "shard-0000")
    assert len(calls) == payload_packs
    fresh = json.dumps(shard_summary(deployment), sort_keys=True,
                       default=repr) + "\n"
    assert (directory / "summary.json").read_text() == fresh


def test_manifests_are_compact_and_indented_ones_still_load(saved,
                                                            tmp_path):
    directory, _, _ = saved
    save_fleet_meta(tmp_path, SCENARIOS["smoke"], sim_time_ns=5, shards=1)
    for path in (directory / "manifest.json", tmp_path / "fleet.json"):
        text = path.read_text()
        assert "\n" not in text.rstrip("\n")
        assert text.endswith("\n")
    copy = _copy_checkpoint(directory, tmp_path / "indented")
    _rewrite_manifest(copy)  # indent=2, as format-2 saves wrote it
    assert "\n  " in (copy / "manifest.json").read_text()
    assert load_shard(copy).manifest == read_manifest(directory)
    meta = load_fleet_meta(tmp_path)
    (tmp_path / "fleet.json").write_text(json.dumps(meta, indent=2))
    assert load_fleet_meta(tmp_path) == meta


def test_legacy_summary_restores_through_audit(saved, tmp_path):
    directory, deployment, _ = saved
    copy = _copy_checkpoint(directory, tmp_path / "legacy")
    legacy = _rewrite_summary_as_legacy(copy)
    assert legacy["rng"] != read_summary(directory)["rng"]
    restored = load_shard(copy)
    assert restored.summary == legacy
    assert digest_document(shard_summary(restored.deployment)) == \
        digest_document(shard_summary(deployment))


@pytest.mark.parametrize("legacy", [False, True], ids=["words", "repr"])
def test_altered_stream_fails_audit_in_both_digest_schemes(
        saved, tmp_path, legacy):
    directory, _, _ = saved
    copy = _copy_checkpoint(directory, tmp_path / "altered")
    if legacy:
        _rewrite_summary_as_legacy(copy)
    deployment = loads_state((copy / "state.bin").read_bytes())
    registry = deployment.rng
    while not registry.streams():
        registry = sorted(registry.children().items())[0][1]
    name, stream = sorted(registry.streams().items())[0]
    stream.random()
    payload = dumps_state(deployment)
    (copy / "state.bin").write_bytes(payload)
    _rewrite_manifest(
        copy, payload_sha256=hashlib.sha256(payload).hexdigest())
    with pytest.raises(CheckpointError, match="summary digest mismatch"):
        load_shard(copy)
    # Only the stream differs: without the audit the state loads.
    restored = load_shard(copy, audit=False).deployment
    assert _rng_summary(restored.rng) == _rng_summary(deployment.rng)


def test_state_migration_hooks_chain():
    class Widget:
        SNAPSHOT_SCHEMA = {"layer": "test", "version": 3,
                           "fields": ("value",)}

    @register_state_migration(Widget, 1)
    def _v1_to_v2(state):
        state = dict(state)
        state["value"] = state.pop("val")
        return state

    @register_state_migration(Widget, 2)
    def _v2_to_v3(state):
        state = dict(state)
        state["value"] *= 10
        return state

    upgraded = upgrade_state(Widget, {"_schema": 1, "val": 4})
    assert upgraded["value"] == 40
    assert upgraded["_schema"] == 3
    # Current-version state passes through untouched.
    same = upgrade_state(Widget, {"_schema": 3, "value": 5})
    assert same["value"] == 5
    # State newer than the class is rejected, never silently loaded.
    with pytest.raises(CheckpointError):
        upgrade_state(Widget, {"_schema": 4, "value": 5})


def test_missing_migration_step_is_an_error():
    class Gadget:
        SNAPSHOT_SCHEMA = {"layer": "test", "version": 2,
                           "fields": ("value",)}

    with pytest.raises(CheckpointError):
        upgrade_state(Gadget, {"_schema": 1, "value": 1})


def test_v3_states_with_removed_tiers_restore_and_run():
    sim = Simulator()
    fired = []
    sim.every(ns_from_ms(1), lambda: fired.append(sim.now_ns),
              name="sensor-sample")
    state = sim.snapshot_state()
    state["_schema"] = 3
    state["_batch_names"] = {"sensor-sample": 0}
    sim.restore_state(state)
    assert not hasattr(sim, "_batch_names")
    assert sim.run_until(ns_from_ms(3)) == 3
    assert fired == [ns_from_ms(1), ns_from_ms(2), ns_from_ms(3)]

    state = VirtualMachine().snapshot_state()
    state["_schema"] = 3
    state["_mode"] = "trace"
    vm = VirtualMachine.__new__(VirtualMachine)
    vm.restore_state(state)
    assert vm.mode == "fast"
    image = _image_for(_encode(_i(Op.PUSH8, 2), _i(Op.PUSH8, 3), _i(Op.ADD),
                               _i(Op.STG, 0), _i(Op.RET)), n_params=0)
    instance = DriverInstance(image)
    vm.execute(instance, image.handlers[0])
    assert instance.globals[0] == 5
    # Only the fast engine fills the VM's translation map.
    assert vm._translations[id(image)][1] is fastpath.shared_translation(
        image, vm.profile)


def test_sim_v4_single_heap_checkpoint_restores_and_resumes(tmp_path,
                                                            monkeypatch):
    # A shard saved at Simulator schema v4 holds every event, certified
    # ones included, in one heap, and its summary digests that heap in
    # its raw order.  It must pass the unchanged audit, move the
    # certified events into the lane before the first event runs, and
    # resume to the uninterrupted run's metrics and queue.
    scenario = SCENARIOS["duty"].scaled(
        things=4, shard_size=4, duration_s=2.0, fast_forward=True)

    def deployment():
        built = ShardDeployment(scenario.shards()[0])
        built.start()
        return built

    full = deployment()
    full.sim.run_until(ns_from_s(2.0))
    half = deployment()
    half.sim.run_until(ns_from_s(1.0))
    directory = tmp_path / "shard-0000"
    _save_shard_sim_v4(half, directory)
    manifest = read_manifest(directory)
    assert manifest["layer_schemas"]["sim"]["Simulator"] == {
        "version": 4, "hash": "310849d7026c1a27"}

    states = []
    restore = Simulator.__setstate__
    monkeypatch.setattr(Simulator, "__setstate__", lambda self, state: (
        states.append(dict(state)), restore(self, state))[1])
    restored = load_shard(directory)  # audits against the v4 summary
    assert states[0]["_schema"] == 4 and "_lane" not in states[0]
    sim = restored.deployment.sim
    assert sim._lane is None
    certified = sum(ev.ff is not None for _, _, ev in sim._queue)
    assert certified > 0
    pending = sim.pending_count()

    sim.run_until(ns_from_s(1.0))  # runs nothing, splits the heap
    assert all(ev.ff is None for _, _, ev in sim._queue)
    assert all(ev.ff is not None for _, _, ev in sim._lane)
    assert len(sim._lane) == certified
    assert sim.pending_count() == pending
    sim.run_until(ns_from_s(2.0))
    assert sim.ff_windows > 0
    assert (sim.now_ns, sim._seq, sim.pending_count()) == \
        (full.sim.now_ns, full.sim._seq, full.sim.pending_count())
    keys = [sorted((t, s) for heap in (d.sim._queue, d.sim._lane)
                   for t, s, ev in heap if not ev.cancelled)
            for d in (restored.deployment, full)]
    assert keys[0] == keys[1]
    assert restored.deployment.finalize().snapshot() == \
        full.finalize().snapshot()


def test_scenario_round_trips_through_dict():
    scenario = SCENARIOS["smoke"].scaled(things=6, shard_size=3, seed=9)
    rebuilt = scenario_from_dict(scenario_to_dict(scenario))
    assert rebuilt == scenario


def test_flatten_nested_dicts_and_lists():
    flat = flatten({"a": {"b": 1}, "c": [10, {"d": 2}]})
    assert flat == {"a.b": 1, "c.0": 10, "c.1.d": 2}


def test_diff_documents_buckets_changes():
    old = {"a": 1, "b": {"c": 2}, "gone": 3}
    new = {"a": 1, "b": {"c": 5}, "fresh": 4}
    diff = diff_documents(old, new)
    assert diff["changed"] == {"b.c": {"old": 2, "new": 5}}
    assert diff["removed"] == {"gone": 3}
    assert diff["added"] == {"fresh": 4}
    assert diff_documents(old, old) == {}


def test_diff_lines_are_bounded():
    old = {f"k{i}": i for i in range(50)}
    new = {f"k{i}": i + 1 for i in range(50)}
    lines = diff_lines(old, new, limit=5)
    assert len(lines) == 6  # 5 diffs + the overflow marker
    assert "more" in lines[-1]


def test_rng_registry_state_round_trip():
    reg = RngRegistry(seed=11)
    reg.stream("noise").random()
    child = reg.fork("node")
    child.stream("jitter").random()
    state = reg.snapshot_state()
    expected = reg.stream("noise").random()

    other = RngRegistry(seed=0)
    other.restore_state(state)
    assert other.stream("noise").random() == expected
    assert "node" in other.children()


def _digest_streams():
    fresh = random.Random(1)
    drawn = random.Random(2)
    for _ in range(1000):
        drawn.random()
    gaussian = random.Random(3)
    gaussian.gauss(0.0, 1.0)
    assert gaussian.gauss_next is not None
    return fresh, drawn, gaussian


def test_rng_state_digest_hashes_codec_words_and_gauss_carry():
    for stream in _digest_streams():
        words, gauss_next = pack_stream(stream)
        assert len(words) == 625 * 4
        expected = hashlib.sha256(
            words + repr(stream.gauss_next).encode()).hexdigest()[:16]
        assert gauss_next == stream.gauss_next
        assert _rng_state_digest(stream) == expected
    carried, dropped = _digest_streams()[2], _digest_streams()[2]
    dropped.gauss_next = None  # same words, no carry
    assert _rng_state_digest(carried) != _rng_state_digest(dropped)


def test_legacy_rng_state_digest_equals_json_digest_of_repr():
    for stream in _digest_streams():
        assert _legacy_rng_state_digest(stream) == \
            _digest(repr(stream.getstate()))


def test_rng_restore_preserves_stream_identity():
    reg = RngRegistry(seed=3)
    stream = reg.stream("csma")
    stream.random()
    state = reg.snapshot_state()
    stream.random()  # advance past the snapshot
    reg.restore_state(state)
    # The registry rewound the *same object* — held references rewind.
    assert reg.stream("csma") is stream


def test_fork_is_cached():
    reg = RngRegistry(seed=5)
    assert reg.fork("client") is reg.fork("client")


def test_perturb_is_deterministic_and_divergent():
    def fresh():
        reg = RngRegistry(seed=21)
        reg.stream("a").random()
        reg.fork("kid").stream("b").random()
        return reg

    one, two, three = fresh(), fresh(), fresh()
    one.perturb("variant-0")
    two.perturb("variant-0")
    three.perturb("variant-1")
    assert one.stream("a").random() == two.stream("a").random()
    assert one.fork("kid").stream("b").random() == \
        two.fork("kid").stream("b").random()
    assert one.stream("a").random() != three.stream("a").random()


# ------------------------------------------------------ declared fields
#: Small shards whose graphs hold every DeclaredState class.
_DRIFT_SCENARIOS = {
    "smoke-observed": SCENARIOS["smoke"].scaled(
        things=3, shard_size=3, trace=True, profile=ProfileConfig(),
        telemetry=TelemetryConfig(cadence_s=0.5)),
    "duty-ff": SCENARIOS["duty"].scaled(
        things=3, shard_size=3, fast_forward=True),
    "gateway": SCENARIOS["gateway"].scaled(things=3, shard_size=3),
}


def _declared_objects(graph):
    """Every DeclaredState object the codec reaches from *graph*."""
    found = []

    class Collector(SnapshotPickler):
        def reducer_override(self, obj):
            if isinstance(obj, DeclaredState):
                found.append(obj)
            return super().reducer_override(obj)

    Collector(io.BytesIO(), protocol=5).dump(graph)
    return found


def _attribute_names(objects):
    return Counter((type(obj).__name__, tuple(sorted(vars(obj))))
                   for obj in objects)


@pytest.mark.parametrize("name", sorted(_DRIFT_SCENARIOS))
def test_declared_fields_are_exactly_the_saved_state(name):
    # A restored object must come back with the attributes it was saved
    # with, and only the declared fields carry them there: an attribute
    # that __init__ sets but ``fields`` omits would vanish here.
    deployment = ShardDeployment(_DRIFT_SCENARIOS[name].shards()[0])
    deployment.start()
    deployment.sim.run_until(ns_from_s(1.5))
    objects = _declared_objects(deployment)
    classes = {type(obj).__name__ for obj in objects}
    assert {"Simulator", "VirtualMachine", "Network", "NetworkStack",
            "Client", "Manager", "Thing"} <= classes
    if name == "smoke-observed":
        assert {"SeriesBank", "ShardProfiler",
                "OpcodeHeatRecorder"} <= classes
    for obj in objects:
        assert set(obj.snapshot_state()) == \
            {*type(obj).SNAPSHOT_SCHEMA["fields"], "_schema"}
    clone = loads_state(dumps_state(deployment))
    assert _attribute_names(_declared_objects(clone)) == \
        _attribute_names(objects)
