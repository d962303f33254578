"""Unit tests: VM opcode heat recording and its offline analysis.

The load-bearing property is differential: per-pc hit arrays recorded
by the counting fastpath must equal the reference interpreter's,
trap-for-trap, over the full-ISA snippet corpus and randomized
structured programs.  Plus units for merge/decode/block analysis.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.analysis.vmperf import _SNIPPETS, _encode, _i, _image_for
from repro.dsl.bytecode import Op
from repro.profile.vmheat import (
    OpcodeHeatRecorder,
    basic_blocks,
    hot_blocks,
    merge_heat,
    opcode_totals,
)
from repro.vm.machine import DriverInstance, VirtualMachine, VmTrap

from .test_vm_differential import _random_program


def heat_for(mode, image, args=(), *, step_limit=2_000):
    """Execute handler 0 under *mode* with a recorder attached; return
    ``(outcome, recorder snapshot)`` for cross-engine comparison."""
    vm = VirtualMachine(mode=mode, step_limit=step_limit)
    recorder = OpcodeHeatRecorder()
    vm.attach_hit_recorder(recorder)
    instance = DriverInstance(image)
    try:
        result = vm.execute(instance, image.handlers[0], args)
        outcome = ("ok", result.steps)
    except VmTrap as trap:
        outcome = ("trap", str(trap))
    return outcome, recorder.snapshot()


def assert_heat_equivalent(image, args=(), **kwargs):
    ref = heat_for("reference", image, args, **kwargs)
    fast = heat_for("fast", image, args, **kwargs)
    assert fast == ref, (
        f"fastpath heat diverged from reference\n  ref:  {ref}\n"
        f"  fast: {fast}\n  code: {image.code.hex()}")
    return ref


# -------------------------------------------------------- differential
@pytest.mark.parametrize("op", sorted(_SNIPPETS, key=lambda o: o.value),
                         ids=lambda op: op.name)
def test_hit_counts_match_reference_for_every_opcode(op):
    scaffold, subject = _SNIPPETS[op]
    subjects = (subject,) if subject else ()
    code = _encode(*scaffold, *subjects, _i(Op.RET))
    (status, _), snap = assert_heat_equivalent(_image_for(code), args=(7,))
    assert status == "ok"
    assert snap["executions"] == 1
    # Every executed step landed in exactly one image's hit array.
    assert len(snap["images"]) == 1


@pytest.mark.parametrize("seed", range(12))
def test_hit_counts_match_reference_on_random_programs(seed):
    rng = random.Random(0xBEEF + seed)
    code = _random_program(rng)
    assert_heat_equivalent(_image_for(code), args=(seed,))


def test_hit_counts_match_reference_on_trapping_programs():
    # Runaway loop: both engines must charge identical hits up to the
    # step limit, including the pc that tripped it.
    code = _encode(_i(Op.JMPS, -2), _i(Op.RET))
    (status, message), _ = assert_heat_equivalent(
        _image_for(code), args=(0,), step_limit=50)
    assert status == "trap" and "step limit" in message
    # Stack underflow mid-program.
    code = _encode(_i(Op.PUSH8, 1), _i(Op.DROP), _i(Op.DROP), _i(Op.RET))
    (status, _), _ = assert_heat_equivalent(_image_for(code), args=(0,))
    assert status == "trap"


def test_total_steps_equals_engine_step_count():
    code = _encode(_i(Op.PUSH8, 2), _i(Op.PUSH8, 3), _i(Op.ADD),
                   _i(Op.DROP), _i(Op.RET))
    vm = VirtualMachine(mode="fast")
    recorder = OpcodeHeatRecorder()
    vm.attach_hit_recorder(recorder)
    result = vm.execute(DriverInstance(_image_for(code)),
                        _image_for(code).handlers[0], (0,))
    assert recorder.total_steps == result.steps == 5
    assert recorder.executions == 1


# ----------------------------------------------------------- recorder
def test_recorder_aliases_identical_images_by_digest():
    code = _encode(_i(Op.PUSH8, 1), _i(Op.DROP), _i(Op.RET))
    image_a = _image_for(code)
    image_b = _image_for(code)  # distinct object, same code bytes
    recorder = OpcodeHeatRecorder()
    assert recorder.hits_for(image_a) is recorder.hits_for(image_b)
    assert len(recorder.images) == 1


def test_recorder_pickle_drops_identity_cache_but_keeps_heat():
    code = _encode(_i(Op.RET))
    recorder = OpcodeHeatRecorder()
    recorder.hits_for(_image_for(code))[0] = 7
    recorder.executions = 3
    clone = pickle.loads(pickle.dumps(recorder))
    assert clone._by_id == {}
    assert clone.snapshot() == recorder.snapshot()


def test_detach_restores_the_uncounted_fast_loop():
    code = _encode(_i(Op.PUSH8, 1), _i(Op.DROP), _i(Op.RET))
    image = _image_for(code)
    for mode in ("fast", "reference"):
        vm = VirtualMachine(mode=mode)
        recorder = OpcodeHeatRecorder()
        vm.attach_hit_recorder(recorder)
        instance = DriverInstance(image)
        vm.execute(instance, image.handlers[0], (0,))
        vm.detach_hit_recorder()
        assert vm._hit_recorder is None
        counted = recorder.snapshot()
        vm.execute(instance, image.handlers[0], (0,))
        assert recorder.snapshot() == counted
        assert counted["executions"] == 1 and recorder.total_steps == 3


def test_unprofiled_deployment_keeps_the_uncounted_hot_paths():
    from repro.fleet.deployment import ShardDeployment
    from repro.fleet.scenario import SCENARIOS

    scenario = SCENARIOS["smoke"].scaled(things=2, shard_size=2,
                                         duration_s=1.0)
    deployment = ShardDeployment(scenario.shards()[0])
    deployment.run()
    sim = deployment.sim
    assert sim.profiler is None and sim.tracer is None
    assert deployment.metrics.snapshot()["counters"]["sim.events"] > 0
    # Nothing observed the run: no queued event carries a trace id.
    assert not any(hasattr(event, "trace_id")
                   for heap in (sim._queue, sim._lane)
                   for _, _, event in heap)
    assert deployment.things
    for thing in deployment.things:
        assert thing.drivers.vm._hit_recorder is None


# -------------------------------------------------------------- merge
def _heat(code: bytes, hits):
    import hashlib

    return {"executions": 1,
            "images": {hashlib.sha1(code).hexdigest():
                       {"code": code.hex(), "hits": list(hits)}}}


def test_merge_heat_sums_hits_for_shared_images():
    code = _encode(_i(Op.PUSH8, 1), _i(Op.DROP), _i(Op.RET))
    merged = merge_heat([_heat(code, [1, 0, 2, 1]),
                         _heat(code, [2, 0, 1, 1]), None])
    (entry,) = merged["images"].values()
    assert entry["hits"] == [3, 0, 3, 2]
    assert merged["executions"] == 2


def test_opcode_totals_names_ops_and_ranks_by_count():
    code = _encode(_i(Op.PUSH8, 1), _i(Op.DROP), _i(Op.RET))
    totals = opcode_totals(_heat(code, [2, 0, 5, 1]))
    assert totals == {"DROP": 5, "PUSH8": 2, "RET": 1}
    assert list(totals) == ["DROP", "PUSH8", "RET"]  # ranked


# -------------------------------------------------------- basic blocks
def test_basic_blocks_split_at_branches_and_targets():
    # PUSH8 0; JZS +2 (over PUSH8); PUSH8 1; DROP; RET
    code = _encode(_i(Op.PUSH8, 0), _i(Op.JZS, 2),
                   _i(Op.PUSH8, 1), _i(Op.DROP), _i(Op.RET))
    hits = [4, 0, 4, 0, 1, 0, 3, 4]
    blocks = basic_blocks(code, hits)
    offsets = [block["offset"] for block in blocks]
    assert offsets == [0, 4, 6]  # entry, fallthrough target, jump target
    entry = blocks[0]
    assert entry["ops"] == ["PUSH8", "JZS"]
    assert entry["count"] == 4  # min over the block's instructions
    assert blocks[1] == {"offset": 4, "ops": ["PUSH8"], "count": 1}


def test_hot_blocks_rank_by_steps_retired():
    code_a = _encode(_i(Op.PUSH8, 1), _i(Op.DROP), _i(Op.RET))
    code_b = _encode(_i(Op.RET))
    heat = merge_heat([_heat(code_a, [10, 0, 10, 10]),
                       _heat(code_b, [2])])
    ranked = hot_blocks(heat, top=5)
    assert ranked[0]["ops"] == ["PUSH8", "DROP", "RET"]
    assert ranked[0]["steps"] == 30  # 10 executions x 3 ops
    assert ranked[1]["steps"] == 2
    assert all("image" in block for block in ranked)
