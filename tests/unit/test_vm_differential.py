"""Differential test: fastpath vs reference interpreter.

The fastpath's correctness bar is *exact* equivalence with the
reference interpreter — identical cycle counts, step counts, signals,
returns, global mutations and trap messages.  This suite drives both
engines over:

* the per-opcode snippet corpus from :mod:`repro.analysis.vmperf`
  (guaranteeing every opcode in the ISA is covered),
* seeded randomized structured programs (arithmetic, stores, forward
  diamonds, backward counted loops, SIG/RETV/RETA), with the final
  stack contents shipped out through a SIG so stacks are compared too,
* pure random byte soup (any behaviour is acceptable as long as both
  engines agree, trap-for-trap), and
* dedicated trap scenarios: stack over/underflow, division by zero,
  runaway handlers, bad slots, bad indices, invalid opcodes, truncated
  operands, jumps off both ends of the code.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.vmperf import _SNIPPETS, _encode, _i, _image_for
from repro.dsl.bytecode import (
    DriverImage,
    HANDLER_KIND_EVENT,
    HandlerDef,
    Op,
    SlotDef,
)
from repro.dsl.types import INT32, UINT8, UINT32
from repro.vm.machine import DriverInstance, VirtualMachine, VmTrap


def run_one(mode, image, args=(), *, stack_limit=32, step_limit=2_000):
    """Execute handler 0 under *mode*; return a comparable outcome."""
    vm = VirtualMachine(mode=mode, stack_limit=stack_limit,
                        step_limit=step_limit)
    instance = DriverInstance(image)
    signals = []
    returns = []
    try:
        result = vm.execute(
            instance,
            image.handlers[0],
            args,
            signal_sink=lambda t, s, a: signals.append((t, s, a)),
            return_sink=returns.append,
        )
        outcome = ("ok", result.cycles, result.steps)
    except VmTrap as trap:
        outcome = ("trap", str(trap))
    return outcome, signals, returns, instance.globals


def assert_equivalent(image, args=(), *, stack_limit=32, step_limit=2_000):
    ref = run_one("reference", image, args,
                  stack_limit=stack_limit, step_limit=step_limit)
    fast = run_one("fast", image, args,
                   stack_limit=stack_limit, step_limit=step_limit)
    assert fast == ref, (
        f"fastpath diverged from reference\n  ref:  {ref}\n  fast: {fast}\n"
        f"  code: {image.code.hex()}"
    )
    return ref


# ------------------------------------------------------------ every opcode
@pytest.mark.parametrize("op", sorted(_SNIPPETS, key=lambda o: o.value),
                         ids=lambda op: op.name)
def test_every_opcode_matches_reference(op):
    scaffold, subject = _SNIPPETS[op]
    # Op.RET's corpus entry has no subject — it *is* the trailing RET.
    subjects = (subject,) if subject else ()
    code = _encode(*scaffold, *subjects, _i(Op.RET))
    outcome = assert_equivalent(_image_for(code), args=(7,))
    assert outcome[0][0] == "ok"


def test_snippet_corpus_covers_the_full_isa():
    assert set(_SNIPPETS) == set(Op), "vmperf corpus out of date"


# ------------------------------------------------- structured random programs
def _random_program(rng: random.Random):
    """A stack-aware random program over the vmperf slot layout
    (slots 0..7 int32 scalars, slot 8 a uint8[8] array)."""
    instrs = []
    depth = 0
    for _ in range(rng.randrange(8, 50)):
        roll = rng.random()
        if roll < 0.10 and depth >= 1:
            # forward diamond: conditionally skip a balanced block
            op = rng.choice((Op.JZS, Op.JNZS))
            block = _encode(_i(Op.PUSH8, rng.randrange(-128, 128)),
                            _i(Op.DROP))
            instrs.append(_i(op, len(block)))
            instrs.append(_i(Op.PUSH8, rng.randrange(-128, 128)))
            instrs.append(_i(Op.DROP))
            depth -= 1
            continue
        if roll < 0.15:
            # backward counted loop: slot 7 counts down to zero
            count = rng.randrange(1, 6)
            instrs.append(_i(Op.PUSH8, count))
            instrs.append(_i(Op.STG, 7))
            instrs.append(_i(Op.PUSH8, 1))   # dummy so DECG can't underflow
            instrs.append(_i(Op.DROP))
            instrs.append(_i(Op.DECG, 7))
            instrs.append(_i(Op.JNZS, -4))   # back to DECG
            continue
        if depth >= 2 and roll < 0.45:
            instrs.append(_i(rng.choice((
                Op.ADD, Op.SUB, Op.MUL, Op.BAND, Op.BOR, Op.BXOR,
                Op.SHL, Op.SHR, Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE,
                Op.DIV, Op.MOD,
            ))))
            depth -= 1
        elif depth >= 1 and roll < 0.60:
            choice = rng.randrange(5)
            if choice == 0:
                instrs.append(_i(Op.STG, rng.randrange(8)))
                depth -= 1
            elif choice == 1:
                instrs.append(_i(rng.choice((Op.NEG, Op.BINV, Op.LNOT))))
            elif choice == 2:
                instrs.append(_i(Op.DROP))
                depth -= 1
            elif choice == 3 and depth < 28:
                instrs.append(_i(Op.DUP))
                depth += 1
            else:
                # clamp to a valid array index, then LDE from slot 8
                instrs.append(_i(Op.PUSH8, 7))
                instrs.append(_i(Op.BAND))
                instrs.append(_i(Op.LDE, 8))
        elif depth < 26:
            choice = rng.randrange(7)
            if choice == 0:
                instrs.append(_i(Op.PUSH32, rng.randrange(-2**31, 2**31)))
            elif choice == 1:
                instrs.append(_i(Op.PUSH16, rng.randrange(-2**15, 2**15)))
            elif choice == 2:
                instrs.append(_i(Op.PUSH8, rng.randrange(-128, 128)))
            elif choice == 3:
                instrs.append(_i(Op.LDG, rng.randrange(8)))
            elif choice == 4:
                instrs.append(_i(Op.LDP, rng.randrange(2)))
            elif choice == 5:
                instrs.append(_i(rng.choice((Op.INCG, Op.DECG)),
                                 rng.randrange(8)))
            else:
                instrs.append(_i(Op.LDEI, 8, rng.randrange(8)))
            depth += 1
        else:
            instrs.append(_i(Op.NOP))
    # Ship the whole remaining stack out through the signal sink so the
    # differential covers final stack contents, then end cleanly.
    instrs.append(_i(Op.SIG, 0, 1, depth))
    instrs.append(_i(Op.RET))
    return _encode(*instrs)


@pytest.mark.parametrize("seed", range(200))
def test_randomized_structured_programs(seed):
    rng = random.Random(0xC0FFEE + seed)
    code = _random_program(rng)
    image = _image_for(code, n_params=2)
    args = (rng.randrange(-2**31, 2**31), rng.randrange(-2**31, 2**31))
    assert_equivalent(image, args)


@pytest.mark.parametrize("seed", range(300))
def test_random_byte_soup_agrees_trap_for_trap(seed):
    rng = random.Random(0xF00D + seed)
    code = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
    image = _image_for(code)
    assert_equivalent(image, args=(rng.randrange(-1000, 1000),),
                      step_limit=300)


# ------------------------------------------------------------- uint32 slots
def _u32_image(code: bytes) -> DriverImage:
    return DriverImage(
        device_id=0,
        slots=(SlotDef(UINT32), SlotDef(UINT32, 4), SlotDef(INT32)),
        imports=(),
        handlers=(HandlerDef(HANDLER_KIND_EVENT, 0, 0, 1),),
        code=code,
    )


def test_uint32_slots_wrap_identically_on_load():
    # Store -1 into a uint32 slot (kept as 0xFFFFFFFF), load it back
    # (wraps to -1 in the compute domain), and increment across the
    # 2**32 boundary.
    code = _encode(
        _i(Op.PUSH8, -1), _i(Op.STG, 0),
        _i(Op.LDG, 0), _i(Op.SIG, 0, 1, 1),
        _i(Op.INCG, 0), _i(Op.DROP),
        _i(Op.LDG, 0), _i(Op.RETV),
        _i(Op.PUSH0), _i(Op.PUSH8, -1), _i(Op.STE, 1),
        _i(Op.LDEI, 1, 0), _i(Op.SIG, 0, 2, 1),
        _i(Op.PUSH0), _i(Op.LDE, 1), _i(Op.SIG, 0, 3, 1),
        _i(Op.RET),
    )
    outcome, signals, returns, final_globals = assert_equivalent(
        _u32_image(code), args=(0,))
    assert outcome[0] == "ok"
    assert signals[0] == (0, 1, (-1,))          # uint32 load wraps
    assert final_globals[0] == 0                # 0xFFFFFFFF + 1 wrapped
    assert signals[1] == (0, 2, (-1,))          # uint32 array LDEI wraps
    assert signals[2] == (0, 3, (-1,))          # uint32 array LDE wraps


# ---------------------------------------------------------------- trap paths
def _trap_case(code: bytes, expected: str, *, image=None, args=(7,),
               stack_limit=32, step_limit=500):
    img = image if image is not None else _image_for(code)
    outcome, _, _, _ = assert_equivalent(
        img, args, stack_limit=stack_limit, step_limit=step_limit)
    assert outcome == ("trap", expected)


def test_trap_stack_overflow():
    _trap_case(_encode(*([_i(Op.PUSH1)] * 33), _i(Op.RET)),
               "operand stack overflow")


def test_trap_stack_underflow():
    _trap_case(_encode(_i(Op.DROP), _i(Op.RET)), "operand stack underflow")


def test_trap_underflow_takes_precedence_over_static_fault():
    # STG to a nonexistent slot pops before faulting; with an empty
    # stack both engines must report underflow, not the slot fault.
    _trap_case(_encode(_i(Op.STG, 200), _i(Op.RET)),
               "operand stack underflow")


def test_trap_division_by_zero():
    _trap_case(_encode(_i(Op.PUSH8, 5), _i(Op.PUSH0), _i(Op.DIV),
                       _i(Op.RET)),
               "division by zero")
    _trap_case(_encode(_i(Op.PUSH8, 5), _i(Op.PUSH0), _i(Op.MOD),
                       _i(Op.RET)),
               "division by zero")


def test_trap_runaway_handler():
    _trap_case(_encode(_i(Op.JMPS, -2)),
               "step limit exceeded (runaway handler)", step_limit=50)


def test_trap_slot_out_of_range():
    _trap_case(_encode(_i(Op.LDG, 200), _i(Op.RET)),
               "slot 200 out of range")


def test_trap_scalar_array_confusion():
    _trap_case(_encode(_i(Op.LDG, 8), _i(Op.RET)), "slot 8 is an array")
    _trap_case(_encode(_i(Op.PUSH0), _i(Op.LDE, 0), _i(Op.RET)),
               "slot 0 is not an array")
    _trap_case(_encode(_i(Op.RETA, 0), _i(Op.RET)),
               "slot 0 is not an array")


def test_trap_index_out_of_bounds():
    _trap_case(_encode(_i(Op.PUSH8, 99), _i(Op.LDE, 8), _i(Op.RET)),
               "index 99 out of bounds for slot 8")
    _trap_case(_encode(_i(Op.LDEI, 8, 99), _i(Op.RET)),
               "index 99 out of bounds for slot 8")
    # negative index via the stack
    _trap_case(_encode(_i(Op.PUSH8, -1), _i(Op.LDE, 8), _i(Op.RET)),
               "index -1 out of bounds for slot 8")


def test_trap_invalid_opcode_is_a_vmtrap_not_a_valueerror():
    _trap_case(bytes([0xFF]), "invalid opcode 0xff at pc 0")
    _trap_case(_encode(_i(Op.PUSH1)) + bytes([0x99]),
               "invalid opcode 0x99 at pc 1")


def test_trap_truncated_operands():
    _trap_case(bytes([Op.PUSH32.value, 0x01]),
               "truncated operands for PUSH32 at pc 0")
    _trap_case(bytes([Op.LDG.value]), "truncated operands for LDG at pc 0")


def test_trap_pc_runs_off_either_end():
    _trap_case(_encode(_i(Op.PUSH1)), "pc 1 ran off the end of code")
    _trap_case(_encode(_i(Op.JMPS, -10)),
               "pc -8 ran off the end of code")


def test_trap_parameter_out_of_range():
    _trap_case(_encode(_i(Op.LDP, 5), _i(Op.RET)),
               "parameter 5 out of range")


def test_trap_sig_argc_exceeds_stack():
    _trap_case(_encode(_i(Op.SIG, 0, 0, 5), _i(Op.RET)),
               "SIG argc exceeds stack depth")


def test_trap_wrong_arg_count_in_both_modes():
    image = _image_for(_encode(_i(Op.RET)), n_params=2)
    for mode in ("reference", "fast"):
        vm = VirtualMachine(mode=mode)
        with pytest.raises(VmTrap, match="handler expects 2 args, got 1"):
            vm.execute(DriverInstance(image), image.handlers[0], (1,))
