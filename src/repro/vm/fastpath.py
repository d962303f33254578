"""Pre-decoded threaded dispatch for the µPnP virtual machine.

The reference interpreter in :mod:`repro.vm.machine` re-decodes the
bytecode stream on every step: an :class:`~repro.dsl.bytecode.Op` enum
construction, operand slicing + ``int.from_bytes``, a cost-table lookup
and a ~40-arm dispatch chain, per instruction executed.  At fleet scale
that decode tax dominates the simulator's hot path.

This module translates a driver's code blob **once** — at first
execution after install — into a *threaded* program: a flat table with
one pre-compiled entry per byte offset, where each entry carries

* a small integer dispatch kind (a dozen generic entry shapes cover the
  whole ISA),
* the pre-decoded operands (constants sign-extended, slots resolved,
  per-slot store-truncation functions bound, SIG operands split),
* the pre-computed cycle cost from the active
  :class:`~repro.vm.cost.VmCostProfile`, and
* the *next byte offset(s)* — branch displacements are resolved to
  absolute offsets at translate time, so taken/not-taken become plain
  integer assignments.

Because the table has an entry for **every** byte offset (not just the
offsets a linear decode visits), a jump into the middle of what the
assembler considered an instruction behaves exactly like the reference
interpreter re-decoding from that offset — including the traps corrupt
images produce.  Slot/type validation that is static per image (bad
slot numbers, scalar/array confusion, constant indices out of bounds)
is folded into dedicated trap entries at translate time, preserving the
reference trap messages and the pop-before-trap ordering.

Translations are cached at module level keyed by ``(sha1(code), slots,
cost-profile fingerprint)``, so hot-update reinstalls of the same image
and every driver instance across a fleet share a single translation.
Each :class:`~repro.vm.machine.VirtualMachine` additionally keeps an
identity-keyed fast map so the steady-state lookup is one dict probe.

Correctness bar (enforced by ``tests/unit/test_vm_differential.py``):
identical cycle counts, step counts, signals, returns, global mutations
and trap messages versus the reference interpreter, for every opcode
and every trap path.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dsl.bytecode import OPERANDS, Op, operand_size
from repro.dsl.types import wrap32
from repro.vm.cost import VmCostProfile
from repro.vm.machine import ExecutionResult, ReturnValue, VmTrap, _cdiv, _cmod

# ------------------------------------------------------------- entry kinds
# Ordered by expected dynamic frequency in real driver code; the run
# loop's dispatch chain tests them in this order.
K_PUSH = 0    # (k, cost, value, next)
K_LDG = 1     # (k, cost, slot, next)
K_BIN = 2     # (k, cost, fn, next)
K_CMP = 3     # (k, cost, fn, next)
K_JZ = 4      # (k, cost, taken, fallthrough)
K_STG = 5     # (k, cost, slot, truncate, next)
K_JMP = 6     # (k, cost, target)            [also NOP]
K_JNZ = 7     # (k, cost, taken, fallthrough)
K_LDP = 8     # (k, cost, param, next)
K_UN = 9      # (k, cost, fn, next)
K_INCG = 10   # (k, cost, slot, truncate, delta, next)
K_LDE = 11    # (k, cost, slot, next)
K_STE = 12    # (k, cost, slot, truncate, next)
K_LDEI = 13   # (k, cost, slot, index, next)
K_DUP = 14    # (k, cost, next)
K_DROP = 15   # (k, cost, next)
K_SIG = 16    # (k, cost, target, symbol, argc, next)
K_RETV = 17   # (k, cost, next)
K_RETA = 18   # (k, cost, slot, next)
K_RET = 19    # (k, cost)
K_TRAP = 20   # (k, 0, message, pops-before-trap)
# uint32 slots store truncate() output (0..2**32-1); the reference
# interpreter's push() wraps those into the signed compute domain on
# load, so uint32 loads get dedicated wrapping variants — every other
# slot type's stored values already sit inside int32 range.
K_LDGW = 21   # (k, cost, slot, next)
K_LDEW = 22   # (k, cost, slot, next)
K_LDEIW = 23  # (k, cost, slot, index, next)
K_INCGW = 24  # (k, cost, slot, truncate, delta, next)

_OP_SIZE: Dict[int, int] = {op.value: operand_size(op) for op in Op}
_OP_BY_VALUE = dict(Op._value2member_map_)

_BINARY_FNS: Dict[Op, Callable[[int, int], int]] = {
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.DIV: _cdiv,
    Op.MOD: _cmod,
    Op.BAND: operator.and_,
    Op.BOR: operator.or_,
    Op.BXOR: operator.xor,
    Op.SHL: lambda a, b: a << (b & 31),
    Op.SHR: lambda a, b: a >> (b & 31),
}

_COMPARE_FNS: Dict[Op, Callable[[int, int], bool]] = {
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}

_UNARY_FNS: Dict[Op, Callable[[int], int]] = {
    Op.NEG: operator.neg,
    Op.BINV: operator.invert,
    Op.LNOT: lambda a: 0 if a != 0 else 1,
}

_SHORT_LDG = {Op.LDG0: 0, Op.LDG1: 1, Op.LDG2: 2, Op.LDG3: 3,
              Op.LDG4: 4, Op.LDG5: 5, Op.LDG6: 6, Op.LDG7: 7}
_SHORT_STG = {Op.STG0: 0, Op.STG1: 1, Op.STG2: 2, Op.STG3: 3,
              Op.STG4: 4, Op.STG5: 5, Op.STG6: 6, Op.STG7: 7}


class Translation:
    """One image's threaded program: an entry per byte offset."""

    __slots__ = ("table", "n")

    def __init__(self, table: List[tuple], n: int) -> None:
        self.table = table
        self.n = n


# ------------------------------------------------------------- translation
def _scalar_trap(slot: int, slots, pops: int) -> Optional[tuple]:
    """Static validation for scalar-slot access; None when the slot is OK."""
    if slot >= len(slots):
        return (K_TRAP, 0, f"slot {slot} out of range", pops)
    if slots[slot].is_array:
        return (K_TRAP, 0, f"slot {slot} is an array", pops)
    return None


def _array_trap(slot: int, slots, pops: int) -> Optional[tuple]:
    """Static validation for array-slot access; None when the slot is OK."""
    if slot >= len(slots):
        return (K_TRAP, 0, f"slot {slot} out of range", pops)
    if not slots[slot].is_array:
        return (K_TRAP, 0, f"slot {slot} is not an array", pops)
    return None


def _wraps_on_load(slot_def) -> bool:
    """True when stored values can exceed int32 (uint32 slots only)."""
    return slot_def.type.bits == 32 and not slot_def.type.signed


def _entry_for(op: Op, code: bytes, pos: int, cost: int, slots) -> tuple:
    """Compile the instruction at byte offset *pos* into one table entry."""
    nxt = pos + 1 + _OP_SIZE[op.value]
    a = pos + 1  # first operand byte

    if op is Op.RET:
        return (K_RET, cost)
    if op is Op.NOP:
        return (K_JMP, cost, nxt)
    if op is Op.PUSH0:
        return (K_PUSH, cost, 0, nxt)
    if op is Op.PUSH1:
        return (K_PUSH, cost, 1, nxt)
    if op in (Op.PUSH8, Op.PUSH16, Op.PUSH32):
        width = {Op.PUSH8: 1, Op.PUSH16: 2, Op.PUSH32: 4}[op]
        value = int.from_bytes(code[a:a + width], "little", signed=True)
        return (K_PUSH, cost, value, nxt)
    if op is Op.DUP:
        return (K_DUP, cost, nxt)
    if op is Op.DROP:
        return (K_DROP, cost, nxt)

    if op is Op.LDG or op in _SHORT_LDG:
        slot = code[a] if op is Op.LDG else _SHORT_LDG[op]
        trap = _scalar_trap(slot, slots, 0)
        if trap is not None:
            return trap
        kind = K_LDGW if _wraps_on_load(slots[slot]) else K_LDG
        return (kind, cost, slot, nxt)
    if op is Op.STG or op in _SHORT_STG:
        slot = code[a] if op is Op.STG else _SHORT_STG[op]
        trap = _scalar_trap(slot, slots, 1)
        if trap is not None:
            return trap
        return (K_STG, cost, slot, slots[slot].type.truncate, nxt)
    if op in (Op.INCG, Op.DECG):
        slot = code[a]
        trap = _scalar_trap(slot, slots, 0)
        if trap is not None:
            return trap
        delta = 1 if op is Op.INCG else -1
        kind = K_INCGW if _wraps_on_load(slots[slot]) else K_INCG
        return (kind, cost, slot, slots[slot].type.truncate, delta, nxt)
    if op is Op.LDE:
        slot = code[a]
        trap = _array_trap(slot, slots, 1)
        if trap is not None:
            return trap
        kind = K_LDEW if _wraps_on_load(slots[slot]) else K_LDE
        return (kind, cost, slot, nxt)
    if op is Op.STE:
        slot = code[a]
        trap = _array_trap(slot, slots, 2)
        if trap is not None:
            return trap
        return (K_STE, cost, slot, slots[slot].type.truncate, nxt)
    if op is Op.LDEI:
        slot, index = code[a], code[a + 1]
        trap = _array_trap(slot, slots, 0)
        if trap is not None:
            return trap
        if index >= slots[slot].length:
            return (K_TRAP, 0,
                    f"index {index} out of bounds for slot {slot}", 0)
        kind = K_LDEIW if _wraps_on_load(slots[slot]) else K_LDEI
        return (kind, cost, slot, index, nxt)
    if op is Op.LDP:
        return (K_LDP, cost, code[a], nxt)

    fn = _BINARY_FNS.get(op)
    if fn is not None:
        return (K_BIN, cost, fn, nxt)
    fn = _COMPARE_FNS.get(op)
    if fn is not None:
        return (K_CMP, cost, fn, nxt)
    fn = _UNARY_FNS.get(op)
    if fn is not None:
        return (K_UN, cost, fn, nxt)

    if op in (Op.JMP, Op.JMPS):
        width = 2 if op is Op.JMP else 1
        displacement = int.from_bytes(code[a:a + width], "little", signed=True)
        return (K_JMP, cost, pos + 1 + width + displacement)
    if op in (Op.JZ, Op.JNZ, Op.JZS, Op.JNZS):
        width = 2 if op in (Op.JZ, Op.JNZ) else 1
        displacement = int.from_bytes(code[a:a + width], "little", signed=True)
        taken = pos + 1 + width + displacement
        fall = pos + 1 + width
        kind = K_JZ if op in (Op.JZ, Op.JZS) else K_JNZ
        return (kind, cost, taken, fall)

    if op is Op.SIG:
        return (K_SIG, cost, code[a], code[a + 1], code[a + 2], nxt)
    if op is Op.RETV:
        return (K_RETV, cost, nxt)
    if op is Op.RETA:
        slot = code[a]
        return _array_trap(slot, slots, 0) or (K_RETA, cost, slot, nxt)

    raise AssertionError(f"unhandled opcode {op.name}")  # pragma: no cover


def translate(image, profile: VmCostProfile) -> Translation:
    """Translate *image*'s code blob into a threaded program.

    One entry per byte offset, so any jump target — aligned or not —
    dispatches identically to the reference interpreter decoding at
    that offset.
    """
    code = image.code
    slots = image.slots
    cost = profile.table
    n = len(code)
    table: List[tuple] = []
    for pos in range(n):
        byte = code[pos]
        op = _OP_BY_VALUE.get(byte)
        if op is None:
            table.append(
                (K_TRAP, 0, f"invalid opcode {byte:#04x} at pc {pos}", 0))
            continue
        if pos + 1 + _OP_SIZE[byte] > n:
            table.append(
                (K_TRAP, 0, f"truncated operands for {op.name} at pc {pos}", 0))
            continue
        table.append(_entry_for(op, code, pos, cost[op], slots))
    return Translation(table, n)


# ------------------------------------------------------------ shared cache
#: (sha1(code), slots, profile fingerprint) -> Translation.  Shared by
#: every VM so reinstalls and multi-instance fleets translate once.
_SHARED: Dict[tuple, Translation] = {}
#: id(profile) -> (profile, fingerprint); the strong profile reference
#: keeps the id stable for the lifetime of the cache entry.
_PROFILE_FPS: Dict[int, tuple] = {}


def _profile_fingerprint(profile: VmCostProfile) -> tuple:
    rec = _PROFILE_FPS.get(id(profile))
    if rec is None or rec[0] is not profile:
        fp = tuple(sorted((int(op), c) for op, c in profile.table.items()))
        _PROFILE_FPS[id(profile)] = (profile, fp)
        return fp
    return rec[1]


def shared_translation(image, profile: VmCostProfile) -> Translation:
    """The cached translation for (*image*, *profile*), translating once."""
    key = (hashlib.sha1(image.code).digest(), image.slots,
           _profile_fingerprint(profile))
    translation = _SHARED.get(key)
    if translation is None:
        translation = translate(image, profile)
        _SHARED[key] = translation
    return translation


def cache_size() -> int:
    """Number of distinct translations currently shared (for tests)."""
    return len(_SHARED)


def clear_cache() -> None:
    """Drop all shared translations (tests / benchmarks)."""
    _SHARED.clear()
    _PROFILE_FPS.clear()


# --------------------------------------------------------------- execution
def execute_fast(
    vm,
    instance,
    handler,
    args: Sequence[int],
    signal_sink,
    return_sink,
) -> ExecutionResult:
    """Threaded-dispatch execution; drop-in for the reference ``execute``.

    With a hit recorder attached to *vm*, each step also counts its pc
    into the recorder's hit array for the image, at the point the
    reference interpreter counts it: after the step-limit check,
    before dispatch.  The differential suite compares the two engines'
    hit arrays.
    """
    image = instance.image
    cached = vm._translations.get(id(image))
    if cached is not None and cached[0] is image:
        translation = cached[1]
    else:
        translation = shared_translation(image, vm._profile)
        vm._translations[id(image)] = (image, translation)
    recorder = vm._hit_recorder
    hits = None
    if recorder is not None:
        recorder.executions += 1
        hits = recorder.hits_for(image)

    table = translation.table
    n = translation.n
    g = instance.globals
    params = [wrap32(int(a)) for a in args]
    nparams = len(params)
    stack: List[int] = []
    stack_limit = vm._stack_limit
    step_limit = vm._step_limit
    pc = handler.offset
    cycles = 0
    steps = 0

    while True:
        if pc < 0 or pc >= n:
            raise VmTrap(f"pc {pc} ran off the end of code")
        steps += 1
        if steps > step_limit:
            raise VmTrap("step limit exceeded (runaway handler)")
        if hits is not None:
            hits[pc] += 1
        e = table[pc]
        k = e[0]
        cycles += e[1]
        if k == 0:  # PUSH const
            if len(stack) >= stack_limit:
                raise VmTrap("operand stack overflow")
            stack.append(e[2])
            pc = e[3]
        elif k == 1:  # LDG
            if len(stack) >= stack_limit:
                raise VmTrap("operand stack overflow")
            stack.append(g[e[2]])
            pc = e[3]
        elif k == 2:  # binary arithmetic
            if len(stack) < 2:
                raise VmTrap("operand stack underflow")
            right = stack.pop()
            left = stack.pop()
            v = e[2](left, right) & 0xFFFFFFFF
            if v >= 0x80000000:
                v -= 0x100000000
            stack.append(v)
            pc = e[3]
        elif k == 3:  # comparison
            if len(stack) < 2:
                raise VmTrap("operand stack underflow")
            right = stack.pop()
            left = stack.pop()
            stack.append(1 if e[2](left, right) else 0)
            pc = e[3]
        elif k == 4:  # JZ
            if not stack:
                raise VmTrap("operand stack underflow")
            pc = e[2] if stack.pop() == 0 else e[3]
        elif k == 5:  # STG
            if not stack:
                raise VmTrap("operand stack underflow")
            v = stack.pop() & 0xFFFFFFFF
            if v >= 0x80000000:
                v -= 0x100000000
            g[e[2]] = e[3](v)
            pc = e[4]
        elif k == 6:  # JMP / NOP
            pc = e[2]
        elif k == 7:  # JNZ
            if not stack:
                raise VmTrap("operand stack underflow")
            pc = e[2] if stack.pop() != 0 else e[3]
        elif k == 8:  # LDP
            p = e[2]
            if p >= nparams:
                raise VmTrap(f"parameter {p} out of range")
            if len(stack) >= stack_limit:
                raise VmTrap("operand stack overflow")
            stack.append(params[p])
            pc = e[3]
        elif k == 9:  # unary
            if not stack:
                raise VmTrap("operand stack underflow")
            v = e[2](stack.pop()) & 0xFFFFFFFF
            if v >= 0x80000000:
                v -= 0x100000000
            stack.append(v)
            pc = e[3]
        elif k == 10:  # INCG / DECG
            old = g[e[2]]
            if len(stack) >= stack_limit:
                raise VmTrap("operand stack overflow")
            stack.append(old)
            v = (old + e[4]) & 0xFFFFFFFF
            if v >= 0x80000000:
                v -= 0x100000000
            g[e[2]] = e[3](v)
            pc = e[5]
        elif k == 11:  # LDE
            if not stack:
                raise VmTrap("operand stack underflow")
            index = stack.pop()
            arr = g[e[2]]
            if index < 0 or index >= len(arr):
                raise VmTrap(f"index {index} out of bounds for slot {e[2]}")
            stack.append(arr[index])
            pc = e[3]
        elif k == 12:  # STE
            if len(stack) < 2:
                raise VmTrap("operand stack underflow")
            v = stack.pop()
            index = stack.pop()
            arr = g[e[2]]
            if index < 0 or index >= len(arr):
                raise VmTrap(f"index {index} out of bounds for slot {e[2]}")
            v &= 0xFFFFFFFF
            if v >= 0x80000000:
                v -= 0x100000000
            arr[index] = e[3](v)
            pc = e[4]
        elif k == 13:  # LDEI
            if len(stack) >= stack_limit:
                raise VmTrap("operand stack overflow")
            stack.append(g[e[2]][e[3]])
            pc = e[4]
        elif k == 14:  # DUP
            if not stack:
                raise VmTrap("operand stack underflow")
            if len(stack) >= stack_limit:
                raise VmTrap("operand stack overflow")
            stack.append(stack[-1])
            pc = e[2]
        elif k == 15:  # DROP
            if not stack:
                raise VmTrap("operand stack underflow")
            stack.pop()
            pc = e[2]
        elif k == 16:  # SIG
            argc = e[4]
            if argc > len(stack):
                raise VmTrap("SIG argc exceeds stack depth")
            if argc:
                sig_args = tuple(stack[len(stack) - argc:])
                del stack[len(stack) - argc:]
            else:
                sig_args = ()
            if signal_sink is not None:
                signal_sink(e[2], e[3], sig_args)
            pc = e[5]
        elif k == 17:  # RETV
            if not stack:
                raise VmTrap("operand stack underflow")
            v = stack.pop()
            if return_sink is not None:
                return_sink(ReturnValue(scalar=v))
            pc = e[2]
        elif k == 18:  # RETA
            if return_sink is not None:
                return_sink(ReturnValue(array=tuple(g[e[2]])))
            pc = e[3]
        elif k == 19:  # RET
            break
        elif k == 20:  # statically resolved fault at this offset
            if len(stack) < e[3]:
                raise VmTrap("operand stack underflow")
            raise VmTrap(e[2])
        elif k == 21:  # LDG, uint32 slot (wrap into compute domain)
            if len(stack) >= stack_limit:
                raise VmTrap("operand stack overflow")
            v = g[e[2]]
            if v >= 0x80000000:
                v -= 0x100000000
            stack.append(v)
            pc = e[3]
        elif k == 22:  # LDE, uint32 slot
            if not stack:
                raise VmTrap("operand stack underflow")
            index = stack.pop()
            arr = g[e[2]]
            if index < 0 or index >= len(arr):
                raise VmTrap(f"index {index} out of bounds for slot {e[2]}")
            v = arr[index]
            if v >= 0x80000000:
                v -= 0x100000000
            stack.append(v)
            pc = e[3]
        elif k == 23:  # LDEI, uint32 slot
            if len(stack) >= stack_limit:
                raise VmTrap("operand stack overflow")
            v = g[e[2]][e[3]]
            if v >= 0x80000000:
                v -= 0x100000000
            stack.append(v)
            pc = e[4]
        elif k == 24:  # INCG/DECG, uint32 slot
            old = g[e[2]]
            if len(stack) >= stack_limit:
                raise VmTrap("operand stack overflow")
            pushed = old
            if pushed >= 0x80000000:
                pushed -= 0x100000000
            stack.append(pushed)
            v = (old + e[4]) & 0xFFFFFFFF
            g[e[2]] = e[3](v)
            pc = e[5]
        else:  # pragma: no cover - every kind handled above
            raise AssertionError(f"unknown entry kind {k}")

    return ExecutionResult(cycles=cycles, steps=steps)


__all__ = [
    "Translation",
    "translate",
    "shared_translation",
    "execute_fast",
    "cache_size",
    "clear_cache",
]
