"""VM opcode / basic-block heat: the profiler's third collector.

An :class:`OpcodeHeatRecorder` accumulates a per-byte-offset hit array
for every driver image a VM executes, keyed by ``sha1(code)`` so
reinstalls and hot-updates of the same image share one array.  Hits are
purely a function of the simulated workload — the recorder stores no
wall-clock data — so recorded heat merges deterministically across
shards and worker counts.

Two recording paths share one counting semantics (a hit is charged at
the pc *after* the step-limit check, before dispatch — trap entries
included):

* ``execute_fast_counting`` is a counting copy of
  :func:`repro.vm.fastpath.execute_fast`; attaching a recorder to a
  fast-mode VM swaps it in, so unprofiled VMs keep the branch-free
  original loop.
* the reference interpreter in :mod:`repro.vm.machine` checks for a
  recorder once per ``execute`` and increments per step, which is what
  lets the differential suite assert fastpath hit counts equal
  reference hit counts.

Offline analysis (:func:`opcode_totals`, :func:`basic_blocks`,
:func:`hot_blocks`) decodes the stored code bytes against the hit
arrays to rank hot opcodes and hot straight-line sequences.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dsl.bytecode import Op, operand_size
from repro.dsl.types import wrap32
from repro.snapshot.state import DeclaredState
from repro.vm.machine import ExecutionResult, ReturnValue, VmTrap

_OP_BY_VALUE = dict(Op._value2member_map_)
_OP_SIZE: Dict[int, int] = {op.value: operand_size(op) for op in Op}

#: Opcodes that end a straight-line run of instructions.
_CONTROL_OPS = frozenset((
    Op.JMP, Op.JMPS, Op.JZ, Op.JNZ, Op.JZS, Op.JNZS, Op.RET,
))
_BRANCH_OPS = frozenset((Op.JMP, Op.JMPS, Op.JZ, Op.JNZ, Op.JZS, Op.JNZS))


class OpcodeHeatRecorder(DeclaredState):
    """Per-image hit arrays for one VM, mergeable by image digest."""

    SNAPSHOT_SCHEMA = {
        "layer": "profile",
        "version": 1,
        "fields": ("images", "executions"),
    }

    def __init__(self) -> None:
        #: sha1(code) hex -> [code bytes, per-offset hit list].
        self.images: Dict[str, list] = {}
        #: Handler invocations recorded (both engines, traps included).
        self.executions = 0
        #: id(image) -> (image, hits); identity-guarded fast map, purely
        #: derived — never saved, and refilled lazily after a restore.
        self._by_id: Dict[int, tuple] = {}

    def hits_for(self, image) -> List[int]:
        """The hit array for *image*, creating/aliasing by code digest."""
        cached = self._by_id.get(id(image))
        if cached is not None and cached[0] is image:
            return cached[1]
        digest = hashlib.sha1(image.code).hexdigest()
        entry = self.images.get(digest)
        if entry is None:
            entry = self.images[digest] = [bytes(image.code),
                                           [0] * len(image.code)]
        hits = entry[1]
        self._by_id[id(image)] = (image, hits)
        return hits

    @property
    def total_steps(self) -> int:
        return sum(sum(entry[1]) for entry in self.images.values())

    def snapshot(self) -> dict:
        """JSON/pickle-safe view (code as hex, deterministic order)."""
        return {
            "executions": self.executions,
            "images": {
                digest: {"code": entry[0].hex(), "hits": list(entry[1])}
                for digest, entry in sorted(self.images.items())
            },
        }

    # ------------------------------------------------------------ checkpoint
    def _rebuild_derived(self) -> None:
        self._by_id = {}


def merge_heat(snapshots) -> dict:
    """Fold recorder snapshots (shard order) into one heat document."""
    executions = 0
    images: Dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        executions += snap.get("executions", 0)
        for digest, entry in snap.get("images", {}).items():
            merged = images.get(digest)
            if merged is None:
                images[digest] = {"code": entry["code"],
                                  "hits": list(entry["hits"])}
            else:
                hits = merged["hits"]
                for index, count in enumerate(entry["hits"]):
                    hits[index] += count
    return {"executions": executions,
            "images": {d: images[d] for d in sorted(images)}}


# -------------------------------------------------------------- analysis
def opcode_totals(heat: dict) -> Dict[str, int]:
    """Executed-step counts per opcode name across all images."""
    totals: Dict[str, int] = {}
    for entry in heat.get("images", {}).values():
        code = bytes.fromhex(entry["code"])
        for offset, count in enumerate(entry["hits"]):
            if not count:
                continue
            op = _OP_BY_VALUE.get(code[offset])
            name = op.name if op is not None else f"INVALID_{code[offset]:02x}"
            totals[name] = totals.get(name, 0) + count
    return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))


def basic_blocks(code: bytes, hits: Sequence[int],
                 leaders: Sequence[int] = ()) -> List[dict]:
    """Straight-line blocks of *code*, annotated with execution counts.

    Leaders are branch targets, post-control offsets and any caller-
    supplied entry offsets (handler entry points).  A block's count is
    the minimum hit count over its decoded instructions, which stays
    exact when the block executes as a unit and conservative when a
    jump lands mid-block.
    """
    n = len(code)
    leader_set = {offset for offset in leaders if 0 <= offset < n}
    leader_set.add(0)
    # Linear decode to find control transfers and their targets.
    pos = 0
    while pos < n:
        op = _OP_BY_VALUE.get(code[pos])
        if op is None:
            pos += 1
            continue
        width = _OP_SIZE[op.value]
        nxt = pos + 1 + width
        if nxt > n:
            break
        if op in _BRANCH_OPS:
            operand_width = nxt - pos - 1
            displacement = int.from_bytes(code[pos + 1:nxt], "little",
                                          signed=True)
            target = pos + 1 + operand_width + displacement
            if 0 <= target < n:
                leader_set.add(target)
            if nxt < n:
                leader_set.add(nxt)
        elif op is Op.RET and nxt < n:
            leader_set.add(nxt)
        pos = nxt
    ordered = sorted(leader_set)
    blocks: List[dict] = []
    for index, start in enumerate(ordered):
        end = ordered[index + 1] if index + 1 < len(ordered) else n
        ops: List[str] = []
        count: Optional[int] = None
        pos = start
        while pos < end:
            op = _OP_BY_VALUE.get(code[pos])
            if op is None:
                break
            ops.append(op.name)
            hit = hits[pos] if pos < len(hits) else 0
            count = hit if count is None else min(count, hit)
            pos += 1 + _OP_SIZE[op.value]
            if op in _CONTROL_OPS:
                break
        if ops:
            blocks.append({"offset": start, "ops": ops,
                           "count": count or 0})
    return blocks


def hot_blocks(heat: dict, *, top: int = 10) -> List[dict]:
    """The hottest decoded sequences fleet-wide, ranked by steps
    retired (``count * len(ops)``) — superinstruction candidates."""
    ranked: List[dict] = []
    for digest, entry in heat.get("images", {}).items():
        code = bytes.fromhex(entry["code"])
        for block in basic_blocks(code, entry["hits"]):
            if block["count"]:
                block = dict(block, image=digest[:12],
                             steps=block["count"] * len(block["ops"]))
                ranked.append(block)
    ranked.sort(key=lambda b: (-b["steps"], b["image"], b["offset"]))
    return ranked[:top]


# -------------------------------------------------- counting fast engine
def execute_fast_counting(
    vm, instance, handler, args: Sequence[int], signal_sink, return_sink,
) -> ExecutionResult:
    """:func:`repro.vm.fastpath.execute_fast` plus per-pc hit counting.

    A verbatim copy of the threaded-dispatch loop with one extra array
    increment per step; swapped in by
    :meth:`VirtualMachine.attach_hit_recorder` so only profiled VMs pay
    for it.  Counting semantics must match the reference interpreter's
    exactly — the differential suite compares hit arrays across engines.
    """
    from repro.vm.fastpath import shared_translation

    image = instance.image
    cached = vm._translations.get(id(image))
    if cached is not None and cached[0] is image:
        translation = cached[1]
    else:
        translation = shared_translation(image, vm._profile)
        vm._translations[id(image)] = (image, translation)

    recorder = vm._hit_recorder
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
    "OpcodeHeatRecorder",
    "basic_blocks",
    "execute_fast_counting",
    "hot_blocks",
    "merge_heat",
    "opcode_totals",
]
