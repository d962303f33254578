"""VM opcode / basic-block heat: the profiler's third collector.

An :class:`OpcodeHeatRecorder` accumulates a per-byte-offset hit array
for every driver image a VM executes, keyed by ``sha1(code)`` so
reinstalls and hot-updates of the same image share one array.  Hits are
purely a function of the simulated workload — the recorder stores no
wall-clock data — so recorded heat merges deterministically across
shards and worker counts.

Both VM engines record with one counting semantics: a VM with a
recorder attached charges a hit at the pc *after* the step-limit check,
before dispatch — trap entries included.  The fast engine
(:func:`repro.vm.fastpath.execute_fast`) and the reference interpreter
in :mod:`repro.vm.machine` each check for a recorder once per
``execute``, which is what lets the differential suite assert fastpath
hit counts equal reference hit counts.

Offline analysis (:func:`opcode_totals`, :func:`basic_blocks`,
:func:`hot_blocks`) decodes the stored code bytes against the hit
arrays to rank hot opcodes and hot straight-line sequences.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

from repro.dsl.bytecode import Op, operand_size
from repro.snapshot.state import DeclaredState

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


__all__ = [
    "OpcodeHeatRecorder",
    "basic_blocks",
    "hot_blocks",
    "merge_heat",
    "opcode_totals",
]
