"""The µPnP stack-based virtual machine (§4.2).

A single operand stack; handlers run to completion; no locking or
context switching — concurrency comes entirely from the event router.
``execute`` interprets one handler invocation and reports the cycle
count so callers can charge the simulated MCU for the time.

Side effects leave the VM through two sinks:

* ``signal_sink(target, symbol, args)`` for every SIG instruction
  (target 0 = the driver itself, otherwise a native library id);
* ``return_sink(ReturnValue)`` for RETV/RETA, completing the pending
  read/write request (§4.1's ``return`` keyword).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.dsl.bytecode import DriverImage, HandlerDef, Op, decode, operand_size
from repro.dsl.types import wrap32
from repro.snapshot.state import DeclaredState
from repro.vm.cost import DEFAULT_COST, VmCostProfile

#: Pre-computed operand widths so the reference loop can reject truncated
#: instruction tails without a per-step operand_size() call.
_OPERAND_SIZE: Dict[Op, int] = {op: operand_size(op) for op in Op}


class VmTrap(Exception):
    """A fault the real VM would treat as a fatal driver error
    (stack overflow/underflow, bad index, division by zero, runaway)."""


@dataclass(frozen=True)
class ReturnValue:
    """Value a driver returned for the pending request."""

    scalar: Optional[int] = None
    array: Optional[Tuple[int, ...]] = None

    @property
    def is_array(self) -> bool:
        return self.array is not None

    def to_payload(self) -> bytes:
        """Wire encoding used by the network data messages."""
        if self.array is not None:
            return bytes(b & 0xFF for b in self.array)
        value = wrap32(self.scalar or 0)
        return value.to_bytes(4, "big", signed=True)

    @classmethod
    def from_payload(cls, payload: bytes, *, as_array: bool) -> "ReturnValue":
        if as_array:
            return cls(array=tuple(payload))
        return cls(scalar=int.from_bytes(payload, "big", signed=True))


class DriverInstance:
    """An installed driver's mutable state: its global variable slots."""

    def __init__(self, image: DriverImage) -> None:
        self.image = image
        self.globals: List[Union[int, List[int]]] = []
        for slot in image.slots:
            if slot.is_array:
                self.globals.append([0] * slot.length)
            else:
                self.globals.append(0)

    def reset(self) -> None:
        """Re-zero all state (driver re-activation)."""
        for index, slot in enumerate(self.image.slots):
            if slot.is_array:
                self.globals[index] = [0] * slot.length
            else:
                self.globals[index] = 0

    # ------------------------------------------------------------- accessors
    def scalar(self, slot: int) -> int:
        if slot >= len(self.globals):
            raise VmTrap(f"slot {slot} out of range")
        value = self.globals[slot]
        if isinstance(value, list):
            raise VmTrap(f"slot {slot} is an array")
        return value

    def set_scalar(self, slot: int, value: int) -> None:
        if slot >= len(self.globals):
            raise VmTrap(f"slot {slot} out of range")
        if isinstance(self.globals[slot], list):
            raise VmTrap(f"slot {slot} is an array")
        self.globals[slot] = self.image.slots[slot].type.truncate(wrap32(value))

    def element(self, slot: int, index: int) -> int:
        if slot >= len(self.globals):
            raise VmTrap(f"slot {slot} out of range")
        array = self.globals[slot]
        if not isinstance(array, list):
            raise VmTrap(f"slot {slot} is not an array")
        if not 0 <= index < len(array):
            raise VmTrap(f"index {index} out of bounds for slot {slot}")
        return array[index]

    def set_element(self, slot: int, index: int, value: int) -> None:
        if slot >= len(self.globals):
            raise VmTrap(f"slot {slot} out of range")
        array = self.globals[slot]
        if not isinstance(array, list):
            raise VmTrap(f"slot {slot} is not an array")
        if not 0 <= index < len(array):
            raise VmTrap(f"index {index} out of bounds for slot {slot}")
        array[index] = self.image.slots[slot].type.truncate(wrap32(value))

    def array(self, slot: int) -> Tuple[int, ...]:
        if slot >= len(self.globals):
            raise VmTrap(f"slot {slot} out of range")
        array = self.globals[slot]
        if not isinstance(array, list):
            raise VmTrap(f"slot {slot} is not an array")
        return tuple(array)


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one handler invocation."""

    cycles: int
    steps: int

    def seconds(self, profile: VmCostProfile = DEFAULT_COST) -> float:
        return profile.mcu.cycles_to_seconds(self.cycles)


SignalSink = Callable[[int, int, Tuple[int, ...]], None]
ReturnSink = Callable[[ReturnValue], None]


def _cdiv(a: int, b: int) -> int:
    """C-style integer division (truncate toward zero)."""
    if b == 0:
        raise VmTrap("division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _cmod(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend."""
    return a - _cdiv(a, b) * b


class VirtualMachine(DeclaredState):
    """Interprets driver bytecode with a bounded operand stack.

    Two interchangeable execution engines share one semantics:

    * ``mode="fast"`` (the default) runs the pre-decoded threaded
      dispatch from :mod:`repro.vm.fastpath` — bytecode is translated
      once per image and cached, then executed with no per-step decode.
    * ``mode="reference"`` runs the original decode-as-you-go
      interpreter below; it is the executable specification the
      differential test checks the fast engine against.

    The ``REPRO_VM_MODE`` environment variable overrides the default
    for whole-process runs (fleet workers inherit it).
    """

    #: Checkpoint contract: configuration and engine choice only.  The
    #: id-keyed translation map (meaningless in a new process) and the
    #: engine loop are derived, rebuilt after restore and never saved,
    #: so checkpoints stay engine-portable and never go stale against
    #: the shared translation cache.
    #: v2 added the optional ``_hit_recorder`` (opcode heat profiling);
    #: v4 dropped mode "trace" (v3 states migrate it to "fast").
    SNAPSHOT_SCHEMA = {
        "layer": "vm",
        "version": 4,
        "fields": ("_profile", "_stack_limit", "_step_limit", "_mode",
                   "_hit_recorder"),
    }

    def __init__(
        self,
        profile: VmCostProfile = DEFAULT_COST,
        *,
        stack_limit: int = 32,
        step_limit: int = 200_000,
        mode: Optional[str] = None,
    ) -> None:
        if mode is None:
            mode = os.environ.get("REPRO_VM_MODE", "fast")
        if mode not in ("fast", "reference"):
            raise ValueError(f"unknown VM mode: {mode!r}")
        self._profile = profile
        self._stack_limit = stack_limit
        self._step_limit = step_limit
        self._mode = mode
        #: Optional :class:`repro.profile.vmheat.OpcodeHeatRecorder`.
        #: None (the default) keeps both engines recorder-free: the
        #: reference loop skips its counting lines and the fast engine
        #: stays the uninstrumented :func:`fastpath.execute_fast`.
        self._hit_recorder = None
        #: id(image) -> (image, Translation); identity-guarded fast map
        #: in front of the module-level shared translation cache.
        self._translations: Dict[int, tuple] = {}
        self._bind_engine()

    def _bind_engine(self) -> None:
        """Select the fast engine's loop: the counting copy while a hit
        recorder is attached, the plain threaded loop otherwise."""
        if self._mode == "reference":
            return
        if self._hit_recorder is not None:
            from repro.profile.vmheat import execute_fast_counting

            self._execute_fast = execute_fast_counting
        else:
            from repro.vm import fastpath

            self._execute_fast = fastpath.execute_fast

    @property
    def profile(self) -> VmCostProfile:
        return self._profile

    @property
    def mode(self) -> str:
        return self._mode

    # -------------------------------------------------------------- profiling
    def attach_hit_recorder(self, recorder) -> None:
        """Count executed opcodes into *recorder* (opcode heat maps).

        In fast mode this swaps the execution engine for the counting
        copy of the threaded-dispatch loop; in reference mode the
        interpreter checks ``_hit_recorder`` per invocation.  Both
        engines increment at the same point of the step (after the
        step-limit check, before dispatch), so fast and reference
        counts agree trap-for-trap.
        """
        self._hit_recorder = recorder
        self._bind_engine()

    def detach_hit_recorder(self) -> None:
        """Stop counting; restore the uninstrumented engine."""
        self._hit_recorder = None
        self._bind_engine()

    # ------------------------------------------------------------ checkpoint
    def _rebuild_derived(self) -> None:
        self._translations = {}
        self._bind_engine()

    def execute(
        self,
        instance: DriverInstance,
        handler: HandlerDef,
        args: Sequence[int] = (),
        *,
        signal_sink: Optional[SignalSink] = None,
        return_sink: Optional[ReturnSink] = None,
    ) -> ExecutionResult:
        """Run *handler* to completion.  Raises :class:`VmTrap` on fault."""
        if len(args) != handler.n_params:
            raise VmTrap(
                f"handler expects {handler.n_params} args, got {len(args)}"
            )
        if self._mode != "reference":
            return self._execute_fast(
                self, instance, handler, args, signal_sink, return_sink
            )
        code = instance.image.code
        params = [wrap32(int(a)) for a in args]
        stack: List[int] = []
        pc = handler.offset
        cycles = 0
        steps = 0
        cost = self._profile.table
        recorder = self._hit_recorder
        hits = None
        if recorder is not None:
            recorder.executions += 1
            hits = recorder.hits_for(instance.image)

        def push(value: int) -> None:
            if len(stack) >= self._stack_limit:
                raise VmTrap("operand stack overflow")
            stack.append(wrap32(value))

        def pop() -> int:
            if not stack:
                raise VmTrap("operand stack underflow")
            return stack.pop()

        while True:
            if pc < 0 or pc >= len(code):
                raise VmTrap(f"pc {pc} ran off the end of code")
            steps += 1
            if steps > self._step_limit:
                raise VmTrap("step limit exceeded (runaway handler)")
            if hits is not None:
                hits[pc] += 1
            try:
                op = Op(code[pc])
            except ValueError:
                raise VmTrap(
                    f"invalid opcode {code[pc]:#04x} at pc {pc}"
                ) from None
            if pc + 1 + _OPERAND_SIZE[op] > len(code):
                raise VmTrap(f"truncated operands for {op.name} at pc {pc}")
            cycles += cost[op]
            operand_start = pc + 1

            if op == Op.RET:
                break
            elif op == Op.NOP:
                pc += 1
            elif op == Op.PUSH0:
                push(0)
                pc += 1
            elif op == Op.PUSH1:
                push(1)
                pc += 1
            elif op == Op.PUSH8:
                push(int.from_bytes(code[operand_start : operand_start + 1],
                                    "little", signed=True))
                pc += 2
            elif op == Op.PUSH16:
                push(int.from_bytes(code[operand_start : operand_start + 2],
                                    "little", signed=True))
                pc += 3
            elif op == Op.PUSH32:
                push(int.from_bytes(code[operand_start : operand_start + 4],
                                    "little", signed=True))
                pc += 5
            elif op == Op.DUP:
                value = pop()
                push(value)
                push(value)
                pc += 1
            elif op == Op.DROP:
                pop()
                pc += 1
            elif op == Op.LDG:
                push(instance.scalar(code[operand_start]))
                pc += 2
            elif op == Op.STG:
                instance.set_scalar(code[operand_start], pop())
                pc += 2
            elif Op.LDG0 <= op <= Op.LDG3:
                push(instance.scalar(op - Op.LDG0))
                pc += 1
            elif Op.LDG4 <= op <= Op.LDG7:
                push(instance.scalar(op - Op.LDG4 + 4))
                pc += 1
            elif Op.STG0 <= op <= Op.STG3:
                instance.set_scalar(op - Op.STG0, pop())
                pc += 1
            elif Op.STG4 <= op <= Op.STG7:
                instance.set_scalar(op - Op.STG4 + 4, pop())
                pc += 1
            elif op == Op.LDEI:
                push(instance.element(code[operand_start], code[operand_start + 1]))
                pc += 3
            elif op == Op.LDE:
                index = pop()
                push(instance.element(code[operand_start], index))
                pc += 2
            elif op == Op.STE:
                value = pop()
                index = pop()
                instance.set_element(code[operand_start], index, value)
                pc += 2
            elif op == Op.LDP:
                param = code[operand_start]
                if param >= len(params):
                    raise VmTrap(f"parameter {param} out of range")
                push(params[param])
                pc += 2
            elif op in (Op.INCG, Op.DECG):
                slot = code[operand_start]
                old = instance.scalar(slot)
                push(old)
                delta = 1 if op == Op.INCG else -1
                instance.set_scalar(slot, old + delta)
                pc += 2
            elif op in (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.BAND,
                        Op.BOR, Op.BXOR, Op.SHL, Op.SHR):
                right = pop()
                left = pop()
                push(self._binary(op, left, right))
                pc += 1
            elif op == Op.NEG:
                push(-pop())
                pc += 1
            elif op == Op.BINV:
                push(~pop())
                pc += 1
            elif op in (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE):
                right = pop()
                left = pop()
                push(1 if self._compare(op, left, right) else 0)
                pc += 1
            elif op == Op.LNOT:
                push(0 if pop() != 0 else 1)
                pc += 1
            elif op in (Op.JMP, Op.JMPS):
                width = 2 if op == Op.JMP else 1
                displacement = int.from_bytes(
                    code[operand_start : operand_start + width], "little", signed=True
                )
                pc += 1 + width + displacement
            elif op in (Op.JZ, Op.JNZ, Op.JZS, Op.JNZS):
                width = 2 if op in (Op.JZ, Op.JNZ) else 1
                displacement = int.from_bytes(
                    code[operand_start : operand_start + width], "little", signed=True
                )
                value = pop()
                taken = (value == 0) if op in (Op.JZ, Op.JZS) else (value != 0)
                pc += 1 + width + (displacement if taken else 0)
            elif op == Op.SIG:
                target = code[operand_start]
                symbol = code[operand_start + 1]
                argc = code[operand_start + 2]
                if argc > len(stack):
                    raise VmTrap("SIG argc exceeds stack depth")
                sig_args = tuple(stack[len(stack) - argc :])
                del stack[len(stack) - argc :]
                if signal_sink is not None:
                    signal_sink(target, symbol, sig_args)
                pc += 4
            elif op == Op.RETV:
                value = pop()
                if return_sink is not None:
                    return_sink(ReturnValue(scalar=value))
                pc += 1
            elif op == Op.RETA:
                slot = code[operand_start]
                if return_sink is not None:
                    return_sink(ReturnValue(array=instance.array(slot)))
                pc += 2
            else:  # pragma: no cover - all opcodes handled above
                raise VmTrap(f"unimplemented opcode {op.name}")

        return ExecutionResult(cycles=cycles, steps=steps)

    # ------------------------------------------------------------- operators
    @staticmethod
    def _binary(op: Op, left: int, right: int) -> int:
        if op == Op.ADD:
            return left + right
        if op == Op.SUB:
            return left - right
        if op == Op.MUL:
            return left * right
        if op == Op.DIV:
            return _cdiv(left, right)
        if op == Op.MOD:
            return _cmod(left, right)
        if op == Op.BAND:
            return left & right
        if op == Op.BOR:
            return left | right
        if op == Op.BXOR:
            return left ^ right
        if op == Op.SHL:
            return left << (right & 31)
        if op == Op.SHR:
            return left >> (right & 31)
        raise VmTrap(f"not a binary op: {op.name}")  # pragma: no cover

    @staticmethod
    def _compare(op: Op, left: int, right: int) -> bool:
        if op == Op.EQ:
            return left == right
        if op == Op.NE:
            return left != right
        if op == Op.LT:
            return left < right
        if op == Op.LE:
            return left <= right
        if op == Op.GT:
            return left > right
        return left >= right


__all__ = [
    "VirtualMachine",
    "DriverInstance",
    "ExecutionResult",
    "ReturnValue",
    "VmTrap",
]
