"""The checkpoint object-graph codec: pickle, extended to closures.

The kernel's event heap holds arbitrary Python callbacks — bound
methods, module functions, and (pervasively) *closures*: churn ticks
capture their Thing and RNG streams, protocol timers capture pending
request state, stream expiries capture their handles.  Stdlib pickle
refuses closures, lambdas and local functions, so a checkpoint codec
must carry them itself.

:class:`SnapshotPickler` extends :class:`pickle.Pickler` (protocol 5)
with reducers for exactly the object kinds a shard graph contains that
pickle cannot serialize by reference:

* **functions that are not importable by qualified name** (closures,
  lambdas, local defs) — serialized by value: the code object via
  :mod:`marshal`, the defaults/kwdefaults/function dict by pickling,
  and the closure cells *via the two-phase skeleton trick*: an empty
  function shell is built first (so self-referential closures and
  cycles through cells memoize correctly), then the cells are filled
  from the pickled state;
* **cells** encountered outside a function (rare, but legal);
* **modules** captured in cells — reduced to an import by name;
* **RNG streams** (exactly :class:`random.Random`) — reduced to their
  624 Mersenne Twister words plus index, packed little-endian into a
  :class:`pickle.PickleBuffer` that travels *out of band*, and the
  ``gauss_next`` carry in band.

Function ``__globals__`` are never serialized by value: a function is
re-bound to its defining module's live namespace on load, so the code
a checkpoint resumes against is the code of the checked-out tree —
which is what makes schema migrations meaningful (state is versioned;
behaviour is not frozen into the checkpoint).

Because :mod:`marshal`'s bytecode format is interpreter-specific,
checkpoints record the Python version and refuse to load under a
different ``major.minor`` (see :mod:`repro.snapshot.checkpoint`).

**Envelope.**  Entropy and structure take separate paths.  A shard
carries one ``random.Random`` per stochastic model (a 300-Thing fleet
holds ~1,900), and their state is near-random words that zlib cannot
shrink: pickled in band they were ~75% of the raw payload and zlib
compressed the whole payload only ~1.5×.  So the pickle stream proper
(the structure) is zlib-compressed, and the stream words follow it
raw::

    RSNAP\x02 | <Q in-band length> <I buffer count> <I length>*count
               | zlib(in-band pickle) | buffer 0 | buffer 1 | ...

Payloads of the first codec version (``RSNAP\x01`` + ``zlib(pickle)``,
stream words in band) still load.

Shared-object identity is preserved by pickle's memo — the stream
reducer included, since a reduced object is memoized like any other:
two references to the same RNG stream, Thing or metrics object come
back as two references to the same restored object.  Without this, a
restored shard's closures would draw from different streams than its
registry and the run would silently diverge.

Like pickle, ``loads_state`` executes constructors referenced by the
stream: only load checkpoints you (or your CI) wrote.
"""

from __future__ import annotations

import importlib
import io
import marshal
import pickle
import random
import struct
import sys
import types
import zlib
from typing import Any, Optional, Tuple

#: Bump when the *codec envelope* changes incompatibly (the layer
#: schemas carried inside are versioned separately).
CODEC_VERSION = 2

#: Envelope magic: identifies a repro snapshot payload and its codec
#: major version before any unpickling happens.
_MAGIC = b"RSNAP" + bytes([CODEC_VERSION])
_MAGIC_V1 = b"RSNAP\x01"

#: v2 header after the magic: in-band (compressed) length, buffer
#: count; then one ``<I`` length per out-of-band buffer.
_HEADER = struct.Struct("<QI")

#: One Mersenne Twister stream: 624 state words plus the index.
_MT_WORDS = struct.Struct("<625I")


class _EmptyCell:
    """Sentinel (pickled by class reference) for an unset closure cell."""


def _module_globals(name: str) -> dict:
    return importlib.import_module(name).__dict__


def _make_skeleton(code_bytes: bytes, module: str) -> types.FunctionType:
    """Phase one of function-by-value: an empty shell, memo-safe.

    The shell carries the real code object and fresh empty cells, so a
    cycle through ``__closure__`` (e.g. a periodic tick that reschedules
    itself) resolves against the memoized shell while the cell contents
    are still being unpickled.
    """
    code = marshal.loads(code_bytes)
    closure = (tuple(types.CellType() for _ in code.co_freevars)
               or None)
    try:
        globs = _module_globals(module)
    except ImportError:
        # A checkpoint from a tree where the defining module has since
        # vanished: the function keeps working as long as it only uses
        # builtins; anything else raises NameError at call time, which
        # is the honest failure mode.
        globs = {"__builtins__": __builtins__}
    return types.FunctionType(code, globs, code.co_name, None, closure)


def _fill_function(fn: types.FunctionType, state: dict) -> types.FunctionType:
    """Phase two: populate the shell with defaults, cells and dict."""
    fn.__qualname__ = state["qualname"]
    fn.__defaults__ = state["defaults"]
    fn.__kwdefaults__ = state["kwdefaults"]
    for cell, value in zip(fn.__closure__ or (), state["cells"]):
        if value is not _EmptyCell:
            cell.cell_contents = value
    if state["dict"]:
        fn.__dict__.update(state["dict"])
    return fn


def _make_cell(value: Any) -> types.CellType:
    return types.CellType(value)


def _make_empty_cell() -> types.CellType:
    return types.CellType()


def pack_stream(rng: random.Random) -> Tuple[bytes, Optional[float]]:
    """A stream's state as its :data:`_MT_WORDS`-packed words and its
    ``gauss_next`` carry.

    The one byte form of a stream: the reducer below sends these words
    out of band, and checkpoint summaries digest them.
    """
    _, words, gauss_next = rng.getstate()
    return _MT_WORDS.pack(*words), gauss_next


def _make_random(words, gauss_next) -> random.Random:
    """Rebuild a stream from :data:`_MT_WORDS`-packed state."""
    rng = random.Random.__new__(random.Random)
    rng.setstate((random.Random.VERSION, _MT_WORDS.unpack(words),
                  gauss_next))
    return rng


def _importable(obj: Any) -> bool:
    """True when stdlib pickle's save-by-reference would round-trip."""
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if module is None or qualname is None:
        return False
    mod = sys.modules.get(module)
    if mod is None:
        return False
    target: Any = mod
    for part in qualname.split("."):
        if part == "<locals>":
            return False
        target = getattr(target, part, None)
        if target is None:
            return False
    return target is obj


class SnapshotPickler(pickle.Pickler):
    """Pickler that additionally serializes closures, cells, modules.

    When *packed* is a dict, each stream the reducer packs is recorded
    in it as ``id(stream) -> (stream, words, gauss_next)``.
    """

    def __init__(self, *args, packed: Optional[dict] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.packed = packed

    def reducer_override(self, obj):  # noqa: C901 - a dispatch table
        if isinstance(obj, types.FunctionType):
            if _importable(obj):
                return NotImplemented  # by reference, as stdlib would
            cells = []
            for cell in obj.__closure__ or ():
                try:
                    cells.append(cell.cell_contents)
                except ValueError:  # not yet populated
                    cells.append(_EmptyCell)
            state = {
                "qualname": obj.__qualname__,
                "defaults": obj.__defaults__,
                "kwdefaults": obj.__kwdefaults__,
                "cells": cells,
                "dict": obj.__dict__ or None,
            }
            return (
                _make_skeleton,
                (marshal.dumps(obj.__code__), obj.__module__),
                state,
                None,
                None,
                _fill_function,
            )
        if isinstance(obj, types.CellType):
            try:
                return (_make_cell, (obj.cell_contents,))
            except ValueError:
                return (_make_empty_cell, ())
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        if type(obj) is random.Random:
            # Subclasses may carry more state; they pickle as stdlib does.
            words, gauss_next = pack_stream(obj)
            if self.packed is not None:
                self.packed[id(obj)] = (obj, words, gauss_next)
            return (_make_random, (pickle.PickleBuffer(words), gauss_next))
        return NotImplemented


def dumps_state(obj: Any, *, packed: Optional[dict] = None) -> bytes:
    """Serialize *obj* (a full shard graph or any sub-graph) to bytes.

    The in-band pickle (structure) is zlib-compressed; the RNG stream
    words travel out of band and are appended raw (see the module
    docstring for the envelope).  A *packed* dict collects each
    stream's packed words (see :class:`SnapshotPickler`), so a caller
    digesting the same streams need not pack them again.
    """
    stream = io.BytesIO()
    buffers: list = []
    # A temporary pickler: its memo is freed before the compress.
    SnapshotPickler(stream, protocol=5, buffer_callback=buffers.append,
                    packed=packed).dump(obj)
    inband = zlib.compress(stream.getbuffer(), 6)
    lengths = [buf.raw().nbytes for buf in buffers]
    header = _HEADER.pack(len(inband), len(buffers)) + struct.pack(
        f"<{len(lengths)}I", *lengths)
    return b"".join([_MAGIC, header, inband, *buffers])


class _V1Pickler(SnapshotPickler):
    """The codec-v1 pickler: streams pickled in band, as stdlib does."""

    def reducer_override(self, obj):
        if type(obj) is random.Random:
            return NotImplemented
        return super().reducer_override(obj)


def _dumps_state_v1(obj: Any) -> bytes:
    """A codec-v1 payload of *obj*, for the backward-compatibility gates."""
    stream = io.BytesIO()
    _V1Pickler(stream, protocol=5).dump(obj)
    return _MAGIC_V1 + zlib.compress(stream.getvalue(), 6)


def _split_v2(blob: bytes):
    """Validate a v2 envelope; return (in-band bytes, buffer views)."""
    view = memoryview(blob)
    offset = len(_MAGIC) + _HEADER.size
    if len(view) < offset:
        raise ValueError("snapshot payload truncated inside its header")
    inband_len, count = _HEADER.unpack_from(view, len(_MAGIC))
    lengths_end = offset + 4 * count
    if len(view) < lengths_end:
        raise ValueError("snapshot payload truncated inside its header")
    lengths = struct.unpack_from(f"<{count}I", view, offset)
    expected = lengths_end + inband_len + sum(lengths)
    if len(view) != expected:
        kind = "truncated" if len(view) < expected else "has trailing bytes"
        raise ValueError(
            f"snapshot payload {kind}: {len(view)} bytes, header "
            f"describes {expected}")
    inband = view[lengths_end:lengths_end + inband_len]
    views = []
    offset = lengths_end + inband_len
    for length in lengths:
        views.append(view[offset:offset + length])
        offset += length
    return inband, views


def loads_state(blob: bytes) -> Any:
    """Inverse of :func:`dumps_state`; also reads codec-v1 payloads."""
    if len(blob) < len(_MAGIC) or not blob.startswith(_MAGIC[:-1]):
        raise ValueError("not a repro snapshot payload (bad magic)")
    magic = blob[: len(_MAGIC)]
    if magic == _MAGIC:
        inband, buffers = _split_v2(blob)
    elif magic == _MAGIC_V1:
        inband, buffers = blob[len(_MAGIC_V1):], ()
    else:
        raise ValueError(
            f"snapshot codec version {blob[len(_MAGIC) - 1]} not supported "
            f"(this tree reads 1 and {CODEC_VERSION})"
        )
    try:
        data = zlib.decompress(inband)
    except zlib.error as exc:
        raise ValueError(f"snapshot payload corrupt: {exc}") from exc
    return pickle.loads(data, buffers=buffers)


__all__ = [
    "CODEC_VERSION",
    "SnapshotPickler",
    "dumps_state",
    "loads_state",
    "pack_stream",
]
