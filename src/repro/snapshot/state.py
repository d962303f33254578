"""The Checkpointable protocol, layer schema registry and summaries.

**Protocol.**  A class participates in checkpoints by implementing

* ``snapshot_state() -> dict`` — its complete restorable state, stamped
  with a ``"_schema"`` version int.  The dict may reference live
  objects (callbacks, other layers); the snapshot codec serializes the
  whole graph with shared identity intact.  Anything derivable is
  *excluded* and rebuilt on restore — e.g. the fastpath VM's
  translation tables.
* ``restore_state(state) -> None`` — applies a state dict.  Every
  ``restore_state`` implementation routes it through
  :func:`repro.snapshot.migrate.upgrade_state` first, so old-schema
  states are upgraded (or cleanly rejected).

Each class declares a ``SNAPSHOT_SCHEMA`` dict
(``layer``/``version``/``fields``) whose hash lands in every
checkpoint manifest — a checkpoint written before a layer's state
shape changed is detectable *before* unpickling.  Most layers inherit
both methods from :class:`DeclaredState`, which saves exactly the
declared ``fields`` (``getattr`` in, ``setattr`` out, derived state
rebuilt by one class hook) and aliases ``__getstate__``/
``__setstate__`` to them, so the codec needs no registry and
``cls.__new__(cls).restore_state(s)`` works in tests.  It never reads
or rewrites an instance's attribute dict: on CPython 3.11 that gives
up the inline attribute storage and slows every later access.

**Summaries.**  :func:`shard_summary` renders a live shard deployment
into a plain-data tree (JSON-safe, deterministic): kernel heap
metadata, RNG stream digests, per-layer counters and cache shapes.
Summaries power ``python -m repro.snapshot diff`` (structural diff of
two checkpoints, for chaos bisection), the post-restore audit (a
restored shard must summarize byte-identically to the shard that was
saved), and the chaos checkpoint-roundtrip invariant.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

from repro.snapshot.codec import pack_stream
from repro.snapshot.migrate import upgrade_state


@runtime_checkable
class Checkpointable(Protocol):
    """Anything that can hand over and re-adopt its complete state."""

    SNAPSHOT_SCHEMA: dict

    def snapshot_state(self) -> dict:  # pragma: no cover - protocol
        ...

    def restore_state(self, state: dict) -> None:  # pragma: no cover
        ...


class DeclaredState:
    """Checkpoint state that is exactly ``SNAPSHOT_SCHEMA["fields"]``.

    A subclass declares its restorable attributes and nothing else:
    the same tuple is hashed into the manifest and read here, so the
    two cannot drift apart.  State left out of ``fields`` is derived
    and is rebuilt by :meth:`_rebuild_derived` after every restore.
    """

    SNAPSHOT_SCHEMA: dict

    def snapshot_state(self) -> dict:
        schema = self.SNAPSHOT_SCHEMA
        state = {name: getattr(self, name) for name in schema["fields"]}
        state["_schema"] = schema["version"]
        return state

    def restore_state(self, state: dict) -> None:
        # Every key is applied, as saved (or as migrated), including
        # any a checkpoint carries beyond the current declaration.
        for name, value in upgrade_state(type(self), state).items():
            if name != "_schema":
                setattr(self, name, value)
        self._rebuild_derived()

    def _rebuild_derived(self) -> None:
        """Rebuild the state ``fields`` leaves out; none by default."""

    __getstate__ = snapshot_state
    __setstate__ = restore_state


def schema_hash(cls) -> str:
    """Stable 16-hex digest of a Checkpointable class's declared schema."""
    schema = cls.SNAPSHOT_SCHEMA
    blob = json.dumps(
        {"layer": schema["layer"], "version": schema["version"],
         "fields": list(schema["fields"])},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _checkpointable_classes() -> List[type]:
    """Every layer class participating in checkpoints.

    Imported lazily: the layers import :class:`DeclaredState` from
    this module, so it must not import them at import time.
    """
    from repro.core.client import Client
    from repro.core.manager import Manager
    from repro.core.thing import Thing
    from repro.hw.power import EnergyMeter
    from repro.net.network import Network
    from repro.net.stack import NetworkStack
    from repro.profile.collector import ShardProfiler
    from repro.profile.vmheat import OpcodeHeatRecorder
    from repro.protocol.reliability import DuplicateCache, ReplyCache
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry
    from repro.telemetry.series import SeriesBank
    from repro.vm.machine import VirtualMachine

    return [
        Simulator, RngRegistry,                 # sim
        VirtualMachine,                         # vm
        Network, NetworkStack,                  # net
        DuplicateCache, ReplyCache,             # protocol
        EnergyMeter,                            # hw
        Client, Manager, Thing,                 # core
        SeriesBank,                             # telemetry
        ShardProfiler, OpcodeHeatRecorder,      # profile
    ]


def layer_schemas() -> Dict[str, Dict[str, dict]]:
    """Manifest view: layer -> class -> {version, schema hash}."""
    out: Dict[str, Dict[str, dict]] = {}
    for cls in _checkpointable_classes():
        schema = cls.SNAPSHOT_SCHEMA
        out.setdefault(schema["layer"], {})[cls.__name__] = {
            "version": schema["version"],
            "hash": schema_hash(cls),
        }
    return out


# --------------------------------------------------------------- summaries
def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: Heap events listed verbatim in a summary before truncating to a
#: digest-only tail (diffs stay readable; summaries stay bounded).
_EVENT_DETAIL_LIMIT = 4096


def _sim_summary(sim) -> dict:
    # The main heap, then the certified lane, each in raw order.  A
    # restored schema-v4 heap (lane None until the first run) lists in
    # the order it was saved, so its saved summary still audits.
    events = [
        [time_ns, seq, event.name, bool(event.cancelled)]
        for heap in (sim._queue, sim._lane or ())
        for time_ns, seq, event in heap
    ]
    by_name: Dict[str, int] = {}
    for _, _, name, cancelled in events:
        if not cancelled:
            by_name[name or "<unnamed>"] = by_name.get(name or "<unnamed>", 0) + 1
    out = {
        "now_ns": sim.now_ns,
        "seq": sim._seq,
        "tombstones": sim._tombstones,
        "pending": sim.pending_count(),
        "events_digest": _digest(events),
        "events_by_name": dict(sorted(by_name.items())),
        "events": events[:_EVENT_DETAIL_LIMIT],
    }
    if len(events) > _EVENT_DETAIL_LIMIT:
        out["events_truncated"] = len(events) - _EVENT_DETAIL_LIMIT
    return out


#: Top-level summary key naming how the ``rng`` section digests each
#: stream.  Summaries saved before it existed digest ``repr`` of the
#: stream state (:func:`_legacy_rng_state_digest`).
RNG_DIGEST_KEY = "rng_digest"
RNG_DIGEST_SCHEME = "mt-words"


def _rng_state_digest(stream, packed: Optional[dict] = None) -> str:
    """sha256 of the stream's packed codec words plus its gauss carry.

    *packed* holds words the codec already packed (``dumps_state(...,
    packed=...)``); a stream missing from it is packed here.  Each
    entry keeps its stream alive, so its ``id`` names no other object.
    """
    entry = packed.get(id(stream)) if packed else None
    if entry is not None:
        _, words, gauss_next = entry
    else:
        words, gauss_next = pack_stream(stream)
    return hashlib.sha256(words + repr(gauss_next).encode()).hexdigest()[:16]


def _legacy_rng_state_digest(stream) -> str:
    """``_digest(repr(stream.getstate()))``: the digest of summaries
    without :data:`RNG_DIGEST_KEY`, kept to audit their restores.

    The repr of a stream state (ints, a float or None) is pure ASCII
    with no quotes or backslashes, so its JSON encoding is the repr in
    double quotes.
    """
    blob = '"' + repr(stream.getstate()) + '"'
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _rng_summary(registry, digest=_rng_state_digest,
                 prefix: str = "") -> Dict[str, str]:
    """Flat ``path -> state digest`` map over a registry tree."""
    out: Dict[str, str] = {}
    for name, stream in sorted(registry.streams().items()):
        out[f"{prefix}{name}"] = digest(stream)
    for name, child in sorted(registry.children().items()):
        out.update(_rng_summary(child, digest, prefix=f"{prefix}{name}/"))
    return out


def _endpoint_summary(endpoint) -> dict:
    """Shared shape for client/manager protocol endpoints."""
    pending = getattr(endpoint, "_pending", {})
    out = {
        "pending": sorted(repr(key) for key in pending),
        "stack": asdict(endpoint.stack.stats),
        "timer_scale": getattr(endpoint, "timer_scale", 1.0),
    }
    dups = getattr(endpoint, "_dups", None)
    if dups is not None:
        out["dup_cache"] = {"len": len(dups), "digest": _digest(dups.snapshot_state())}
    return out


def _thing_summary(thing) -> dict:
    return {
        "label": thing.label,
        "pending_installs": thing.pending_installs(),
        "reply_cache_hits": thing.reply_cache_hits,
        "stack": asdict(thing.stack.stats),
        "router": {
            "queue_depth": thing.router.queue_depth,
            "stats": asdict(thing.router.stats),
        },
        "energy": thing.meter.snapshot(),
        "channels": {
            str(channel): f"{device_id.value:08x}"
            for channel, device_id in sorted(thing.connected_peripherals().items())
        },
    }


def shard_summary(deployment, *, legacy_rng: bool = False,
                  packed: Optional[dict] = None) -> dict:
    """Deterministic plain-data summary of one live shard deployment.

    A pure function of simulation state: saving it, restoring the
    checkpoint and summarizing again must produce byte-identical JSON —
    that equality is the post-restore audit, and its violation is what
    ``diff`` renders for bisection.  ``legacy_rng`` renders the form of
    summaries saved before :data:`RNG_DIGEST_KEY`: ``repr`` stream
    digests and no marker.  *packed* passes the stream words a
    ``dumps_state(..., packed=...)`` of the same state recorded; the
    summary is the same with or without it.
    """
    summary = {
        "shard": deployment.spec.index,
        "scenario": deployment.scenario.name,
        "seed": deployment.scenario.seed,
        "sim": _sim_summary(deployment.sim),
        "metrics": deployment.metrics.snapshot(),
        "net": asdict(deployment.network.stats),
        "client": _endpoint_summary(deployment.client),
        "manager": _endpoint_summary(deployment.manager),
        "things": [_thing_summary(thing) for thing in deployment.things],
    }
    if legacy_rng:
        summary["rng"] = _rng_summary(deployment.rng,
                                      _legacy_rng_state_digest)
    else:
        summary["rng"] = _rng_summary(
            deployment.rng,
            lambda stream: _rng_state_digest(stream, packed))
        summary[RNG_DIGEST_KEY] = RNG_DIGEST_SCHEME
    if deployment.telemetry is not None:
        bank = deployment.telemetry.bank
        summary["telemetry"] = {
            "series": len(bank.snapshot().get("series", [])),
            "digest": _digest(bank.snapshot()),
        }
    tracer = deployment.sim.tracer
    if tracer is not None:
        events = [event.to_dict() for event in tracer.events]
        summary["trace"] = {"events": len(events), "digest": _digest(events)}
    profiler = getattr(deployment, "profiler", None)
    if profiler is not None:
        from repro.profile.collector import deterministic_view

        # Wall-clock numbers differ between the saving and the restored
        # process, so the audit digests the deterministic plane only.
        snapshot = deterministic_view(profiler.snapshot())
        summary["profile"] = {
            "events": len(snapshot.get("events", {})),
            "digest": _digest(snapshot),
        }
    return summary


__all__ = [
    "RNG_DIGEST_KEY",
    "RNG_DIGEST_SCHEME",
    "Checkpointable",
    "DeclaredState",
    "layer_schemas",
    "schema_hash",
    "shard_summary",
]
