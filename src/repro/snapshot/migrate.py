"""Schema-migration hooks for old checkpoints.

Two migration planes, mirroring Simics' checkpoint machinery:

* **Manifest (format) migrations** upgrade a whole checkpoint's
  ``manifest.json`` from one on-disk format version to the next.
  Registered as ``register_manifest_migration(from_version, fn)``;
  :func:`upgrade_manifest` chains them until the manifest reaches
  :data:`repro.snapshot.checkpoint.FORMAT_VERSION`, and raises
  :class:`~repro.snapshot.checkpoint.CheckpointError` when a step is
  missing or the checkpoint is *newer* than this tree.

* **Layer (state) migrations** upgrade one Checkpointable class's state
  dict from an old ``_schema`` version.  Every ``restore_state``
  implementation routes its incoming state through
  :func:`upgrade_state` (the shared one in
  :class:`repro.snapshot.state.DeclaredState` included, before it
  applies a single key), so an old checkpoint whose ``sim`` layer was
  written at schema v1 can still restore into a tree whose Simulator
  is at v5 — provided the 1→2, 2→3, 3→4 and 4→5 hooks exist.

The built-in v1→v2 manifest migration documents the pattern: format v1
manifests spelled the checkpoint instant ``time_ns``; v2 renamed it to
``sim_time_ns`` and added the ``label`` field.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

ManifestMigration = Callable[[dict], dict]
StateMigration = Callable[[dict], dict]

#: from_version -> hook returning the manifest at from_version + 1.
_MANIFEST_MIGRATIONS: Dict[int, ManifestMigration] = {}

#: (class qualname, from_version) -> hook returning state at +1.
_STATE_MIGRATIONS: Dict[Tuple[str, int], StateMigration] = {}


def register_manifest_migration(
    from_version: int, fn: Optional[ManifestMigration] = None
):
    """Register (or replace) the manifest hook for *from_version*.

    Usable directly or as ``@register_manifest_migration(1)``.
    """
    if fn is None:
        def decorator(hook: ManifestMigration) -> ManifestMigration:
            _MANIFEST_MIGRATIONS[int(from_version)] = hook
            return hook
        return decorator
    _MANIFEST_MIGRATIONS[int(from_version)] = fn
    return fn


def register_state_migration(
    cls, from_version: int, fn: Optional[StateMigration] = None
):
    """Register the layer-state hook for (*cls*, *from_version*).

    *cls* may be the class itself or its qualified name, so migrations
    for classes that no longer exist can still be registered.  Usable
    directly or as ``@register_state_migration(Simulator, 1)``.
    """
    name = cls if isinstance(cls, str) else _class_key(cls)
    if fn is None:
        def decorator(hook: StateMigration) -> StateMigration:
            _STATE_MIGRATIONS[(name, int(from_version))] = hook
            return hook
        return decorator
    _STATE_MIGRATIONS[(name, int(from_version))] = fn
    return fn


def _class_key(cls) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def upgrade_manifest(manifest: dict, target_version: int) -> dict:
    """Chain manifest migrations until *target_version*; raise if stuck."""
    from repro.snapshot.checkpoint import CheckpointError

    version = int(manifest.get("format_version", 0))
    if version > target_version:
        raise CheckpointError(
            f"checkpoint format v{version} is newer than this tree "
            f"(v{target_version}); refusing to guess"
        )
    while version < target_version:
        hook = _MANIFEST_MIGRATIONS.get(version)
        if hook is None:
            raise CheckpointError(
                f"no migration from checkpoint format v{version} "
                f"(this tree reads v{target_version}; known hooks: "
                f"{sorted(_MANIFEST_MIGRATIONS) or 'none'})"
            )
        manifest = hook(dict(manifest))
        new_version = int(manifest.get("format_version", version))
        if new_version <= version:  # defensive: hooks must make progress
            raise CheckpointError(
                f"migration hook for v{version} did not advance the "
                f"format_version")
        version = new_version
    return manifest


def upgrade_state(cls, state: dict) -> dict:
    """Chain layer-state migrations up to *cls*'s current schema.

    Called by every ``restore_state`` implementation; a state already
    at the current version passes through untouched (the
    overwhelmingly common case).
    """
    current = int(cls.SNAPSHOT_SCHEMA["version"])
    version = int(state.get("_schema", 1))
    if version == current:
        return state
    from repro.snapshot.checkpoint import CheckpointError

    if version > current:
        raise CheckpointError(
            f"{_class_key(cls)} state schema v{version} is newer than "
            f"this tree (v{current})"
        )
    key = _class_key(cls)
    while version < current:
        hook = _STATE_MIGRATIONS.get((key, version))
        if hook is None:
            raise CheckpointError(
                f"no state migration for {key} v{version} -> v{version + 1}"
            )
        state = dict(hook(dict(state)))
        state["_schema"] = version + 1
        version += 1
    return state


@register_manifest_migration(1)
def _manifest_v1_to_v2(manifest: dict) -> dict:
    """Format v1 spelled the instant ``time_ns``; v2 uses ``sim_time_ns``
    and carries an explicit (possibly empty) ``label``."""
    if "time_ns" in manifest:
        manifest["sim_time_ns"] = manifest.pop("time_ns")
    manifest.setdefault("label", "")
    manifest["format_version"] = 2
    return manifest


# Layer migrations register by qualified name (no imports needed, and
# they keep working even if a class moves or is retired later).

@register_state_migration("repro.sim.kernel.Simulator", 1)
def _simulator_v1_to_v2(state: dict) -> dict:
    """Sim schema v2 added the attach-time ``profiler`` slot."""
    state.setdefault("profiler", None)
    return state


@register_state_migration("repro.sim.kernel.Simulator", 2)
def _simulator_v2_to_v3(state: dict) -> dict:
    """Sim schema v3 added the fast-forward tier: bulk hook slots,
    the enable flag + suppression marker, skip statistics, and the
    batch-drain name registry."""
    state.setdefault("_bulk_hooks",
                     [None] * len(state.get("_trace_hooks", ())))
    state.setdefault("_ff_enabled", False)
    state.setdefault("_ff_skip_until", 0)
    state.setdefault("ff_windows", 0)
    state.setdefault("ff_events", 0)
    state.setdefault("_batch_names", {})
    return state


@register_state_migration("repro.sim.kernel.Simulator", 3)
def _simulator_v3_to_v4(state: dict) -> dict:
    """Sim schema v4 removed batched dispatch and its name registry."""
    state.pop("_batch_names", None)
    return state


@register_state_migration("repro.sim.kernel.Simulator", 4)
def _simulator_v4_to_v5(state: dict) -> dict:
    """Sim schema v5 queues fast-forward-certified events in a heap of
    their own, the lane.  A v4 state's single heap stays as saved, so
    the restore audit digests it in its saved order; ``_lane`` None
    marks it unsplit, and the first ``run_until`` (or certified push)
    moves its certified entries into the lane."""
    state.setdefault("_lane", None)
    return state


@register_state_migration("repro.vm.machine.VirtualMachine", 1)
def _vm_v1_to_v2(state: dict) -> dict:
    """VM schema v2 added the optional ``_hit_recorder``."""
    state.setdefault("_hit_recorder", None)
    return state


@register_state_migration("repro.vm.machine.VirtualMachine", 2)
def _vm_v2_to_v3(state: dict) -> dict:
    """VM schema v3 allows mode == "trace" (superinstruction
    compilation); old states carry "fast"/"reference" and need no
    value changes."""
    return state


@register_state_migration("repro.vm.machine.VirtualMachine", 3)
def _vm_v3_to_v4(state: dict) -> dict:
    """VM schema v4 removed the "trace" engine.  It was trap-for-trap
    and cycle-identical to "fast", which therefore replaces it."""
    if state.get("_mode") == "trace":
        state["_mode"] = "fast"
    return state


@register_state_migration("repro.profile.collector.ShardProfiler", 1)
def _profiler_v1_to_v2(state: dict) -> dict:
    """Profiler schema v2 added fast-forward window attribution."""
    state.setdefault("_ff", {})
    return state


__all__ = [
    "register_manifest_migration",
    "register_state_migration",
    "upgrade_manifest",
    "upgrade_state",
]
