"""repro.snapshot — checkpoint, restore and time-travel for fleet shards.

Serializes the *complete* simulation state of a gateway shard — kernel
event heap (with ``(time_ns, seq, event)`` ordering, tombstones and
pending callbacks), RNG streams, VM state for both engines, network
stacks, protocol reliability caches, energy meters and telemetry series
banks — into versioned on-disk checkpoints, and restores them
byte-identically: ``restore(checkpoint)`` followed by running to
``T + delta`` produces the same digests, telemetry series and chaos
verdicts as an uninterrupted run.

The subsystem has four parts:

* :mod:`repro.snapshot.codec` — a deterministic object-graph serializer
  (stdlib pickle extended with closure/cell/code reducers) that can
  carry the kernel's scheduled callbacks across a process or machine
  boundary while preserving shared-object identity;
* :mod:`repro.snapshot.state` — the :class:`Checkpointable` protocol
  (``snapshot_state()`` / ``restore_state()``), the
  :class:`DeclaredState` base that saves exactly a layer's declared
  fields, the per-layer schema registry behind the manifest's schema
  hashes, and plain-data
  structural summaries used for diffing and post-restore audits;
* :mod:`repro.snapshot.checkpoint` — the on-disk format: one directory
  per checkpoint holding ``manifest.json`` (format version, per-layer
  schema hashes, seed, sim time, shard id, payload digest),
  ``state.bin`` and ``summary.json``;
* :mod:`repro.snapshot.migrate` — schema-migration hooks that upgrade
  old checkpoints (manifest-level format migrations and per-layer state
  migrations), in the style of Simics' ``update_checkpoint`` machinery.

CLI: ``python -m repro.snapshot save|restore|diff|fork`` and the CI
gate ``python -m repro.snapshot --smoke``.
"""

from repro.snapshot.checkpoint import (
    CheckpointError,
    FORMAT_VERSION,
    RestoredShard,
    digest_document,
    fleet_checkpoint_dirs,
    load_fleet_meta,
    load_shard,
    save_fleet_meta,
    save_shard,
    scenario_from_dict,
    scenario_to_dict,
    shard_dir_name,
)
from repro.snapshot.codec import dumps_state, loads_state
from repro.snapshot.diff import diff_documents, diff_lines
from repro.snapshot.migrate import (
    register_manifest_migration,
    register_state_migration,
    upgrade_manifest,
    upgrade_state,
)
from repro.snapshot.state import (
    Checkpointable,
    layer_schemas,
    schema_hash,
    shard_summary,
)

__all__ = [
    "CheckpointError",
    "Checkpointable",
    "FORMAT_VERSION",
    "RestoredShard",
    "digest_document",
    "diff_documents",
    "diff_lines",
    "dumps_state",
    "fleet_checkpoint_dirs",
    "layer_schemas",
    "load_fleet_meta",
    "load_shard",
    "loads_state",
    "register_manifest_migration",
    "register_state_migration",
    "save_fleet_meta",
    "save_shard",
    "scenario_from_dict",
    "scenario_to_dict",
    "schema_hash",
    "shard_dir_name",
    "shard_summary",
    "upgrade_manifest",
    "upgrade_state",
]
