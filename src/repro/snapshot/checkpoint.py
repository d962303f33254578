"""The on-disk checkpoint format.

One checkpoint is one directory::

    <dir>/
      manifest.json   format version, python tag, per-layer schema
                      hashes, seed, sim time, shard id, payload digest
      state.bin       the full shard graph (codec envelope: zlib'd
                      structure, then raw RNG stream words)
      summary.json    plain-data structural summary (diff / audit),
                      compact JSON

A fleet checkpoint is a directory of shard checkpoints plus a
``fleet.json`` recording the scenario and the checkpoint instant, so
``python -m repro.fleet --resume`` can rebuild every shard and continue
to the original horizon (or a later one).

Loading is defensive in this order: manifest migrated to the current
:data:`FORMAT_VERSION` (or rejected as newer), python ``major.minor``
checked (:mod:`marshal` bytecode in ``state.bin`` is
interpreter-specific), payload digest verified, graph unpickled, and
finally the restored shard is re-summarized and audited against
``summary.json`` — a checkpoint that restores into a *different* state
than was saved fails loudly, not 10k simulated seconds later.  A
summary without the ``rng_digest`` marker was saved before RNG streams
were digested from their packed words; its restore is audited with the
``repr`` digests it was written with.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.snapshot.codec import dumps_state, loads_state
from repro.snapshot.migrate import upgrade_manifest
from repro.snapshot.state import RNG_DIGEST_KEY, layer_schemas, shard_summary

#: On-disk checkpoint format version.  v1 spelled the checkpoint
#: instant ``time_ns``; v2 renamed it ``sim_time_ns`` and added
#: ``label`` (a built-in migration upgrades v1 manifests).
FORMAT_VERSION = 2

_MANIFEST = "manifest.json"
_STATE = "state.bin"
_SUMMARY = "summary.json"
_FLEET_META = "fleet.json"


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, validated or restored."""


def _python_tag() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def _dump_json(path: Path, document: dict) -> None:
    # Compact, so the C encoder writes it; readers take any layout.
    path.write_text(json.dumps(document, sort_keys=True, default=repr) + "\n")


def _load_json(path: Path, what: str) -> dict:
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise CheckpointError(f"corrupt {what} {path}: {exc}") from exc


def digest_document(document: dict) -> str:
    """Canonical digest of any JSON-able document (summaries, metrics)."""
    blob = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------- scenario codec
def scenario_to_dict(scenario) -> dict:
    """A FleetScenario as plain JSON data (inverse: scenario_from_dict)."""
    return asdict(scenario)


def scenario_from_dict(data: dict):
    """Rebuild a FleetScenario from :func:`scenario_to_dict` output."""
    from repro.fleet.scenario import ChurnProfile, FleetScenario
    from repro.protocol.reliability import RetryPolicy
    from repro.telemetry.config import TelemetryConfig

    data = dict(data)
    data["peripheral_mix"] = tuple(
        (str(name), float(weight)) for name, weight in data["peripheral_mix"]
    )
    data["churn"] = ChurnProfile(**data["churn"])
    for key in ("retry", "install_retry"):
        if data.get(key) is not None:
            data[key] = RetryPolicy(**data[key])
    if data.get("telemetry") is not None:
        data["telemetry"] = TelemetryConfig(**data["telemetry"])
    if data.get("profile") is not None:
        from repro.profile.config import ProfileConfig

        data["profile"] = ProfileConfig(**data["profile"])
    return FleetScenario(**data)


# ------------------------------------------------------------- shard save
def save_shard(
    deployment, directory, *, label: str = ""
) -> Path:
    """Checkpoint one live shard deployment into *directory*.

    Safe at any instant: mid-run, mid-campaign, or after finalize.
    The deployment keeps running unaffected — saving only reads state.
    Layers hand over their declared fields through ``getattr``
    (:class:`~repro.snapshot.state.DeclaredState`), and summaries read
    dataclass counters field by field, so no layer's attribute storage
    is touched.  Plain objects in the graph (routers, drivers, stats)
    still pickle by default, which reads their attribute dicts.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    # The codec packs each RNG stream once; the summary digests those
    # same words.
    packed: dict = {}
    payload = dumps_state(deployment, packed=packed)
    summary = shard_summary(deployment, packed=packed)
    # Compact, so the C encoder writes it: these are the very bytes
    # digest_document hashes.
    summary_json = json.dumps(summary, sort_keys=True, default=repr)
    manifest = {
        "format_version": FORMAT_VERSION,
        "codec_python": _python_tag(),
        "label": label,
        "scenario": scenario_to_dict(deployment.scenario),
        "seed": deployment.scenario.seed,
        "shard": deployment.spec.index,
        "sim_time_ns": deployment.sim.now_ns,
        "seq": deployment.sim._seq,
        "layer_schemas": layer_schemas(),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "summary_sha256": hashlib.sha256(summary_json.encode()).hexdigest(),
    }
    (directory / _STATE).write_bytes(payload)
    (directory / _SUMMARY).write_text(summary_json + "\n")
    _dump_json(directory / _MANIFEST, manifest)
    return directory


def _save_shard_sim_v4(deployment, directory, *, label: str = "") -> Path:
    """:func:`save_shard` as a tree whose Simulator was at schema v4
    wrote it: one heap holding every event, no lane.

    For the compatibility smoke and tests.  Leaves the deployment's
    simulator in the unsplit shape a v4 restore produces (its next
    run splits the heap again).
    """
    from repro.sim.kernel import Simulator

    sim = deployment.sim
    if sim._lane is not None:
        heap = sim._queue + sim._lane
        heapq.heapify(heap)
        sim._queue, sim._lane = heap, None
    # The v4 declaration is what gets saved: every field but ``_lane``.
    schema = Simulator.SNAPSHOT_SCHEMA
    Simulator.SNAPSHOT_SCHEMA = dict(
        schema, version=4,
        fields=tuple(f for f in schema["fields"] if f != "_lane"))
    try:
        return save_shard(deployment, directory, label=label)
    finally:
        Simulator.SNAPSHOT_SCHEMA = schema


@dataclass
class RestoredShard:
    """A shard deployment brought back to life from a checkpoint."""

    deployment: object
    manifest: dict
    summary: dict

    @property
    def sim_time_ns(self) -> int:
        return int(self.manifest["sim_time_ns"])

    @property
    def shard(self) -> int:
        return int(self.manifest["shard"])


def read_manifest(directory) -> dict:
    """Load and migrate a checkpoint's manifest (no state touched)."""
    directory = Path(directory)
    path = directory / _MANIFEST
    if not path.is_file():
        raise CheckpointError(f"not a checkpoint: {directory} has no {_MANIFEST}")
    return upgrade_manifest(_load_json(path, "manifest"), FORMAT_VERSION)


def read_summary(directory) -> dict:
    path = Path(directory) / _SUMMARY
    if not path.is_file():
        raise CheckpointError(f"checkpoint {directory} has no {_SUMMARY}")
    return _load_json(path, "summary")


def load_shard(directory, *, audit: bool = True) -> RestoredShard:
    """Restore one shard checkpoint into a live deployment.

    With ``audit`` (the default) the restored shard is re-summarized
    and compared digest-for-digest against the summary written at save
    time; a mismatch means the restore is *not* the saved state and
    raises :class:`CheckpointError` immediately.  A summary saved
    without the RNG digest marker is compared in its own (``repr``)
    digest scheme.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)

    tag = manifest.get("codec_python")
    if tag != _python_tag():
        raise CheckpointError(
            f"checkpoint {directory} was written by python {tag}; this is "
            f"python {_python_tag()} and the bytecode payload is not portable"
        )

    payload = (directory / _STATE).read_bytes()
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest.get("payload_sha256"):
        raise CheckpointError(
            f"checkpoint {directory} payload digest mismatch "
            f"(file corrupt or tampered)"
        )

    deployment = loads_state(payload)
    summary = read_summary(directory)
    if audit:
        restored = shard_summary(
            deployment, legacy_rng=RNG_DIGEST_KEY not in summary)
        if digest_document(restored) != digest_document(summary):
            raise CheckpointError(
                f"checkpoint {directory} restored into a different state "
                f"than was saved (summary digest mismatch); run "
                f"'python -m repro.snapshot diff' against a fresh save "
                f"to localize the divergence"
            )
    return RestoredShard(deployment=deployment, manifest=manifest,
                         summary=summary)


# ------------------------------------------------------------ fleet layout
def shard_dir_name(index: int) -> str:
    return f"shard-{index:04d}"


def instant_dir_name(sim_time_ns: int) -> str:
    """Directory name for one retained checkpoint instant.

    Zero-padded so lexicographic order is chronological order — the
    rolling-retention GC and :func:`resolve_fleet_dir` both rely on a
    plain sorted listing.
    """
    return f"at-{int(sim_time_ns):015d}"


def resolve_fleet_dir(directory) -> Path:
    """The directory actually holding ``fleet.json``.

    A plain fleet checkpoint resolves to itself.  A rolling-retention
    run (``--checkpoint-keep``) nests one fleet checkpoint per retained
    instant in ``at-<ns>`` subdirectories; resolving picks the latest,
    so ``--resume`` keeps working on either layout unchanged.
    """
    directory = Path(directory)
    if (directory / _FLEET_META).is_file():
        return directory
    instants = sorted(
        child for child in directory.iterdir()
        if child.is_dir() and child.name.startswith("at-")
        and (child / _FLEET_META).is_file()
    ) if directory.is_dir() else []
    if not instants:
        raise CheckpointError(
            f"not a fleet checkpoint: {directory} has no {_FLEET_META} "
            f"and no retained at-* instants"
        )
    return instants[-1]


def save_fleet_meta(
    directory, scenario, *, sim_time_ns: int, shards: int, label: str = ""
) -> Path:
    """Write the fleet-level metadata next to the shard checkpoints."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _dump_json(directory / _FLEET_META, {
        "format_version": FORMAT_VERSION,
        "label": label,
        "scenario": scenario_to_dict(scenario),
        "sim_time_ns": int(sim_time_ns),
        "shards": int(shards),
    })
    return directory


def load_fleet_meta(directory) -> dict:
    directory = Path(directory)
    path = directory / _FLEET_META
    if not path.is_file():
        raise CheckpointError(
            f"not a fleet checkpoint: {directory} has no {_FLEET_META}"
        )
    return upgrade_manifest(_load_json(path, "fleet metadata"),
                            FORMAT_VERSION)


def fleet_checkpoint_dirs(directory) -> List[Path]:
    """Shard checkpoint directories of a fleet checkpoint, index order."""
    directory = Path(directory)
    out = sorted(
        child for child in directory.iterdir()
        if child.is_dir() and child.name.startswith("shard-")
    )
    if not out:
        raise CheckpointError(f"fleet checkpoint {directory} has no shards")
    return out


__all__ = [
    "CheckpointError",
    "FORMAT_VERSION",
    "RestoredShard",
    "digest_document",
    "fleet_checkpoint_dirs",
    "instant_dir_name",
    "load_fleet_meta",
    "load_shard",
    "read_manifest",
    "read_summary",
    "resolve_fleet_dir",
    "save_fleet_meta",
    "save_shard",
    "scenario_from_dict",
    "scenario_to_dict",
    "shard_dir_name",
]
