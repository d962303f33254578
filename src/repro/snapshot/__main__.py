"""CLI for checkpoints: ``python -m repro.snapshot``.

Examples::

    python -m repro.snapshot save --scenario smoke --at 5 --dir ckpt
    python -m repro.snapshot restore ckpt --json resumed.json
    python -m repro.snapshot diff ckpt-a ckpt-b
    python -m repro.snapshot fork ckpt --variants 3 --out sweeps
    python -m repro.snapshot --smoke     # the CI gate

``save`` runs a scenario and checkpoints every shard at the chosen
instant; ``restore`` resumes a fleet checkpoint to its horizon and
prints the merged metrics digest; ``diff`` structurally compares two
checkpoints (fleet or single-shard) for bisection; ``fork`` spawns N
warm-start variants with derived seeds (every RNG stream perturbed in
place, all non-random state shared).

The smoke gate is the digest-parity check from ISSUE 6: checkpoint at
T, restore, run to T+Δ, and require merged metrics and telemetry to be
byte-identical to an uninterrupted run — at worker counts 1 and 2 —
plus cross-version restore (shards whose payloads use the codec-v1
envelope, and shards whose summaries carry the ``repr`` RNG digests
saved before the digest-scheme marker, and shards saved at Simulator
schema v4 with one event heap, restore, pass the audit and run on to
the same digest), migration acceptance (v1 manifest) and rejection
(future format).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _scenario_from_args(args):
    from repro.fleet.scenario import SCENARIOS

    if args.scenario not in SCENARIOS:
        raise SystemExit(f"unknown scenario '{args.scenario}'")
    scenario = SCENARIOS[args.scenario]
    overrides = {}
    if args.nodes is not None:
        overrides["things"] = args.nodes
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "telemetry", False):
        from repro.telemetry.config import TelemetryConfig

        overrides["telemetry"] = TelemetryConfig(cadence_s=1.0)
    return scenario.scaled(**overrides) if overrides else scenario


def _cmd_save(args) -> int:
    from repro.fleet.runner import CheckpointPlan, run_scenario
    from repro.snapshot.checkpoint import digest_document

    scenario = _scenario_from_args(args)
    plan = CheckpointPlan(directory=args.dir, at_s=args.at,
                          every_s=args.every, label=args.label)
    result = run_scenario(scenario, workers=args.workers, checkpoint=plan)
    instants = plan.instants_s(scenario.duration_s)
    print(f"checkpointed {scenario.name} ({scenario.shard_count} shards) "
          f"at t={instants[-1]:g}s into {args.dir}/")
    print(f"run-to-completion metrics digest: "
          f"{digest_document(result.merged)[:16]}")
    return 0


def _cmd_restore(args) -> int:
    from repro.fleet.runner import resume_scenario
    from repro.snapshot.checkpoint import CheckpointError, digest_document

    try:
        result = resume_scenario(args.dir, workers=args.workers,
                                 run_to_s=args.run_to)
    except CheckpointError as exc:
        print(f"restore failed: {exc}", file=sys.stderr)
        return 1
    print(f"resumed {result.scenario.name} "
          f"({len(result.shard_snapshots)} shards)")
    print(f"merged metrics digest: {digest_document(result.merged)[:16]}")
    if args.json:
        document = {"merged": result.merged,
                    "digest": digest_document(result.merged)}
        if result.scenario.telemetry is not None:
            document["telemetry"] = result.telemetry_document()
        Path(args.json).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


def _summaries_of(path: Path):
    """(name, summary) pairs for a fleet or single-shard checkpoint."""
    from repro.snapshot.checkpoint import fleet_checkpoint_dirs, read_summary

    if (path / "summary.json").is_file():
        return [(path.name, read_summary(path))]
    return [(shard.name, read_summary(shard))
            for shard in fleet_checkpoint_dirs(path)]


def _cmd_diff(args) -> int:
    from repro.snapshot.checkpoint import CheckpointError
    from repro.snapshot.diff import diff_lines

    try:
        left = dict(_summaries_of(Path(args.a)))
        right = dict(_summaries_of(Path(args.b)))
    except CheckpointError as exc:
        print(f"diff failed: {exc}", file=sys.stderr)
        return 2
    divergent = 0
    for name in sorted(set(left) | set(right)):
        if name not in left or name not in right:
            print(f"== {name}: only in "
                  f"{args.a if name in left else args.b}")
            divergent += 1
            continue
        lines = diff_lines(left[name], right[name], limit=args.limit)
        if lines == ["checkpoints are structurally identical"]:
            continue
        divergent += 1
        print(f"== {name}")
        for line in lines:
            print(f"  {line}")
    if not divergent:
        print("checkpoints are structurally identical")
    return 1 if divergent else 0


def _cmd_fork(args) -> int:
    """Spawn N warm-start variants of a checkpoint with derived seeds."""
    from repro.snapshot.checkpoint import (
        CheckpointError,
        fleet_checkpoint_dirs,
        load_fleet_meta,
        load_shard,
        save_fleet_meta,
        save_shard,
        scenario_from_dict,
    )

    try:
        meta = load_fleet_meta(args.dir)
        shard_dirs = fleet_checkpoint_dirs(args.dir)
    except CheckpointError as exc:
        print(f"fork failed: {exc}", file=sys.stderr)
        return 1
    scenario = scenario_from_dict(meta["scenario"])
    out_root = Path(args.out)
    for variant in range(args.variants):
        salt = f"{args.salt}-{variant}" if args.salt else f"variant-{variant}"
        variant_dir = out_root / f"fork-{variant:02d}"
        for shard_dir in shard_dirs:
            restored = load_shard(shard_dir)
            deployment = restored.deployment
            # Perturb reseeds every stream in place — including streams
            # already captured inside scheduled closures — so the
            # variant diverges stochastically from warm shared state.
            deployment.rng.perturb(salt)
            save_shard(deployment, variant_dir / shard_dir.name, label=salt)
        save_fleet_meta(variant_dir, scenario,
                        sim_time_ns=int(meta["sim_time_ns"]),
                        shards=int(meta["shards"]), label=salt)
        print(f"fork {variant}: {variant_dir}/ (salt '{salt}')")
    print(f"\nresume any variant: python -m repro.fleet --resume "
          f"{out_root}/fork-00")
    return 0


def _cmd_smoke(args) -> int:
    import hashlib
    import shutil
    import tempfile

    from repro.fleet.runner import (
        CheckpointPlan,
        resume_scenario,
        run_scenario,
    )
    from repro.fleet.scenario import SCENARIOS
    from repro.snapshot.checkpoint import (
        CheckpointError,
        _save_shard_sim_v4,
        digest_document,
        fleet_checkpoint_dirs,
        load_shard,
        read_manifest,
        read_summary,
    )
    from repro.snapshot.codec import _dumps_state_v1, loads_state
    from repro.snapshot.state import RNG_DIGEST_KEY, _digest, _rng_summary
    from repro.telemetry.config import TelemetryConfig

    failures = []
    scenario = SCENARIOS["smoke"].scaled(
        things=6, shard_size=3, duration_s=6.0,
        telemetry=TelemetryConfig(cadence_s=1.0),
    )
    root = Path(tempfile.mkdtemp(prefix="repro-snapshot-smoke-"))
    uninterrupted = {}
    try:
        for workers in (1, 2):
            ckpt = root / f"ckpt-w{workers}"
            baseline = run_scenario(scenario, workers=workers)
            checkpointed = run_scenario(
                scenario, workers=workers,
                checkpoint=CheckpointPlan(directory=str(ckpt), at_s=3.0),
            )
            resumed = resume_scenario(ckpt, workers=workers)
            digests = {
                "uninterrupted": digest_document(baseline.merged),
                "checkpointing": digest_document(checkpointed.merged),
                "resumed": digest_document(resumed.merged),
            }
            telemetry = {
                "uninterrupted": digest_document(
                    baseline.telemetry_document()),
                "resumed": digest_document(resumed.telemetry_document()),
            }
            uninterrupted[workers] = digests["uninterrupted"]
            if len(set(digests.values())) == 1:
                print(f"workers={workers}: metrics parity ok "
                      f"({digests['resumed'][:16]})")
            else:
                failures.append(
                    f"workers={workers}: metrics diverge: {digests}")
            if telemetry["uninterrupted"] == telemetry["resumed"]:
                print(f"workers={workers}: telemetry parity ok")
            else:
                failures.append(
                    f"workers={workers}: telemetry diverges: {telemetry}")

        # Cross-version restore: shards whose state.bin is a codec-v1
        # payload restore, pass load_shard's audit (inside
        # resume_scenario) and run on to the uninterrupted digest.
        ckpt = root / "ckpt-w1"
        legacy = root / "ckpt-codec-v1"
        shutil.copytree(ckpt, legacy)
        for shard_dir in fleet_checkpoint_dirs(legacy):
            state_path = shard_dir / "state.bin"
            payload = _dumps_state_v1(loads_state(state_path.read_bytes()))
            state_path.write_bytes(payload)
            manifest_path = shard_dir / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["payload_sha256"] = hashlib.sha256(payload).hexdigest()
            manifest_path.write_text(json.dumps(manifest, indent=2))
        try:
            digest = digest_document(resume_scenario(legacy).merged)
        except (CheckpointError, ValueError) as exc:
            failures.append(f"codec-v1 checkpoint did not restore: {exc}")
        else:
            if digest == uninterrupted[1]:
                print(f"codec-v1 payload restore: ok ({digest[:16]})")
            else:
                failures.append(
                    f"codec-v1 checkpoint diverges: {digest[:16]} != "
                    f"{uninterrupted[1][:16]}")

        # Legacy summaries: shards whose summary.json predates the RNG
        # digest marker (streams digested as the JSON of their repr)
        # pass the audit in that scheme and run on to the same digest.
        legacy = root / "ckpt-repr-digests"
        shutil.copytree(ckpt, legacy)
        for shard_dir in fleet_checkpoint_dirs(legacy):
            deployment = loads_state((shard_dir / "state.bin").read_bytes())
            summary = read_summary(shard_dir)
            del summary[RNG_DIGEST_KEY]
            summary["rng"] = _rng_summary(
                deployment.rng,
                lambda stream: _digest(repr(stream.getstate())))
            (shard_dir / "summary.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n")
            manifest_path = shard_dir / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["summary_sha256"] = digest_document(summary)
            manifest_path.write_text(json.dumps(manifest, indent=2))
        try:
            digest = digest_document(resume_scenario(legacy).merged)
        except CheckpointError as exc:
            failures.append(f"repr-digest summary did not restore: {exc}")
        else:
            if digest == uninterrupted[1]:
                print(f"repr-digest summary restore: ok ({digest[:16]})")
            else:
                failures.append(
                    f"repr-digest checkpoint diverges: {digest[:16]} != "
                    f"{uninterrupted[1][:16]}")

        # Simulator schema v4: shards saved with one event heap (before
        # the certified lane) restore, pass the audit against the
        # single-heap summary they were saved with, and run on to the
        # same digest.
        legacy = root / "ckpt-sim-v4"
        shutil.copytree(ckpt, legacy)
        for shard_dir in fleet_checkpoint_dirs(legacy):
            restored = load_shard(shard_dir)
            _save_shard_sim_v4(restored.deployment, shard_dir,
                               label=restored.manifest.get("label", ""))
        versions = {read_manifest(shard_dir)["layer_schemas"]["sim"]
                    ["Simulator"]["version"]
                    for shard_dir in fleet_checkpoint_dirs(legacy)}
        try:
            digest = digest_document(resume_scenario(legacy).merged)
        except CheckpointError as exc:
            failures.append(f"sim-v4 checkpoint did not restore: {exc}")
        else:
            if versions == {4} and digest == uninterrupted[1]:
                print(f"sim-v4 single-heap restore: ok ({digest[:16]})")
            else:
                failures.append(
                    f"sim-v4 checkpoint (versions {sorted(versions)}) "
                    f"diverges: {digest[:16]} != {uninterrupted[1][:16]}")

        # Migration acceptance: a v1 manifest must load via the hook.
        shard0 = fleet_checkpoint_dirs(ckpt)[0]
        manifest_path = shard0 / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        downgraded = dict(manifest)
        downgraded["format_version"] = 1
        downgraded["time_ns"] = downgraded.pop("sim_time_ns")
        downgraded.pop("label", None)
        manifest_path.write_text(json.dumps(downgraded, indent=2))
        migrated = read_manifest(shard0)
        if migrated["format_version"] == manifest["format_version"] \
                and migrated["sim_time_ns"] == manifest["sim_time_ns"]:
            print("v1 manifest migration: ok")
        else:
            failures.append("v1 manifest did not migrate cleanly")

        # Rejection: a future format version must refuse to load.
        bumped = dict(manifest)
        bumped["format_version"] = 99
        manifest_path.write_text(json.dumps(bumped, indent=2))
        try:
            read_manifest(shard0)
            failures.append("future format version was not rejected")
        except CheckpointError:
            print("future format rejection: ok")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    if failures:
        print("\nsnapshot smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nsnapshot smoke passed")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = ["smoke" if arg == "--smoke" else arg for arg in argv]

    parser = argparse.ArgumentParser(
        prog="python -m repro.snapshot",
        description="checkpoint, restore, diff and fork fleet shards",
    )
    sub = parser.add_subparsers(dest="command")

    save_p = sub.add_parser("save", help="run a scenario and checkpoint it")
    save_p.add_argument("--scenario", default="smoke")
    save_p.add_argument("--nodes", type=int, default=None)
    save_p.add_argument("--duration", type=float, default=None)
    save_p.add_argument("--seed", type=int, default=None)
    save_p.add_argument("--telemetry", action="store_true")
    save_p.add_argument("--workers", type=int, default=1)
    save_p.add_argument("--at", type=float, default=None,
                        help="checkpoint instant in simulated seconds "
                             "(default: midpoint)")
    save_p.add_argument("--every", type=float, default=None,
                        help="rolling checkpoint cadence (last wins)")
    save_p.add_argument("--dir", required=True,
                        help="checkpoint directory to write")
    save_p.add_argument("--label", default="")

    restore_p = sub.add_parser("restore",
                               help="resume a fleet checkpoint")
    restore_p.add_argument("dir")
    restore_p.add_argument("--workers", type=int, default=1)
    restore_p.add_argument("--run-to", type=float, default=None,
                           help="horizon override in simulated seconds")
    restore_p.add_argument("--json", default=None,
                           help="write merged metrics (and telemetry) here")

    diff_p = sub.add_parser("diff", help="structurally compare checkpoints")
    diff_p.add_argument("a")
    diff_p.add_argument("b")
    diff_p.add_argument("--limit", type=int, default=200,
                        help="max divergent paths to print per shard")

    fork_p = sub.add_parser("fork",
                            help="spawn warm-start variants with "
                                 "derived seeds")
    fork_p.add_argument("dir")
    fork_p.add_argument("--variants", type=int, default=2)
    fork_p.add_argument("--out", required=True,
                        help="directory receiving fork-NN/ variants")
    fork_p.add_argument("--salt", default="",
                        help="base salt for the derived seeds")

    sub.add_parser("smoke", help="CI gate: checkpoint/restore parity")

    args = parser.parse_args(argv)
    if args.command == "save":
        return _cmd_save(args)
    if args.command == "restore":
        return _cmd_restore(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "fork":
        return _cmd_fork(args)
    if args.command == "smoke":
        return _cmd_smoke(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
