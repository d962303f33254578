"""Engineering bench: checkpoint cost, size and resume speedup.

Three questions about the snapshot subsystem, answered on the same
machine in the same run:

1. What does one shard checkpoint cost (``save_s``) and how fast does
   it come back (``restore_s``)?
2. How big is a checkpoint on disk — total and per simulated node —
   in the codec's envelope (zlib'd structure plus the RNG stream
   words stored raw, since they do not compress)?
3. How much wall clock does resuming from a late checkpoint save over
   rerunning from scratch (``resume_speedup``), and is the resumed
   run byte-identical (``parity``)?

    PYTHONPATH=src python benchmarks/bench_snapshot.py [--smoke] [--out PATH]

Writes ``BENCH_snapshot.json``; exits non-zero when digest parity
fails, so CI can run it directly.  The regression sentinel watches
``*bytes_per_node`` (lower), ``*resume_speedup`` (higher) and
``*parity`` (equal).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet.deployment import ShardDeployment  # noqa: E402
from repro.fleet.runner import (  # noqa: E402
    CheckpointPlan,
    resume_scenario,
    run_scenario,
)
from repro.fleet.scenario import SCENARIOS  # noqa: E402
from repro.sim.kernel import ns_from_s  # noqa: E402
from repro.snapshot.checkpoint import (  # noqa: E402
    digest_document,
    load_shard,
    save_shard,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_snapshot.json"


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def bench_shard_save_restore(scenario, at_s: float, repeats: int) -> dict:
    """Time save_shard/load_shard on one warm shard, best of *repeats*."""
    spec = scenario.shards()[0]
    deployment = ShardDeployment(spec)
    deployment.start()
    deployment.sim.run_until(ns_from_s(at_s))
    root = Path(tempfile.mkdtemp(prefix="bench-snapshot-"))
    try:
        save_s = restore_s = None
        for index in range(repeats):
            target = root / f"try-{index}"
            started = time.perf_counter()
            save_shard(deployment, target, label="bench")
            elapsed = time.perf_counter() - started
            save_s = elapsed if save_s is None else min(save_s, elapsed)
            started = time.perf_counter()
            load_shard(target)
            elapsed = time.perf_counter() - started
            restore_s = elapsed if restore_s is None \
                else min(restore_s, elapsed)
        size = _dir_bytes(root / "try-0")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "shard_things": scenario.shard_size,
        "at_s": at_s,
        "save_s": round(save_s, 4),
        "restore_s": round(restore_s, 4),
        "shard_bytes": size,
    }


def bench_resume_speedup(scenario, at_s: float, repeats: int) -> dict:
    """Full rerun vs resume-from-late-checkpoint, plus digest parity."""
    rerun_s = None
    for _ in range(repeats):
        started = time.perf_counter()
        baseline = run_scenario(scenario, workers=1)
        elapsed = time.perf_counter() - started
        rerun_s = elapsed if rerun_s is None else min(rerun_s, elapsed)
    root = Path(tempfile.mkdtemp(prefix="bench-snapshot-fleet-"))
    try:
        checkpointed = run_scenario(
            scenario, workers=1,
            checkpoint=CheckpointPlan(directory=str(root), at_s=at_s),
        )
        size = _dir_bytes(root)
        resume_s = None
        for _ in range(repeats):
            started = time.perf_counter()
            resumed = resume_scenario(root, workers=1)
            elapsed = time.perf_counter() - started
            resume_s = elapsed if resume_s is None else min(resume_s, elapsed)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    digests = {
        "uninterrupted": digest_document(baseline.merged),
        "checkpointing": digest_document(checkpointed.merged),
        "resumed": digest_document(resumed.merged),
    }
    return {
        "things": scenario.things,
        "shards": scenario.shard_count,
        "duration_s": scenario.duration_s,
        "checkpoint_at_s": at_s,
        "rerun_s": round(rerun_s, 4),
        "resume_s": round(resume_s, 4),
        "resume_speedup": round(rerun_s / resume_s, 4) if resume_s else None,
        "checkpoint_bytes": size,
        "bytes_per_node": round(size / scenario.things, 1),
        "parity": "ok" if len(set(digests.values())) == 1 else "DIVERGED",
        "digests": digests,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small scenario, fewer repeats (CI)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="where to write BENCH_snapshot.json")
    args = parser.parse_args(argv)

    # Durations are long relative to restore cost so ``resume_speedup``
    # measures the skipped simulation work, not timer noise.
    things = 12 if args.smoke else 40
    duration_s = 30.0 if args.smoke else 90.0
    repeats = 2 if args.smoke else 3
    scenario = SCENARIOS["metro"].scaled(
        name="snapshot-bench", things=things, duration_s=duration_s,
        seed=args.seed,
    )
    # A late checkpoint makes the resume arm do 25% of the simulated
    # work — the speedup metric measures restore overhead against the
    # 75% of the run the checkpoint skips.
    at_s = duration_s * 0.75

    shard = bench_shard_save_restore(scenario, at_s, repeats)
    print(f"shard save   : {shard['save_s'] * 1000:8.1f} ms")
    print(f"shard restore: {shard['restore_s'] * 1000:8.1f} ms")
    print(f"shard size   : {shard['shard_bytes']:,} bytes")

    fleet = bench_resume_speedup(scenario, at_s, repeats)
    print(f"full rerun   : {fleet['rerun_s']:.3f} s")
    print(f"resume       : {fleet['resume_s']:.3f} s "
          f"(speedup {fleet['resume_speedup']}x)")
    print(f"fleet size   : {fleet['checkpoint_bytes']:,} bytes "
          f"({fleet['bytes_per_node']:,.0f} per node)")
    print(f"parity       : {fleet['parity']}")

    document = {
        "bench": "snapshot",
        "smoke": args.smoke,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "shard": shard,
        "fleet": fleet,
    }
    Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")

    if fleet["parity"] != "ok":
        print(f"FATAL: resume digest parity failed: {fleet['digests']}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
