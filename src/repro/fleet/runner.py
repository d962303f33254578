"""The shard runner: fleet scenarios across worker processes.

A fleet run partitions its scenario into independent gateway shards
(:meth:`FleetScenario.shards`), executes each shard's deployment on its
own :class:`~repro.sim.kernel.Simulator`, and merges the per-shard
metric snapshots.  Shards cross process boundaries as pickle-safe
:class:`ShardSpec` values and come back as plain snapshot dicts, so the
parallel path works under any multiprocessing start method.

The merge happens in shard-index order whether shards ran serially or
on a :class:`~concurrent.futures.ProcessPoolExecutor`, which makes the
merged metrics a pure function of ``(scenario, seed)`` — identical for
any ``workers`` setting.  The pool never gets more workers than there
are CPUs or shards: a run uses ``min(requested, os.cpu_count(), shards)``
and records both counts.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import List, Optional

from repro.fleet.deployment import ShardDeployment
from repro.fleet.metrics import Metrics
from repro.fleet.scenario import FleetScenario, ShardSpec
from repro.sim.kernel import ns_from_s


@dataclass(frozen=True)
class CheckpointPlan:
    """Where and when a fleet run writes checkpoints.

    ``at_s`` is the checkpoint instant in simulated seconds; ``None``
    with a positive ``every_s`` checkpoints periodically instead.  The
    plan is a frozen dataclass of primitives so it crosses process
    boundaries inside :func:`run_shard` arguments.
    """

    directory: str
    at_s: Optional[float] = None
    every_s: Optional[float] = None
    label: str = ""
    #: Rolling retention: keep only the last N checkpoint instants,
    #: each in its own ``at-<ns>`` subdirectory; older instants are
    #: garbage-collected as the run advances.  ``None`` keeps the flat
    #: single-instant layout ("the last one wins" overwriting).
    keep: Optional[int] = None

    def instants_s(self, duration_s: float) -> List[float]:
        """The checkpoint instants this plan produces for one run."""
        if self.at_s is not None:
            return [min(float(self.at_s), duration_s)]
        if self.every_s and self.every_s > 0:
            out, t = [], self.every_s
            while t < duration_s:
                out.append(t)
                t += self.every_s
            return out
        # Default: one checkpoint at the midpoint.
        return [duration_s / 2.0]


def _finish_shard(deployment: ShardDeployment) -> dict:
    """Finalize and package one shard's results for the merge."""
    snapshot = deployment.finalize().snapshot()
    tracer = deployment.sim.tracer
    if tracer is not None:
        # Rides the metrics snapshot across the process boundary;
        # Metrics.merge ignores the extra key.
        snapshot["trace"] = tracer.snapshot()
    if deployment.telemetry is not None:
        snapshot["telemetry"] = deployment.telemetry.snapshot()
    if deployment.profiler is not None:
        snapshot["profile"] = deployment.profiler.snapshot()
    sim = deployment.sim
    if sim.ff_windows:
        # Wall-clock-plane stats (how the run executed, not what it
        # computed) — Metrics.merge ignores the extra key, so they can
        # never perturb the merged digest.
        snapshot["fastforward"] = {
            "windows": sim.ff_windows,
            "events": sim.ff_events,
        }
    return snapshot


def run_shard(spec: ShardSpec, plan: Optional[CheckpointPlan] = None) -> dict:
    """Execute one shard; module-level so worker processes can pickle it.

    With a :class:`CheckpointPlan`, the shard pauses at each planned
    instant and writes a checkpoint directory before continuing — the
    saved state is exactly the state the run itself continues from, so
    resuming reproduces the uninterrupted run byte-for-byte.
    """
    deployment = ShardDeployment(spec)
    duration_s = spec.scenario.duration_s
    if plan is None:
        deployment.start()
        deployment.sim.run_until(ns_from_s(duration_s))
        return _finish_shard(deployment)
    import shutil
    from pathlib import Path

    from repro.snapshot.checkpoint import (
        instant_dir_name,
        save_shard,
        shard_dir_name,
    )

    deployment.start()
    instants = plan.instants_s(duration_s)
    for number, at_s in enumerate(instants):
        deployment.sim.run_until(ns_from_s(at_s))
        if plan.keep is None:
            target = Path(plan.directory) / shard_dir_name(spec.index)
        else:
            target = (Path(plan.directory)
                      / instant_dir_name(ns_from_s(at_s))
                      / shard_dir_name(spec.index))
        save_shard(deployment, target, label=plan.label or f"t={at_s:g}s")
        if plan.keep is not None and number >= plan.keep:
            # Rolling GC: this shard's copy under the instant that just
            # fell off the window (fleet-level meta GC happens once in
            # run_scenario, after all shards finish).
            expired = (Path(plan.directory)
                       / instant_dir_name(ns_from_s(instants[number - plan.keep]))
                       / shard_dir_name(spec.index))
            shutil.rmtree(expired, ignore_errors=True)
    deployment.sim.run_until(ns_from_s(duration_s))
    return _finish_shard(deployment)


def live_shards(scenario: FleetScenario) -> List[ShardDeployment]:
    """Build and launch every shard of *scenario* without running time.

    This is the hosting hook for the live service layer
    (:mod:`repro.gateway`): each deployment has its churn/traffic
    processes scheduled but its clock still at zero, so a caller can
    interleave its own work (serving requests, injecting reads) with
    explicit ``sim.run_until`` advances.  The deployments are the same
    objects :func:`run_shard` drives, built in shard-index order from
    the same specs — a hosted fleet's behaviour for a given sequence of
    advances is a pure function of ``(scenario, advances)``.
    """
    deployments = []
    for spec in scenario.shards():
        deployment = ShardDeployment(spec)
        deployment.start()
        deployments.append(deployment)
    return deployments


def resume_shard(directory, run_to_s: float) -> dict:
    """Restore one shard checkpoint and run it to *run_to_s*."""
    from repro.snapshot.checkpoint import load_shard

    deployment = load_shard(directory).deployment
    deployment.sim.run_until(ns_from_s(run_to_s))
    return _finish_shard(deployment)


@dataclass
class FleetResult:
    """Merged outcome of a fleet run, plus execution metadata.

    ``merged`` is deterministic for a given scenario; the wall-clock
    fields describe this particular execution and are kept out of the
    metrics so determinism checks compare apples to apples.
    ``workers`` is the count the run used, ``workers_requested`` the
    count the caller asked for (see :func:`effective_workers`).
    """

    scenario: FleetScenario
    merged: dict
    shard_snapshots: List[dict] = field(repr=False, default_factory=list)
    workers: int = 1
    wall_s: float = 0.0
    used_processes: bool = False
    workers_requested: int = 1

    @property
    def sim_events(self) -> int:
        return self.merged.get("counters", {}).get("sim.events", 0)

    @property
    def events_per_s(self) -> float:
        return self.sim_events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def ff_windows_skipped(self) -> int:
        """Fast-forward windows applied analytically, across shards."""
        return sum(snap.get("fastforward", {}).get("windows", 0)
                   for snap in self.shard_snapshots)

    @property
    def ff_events_skipped(self) -> int:
        """Events applied inside fast-forward windows (counted in
        ``sim_events`` but never individually dispatched)."""
        return sum(snap.get("fastforward", {}).get("events", 0)
                   for snap in self.shard_snapshots)

    def counter(self, name: str) -> int:
        return self.merged.get("counters", {}).get(name, 0)

    def percentiles(self, name: str, qs=(50, 95, 99)) -> Optional[List[float]]:
        return Metrics.percentiles(self.merged, name, qs)

    @property
    def shard_traces(self) -> List[Optional[dict]]:
        """Per-shard tracer snapshots, in shard-index order (None where
        the shard did not trace)."""
        return [snap.get("trace") for snap in self.shard_snapshots]

    def trace_document(self) -> dict:
        """The merged Chrome trace JSON document (Perfetto-loadable).

        Shards that also sampled telemetry contribute their series as
        Chrome counter ("C") events, so Perfetto draws the fleet's
        gauges as tracks right above the event timeline.
        """
        from repro.obs.export import merge_traces

        telemetry = self.telemetry_snapshots
        return merge_traces(
            self.shard_traces,
            telemetry=telemetry if any(t for t in telemetry) else None,
        )

    @property
    def telemetry_snapshots(self) -> List[Optional[dict]]:
        """Per-shard telemetry snapshots, in shard-index order (None
        where the shard did not collect)."""
        return [snap.get("telemetry") for snap in self.shard_snapshots]

    def telemetry_document(self) -> dict:
        """The merged time-series document (shard-order merge — a pure
        function of ``(scenario, seed)`` for any worker count)."""
        from repro.telemetry.series import SeriesBank

        return SeriesBank.merge(self.telemetry_snapshots)

    @property
    def profile_snapshots(self) -> List[Optional[dict]]:
        """Per-shard profile snapshots, in shard-index order (None
        where the shard did not profile)."""
        return [snap.get("profile") for snap in self.shard_snapshots]

    def profile_document(self) -> dict:
        """The merged profile (shard-order merge; the deterministic
        plane is a pure function of ``(scenario, seed)`` for any
        worker count)."""
        from repro.profile.collector import merge_profiles

        return merge_profiles(self.profile_snapshots)


def effective_workers(requested: int, shards: int) -> int:
    """Workers a run uses: ``min(requested, os.cpu_count(), shards)``.

    More processes than CPUs only adds pool start-up and contention,
    and more than shards leaves workers idle.
    """
    return max(1, min(int(requested), os.cpu_count() or 1, shards))


def _fan_out(tasks, workers: int):
    """Run ``(fn, arg)`` pairs serially or on a pool of *workers*
    processes, preserving order; returns (results, used_processes)."""
    if workers == 1:
        return [fn(arg) for fn, arg in tasks], False
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map preserves input order regardless of
            # completion order — merge order stays deterministic.
            futures = [pool.submit(fn, arg) for fn, arg in tasks]
            return [future.result() for future in futures], True
    except (BrokenProcessPool, OSError, PermissionError):
        # Environments without working process spawning (sandboxes,
        # restricted containers) still get correct, serial results.
        return [fn(arg) for fn, arg in tasks], False


def run_scenario(
    scenario: FleetScenario,
    *,
    workers: int = 1,
    checkpoint: Optional[CheckpointPlan] = None,
) -> FleetResult:
    """Run every shard of *scenario* and merge their metrics.

    ``workers > 1`` fans shards out over a process pool of
    :func:`effective_workers` processes (falling back to the serial
    path if the pool cannot be created or dies); shard
    results are always merged in shard-index order.  A
    :class:`CheckpointPlan` makes every shard write checkpoints at the
    planned instants; the fleet-level metadata lands next to them so
    :func:`resume_scenario` can rebuild the whole fleet.
    """
    import functools

    specs = scenario.shards()
    requested = max(1, int(workers))
    workers = effective_workers(requested, len(specs))
    started = time.perf_counter()
    worker = run_shard if checkpoint is None else functools.partial(
        run_shard, plan=checkpoint)
    snapshots, used_processes = _fan_out(
        [(worker, spec) for spec in specs], workers)
    if checkpoint is not None:
        from repro.snapshot.checkpoint import save_fleet_meta

        instants = checkpoint.instants_s(scenario.duration_s)
        if checkpoint.keep is None:
            save_fleet_meta(
                checkpoint.directory, scenario,
                sim_time_ns=ns_from_s(instants[-1]) if instants else 0,
                shards=len(specs), label=checkpoint.label,
            )
        else:
            import shutil
            from pathlib import Path

            from repro.snapshot.checkpoint import instant_dir_name

            retained = instants[-checkpoint.keep:]
            for at_s in retained:
                save_fleet_meta(
                    Path(checkpoint.directory)
                    / instant_dir_name(ns_from_s(at_s)),
                    scenario, sim_time_ns=ns_from_s(at_s),
                    shards=len(specs), label=checkpoint.label,
                )
            # GC instants outside the retention window (shards already
            # removed their own copies incrementally; this sweeps the
            # directories themselves plus any stale leftovers).
            keep_names = {instant_dir_name(ns_from_s(at_s))
                          for at_s in retained}
            root = Path(checkpoint.directory)
            for child in root.iterdir():
                if (child.is_dir() and child.name.startswith("at-")
                        and child.name not in keep_names):
                    shutil.rmtree(child, ignore_errors=True)
    wall = time.perf_counter() - started
    return FleetResult(
        scenario=scenario,
        merged=Metrics.merge(snapshots),
        shard_snapshots=snapshots,
        workers=workers,
        wall_s=wall,
        used_processes=used_processes,
        workers_requested=requested,
    )


def resume_scenario(
    checkpoint_dir,
    *,
    workers: int = 1,
    run_to_s: Optional[float] = None,
) -> FleetResult:
    """Restore a fleet checkpoint and run every shard to completion.

    ``run_to_s`` overrides the scenario's original horizon (must not be
    before the checkpoint instant).  Results merge in shard-index order
    exactly like :func:`run_scenario`, so a resumed run's merged
    metrics are byte-identical to the uninterrupted run's.
    """
    import functools

    from repro.snapshot.checkpoint import (
        CheckpointError,
        fleet_checkpoint_dirs,
        load_fleet_meta,
        resolve_fleet_dir,
        scenario_from_dict,
    )

    # Rolling-retention runs nest one fleet checkpoint per retained
    # instant; resolve to the latest so --resume works on both layouts.
    checkpoint_dir = resolve_fleet_dir(checkpoint_dir)
    meta = load_fleet_meta(checkpoint_dir)
    scenario = scenario_from_dict(meta["scenario"])
    horizon_s = scenario.duration_s if run_to_s is None else float(run_to_s)
    if ns_from_s(horizon_s) < int(meta["sim_time_ns"]):
        raise CheckpointError(
            f"cannot run to {horizon_s:g}s: checkpoint was taken at "
            f"{meta['sim_time_ns'] / 1e9:g}s"
        )
    shard_dirs = fleet_checkpoint_dirs(checkpoint_dir)
    requested = max(1, int(workers))
    workers = effective_workers(requested, len(shard_dirs))
    started = time.perf_counter()
    worker = functools.partial(resume_shard, run_to_s=horizon_s)
    snapshots, used_processes = _fan_out(
        [(worker, str(path)) for path in shard_dirs], workers)
    wall = time.perf_counter() - started
    return FleetResult(
        scenario=scenario,
        merged=Metrics.merge(snapshots),
        shard_snapshots=snapshots,
        workers=workers,
        wall_s=wall,
        used_processes=used_processes,
        workers_requested=requested,
    )


__all__ = [
    "CheckpointPlan",
    "FleetResult",
    "effective_workers",
    "live_shards",
    "resume_scenario",
    "resume_shard",
    "run_scenario",
    "run_shard",
]
