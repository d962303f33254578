"""The determinism contract, pinned in ``tests/data/contract.json``.

Every entry is a digest that a change must leave byte-identical: the
``python -m repro.analysis`` output, the seed-1 merged metrics of both
perfbench fleets (fleet-duty with fast-forward on and off), the replay
digest of ``python -m repro.gateway --smoke`` and the resume digest of
``python -m repro.snapshot --smoke``.  A change that means to move one
rewrites the file, and says why in CHANGES.md, with

    PYTHONPATH=src python tests/integration/test_contract.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.fleet import SCENARIOS, run_scenario
from repro.fleet.runner import CheckpointPlan, resume_scenario
from repro.fleet.sampling import SamplingConfig
from repro.gateway.__main__ import cmd_smoke
from repro.snapshot.checkpoint import digest_document
from repro.telemetry.config import TelemetryConfig

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = ROOT / "tests" / "data" / "contract.json"

#: The perfbench workloads, built as ``perfbench/fleetwork.py`` builds
#: them; :func:`test_scenarios_match_the_benchmark` keeps them equal.
SCENARIO_BY_WORKLOAD = {
    "fleet-duty": SCENARIOS["duty"].scaled(
        name="bench-duty", things=100, shard_size=5, duration_s=20.0,
        sampling=SamplingConfig(sensor_interval_ms=2,
                                baseline_interval_ms=4),
        fast_forward=True),
    "gateway-mixed": SCENARIOS["gateway"].scaled(
        name="bench-gateway", things=300, shard_size=100, duration_s=30.0),
}


def _merged_digest(scenario) -> str:
    return digest_document(run_scenario(scenario, workers=1).merged)


def _analysis_sha256() -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "repro.analysis"],
                         env=env, capture_output=True, check=True).stdout
    return hashlib.sha256(out).hexdigest()


def _gateway_smoke_digest() -> str:
    """The replay digest prefix ``repro.gateway --smoke`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cmd_smoke(None) == 0
    match = re.search(r"digest (\w+) reproducible", out.getvalue())
    assert match, out.getvalue()
    return match.group(1)


def _snapshot_smoke_digest() -> str:
    """The resumed run of ``repro.snapshot --smoke``, one worker."""
    scenario = SCENARIOS["smoke"].scaled(
        things=6, shard_size=3, duration_s=6.0,
        telemetry=TelemetryConfig(cadence_s=1.0))
    with tempfile.TemporaryDirectory(prefix="repro-contract-") as root:
        run_scenario(scenario, workers=1,
                     checkpoint=CheckpointPlan(directory=root, at_s=3.0))
        return digest_document(resume_scenario(root, workers=1).merged)


def compute() -> dict:
    duty = SCENARIO_BY_WORKLOAD["fleet-duty"].scaled(seed=1)
    gateway = SCENARIO_BY_WORKLOAD["gateway-mixed"].scaled(seed=1)
    return {
        "analysis_stdout_sha256": _analysis_sha256(),
        "fleet-duty_seed1": _merged_digest(duty),
        "fleet-duty_seed1_fast_forward_off":
            _merged_digest(duty.scaled(fast_forward=False)),
        "gateway-mixed_seed1": _merged_digest(gateway),
        "gateway_smoke_replay": _gateway_smoke_digest(),
        "snapshot_smoke_resume": _snapshot_smoke_digest(),
    }


def test_scenarios_match_the_benchmark():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_fleetwork", ROOT / "perfbench" / "fleetwork.py")
    fleetwork = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fleetwork)
    assert SCENARIO_BY_WORKLOAD == fleetwork.SCENARIO_BY_WORKLOAD


def test_determinism_contract_holds():
    assert compute() == json.loads(CONTRACT.read_text())


if __name__ == "__main__":
    CONTRACT.write_text(json.dumps(compute(), indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {CONTRACT}")
