"""Bridged ops on a fast-forward fleet.

The bridge runs each op to its completing event in one stop-aware
``run_until`` and then moves the shard clock to the end of the chunk
that holds the completion.  Neither fast-forward nor that single run
may be visible in any deterministic artifact: the digest, every shard
clock and every op's admission instant and simulated latency must equal
those of the same ops with fast-forward off, and those of the chunked
loop the bridge used to drive shards with (re-created here as the
reference).
"""

import pytest

from repro.fleet.sampling import SamplingConfig
from repro.fleet.scenario import SCENARIOS
from repro.gateway.bridge import GatewayBridge, Op
from repro.sim.kernel import NS_PER_MS

SCENARIO = SCENARIOS["duty"].scaled(
    things=10, shard_size=5, seed=3, fast_forward=True,
    sampling=SamplingConfig(sensor_interval_ms=2, baseline_interval_ms=4))

OPS = [
    Op("advance", value=2_000 * NS_PER_MS),
    Op("read", thing=1, name="bmp180"),
    Op("read", thing=2, name="tmp36"),
    Op("write", thing=0, name="relay-write", value=1),
    Op("install", thing=6, name="hih4030"),
    Op("read", thing=8, name="tmp36"),
    Op("read", thing=4, name="hih4030"),
    Op("advance", value=300 * NS_PER_MS),
    Op("read", thing=9, name="bmp180"),
    Op("read", thing=6, name="tmp36"),
    Op("read", thing=7, name="hih4030"),
]


def _chunked_run_until_done(self, deployment, start_ns, done):
    """The bridge's former drive loop: 2 ms (or quantum) chunks."""
    sim = deployment.sim
    deadline = start_ns + self.op_timeout_ns
    chunk = max(self.quantum_ns, 2 * NS_PER_MS)
    while not done():
        if sim.now_ns >= deadline:
            return done()
        sim.run_until(min(deadline, sim.now_ns + chunk))
    return True


def _served(scenario, quantum_ns=None):
    kwargs = {} if quantum_ns is None else {"quantum_ns": quantum_ns}
    bridge = GatewayBridge(scenario, **kwargs)
    results = [bridge.execute(op) for op in OPS]
    observed = {
        "digest": bridge.digest(),
        "clocks": [d.sim.now_ns for d in bridge.deployments],
        "ops": [(r.status, r.admitted_ns, r.sim_latency_ns)
                for r in results],
    }
    windows = sum(d.sim.ff_windows for d in bridge.deployments)
    bridge.close()
    return observed, windows


@pytest.mark.parametrize("quantum_ns", [None, 3 * NS_PER_MS])
def test_bridged_ops_match_fast_forward_off_and_chunked_loop(
        monkeypatch, quantum_ns):
    served, windows = _served(SCENARIO, quantum_ns)
    assert all(status == 200 for status, _, _ in served["ops"])
    assert windows > 0

    stepped, stepped_windows = _served(
        SCENARIO.scaled(fast_forward=False), quantum_ns)
    assert stepped == served
    assert stepped_windows == 0

    monkeypatch.setattr(GatewayBridge, "_run_until_done",
                        _chunked_run_until_done)
    chunked, chunked_windows = _served(SCENARIO, quantum_ns)
    assert chunked == served
    # The point of the single run: windows span whole ops instead of
    # being cut at every chunk boundary.
    assert windows < chunked_windows
