"""Fast-forward differential suite.

The speed tier must be invisible in every deterministic artifact: a
fleet run with closed-form idle fast-forward enabled must produce
byte-identical merged metrics to the same run without it, for any seed
and any worker count; and a run checkpointed at an instant that falls
inside what would otherwise be a skipped window must resume by
*re-deriving* its windows, landing on the same digest as the
uninterrupted run.
"""

import pytest

from repro.fleet.report import result_to_json
from repro.fleet.runner import CheckpointPlan, resume_scenario, run_scenario
from repro.fleet.scenario import SCENARIOS
from repro.snapshot.checkpoint import digest_document


def _duty(seed, **overrides):
    return SCENARIOS["duty"].scaled(
        things=4, shard_size=2, duration_s=4.0, seed=seed, **overrides,
    )


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("workers", [1, 2])
def test_fast_forward_is_digest_neutral(seed, workers):
    off = run_scenario(_duty(seed), workers=workers)
    on = run_scenario(_duty(seed, fast_forward=True), workers=workers)
    assert digest_document(on.merged) == digest_document(off.merged)
    assert on.sim_events == off.sim_events
    assert on.ff_windows_skipped > 0
    assert on.ff_events_skipped > 0
    assert off.ff_windows_skipped == 0


def test_json_execution_block_reports_fast_forward_totals():
    # The --json document carries the skip totals, so an on/off metrics
    # comparison can show fast-forward actually engaged.
    on = run_scenario(_duty(3, fast_forward=True), workers=1)
    off = run_scenario(_duty(3), workers=1)
    on_exec = result_to_json(on)["execution"]
    off_exec = result_to_json(off)["execution"]
    assert on_exec["ff_windows"] == on.ff_windows_skipped > 0
    assert on_exec["ff_events"] == on.ff_events_skipped > 0
    assert off_exec["ff_windows"] == off_exec["ff_events"] == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_checkpoint_inside_window_resumes_by_rederiving(tmp_path, workers):
    # 2.013 s sits between sampler cadences (50/100 ms grids), i.e.
    # strictly inside what an uninterrupted run covers with one skipped
    # window.  The checkpoint event is a barrier, so the interrupted
    # run splits that window; the resumed half must re-derive its own
    # windows — not replay recorded ones — and still converge.
    scenario = _duty(9, fast_forward=True)
    baseline = run_scenario(scenario, workers=workers)
    ckpt = tmp_path / f"ckpt-{workers}"
    run_scenario(scenario, workers=workers,
                 checkpoint=CheckpointPlan(directory=str(ckpt), at_s=2.013))
    resumed = resume_scenario(ckpt, workers=workers)
    assert digest_document(resumed.merged) == digest_document(baseline.merged)
    assert resumed.ff_windows_skipped > 0
    # And the whole stack is still digest-neutral vs never
    # fast-forwarding at all.
    off = run_scenario(_duty(9), workers=workers)
    assert digest_document(resumed.merged) == digest_document(off.merged)
