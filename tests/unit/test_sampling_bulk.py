"""Exactness of the sensor sampler's packed jump-ahead.

``SensorSampler.apply(n)`` must leave the sampler and its energy meter
byte-identical to n calls of ``tick()``: the LCG state, the count, the
reading total and the meter's float bits.  The lengths drawn straddle
the 4,096-tick chunk, so single-chunk, exact-chunk and multi-chunk
applications are all compared with stepping, and the short lengths
straddle the cutoff below which ``apply`` steps the LCG in a loop.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fleet import sampling
from repro.fleet.sampling import BaselineAccrual, SensorSampler
from repro.hw.power import EnergyMeter

CHUNK = sampling._CHUNK
EDGE_LENGTHS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1)

global_ids = st.integers(min_value=0, max_value=2 ** 32)
lengths = st.one_of(st.sampled_from(EDGE_LENGTHS),
                    st.integers(min_value=1, max_value=2 * CHUNK))


def _state(sampler: SensorSampler) -> tuple:
    meter = sampler._meter.by_category()
    return (sampler._x, sampler.count, sampler.total,
            {k: struct.pack("<d", v) for k, v in meter.items()})


def _stepped(global_id: int, n: int) -> SensorSampler:
    sampler = SensorSampler(global_id, EnergyMeter(), 1.8)
    for _ in range(n):
        sampler.tick()
    return sampler


def _applied(global_id: int, *ns: int) -> SensorSampler:
    sampler = SensorSampler(global_id, EnergyMeter(), 1.8)
    for n in ns:
        sampler.apply(n)
    return sampler


@settings(max_examples=60, deadline=None)
@given(global_id=global_ids, n=lengths)
@example(global_id=0, n=1)
@example(global_id=2 ** 32, n=3 * CHUNK + 1)
def test_apply_equals_n_ticks(global_id, n):
    assert _state(_applied(global_id, n)) == _state(_stepped(global_id, n))


@settings(max_examples=60, deadline=None)
@given(global_id=global_ids, a=lengths, b=lengths)
def test_split_applications_compose(global_id, a, b):
    assert _state(_applied(global_id, a, b)) == \
        _state(_applied(global_id, a + b))


@settings(max_examples=40, deadline=None)
@given(x=st.integers(min_value=0, max_value=sampling.LCG_MASK),
       n=st.sampled_from(EDGE_LENGTHS))
@example(x=0, n=CHUNK)
@example(x=sampling.LCG_MASK, n=CHUNK)
def test_extreme_states_jump_exactly(x, n):
    # Seeds only reach some states; set the state directly so the
    # all-ones and zero states test the slot bound too.
    stepped = _stepped(0, 0)
    applied = _applied(0)
    stepped._x = applied._x = x
    for _ in range(n):
        stepped.tick()
    applied.apply(n)
    assert _state(applied) == _state(stepped)


STEP_MAX = sampling._STEP_MAX


@settings(max_examples=30, deadline=None)
@given(global_id=global_ids,
       n=st.sampled_from(sorted({1, 2, 3, STEP_MAX - 1, STEP_MAX,
                                 STEP_MAX + 1})))
@example(global_id=0, n=STEP_MAX - 1)
@example(global_id=0, n=STEP_MAX)
def test_short_applications_step_exactly(global_id, n):
    # Either side of the cutoff between the local LCG loop and the
    # jump, and every length the loop takes (1..3).
    assert STEP_MAX == 4
    assert _state(_applied(global_id, n)) == _state(_stepped(global_id, n))


@settings(max_examples=30, deadline=None)
@given(global_id=global_ids,
       ns=st.lists(st.integers(min_value=1, max_value=2 * STEP_MAX),
                   min_size=2, max_size=6))
def test_loop_and_jump_applications_interleave(global_id, ns):
    assert _state(_applied(global_id, *ns)) == \
        _state(_stepped(global_id, sum(ns)))


def test_only_short_jump_cuts_are_kept(monkeypatch):
    # Cuts up to _CUT_MAX ticks are made once and kept; longer ones are
    # made per call, so the cache stays bounded.  Jumps are exact
    # either way.
    monkeypatch.setattr(sampling, "_cuts", {})
    cut_max = sampling._CUT_MAX
    assert sampling._jump_slices(9) is sampling._jump_slices(9)
    for n in (STEP_MAX, cut_max, cut_max + 1, 700, CHUNK, 2 * CHUNK + 9):
        assert _state(_applied(5, n)) == _state(_stepped(5, n))
    assert sorted(sampling._cuts) == [STEP_MAX, 9, cut_max]


def test_jump_table_is_bounded_by_one_chunk(monkeypatch):
    # Grow from empty through sizes whose doubling overshoots a chunk.
    monkeypatch.setattr(sampling, "_jump", (0, 0, 0, 0))
    for n in (3, CHUNK - 1000, CHUNK - 500, 5 * CHUNK + 3):
        _applied(7, n)
        length, *packed = sampling._jump
        assert length <= CHUNK
        assert all(v.bit_length() <= sampling._SLOT * CHUNK
                   for v in packed)


@pytest.mark.parametrize("build", [
    lambda: SensorSampler(3, EnergyMeter(), 1.8),
    lambda: BaselineAccrual(EnergyMeter(), 0.33),
], ids=["sensor", "baseline"])
def test_apply_zero_is_a_no_op_and_negative_raises(build):
    worker = build()
    slots = type(worker).__slots__
    before = {k: getattr(worker, k) for k in slots}
    worker.apply(0)
    with pytest.raises(ValueError):
        worker.apply(-1)
    assert {k: getattr(worker, k) for k in slots} == before
    assert worker._meter.by_category() == {}
