"""Unit tests for energy metering, the USB baseline and the MCU model."""

import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hw import power
from repro.hw.power import EnergyMeter, PowerDraw, repeat_add
from repro.hw.usb_baseline import SECONDS_PER_YEAR, UsbHostModel
from repro.mcu.footprint import DEFAULT_FOOTPRINT, FootprintModel
from repro.mcu.spec import ATMEGA128RFA1


def test_power_draw_energy():
    draw = PowerDraw(current_a=7e-3, voltage_v=3.3)
    assert draw.watts == pytest.approx(23.1e-3)
    assert draw.energy_joules(2.0) == pytest.approx(46.2e-3)


def test_power_draw_rejects_negative_duration():
    with pytest.raises(ValueError):
        PowerDraw(1e-3).energy_joules(-1.0)


def test_meter_accumulates_by_category():
    meter = EnergyMeter()
    meter.add("a", 1.0)
    meter.add("a", 2.0)
    meter.add("b", 0.5)
    assert meter.get("a") == 3.0
    assert meter.total() == 3.5
    assert meter.by_category() == {"a": 3.0, "b": 0.5}
    meter.reset()
    assert meter.total() == 0.0


def test_meter_rejects_negative():
    with pytest.raises(ValueError):
        EnergyMeter().add("x", -1.0)


def test_meter_add_n_of_zero_is_zero_adds():
    # Zero sequential add() calls create no category, so neither may
    # add_n(..., 0).
    meter = EnergyMeter()
    meter.add_n("sensor", 1.8e-6, 0)
    assert meter.by_category() == {}
    meter.add_n("sensor", 1.8e-6, 3)
    meter.add_n("sensor", 1.8e-6, 0)
    stepped = EnergyMeter()
    for _ in range(3):
        stepped.add("sensor", 1.8e-6)
    assert meter.by_category() == stepped.by_category()


def test_meter_add_n_rejects_a_negative_count():
    meter = EnergyMeter()
    with pytest.raises(ValueError, match="count"):
        meter.add_n("idle", 0.33e-6, -1)
    assert meter.by_category() == {}


def _adds(total: float, step: float, n: int) -> float:
    for _ in range(n):
        total += step
    return total


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


magnitudes = st.integers(min_value=-40, max_value=6)
totals = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0 ** -1022, 1.0, 0.5 - 2 ** -54]),
    st.builds(lambda f, e: f * 10.0 ** e,
              st.floats(min_value=0, max_value=10), magnitudes))
steps = st.one_of(
    st.just(0.0),
    st.builds(lambda f, e: f * 10.0 ** e,
              st.floats(min_value=0, max_value=10), magnitudes))


@settings(max_examples=300, deadline=None)
@given(total=totals, step=steps, n=st.integers(min_value=0, max_value=4000))
@example(total=0.0, step=1.8e-6, n=4000)  # from zero across many binades
@example(total=1.0 - 2 ** -53, step=2 ** -53, n=3)  # a tie at the top
@example(total=2.0 ** 1023, step=2.0 ** 1000, n=5)
def test_repeat_add_equals_sequential_adds(total, step, n):
    assert _bits(repeat_add(total, step, n)) == _bits(_adds(total, step, n))


@settings(max_examples=200, deadline=None)
@given(total=st.floats(min_value=1e-12, max_value=1e3),
       odd=st.integers(min_value=0, max_value=40),
       shift=st.integers(min_value=-3, max_value=4),
       n=st.integers(min_value=0, max_value=3000))
def test_repeat_add_handles_half_ulp_ties(total, odd, shift, n):
    # step / ulp(total) ends in exactly one half, in this binade or a
    # nearby one, so round-half-even depends on the accumulator.
    step = (2 * odd + 1) * math.ulp(total) * 2.0 ** shift / 2
    assert _bits(repeat_add(total, step, n)) == _bits(_adds(total, step, n))


@pytest.mark.parametrize("n", [power._ADD_LOOP_MAX - 1,
                               power._ADD_LOOP_MAX, 5_000])
def test_meter_add_n_equals_n_adds_across_the_loop_cutoff(n):
    meter = EnergyMeter()
    stepped = EnergyMeter()
    for joules in (1.8e-6, 0.33e-6):
        meter.add("idle", 0.1)
        stepped.add("idle", 0.1)
        meter.add_n("idle", joules, n)
        for _ in range(n):
            stepped.add("idle", joules)
    assert _bits(meter.get("idle")) == _bits(stepped.get("idle"))


# ------------------------------------------------------------------ USB host
def test_usb_idle_dominates_annual_energy():
    usb = UsbHostModel()
    yearly = usb.annual_energy_joules(60.0)
    idle_only = usb.idle_draw.energy_joules(SECONDS_PER_YEAR)
    assert yearly > idle_only
    assert yearly < idle_only * 1.1  # enumerations are a small correction
    # The paper's Figure 12 puts USB at ~1e6 J/year.
    assert 5e5 < yearly < 2e6


def test_usb_energy_validates_inputs():
    usb = UsbHostModel()
    with pytest.raises(ValueError):
        usb.annual_energy_joules(0)
    with pytest.raises(ValueError):
        usb.energy_joules(-1.0)


# ----------------------------------------------------------------------- MCU
def test_cycles_and_seconds_convert():
    assert ATMEGA128RFA1.cycles_to_seconds(16_000_000) == pytest.approx(1.0)
    assert ATMEGA128RFA1.seconds_to_cycles(1e-6) == 16


def test_mcu_resource_fractions():
    assert ATMEGA128RFA1.flash_bytes == 131072
    assert ATMEGA128RFA1.ram_bytes == 16384
    assert ATMEGA128RFA1.flash_fraction(14231) == pytest.approx(0.1086, abs=1e-3)


# --------------------------------------------------------------- Table 2 model
def test_footprint_matches_paper_within_tolerance():
    """Every Table 2 row within 5%; totals within 1%."""
    paper = {
        "Peripheral Controller": (2243, 465),
        "µPnP Virtual Machine": (7028, 450),
        "ADC Native Library": (2034, 268),
        "UART Native Library": (466, 15),
        "I2C Native Library": (436, 18),
        "µPnP Network Stack": (2024, 302),
    }
    for row in DEFAULT_FOOTPRINT.breakdown():
        flash, ram = paper[row.name]
        assert row.flash_bytes == pytest.approx(flash, rel=0.05)
        assert row.ram_bytes == pytest.approx(ram, rel=0.05)
    totals = DEFAULT_FOOTPRINT.totals()
    assert totals.flash_bytes == pytest.approx(14231, rel=0.01)
    assert totals.ram_bytes == pytest.approx(1518, rel=0.01)


def test_footprint_responds_to_design_changes():
    """The model is structural: growing a buffer grows the footprint."""
    bigger_stack = FootprintModel(operand_stack_slots=64)
    assert (bigger_stack.virtual_machine().ram_bytes
            > DEFAULT_FOOTPRINT.virtual_machine().ram_bytes)
    more_messages = FootprintModel(message_types=20)
    assert (more_messages.network_stack().flash_bytes
            > DEFAULT_FOOTPRINT.network_stack().flash_bytes)


def test_footprint_total_fits_the_mcu():
    totals = DEFAULT_FOOTPRINT.totals()
    assert totals.flash_bytes < ATMEGA128RFA1.flash_bytes
    assert totals.ram_bytes < ATMEGA128RFA1.ram_bytes


def test_render_table_mentions_all_components():
    text = DEFAULT_FOOTPRINT.render_table()
    for name in ("Peripheral Controller", "Virtual Machine", "Total"):
        assert name in text


# ------------------------------------------------------- snapshots and merging
def test_energy_meter_snapshot_is_sorted_and_detached():
    meter = EnergyMeter()
    meter.add("net", 2.0)
    meter.add("mcu", 1.0)
    snap = meter.snapshot()
    assert list(snap) == ["mcu", "net"]
    snap["mcu"] = 99.0
    assert meter.by_category()["mcu"] == 1.0


def test_energy_meter_merge_sums_categories():
    a = EnergyMeter()
    a.add("mcu", 1.0)
    a.add("net", 0.5)
    b = EnergyMeter()
    b.add("mcu", 2.0)
    b.add("bus", 0.25)
    merged = EnergyMeter.merge([a.snapshot(), b.snapshot()])
    assert merged == {"bus": 0.25, "mcu": 3.0, "net": 0.5}
    assert list(merged) == ["bus", "mcu", "net"]


def test_energy_meter_merge_total_matches_sum_of_totals():
    meters = []
    for i in range(3):
        meter = EnergyMeter()
        meter.add("mcu", 0.1 * (i + 1))
        meter.add(f"cat{i}", 1.0)
        meters.append(meter)
    merged = EnergyMeter.merge(m.snapshot() for m in meters)
    assert sum(merged.values()) == pytest.approx(
        sum(m.total() for m in meters))


def test_energy_meter_merge_empty_iterable():
    assert EnergyMeter.merge([]) == {}
