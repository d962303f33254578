"""Unit tests for the closure-capable snapshot codec."""

import pickle
import random
import struct
import zlib

import pytest

from repro.snapshot.codec import (
    CODEC_VERSION,
    _dumps_state_v1,
    dumps_state,
    loads_state,
)


def _roundtrip(value):
    return loads_state(dumps_state(value))


def test_plain_values_round_trip():
    value = {"a": [1, 2.5, "x"], "b": (None, True), "c": {3, 4}}
    assert _roundtrip(value) == value


def test_lambda_round_trips_with_captured_default():
    fn = lambda x, base=7: x + base  # noqa: E731
    restored = _roundtrip(fn)
    assert restored(3) == 10


def test_closure_over_local_state_round_trips():
    def make_counter():
        count = [0]

        def tick():
            count[0] += 1
            return count[0]

        return tick

    tick = make_counter()
    tick()
    tick()
    restored = _roundtrip(tick)
    # The restored closure carries the captured cell's value (2) and
    # keeps counting from there, independently of the original.
    assert restored() == 3
    assert tick() == 3


def test_self_referential_closure_round_trips():
    def make_recursive():
        def countdown(n):
            return [n] if n <= 0 else [n] + countdown(n - 1)

        return countdown

    restored = _roundtrip(make_recursive())
    assert restored(3) == [3, 2, 1, 0]


def test_shared_objects_keep_identity():
    rng = random.Random(7)
    holder = {"direct": rng, "closure": lambda: rng.random()}
    restored = _roundtrip(holder)
    # The closure's captured rng is the *same object* as the direct
    # reference — drawing through one advances the other.
    direct = restored["direct"]
    before = direct.getstate()
    restored["closure"]()
    assert direct.getstate() != before


def test_importable_functions_pickle_by_reference():
    from repro.sim.kernel import ns_from_s

    assert _roundtrip(ns_from_s) is ns_from_s


def test_modules_round_trip():
    import math

    assert _roundtrip(math) is math


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        loads_state(b"NOTASNAP" + b"\x00" * 16)


def test_truncated_payload_rejected():
    blob = dumps_state({"x": 1})
    with pytest.raises(Exception):
        loads_state(blob[:len(blob) // 2])


def test_codec_version_is_stamped():
    assert CODEC_VERSION == 2
    # The magic prefix carries the version byte; a different version
    # byte must be rejected rather than misdecoded.
    blob = dumps_state({})
    tampered = blob[:5] + bytes([blob[5] + 1]) + blob[6:]
    with pytest.raises(ValueError):
        loads_state(tampered)


def test_v1_payload_still_loads():
    rng = random.Random(11)
    rng.gauss(0.0, 1.0)
    value = {"rng": rng, "again": rng, "n": [1, 2]}
    # Hand-built v1 envelope: magic, then zlib over the whole pickle,
    # the stream pickled in band by stdlib's Random.__reduce__.
    blob = b"RSNAP\x01" + zlib.compress(pickle.dumps(value, protocol=5), 6)
    restored = loads_state(blob)
    assert restored["n"] == [1, 2]
    assert restored["rng"] is restored["again"]
    assert restored["rng"].getstate() == rng.getstate()
    assert restored["rng"].gauss(0.0, 1.0) == rng.gauss(0.0, 1.0)


def test_v1_writer_keeps_closure_identity():
    rng = random.Random(12)
    value = {"rng": rng, "tick": lambda: rng.random()}
    blob = _dumps_state_v1(value)
    assert blob[:6] == b"RSNAP\x01"
    assert b"_make_random" not in zlib.decompress(blob[6:])
    restored = loads_state(blob)
    assert restored["tick"]() == rng.random()
    assert restored["rng"].getstate() == rng.getstate()


def _v2_sections(blob):
    """Offsets where the header, in-band and raw sections end."""
    inband_len, count = struct.unpack_from("<QI", blob, 6)
    header_end = 6 + 12 + 4 * count
    return header_end, header_end + inband_len, len(blob)


def test_v2_streams_travel_out_of_band():
    blob = dumps_state([random.Random(seed) for seed in range(3)])
    _, inband_end, end = _v2_sections(blob)
    assert blob[:6] == b"RSNAP\x02"
    assert struct.unpack_from("<3I", blob, 18) == (2500, 2500, 2500)
    assert end - inband_end == 3 * 2500


@pytest.mark.parametrize("where", ["magic", "header", "lengths",
                                   "inband", "raw"])
def test_v2_truncation_rejected(where):
    blob = dumps_state({"rngs": [random.Random(1), random.Random(2)],
                        "pad": list(range(100))})
    header_end, inband_end, end = _v2_sections(blob)
    cut = {
        "magic": 4,
        "header": 12,                           # inside <QI>
        "lengths": header_end - 2,              # inside the length list
        "inband": (header_end + inband_end) // 2,
        "raw": end - 1,
    }[where]
    with pytest.raises(ValueError):
        loads_state(blob[:cut])


def test_v2_trailing_bytes_rejected():
    with pytest.raises(ValueError):
        loads_state(dumps_state(random.Random(3)) + b"\x00")


def test_stream_after_gauss_draws_identically():
    rng = random.Random(5)
    rng.gauss(0.0, 1.0)
    assert rng.gauss_next is not None
    restored = _roundtrip(rng)
    assert type(restored) is random.Random
    assert restored.getstate() == rng.getstate()
    assert [restored.gauss(0.0, 1.0) for _ in range(5)] == \
        [rng.gauss(0.0, 1.0) for _ in range(5)]
    assert [restored.random() for _ in range(5)] == \
        [rng.random() for _ in range(5)]


class TaggedRandom(random.Random):
    """A stream subclass with extra state.

    ``random.Random.__reduce__`` pickles only ``getstate()``, so the
    subclass carries its attribute itself, the way stdlib pickling asks.
    """

    def __reduce__(self):
        return (self.__class__, (), (self.getstate(), self.tag))

    def __setstate__(self, state):
        self.setstate(state[0])
        self.tag = state[1]


def test_random_subclass_falls_back_to_stdlib_pickling():
    rng = TaggedRandom(9)
    rng.tag = "sensor-7"
    rng.random()
    blob = dumps_state(rng)
    # The exact-type stream reducer does not apply: nothing out of band.
    assert struct.unpack_from("<QI", blob, 6)[1] == 0
    restored = loads_state(blob)
    assert type(restored) is TaggedRandom
    assert restored.tag == "sensor-7"
    assert restored.random() == rng.random()

