"""Unit tests for the fastpath translation layer itself: the
translate-once cache, mode selection, and env-var plumbing.  Semantic
equivalence with the reference interpreter is covered exhaustively by
``test_vm_differential.py``."""

from __future__ import annotations

import pytest

from repro.analysis.vmperf import _encode, _i, _image_for
from repro.dsl.bytecode import DriverImage, Op
from repro.vm import fastpath
from repro.vm.machine import DriverInstance, VirtualMachine

_CODE = _encode(_i(Op.PUSH8, 2), _i(Op.PUSH8, 3), _i(Op.ADD),
                _i(Op.STG, 0), _i(Op.RET))


@pytest.fixture(autouse=True)
def fresh_cache():
    fastpath.clear_cache()
    yield
    fastpath.clear_cache()


def _run(vm, image, args=()):
    return vm.execute(DriverInstance(image), image.handlers[0], args)


def test_translation_happens_once_per_image():
    image = _image_for(_CODE, n_params=0)
    vm = VirtualMachine(mode="fast")
    _run(vm, image)
    assert fastpath.cache_size() == 1
    for _ in range(5):
        _run(vm, image)
    assert fastpath.cache_size() == 1


def test_translation_shared_across_vms_and_instances():
    image = _image_for(_CODE, n_params=0)
    for _ in range(3):
        _run(VirtualMachine(mode="fast"), image)
    assert fastpath.cache_size() == 1


def test_translation_shared_across_reinstalls_of_equal_code():
    # A hot-update that re-ships byte-identical code must not create a
    # second translation, even through a fresh unpack of the blob.
    image = _image_for(_CODE, n_params=0)
    blob = image.pack()
    reinstalled = DriverImage.unpack(blob)
    reinstalled_again = DriverImage.unpack(bytes(blob))
    vm = VirtualMachine(mode="fast")
    _run(vm, image)
    _run(vm, reinstalled)
    _run(vm, reinstalled_again)
    assert fastpath.cache_size() == 1


def test_distinct_code_gets_distinct_translations():
    a = _image_for(_CODE, n_params=0)
    b = _image_for(_encode(_i(Op.PUSH1), _i(Op.STG, 0), _i(Op.RET)),
                   n_params=0)
    vm = VirtualMachine(mode="fast")
    _run(vm, a)
    _run(vm, b)
    assert fastpath.cache_size() == 2


def test_reference_mode_never_translates():
    image = _image_for(_CODE, n_params=0)
    vm = VirtualMachine(mode="reference")
    assert vm.mode == "reference"
    _run(vm, image)
    assert fastpath.cache_size() == 0


def test_default_mode_is_fast():
    assert VirtualMachine().mode == "fast"


def test_env_var_overrides_default_mode(monkeypatch):
    monkeypatch.setenv("REPRO_VM_MODE", "reference")
    assert VirtualMachine().mode == "reference"
    # An explicit mode argument still wins over the environment.
    assert VirtualMachine(mode="fast").mode == "fast"


def test_trace_env_var_no_longer_promotes_fast(monkeypatch):
    # The removed trace engine can be neither chosen nor promoted to.
    with pytest.raises(ValueError, match="unknown VM mode"):
        VirtualMachine(mode="trace")
    monkeypatch.delenv("REPRO_VM_MODE", raising=False)
    monkeypatch.setenv("REPRO_VM_TRACE", "1")
    assert VirtualMachine().mode == "fast"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown VM mode"):
        VirtualMachine(mode="turbo")


def test_translation_covers_every_byte_offset():
    # Jump targets may land mid-instruction in corrupt images, so the
    # table must have an entry for every byte offset, not just the
    # offsets a linear decode visits.
    image = _image_for(_CODE, n_params=0)
    translation = fastpath.translate(image, VirtualMachine().profile)
    assert translation.n == len(_CODE)
    assert len(translation.table) == len(_CODE)
