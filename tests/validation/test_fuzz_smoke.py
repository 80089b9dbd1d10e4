"""The seeded ``gen_*`` generators against the real implementations.

Each generator gets ``st.randoms(use_true_random=False)`` and a drawn
length, so Hypothesis records, shrinks and replays every draw; a failure
prints the falsifying example and the noted case. Each tier-1 property
has a ``fuzz``-marked twin (:mod:`tests.hypothesis_settings`).
"""

import random

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.compression.zstd_like import ZstdLikeCodec
from repro.core.registers import RegisterFile, Registers
from repro.errors import MmioError
from repro.validation.generators import (
    case_seed,
    gen_blob_mutation,
    gen_offload_batch,
    gen_page,
    gen_register_program,
)
from repro.validation.oracles import decode_outcome, differential_offload_check
from tests.hypothesis_settings import fuzz_settings

_RNG = st.randoms(use_true_random=False)

# -- zstd-like decoder error parity -------------------------------------------


def _check_decode_parity(rng):
    """A damaged blob through ``decompress`` (native kernel, Python on
    any anomaly) and through the Python decoder alone: same bytes, or
    the same exception type and message."""
    blob = gen_blob_mutation(rng)
    note(blob)
    codec = ZstdLikeCodec()
    assert decode_outcome(codec.decompress, blob) == decode_outcome(
        codec._decompress_python, blob
    )


#: Most damage fails structurally on both engines; a blob that decodes
#: on one and not the other is about one case in a hundred.
@settings(max_examples=200)
@given(rng=_RNG)
def test_zstd_like_decode_error_parity(rng):
    _check_decode_parity(rng)


@pytest.mark.fuzz
@fuzz_settings(max_examples=200)
@given(rng=_RNG)
def test_fuzz_zstd_like_decode_error_parity(rng):
    _check_decode_parity(rng)


# -- MMIO register protocol ---------------------------------------------------

_KNOWN = {int(register) for register in Registers}
_READ_ONLY = {
    int(Registers.SP_CAPACITY),
    int(Registers.CRQ_HEAD),
    int(Registers.CRQ_FREE),
    int(Registers.STATUS),
}


def _check_register_program(rng, n):
    """Known offsets read; unknown ones raise. A write lands exactly
    when the offset is writable and the value non-negative."""
    ops = gen_register_program(rng, n=n)
    note(ops)
    regs = RegisterFile()
    for op in ops:
        if op[0] == "read":
            _, offset = op
            if offset in _KNOWN:
                assert regs.mmio_read(offset) >= 0
            else:
                with pytest.raises(MmioError):
                    regs.mmio_read(offset)
        elif op[0] == "write":
            _, offset, value = op
            legal = offset in _KNOWN - _READ_ONLY and value >= 0
            try:
                regs.mmio_write(offset, value)
            except MmioError:
                assert not legal
            else:
                assert legal
                assert regs.mmio_read(offset) == value
        else:
            _, offset, value = op
            regs.device_set(Registers(offset), value)
            assert regs[Registers(offset)] == value


@settings(max_examples=40)
@given(rng=_RNG, n=st.integers(1, 60))
def test_register_file_protocol(rng, n):
    _check_register_program(rng, n)


@pytest.mark.fuzz
@fuzz_settings(max_examples=40)
@given(rng=_RNG, n=st.integers(1, 60))
def test_fuzz_register_file_protocol(rng, n):
    _check_register_program(rng, n)


# -- emulator vs FSM-checked module -------------------------------------------


def _check_offload_batch(rng, num_refs):
    """The optimistic window engine and the protocol-checked module
    service the same requests."""
    batch = gen_offload_batch(rng, num_refs=num_refs)
    note(batch)
    optimistic, checked = differential_offload_check(batch, num_refs=48)
    assert optimistic.serviced == checked.serviced


@settings(max_examples=10)
@given(rng=_RNG, num_refs=st.integers(1, 24))
def test_differential_offload_batches(rng, num_refs):
    _check_offload_batch(rng, num_refs)


@pytest.mark.fuzz
@fuzz_settings(max_examples=10)
@given(rng=_RNG, num_refs=st.integers(1, 24))
def test_fuzz_differential_offload_batches(rng, num_refs):
    _check_offload_batch(rng, num_refs)


# -- fixed case lists ---------------------------------------------------------


def test_fuzz_case_stream_is_deterministic():
    """The fixed blob lists of the codec differentials are generated
    from ``case_seed`` (checked in :mod:`tests.validation.test_fuzz_framework`)."""
    first = [gen_page(random.Random(case_seed(5, index))) for index in range(5)]
    second = [gen_page(random.Random(case_seed(5, index))) for index in range(5)]
    assert first == second
