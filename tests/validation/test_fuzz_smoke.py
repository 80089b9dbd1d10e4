"""Fuzz smoke: seeded generators driven against the real implementations.

Marked ``fuzz`` so CI can select it separately (``-m fuzz``) and cap it
with ``FUZZ_TIME_BUDGET_S`` (total seconds, split evenly across the
targets here). Any failure prints a single ``case_seed=`` integer that
reproduces the exact case via
``fuzz_reproduce(generate, check, case_seed=...)``.
"""

import os
import random

import pytest

from repro.compression.deflate import DeflateCodec
from repro.compression.lzfast import LzFastCodec
from repro.compression.zstd_like import ZstdLikeCodec
from repro.core.registers import RegisterFile, Registers
from repro.errors import MmioError, ZpoolFullError
from repro.sfm.zpool import Zpool
from repro.validation.fuzz import Fuzzer, case_seed
from repro.validation.generators import (
    gen_blob_mutation,
    gen_offload_batch,
    gen_page,
    gen_register_program,
    gen_zpool_ops,
)
from repro.validation.hooks import validation
from repro.validation.oracles import (
    check_roundtrip,
    decode_outcome,
    differential_offload_check,
)

ROOT_SEED = 20260806
_NUM_TARGETS = 6
_TOTAL_BUDGET_S = float(os.environ.get("FUZZ_TIME_BUDGET_S", "6"))


def _fuzzer(offset: int, runs: int = 200) -> Fuzzer:
    return Fuzzer(
        seed=ROOT_SEED + offset,
        runs=runs,
        time_budget_s=_TOTAL_BUDGET_S / _NUM_TARGETS,
    )


@pytest.mark.fuzz
@pytest.mark.parametrize(
    "codec",
    [DeflateCodec(), LzFastCodec(), ZstdLikeCodec()],
    ids=lambda codec: codec.name,
)
def test_fuzz_codec_roundtrips(codec):
    report = _fuzzer(hash(codec.name) % 1000).run(
        gen_page, lambda page: check_roundtrip(codec, page)
    )
    assert report.cases_run > 0


@pytest.mark.fuzz
def test_fuzz_zstd_like_decode_error_parity():
    """Damaged blobs through ``decompress`` (native kernel, Python on
    any anomaly) and through the Python decoder alone: same bytes, or
    the same exception type and message."""
    codec = ZstdLikeCodec()

    def check(blob):
        assert decode_outcome(codec.decompress, blob) == decode_outcome(
            codec._decompress_python, blob
        )

    report = _fuzzer(6, runs=500).run(gen_blob_mutation, check)
    assert report.cases_run > 0


@pytest.mark.fuzz
def test_fuzz_zpool_vs_shadow_map():
    def check(ops):
        pool = Zpool(capacity_bytes=32 * 1024)
        shadow = {}
        with validation():
            for op in ops:
                if op[0] == "store":
                    _, length, fill = op
                    try:
                        shadow[pool.store(bytes([fill]) * length)] = (
                            bytes([fill]) * length
                        )
                    except ZpoolFullError:
                        pass
                elif op[0] == "free" and shadow:
                    handle = sorted(shadow)[op[1] % len(shadow)]
                    pool.free(handle)
                    del shadow[handle]
                elif op[0] == "load" and shadow:
                    handle = sorted(shadow)[op[1] % len(shadow)]
                    assert pool.load(handle) == shadow[handle]
                elif op[0] == "compact":
                    pool.compact()
            for handle, blob in shadow.items():
                assert pool.load(handle) == blob

    report = _fuzzer(2).run(lambda rng: gen_zpool_ops(rng, n=80), check)
    assert report.cases_run > 0


@pytest.mark.fuzz
def test_fuzz_register_file_protocol():
    known = {int(register) for register in Registers}
    read_only = {
        int(Registers.SP_CAPACITY),
        int(Registers.CRQ_HEAD),
        int(Registers.CRQ_FREE),
        int(Registers.STATUS),
    }

    def check(ops):
        regs = RegisterFile()
        for op in ops:
            if op[0] == "read":
                _, offset = op
                if offset in known:
                    assert regs.mmio_read(offset) >= 0
                else:
                    try:
                        regs.mmio_read(offset)
                    except MmioError:
                        pass
                    else:
                        raise AssertionError(f"read 0x{offset:x} must raise")
            elif op[0] == "write":
                _, offset, value = op
                legal = offset in known - read_only and value >= 0
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

    report = _fuzzer(3).run(gen_register_program, check)
    assert report.cases_run > 0


@pytest.mark.fuzz
def test_fuzz_differential_offload_batches():
    def check(batch):
        optimistic, checked = differential_offload_check(batch, num_refs=48)
        assert optimistic.serviced == checked.serviced

    report = _fuzzer(4, runs=40).run(
        lambda rng: gen_offload_batch(rng, num_refs=24), check
    )
    assert report.cases_run > 0


@pytest.mark.fuzz
def test_fuzz_case_stream_is_deterministic():
    fuzzer = _fuzzer(5)
    first = [
        gen_page(random.Random(case_seed(fuzzer.seed, index)))
        for index in range(5)
    ]
    second = [
        gen_page(random.Random(case_seed(fuzzer.seed, index)))
        for index in range(5)
    ]
    assert first == second
