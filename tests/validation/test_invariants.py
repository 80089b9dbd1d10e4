"""Randomized invariant churn: structural checkers fire after every
mutation (via the checkpoints wired into the data structures) while a
shadow model cross-checks observable behaviour."""

import random

import pytest

from repro.core.nma import NearMemoryAccelerator, NmaConfig
from repro.core.registers import Registers
from repro.core.xfm_module import XfmModule
from repro.errors import ZpoolFullError
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page
from repro.sfm.zpool import Zpool
from repro.validation.generators import gen_zpool_ops
from repro.validation.hooks import checkpoint, validation, validation_enabled
from repro.validation.invariants import InvariantViolation

CHURN_SEED = 0xC0FFEE


def test_zpool_churn_with_compaction_preserves_entries():
    rng = random.Random(CHURN_SEED + 1)
    ops = gen_zpool_ops(rng, n=600)
    pool = Zpool(capacity_bytes=64 * 1024)
    shadow = {}  # handle -> blob
    with validation():
        for op in ops:
            if op[0] == "store":
                _, length, fill = op
                blob = bytes([fill]) * length
                try:
                    handle = pool.store(blob)
                except ZpoolFullError:
                    continue
                shadow[handle] = blob
            elif op[0] == "free" and shadow:
                handles = sorted(shadow)
                handle = handles[op[1] % len(handles)]
                assert pool.free(handle) == len(shadow.pop(handle))
            elif op[0] == "load" and shadow:
                handles = sorted(shadow)
                handle = handles[op[1] % len(handles)]
                assert pool.load(handle) == shadow[handle]
            elif op[0] == "compact":
                pool.compact()
                # Compaction must preserve every live blob byte-exactly.
                for handle, blob in shadow.items():
                    assert pool.load(handle) == blob
    for handle, blob in shadow.items():
        assert pool.load(handle) == blob
    assert len(pool) == len(shadow)


def test_zpool_corruption_is_caught():
    pool = Zpool(capacity_bytes=16 * 1024)
    handle = pool.store(b"x" * 100)
    slab_index, offset, length = pool._locator[handle]
    pool._locator[handle] = (slab_index, offset + 8, length)
    with validation():
        with pytest.raises(InvariantViolation):
            checkpoint(pool)


def _indexed_pool():
    """Three slots: a fragmented slab, a released slot, a fuller slab."""
    pool = Zpool(capacity_bytes=8 * 4096)
    first = [pool.store(b"a" * 900) for _ in range(4)]
    lone = pool.store(b"b" * 3000)
    pool.store(b"c" * 2000)
    pool.free(first[1])
    pool.free(lone)
    assert pool._slabs[1] is None and pool._released == [1]
    return pool


def _break_free_list(pool):
    pool._slabs[0].gaps.pop()


def _break_largest_gap(pool):
    pool._slabs[0].largest_gap += 1


def _break_leaf(pool):
    pool._tree[len(pool._tree) // 2 + 1] = 7  # the released slot


def _break_node(pool):
    pool._tree[1] += 1


def _break_released_heap(pool):
    pool._released.append(3)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_break_free_list, "free list"),
        (_break_largest_gap, "records largest gap"),
        (_break_leaf, "index leaves"),
        (_break_node, "index nodes"),
        (_break_released_heap, "released-slot heap"),
    ],
    ids=["free-list", "largest-gap", "tree-leaf", "tree-node", "heap"],
)
def test_zpool_index_corruption_is_caught(corrupt, message):
    """Each index field is checked against the entries, not against
    itself: corrupting any one of them alone is caught by its clause."""
    pool = _indexed_pool()
    with validation():
        checkpoint(pool)
        corrupt(pool)
        with pytest.raises(InvariantViolation, match=message):
            checkpoint(pool)


def _stored_backend(json_pages):
    """An SFM backend holding two pages, checked on every mutation."""
    backend = SfmBackend(capacity_bytes=16 * PAGE_SIZE)
    with validation():
        for i, data in enumerate(json_pages[:2]):
            page = Page(vaddr=i * PAGE_SIZE, data=data)
            assert backend.swap_out(page).accepted
    return backend


def _free_behind_the_index(backend):
    backend.zpool.free(backend.index[0].handle)


def _share_a_handle(backend):
    backend.index[PAGE_SIZE] = backend.index[0]


def _orphan_a_blob(backend):
    backend.zpool.store(b"orphan")


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_free_behind_the_index, "which the zpool does not hold"),
        (_share_a_handle, "shares handle"),
        (_orphan_a_blob, "index holds 2 pages but the zpool holds 3"),
    ],
    ids=["dead-handle", "shared-handle", "orphan-blob"],
)
def test_sfm_backend_corruption_is_caught(corrupt, message, json_pages):
    """Each clause of the index check fires on its own corruption."""
    backend = _stored_backend(json_pages)
    with validation():
        checkpoint(backend)
        corrupt(backend)
        with pytest.raises(InvariantViolation, match=message):
            checkpoint(backend)


def test_checkpoint_is_inert_when_disabled(json_pages):
    backend = _stored_backend(json_pages)
    _free_behind_the_index(backend)  # corrupt — but validation is off
    with validation(False):
        assert not validation_enabled()
        checkpoint(backend)  # must not raise


def test_nma_register_mirror_desync_is_caught():
    nma = NearMemoryAccelerator(NmaConfig(spm_bytes=1 << 20, crq_depth=8))
    with validation():
        request = nma.submit(True, source_row=1, dest_row=None, input_bytes=4096)
        nma.stage_input(request)
        nma.advance(1e9)
        # Device-side mirror lies about SPM capacity -> caught.
        nma.registers.device_set(Registers.SP_CAPACITY, 12345)
        with pytest.raises(InvariantViolation):
            checkpoint(nma)


def test_nma_lifecycle_under_validation():
    nma = NearMemoryAccelerator(NmaConfig(spm_bytes=1 << 20, crq_depth=8))
    with validation():
        for i in range(4):
            nma.submit(True, source_row=i, dest_row=None, input_bytes=4096)
        while (request := nma.pop_request()) is not None:
            nma.stage_input(request)
        for entry in nma.advance(1e9, output_bytes_of=lambda e: 1024):
            nma.release(entry.entry_id)
    assert nma.completed_ops == 4
    assert nma.registers[Registers.SP_CAPACITY] == nma.spm.free_bytes


def test_xfm_module_checked_every_window():
    module = XfmModule()
    with validation():
        for ref in range(8):
            module.submit_read(None, nbytes=4096)
            module.step()  # checkpoint at the end of every window
    assert module.host_window_clean()
