"""Pluggable structural invariant checkers.

Each checker takes one live object and raises :class:`InvariantViolation`
(with a precise message) if a structural property does not hold:

* :func:`check_sfm_backend` — every indexed page's record names a live
  pool blob, no two pages share one, and the pool holds no other blob;
* :func:`check_zpool` — no overlapping allocations inside a slab, the
  locator and slab entry tables agree exactly, each slab's free list and
  largest gap equal those rebuilt from its entries, the max-gap tree and
  released-slot heap agree with the slots, capacity bounds;
* :func:`check_spm` — byte accounting sums over the live entries,
  occupancy within [0, capacity], peak monotonicity;
* :func:`check_nma` — the device register mirror
  (``SP_Capacity_Register``, ``CRQ_FREE``) agrees with the actual SPM
  occupancy and queue depth;
* :func:`check_register_file` — register values are unsigned and every
  architected offset is present;
* :func:`check_window_scheduler` — the pending counter matches the
  queued requests, budgets within configured bounds;
* :func:`check_xfm_module` — after each window the rank must look
  untouched to the host and the command trace must be time-ordered;
* :func:`check_tier_pipeline` — the pipeline's placement map, per-tier
  LRU lists, keyed index, and the tiers' own ``contains`` all agree.

All checkers are registered with :mod:`repro.validation.hooks` at import
time, which is what makes ``hooks.checkpoint(obj)`` dispatch to them.
They are also directly callable from tests.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.nma import NearMemoryAccelerator
from repro.core.refresh_channel import WindowScheduler
from repro.core.registers import RegisterFile, Registers
from repro.core.spm import ScratchpadMemory, SpmTag
from repro.core.xfm_module import XfmModule
from repro.errors import ReproError
from repro.sfm.backend import SfmBackend
from repro.sfm.zpool import Zpool
from repro.tiering.pipeline import TierPipeline
from repro.validation import hooks


class InvariantViolation(ReproError, AssertionError):
    """A structural invariant of a model object does not hold.

    Derives from ``AssertionError`` as well so legacy ``pytest.raises``
    guards written against assert-style checkers keep working.
    """


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


# -- SFM backend index -------------------------------------------------------


def check_sfm_backend(backend: SfmBackend) -> None:
    """Each indexed page owns exactly one live blob of the pool."""
    pool = backend.zpool
    handles = set()
    for vaddr, record in backend.index.items():
        _require(
            record.handle in pool,
            f"sfm: page 0x{vaddr:x} indexes handle {record.handle}, "
            "which the zpool does not hold",
        )
        _require(
            record.handle not in handles,
            f"sfm: page 0x{vaddr:x} shares handle {record.handle} with "
            "another page",
        )
        handles.add(record.handle)
    _require(
        len(backend.index) == len(pool),
        f"sfm: index holds {len(backend.index)} pages but the zpool "
        f"holds {len(pool)} blobs",
    )


# -- zpool -------------------------------------------------------------------


def check_zpool(pool: Zpool) -> None:
    """Allocation-map consistency of the compressed pool."""
    _require(
        len(pool._slabs) <= pool.max_slabs,
        f"zpool: {len(pool._slabs)} slab slots exceed max {pool.max_slabs}",
    )
    seen_handles = set()
    live_slabs = 0
    live_payload = 0
    for index, slab in enumerate(pool._slabs):
        if slab is None:
            continue
        live_slabs += 1
        _require(
            bool(slab.entries),
            f"zpool: slab {index} is empty but not released",
        )
        spans: List[Tuple[int, int]] = sorted(slab.entries.values())
        cursor = 0
        payload = 0
        gaps: List[Tuple[int, int]] = []
        for offset, length in spans:
            _require(
                length > 0,
                f"zpool: slab {index} holds a zero-length entry",
            )
            _require(
                offset >= cursor,
                f"zpool: slab {index} entries overlap at offset {offset}",
            )
            _require(
                offset + length <= pool.slab_size,
                f"zpool: slab {index} entry [{offset}, {offset + length}) "
                f"exceeds slab size {pool.slab_size}",
            )
            if offset > cursor:
                gaps.append((cursor, offset - cursor))
            cursor = offset + length
            payload += length
        if cursor < pool.slab_size:
            gaps.append((cursor, pool.slab_size - cursor))
        _require(
            slab.gaps == gaps,
            f"zpool: slab {index} free list {slab.gaps[:8]} but its "
            f"entries leave gaps {gaps[:8]}",
        )
        largest = max((length for _, length in gaps), default=0)
        _require(
            slab.largest_gap == largest,
            f"zpool: slab {index} records largest gap {slab.largest_gap} "
            f"but its largest gap is {largest}",
        )
        live_payload += payload
        for handle, (offset, length) in slab.entries.items():
            _require(
                handle not in seen_handles,
                f"zpool: handle {handle} appears in more than one slab",
            )
            seen_handles.add(handle)
            _require(
                pool._locator.get(handle) == (index, offset, length),
                f"zpool: locator for handle {handle} disagrees with "
                f"slab {index} entry ({offset}, {length})",
            )
    _require(
        seen_handles == set(pool._locator),
        "zpool: locator handles and slab handles differ: "
        f"{sorted(seen_handles.symmetric_difference(pool._locator))[:8]}",
    )
    tree = pool._tree
    leaves = len(tree) // 2
    _require(
        len(tree) == 2 * leaves and leaves & (leaves - 1) == 0
        and leaves >= len(pool._slabs),
        f"zpool: index tree of {len(tree)} nodes cannot hold "
        f"{len(pool._slabs)} slab slots",
    )
    expected = [
        -1 if slab is None else slab.largest_gap for slab in pool._slabs
    ] + [-1] * (leaves - len(pool._slabs))
    wrong = [i for i in range(leaves) if tree[leaves + i] != expected[i]]
    _require(
        not wrong,
        f"zpool: index leaves for slots {wrong[:8]} disagree with the "
        "slots' largest gaps (-1 for a released or unused slot)",
    )
    wrong = [
        node
        for node in range(1, leaves)
        if tree[node] != max(tree[2 * node], tree[2 * node + 1])
    ]
    _require(
        not wrong,
        f"zpool: index nodes {wrong[:8]} are not the max of their children",
    )
    released = [i for i, slab in enumerate(pool._slabs) if slab is None]
    heap = pool._released
    _require(
        sorted(heap) == released
        and all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap))),
        f"zpool: released-slot heap {heap[:8]} is not a heap of the "
        f"released slots {released[:8]}",
    )
    _require(
        pool.used_slabs() == live_slabs,
        f"zpool: used_slabs() says {pool.used_slabs()} but "
        f"{live_slabs} slabs are live",
    )
    _require(
        pool.stored_bytes() == live_payload,
        f"zpool: stored_bytes() says {pool.stored_bytes()} but entries "
        f"sum to {live_payload}",
    )
    _require(
        pool.stored_bytes() <= pool.capacity_bytes,
        f"zpool: stored {pool.stored_bytes()} exceeds capacity "
        f"{pool.capacity_bytes}",
    )


# -- scratchpad memory -------------------------------------------------------


def check_spm(spm: ScratchpadMemory) -> None:
    """Byte accounting of the staging buffer."""
    total = sum(entry.nbytes for entry in spm._entries.values())
    _require(
        total == spm.used_bytes,
        f"spm: used_bytes {spm.used_bytes} but entries sum to {total}",
    )
    _require(
        0 <= spm.used_bytes <= spm.capacity_bytes,
        f"spm: used {spm.used_bytes} outside [0, {spm.capacity_bytes}]",
    )
    _require(
        spm.peak_used >= spm.used_bytes,
        f"spm: peak {spm.peak_used} below current use {spm.used_bytes}",
    )
    for entry in spm._entries.values():
        _require(
            entry.nbytes > 0,
            f"spm: entry {entry.entry_id} has non-positive size",
        )
        _require(
            entry.tag in (SpmTag.PENDING, SpmTag.COMPLETED),
            f"spm: entry {entry.entry_id} has invalid tag {entry.tag!r}",
        )


# -- NMA register mirror -----------------------------------------------------


def check_nma(nma: NearMemoryAccelerator) -> None:
    """The MMIO mirror must agree with the device state it advertises."""
    check_spm(nma.spm)
    _require(
        nma.registers[Registers.SP_CAPACITY] == nma.spm.free_bytes,
        f"nma: SP_Capacity_Register {nma.registers[Registers.SP_CAPACITY]} "
        f"!= SPM free bytes {nma.spm.free_bytes}",
    )
    _require(
        nma.registers[Registers.CRQ_FREE] == nma.queue_free_slots(),
        f"nma: CRQ_FREE {nma.registers[Registers.CRQ_FREE]} != free slots "
        f"{nma.queue_free_slots()}",
    )
    _require(
        0 <= nma.queue_depth <= nma.config.crq_depth,
        f"nma: queue depth {nma.queue_depth} outside "
        f"[0, {nma.config.crq_depth}]",
    )
    check_register_file(nma.registers)


def check_register_file(registers: RegisterFile) -> None:
    """All architected registers present, all values unsigned."""
    for register in Registers:
        _require(
            int(register) in registers._values,
            f"registers: architected offset {register.name} missing",
        )
    for offset, value in registers._values.items():
        _require(
            value >= 0,
            f"registers: offset 0x{offset:x} holds negative value {value}",
        )


# -- refresh-window scheduler ------------------------------------------------


def check_window_scheduler(scheduler: WindowScheduler) -> None:
    """The pending counter must match the queued request population."""
    queued = len(scheduler._flexible) + sum(
        1
        for bucket in scheduler._slot_buckets.values()
        for request in bucket
        if not request.served
    )
    _require(
        scheduler.pending_count == queued,
        f"scheduler: pending_count {scheduler.pending_count} but "
        f"{queued} requests queued",
    )
    _require(
        scheduler.accesses_per_ref >= 1,
        "scheduler: accesses_per_ref must stay >= 1",
    )
    _require(
        0 <= scheduler.random_per_ref <= scheduler.accesses_per_ref,
        "scheduler: random_per_ref outside [0, accesses_per_ref]",
    )


# -- protocol-checked module -------------------------------------------------


def check_xfm_module(module: XfmModule) -> None:
    """Host transparency (§5) plus trace ordering after each window."""
    _require(
        module.host_window_clean(),
        "xfm_module: rank not host-clean between refresh windows "
        "(refresh in progress or rows left open)",
    )
    check_window_scheduler(module.scheduler)
    times = [command.time_ns for command in module.commands]
    _require(
        all(a <= b for a, b in zip(times, times[1:])),
        "xfm_module: command trace is not time-ordered",
    )


# -- tier pipeline -----------------------------------------------------------


def check_tier_pipeline(pipeline: TierPipeline) -> None:
    """Placement bookkeeping must agree with the tiers themselves."""
    num_tiers = len(pipeline.tiers)
    for vaddr, index in pipeline._where.items():
        _require(
            0 <= index < num_tiers,
            f"pipeline: vaddr 0x{vaddr:x} mapped to invalid tier {index}",
        )
        _require(
            vaddr in pipeline._lru[index],
            f"pipeline: vaddr 0x{vaddr:x} mapped to tier {index} but "
            "missing from that tier's LRU list",
        )
        _require(
            pipeline.tiers[index].contains(vaddr),
            f"pipeline: tier {pipeline.tier_names[index]} does not hold "
            f"vaddr 0x{vaddr:x} the placement map assigns to it",
        )
    lru_total = sum(len(lru) for lru in pipeline._lru)
    _require(
        lru_total == len(pipeline._where),
        f"pipeline: LRU lists track {lru_total} pages but the placement "
        f"map holds {len(pipeline._where)}",
    )
    for index, lru in enumerate(pipeline._lru):
        for vaddr in lru:
            _require(
                pipeline._where.get(vaddr) == index,
                f"pipeline: tier {index} LRU lists vaddr 0x{vaddr:x} but "
                f"the placement map says {pipeline._where.get(vaddr)}",
            )
    for name, tier in zip(pipeline.tier_names, pipeline.tiers):
        _require(
            tier.used_bytes() <= tier.capacity_bytes,
            f"pipeline: tier {name} uses {tier.used_bytes()} bytes, over "
            f"its capacity {tier.capacity_bytes}",
        )


# -- registration ------------------------------------------------------------

hooks.register_checker(SfmBackend, check_sfm_backend)
hooks.register_checker(Zpool, check_zpool)
hooks.register_checker(ScratchpadMemory, check_spm)
hooks.register_checker(NearMemoryAccelerator, check_nma)
hooks.register_checker(RegisterFile, check_register_file)
hooks.register_checker(WindowScheduler, check_window_scheduler)
hooks.register_checker(XfmModule, check_xfm_module)
hooks.register_checker(TierPipeline, check_tier_pipeline)
