"""Refresh-window access scheduling: XFM's transparent DRAM side channel.

XFM batches NMA accesses received during a tREFI interval and executes
them during the next tRFC, in parallel with the all-bank refresh (§4.3,
Fig. 5). Accesses are *conditional* when their target row is in the set
being refreshed (the row is open in its local row buffer anyway) and
*random* otherwise (served from a non-refreshing subarray via the Fig. 7
latches, budgeted by unused TRR slots — one per REF in the paper's
methodology).

:class:`WindowScheduler` keeps one deque per REF slot, so an all-bank
window pops each conditional match in O(1) from the front of its slot's
deque, and serves randoms oldest-first from a lazily pruned age heap
when budget remains. A served :class:`AccessRequest` is its own
execution record: :meth:`WindowScheduler.drain_window` marks it
(``conditional``, ``served_ref``) and returns it, and the submitter's
``owner`` payload rides along, so no per-access record or side table
is built.

:class:`XfmDevice` is one rank's offload pipeline served through those
windows; the emulator (:mod:`repro.core.emulator`) drives it.
"""

from __future__ import annotations

import enum
import heapq
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.dram.device import PAGE_SIZE
from repro.dram.refresh import RefreshScheduler, RefreshWindow
from repro.errors import ConfigError
from repro.telemetry import reasons, trace as _trace
from repro.validation.hooks import checkpoint


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"


# Module-level aliases: an enum member lookup on the class costs ~0.1 us.
READ, WRITE = AccessKind.READ, AccessKind.WRITE


class AccessRequest:
    """One NMA access to a rank-local row: pending until a refresh
    window serves it, then the record of that execution. Equality is
    identity: two requests for the same row are different accesses."""

    __slots__ = (
        "request_id",
        "kind",
        "row",
        "enqueued_ref",
        "nbytes",
        "bank",
        "owner",
        "served",
        "conditional",
        "served_ref",
    )

    def __init__(
        self,
        request_id: int,
        kind: AccessKind,
        row: Optional[int],
        enqueued_ref: int,
        nbytes: int = 4096,
        bank: Optional[int] = None,
        owner: Any = None,
    ) -> None:
        self.request_id = request_id
        self.kind = kind
        #: Target row; None means placement-flexible (the compressed-blob
        #: writeback case: the allocator can target whatever row is being
        #: refreshed right now, making the access conditional by
        #: construction).
        self.row = row
        #: REF index at which the request was enqueued.
        self.enqueued_ref = enqueued_ref
        #: Bytes moved by this access (page or blob).
        self.nbytes = nbytes
        #: Bank holding the fixed-row target, or None when the request is
        #: bank-agnostic (all-bank windows serve any bank; per-bank
        #: windows serve conditional matches only in the refreshing bank).
        self.bank = bank
        #: Opaque submitter payload, returned with the served request.
        self.owner = owner
        #: Set when the access executes; its ``_age_heap`` entry, if one
        #: is still queued, is dropped lazily when it reaches the top.
        self.served = False
        #: Whether the serving window refreshed the target row (set on
        #: service; False for a random access).
        self.conditional = False
        #: Window index that served the request; -1 while pending.
        self.served_ref = -1

    @property
    def waited_refs(self) -> int:
        return self.served_ref - self.enqueued_ref


@dataclass
class WindowScheduler:
    """Batches NMA accesses and drains them through refresh windows."""

    refresh: RefreshScheduler
    #: Total NMA accesses accommodated per tRFC (Fig. 12's 1/2/3 series).
    accesses_per_ref: int = 3
    #: Of those, how many may be random (methodology: 1).
    random_per_ref: int = 1
    #: Randoms are spent on the oldest requests once they have waited this
    #: many REFs, or immediately when pressure (see :meth:`drain_window`) demands
    #: it. The default of 0 makes the scheduler work-conserving: conditional
    #: service is still preferred (it is tried first and costs less energy),
    #: but leftover budget is never wasted while fixed-row requests starve.
    random_age_refs: int = 0

    _slot_buckets: Dict[int, Deque[AccessRequest]] = field(
        default_factory=dict, init=False
    )
    _age_heap: List[Tuple[int, int, AccessRequest]] = field(
        default_factory=list, init=False
    )
    _flexible: Deque[AccessRequest] = field(default_factory=deque, init=False)
    _next_id: int = field(default=1, init=False)
    pending_count: int = field(default=0, init=False)
    #: Per-window access budget under the refresh policy, fixed for life.
    _window_budget: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.accesses_per_ref < 1:
            raise ConfigError("accesses_per_ref must be >= 1")
        if not 0 <= self.random_per_ref <= self.accesses_per_ref:
            raise ConfigError(
                "random_per_ref must be within [0, accesses_per_ref]"
            )
        policy = self.refresh.policy
        self._window_budget = policy.access_budget(self.accesses_per_ref)

    # -- enqueue -----------------------------------------------------------

    def submit(
        self,
        kind: AccessKind,
        row: Optional[int],
        current_ref: int,
        nbytes: int = 4096,
        bank: Optional[int] = None,
        owner: Any = None,
    ) -> AccessRequest:
        """Queue an access; it will execute in some later refresh window.
        ``owner`` travels with the request and comes back when it is
        served."""
        request_id = self._next_id
        request = AccessRequest(
            request_id, kind, row, current_ref, nbytes, bank, owner
        )
        self._next_id = request_id + 1
        if row is None:
            self._flexible.append(request)
        else:
            slot = self.refresh.ref_slot_for_row(row)
            bucket = self._slot_buckets.get(slot)
            if bucket is None:
                bucket = self._slot_buckets[slot] = deque()
            bucket.append(request)
            heapq.heappush(self._age_heap, (current_ref, request_id, request))
        self.pending_count += 1
        return request

    # -- drain -------------------------------------------------------------

    def drain_window(
        self, window: RefreshWindow, pressure: bool = False
    ) -> List[AccessRequest]:
        """Execute up to the window's access budget during ``window`` and
        return the served requests in execution order.

        Priority: (1) placement-flexible writebacks (conditional by
        construction), (2) row-matching conditional accesses — restricted
        to the refreshing bank when the window is per-bank, (3) random
        accesses for the oldest starving requests — always when
        ``pressure`` is set (SPM high-watermark), otherwise only past
        ``random_age_refs``. All-bank windows get the full
        ``accesses_per_ref`` budget; shorter per-bank windows get the
        policy-scaled share.
        """
        ref_index = window.ref_index
        budget = self._window_budget
        random_budget = min(self.random_per_ref, budget)
        served: List[AccessRequest] = []

        # (1) flexible writebacks ride the current refresh rows.
        flexible = self._flexible
        while budget and flexible:
            request = flexible.popleft()
            request.served = True
            request.conditional = True
            request.served_ref = ref_index
            served.append(request)
            budget -= 1

        # (2) conditional matches for this window's slot (and bank).
        slot = (
            window.slot
            if window.slot is not None
            else ref_index % self.refresh.refs_per_retention
        )
        bucket = self._slot_buckets.get(slot)
        if bucket:
            if window.bank is None:
                while budget and bucket:
                    request = bucket.popleft()
                    request.served = True
                    request.conditional = True
                    request.served_ref = ref_index
                    served.append(request)
                    budget -= 1
            else:
                # Per-bank window: only requests in the refreshing bank
                # (or bank-agnostic ones) are conditional right now.
                position = 0
                while budget and position < len(bucket):
                    request = bucket[position]
                    if request.bank not in (None, window.bank):
                        position += 1
                        continue
                    del bucket[position]
                    request.served = True
                    request.conditional = True
                    request.served_ref = ref_index
                    served.append(request)
                    budget -= 1
            if not bucket:
                del self._slot_buckets[slot]

        # (3) randoms for the oldest requests, subarray conflicts avoided.
        age_heap = self._age_heap
        if not random_budget:
            # No random slot to pop served entries below: drop them off
            # the top, or a scheduler that never serves randoms keeps
            # one entry per fixed-row access it ever served.
            while age_heap and age_heap[0][2].served:
                heapq.heappop(age_heap)
        while budget and random_budget and age_heap:
            enqueued_ref, _, request = age_heap[0]
            if request.served:
                heapq.heappop(age_heap)
                continue
            old_enough = ref_index - enqueued_ref >= self.random_age_refs
            if not (pressure or old_enough):
                break
            assert request.row is not None
            if not self.refresh.random_allowed_in_window(request.row, window):
                # Subarray conflict with a refreshing row: the reorder
                # logic defers this request to the next window.
                break
            heapq.heappop(age_heap)
            self._remove_from_bucket(request)
            request.served = True
            request.served_ref = ref_index
            served.append(request)
            budget -= 1
            random_budget -= 1

        self.pending_count -= len(served)
        if served and _trace.tracing_enabled():
            # Pure emission: the window placement decisions above are
            # unchanged whether or not a trace ring is attached.
            for request in served:
                _trace.instant(
                    "window_access",
                    _trace.TRACK_NMA,
                    args={
                        "kind": request.kind.value,
                        "conditional": request.conditional,
                        "row": request.row,
                        "request_id": request.request_id,
                        "waited_refs": request.waited_refs,
                    },
                )
        return served

    def _remove_from_bucket(self, request: AccessRequest) -> None:
        slot = self.refresh.ref_slot_for_row(request.row)
        bucket = self._slot_buckets[slot]
        bucket.remove(request)
        if not bucket:
            del self._slot_buckets[slot]

    # -- introspection --------------------------------------------------------

    def queued(self) -> Iterator[AccessRequest]:
        """Every request still waiting: flexible ones first, then each
        slot bucket's (validation and tests; not on the hot path)."""
        yield from self._flexible
        for bucket in self._slot_buckets.values():
            yield from bucket


@dataclass
class XfmDevice:
    """One rank's offload pipeline as a refresh-window server.

    Pipeline per offload (Fig. 10):

    1. *arrival* — the backend reserves SPM (driver upper bound) and a
       CRQ slot; failure of either is a CPU fallback.
    2. *read* — the input is fetched during a refresh window. Compression
       reads are *slot-flexible*: cold candidates vastly outnumber the
       access budget (30% of memory is cold in Google's fleet, §3.1), so
       the controller always has candidates whose rows are refreshing
       right now — conditional by construction. Decompression (prefetch)
       reads target the *fixed* rows where the blobs live: they are
       served conditionally when their refresh slot comes up, or by the
       budgeted random slots (1 per tRFC) when the scheduler has leftover
       budget — this is why the random-access rate scales with the
       promotion rate (Fig. 12).
    3. *engine* — (de)compression runs between windows (engine throughput
       far exceeds the side channel's bandwidth, §8).
    4. *writeback* — compressed blobs are placement-flexible and coalesce
       into 4 KiB groups written into whatever rows are refreshing;
       decompressed pages go to freshly allocated frames, also
       placement-flexible.
    5. *release* — SPM bytes return on writeback completion.

    An op is ``(op_id, is_compress, arrival_ref)`` and holds one page of
    SPM (its input or output page) from admission to writeback. It rides
    its read request as the request's owner; a writeback's owner is the
    list of ops it completes. The device neither schedules events nor
    moves the clock: its driver calls :meth:`process_window` for each
    window it fires and reads the counters below when it is done.
    """

    refresh: RefreshScheduler
    accesses_per_ref: int
    random_per_ref: int
    spm_bytes: int
    crq_depth: int
    blob_bytes: int
    #: SPM occupancy above which randoms fire eagerly.
    pressure_threshold: float
    #: ``(nbytes, conditional=...) -> joules`` of one NMA access.
    access_energy_j: Callable[..., float]
    #: Draws a fixed-row decompression's row (and, under a banked
    #: policy, its bank): anything with numpy's ``integers``.
    rng: Any

    scheduler: WindowScheduler = field(init=False)
    trace_on: bool = field(init=False)
    spm_used: int = field(default=0, init=False)
    spm_peak: int = field(default=0, init=False)
    crq_used: int = field(default=0, init=False)
    #: Ops admitted so far; the last admitted op's id.
    admitted: int = field(default=0, init=False)
    fallbacks_spm: int = field(default=0, init=False)
    fallbacks_queue: int = field(default=0, init=False)
    #: compress ops whose blobs await writeback grouping.
    flex_buffer: Deque[tuple] = field(default_factory=deque, init=False)
    flex_buffer_bytes: int = field(default=0, init=False)
    conditional: int = field(default=0, init=False)
    random_accesses: int = field(default=0, init=False)
    moved_bytes: int = field(default=0, init=False)
    energy_j: float = field(default=0.0, init=False)
    all_random_energy_j: float = field(default=0.0, init=False)
    all_conditional_energy_j: float = field(default=0.0, init=False)
    #: Completion latency of each completed op, in REFs.
    latency_refs: array = field(default_factory=lambda: array("q"), init=False)
    #: nbytes -> (random, conditional) access energy; a run moves a
    #: handful of distinct sizes (page, blob, blob groups).
    _access_energy: Dict[int, tuple] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        self.scheduler = WindowScheduler(
            self.refresh, self.accesses_per_ref, self.random_per_ref
        )
        self.trace_on = _trace.tracing_enabled()

    def process_window(
        self,
        window: RefreshWindow,
        ref: int,
        compressions: int = 0,
        decompressions: int = 0,
    ) -> int:
        """One refresh window of tREFI interval ``ref``: admit the
        arrivals that came with it, drain the window, coalesce
        writebacks, checkpoint invariants. Returns the number of
        accesses still queued."""
        scheduler = self.scheduler
        submit = scheduler.submit
        trace_on = self.trace_on
        blob = self.blob_bytes
        spm_capacity = self.spm_bytes
        spm_used = self.spm_used
        crq_used = self.crq_used
        # -- admission: SPM + CRQ; either failing is a CPU fallback ------
        if compressions or decompressions:
            crq_depth = self.crq_depth
            spm_peak = self.spm_peak
            admitted = self.admitted
            rng = self.rng
            rows = self.refresh.device.rows_per_bank
            num_banks = self.refresh.policy.windows_per_trefi
            banked = num_banks > 1
            for is_compress, count in (
                (True, compressions),
                (False, decompressions),
            ):
                for _ in range(count):
                    if spm_used + PAGE_SIZE > spm_capacity:
                        self.fallbacks_spm += 1
                        if trace_on:
                            _trace.fallback(
                                reasons.SPM_FULL,
                                "compress" if is_compress else "decompress",
                                ref=ref,
                            )
                        continue
                    if crq_used >= crq_depth:
                        self.fallbacks_queue += 1
                        if trace_on:
                            _trace.fallback(
                                reasons.QUEUE_FULL,
                                "compress" if is_compress else "decompress",
                                ref=ref,
                            )
                        continue
                    spm_used += PAGE_SIZE
                    if spm_used > spm_peak:
                        spm_peak = spm_used
                    crq_used += 1
                    admitted += 1
                    op = (admitted, is_compress, ref)
                    if is_compress:
                        # Cold candidates are abundant: the controller picks
                        # one whose row is refreshing -> slot-flexible.
                        request = submit(READ, None, ref, PAGE_SIZE, None, op)
                    else:
                        # The blob's location is fixed.
                        row = int(rng.integers(0, rows))
                        # Per-bank windows serve fixed rows only in the
                        # refreshing bank, so the blob's bank matters;
                        # the extra draw happens only under a banked
                        # policy (the all-bank RNG stream is untouched).
                        bank = (
                            int(rng.integers(0, num_banks)) if banked else None
                        )
                        request = submit(READ, row, ref, blob, bank, op)
                    if trace_on:
                        _trace.instant(
                            "offload_enqueue",
                            _trace.TRACK_NMA,
                            args={
                                "op_id": op[0],
                                "kind": "compress"
                                if is_compress
                                else "decompress",
                                "request_id": request.request_id,
                            },
                        )
            self.spm_peak = spm_peak
            self.admitted = admitted

        # -- drain one refresh window --------------------------------------
        pressure = spm_used / spm_capacity >= self.pressure_threshold
        flex_buffer = self.flex_buffer
        flex_buffer_bytes = self.flex_buffer_bytes
        latency_refs = self.latency_refs
        access_energy = self._access_energy
        conditional = self.conditional
        random_count = self.random_accesses
        moved_bytes = self.moved_bytes
        energy = self.energy_j
        energy_all_random = self.all_random_energy_j
        energy_all_conditional = self.all_conditional_energy_j
        for request in scheduler.drain_window(window, pressure):
            nbytes = request.nbytes
            moved_bytes += nbytes
            joules = access_energy.get(nbytes)
            if joules is None:
                nma_access_j = self.access_energy_j
                joules = access_energy[nbytes] = (
                    nma_access_j(nbytes, conditional=False),
                    nma_access_j(nbytes, conditional=True),
                )
            random_j, conditional_j = joules
            energy_all_random += random_j
            energy_all_conditional += conditional_j
            if request.conditional:
                energy += conditional_j
                conditional += 1
            else:
                energy += random_j
                random_count += 1

            if request.kind is READ:
                # Read done -> engine (fast, §8) -> schedule writeback
                # at the next window.
                op = request.owner
                crq_used -= 1
                if op[1]:
                    flex_buffer.append(op)
                    flex_buffer_bytes += blob
                else:
                    # The promoted page lands in a freshly allocated
                    # frame: placement-flexible writeback.
                    submit(WRITE, None, ref, PAGE_SIZE, None, [op])
                continue
            for op_id, is_compress, arrival_ref in request.owner:
                spm_used -= PAGE_SIZE
                latency = ref - arrival_ref
                latency_refs.append(latency)
                if trace_on:
                    _trace.instant(
                        "offload_complete",
                        _trace.TRACK_NMA,
                        args={
                            "op_id": op_id,
                            "kind": "compress"
                            if is_compress
                            else "decompress",
                            "latency_refs": latency,
                        },
                    )
        self.conditional = conditional
        self.random_accesses = random_count
        self.moved_bytes = moved_bytes
        self.energy_j = energy
        self.all_random_energy_j = energy_all_random
        self.all_conditional_energy_j = energy_all_conditional

        # -- coalesce compressed blobs into flexible writebacks -------------
        while flex_buffer_bytes >= PAGE_SIZE or (flex_buffer and pressure):
            group: List[tuple] = []
            group_bytes = 0
            while flex_buffer and group_bytes + blob <= PAGE_SIZE:
                group.append(flex_buffer.popleft())
                group_bytes += blob
            if not group:
                break
            flex_buffer_bytes -= group_bytes
            submit(WRITE, None, ref, group_bytes, None, group)
        self.flex_buffer_bytes = flex_buffer_bytes
        self.spm_used = spm_used
        self.crq_used = crq_used
        checkpoint(self)
        return scheduler.pending_count
