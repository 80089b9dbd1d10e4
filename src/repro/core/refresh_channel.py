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
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.dram.refresh import RefreshScheduler, RefreshWindow
from repro.errors import ConfigError
from repro.telemetry import trace as _trace


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"


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

    def __post_init__(self) -> None:
        if self.accesses_per_ref < 1:
            raise ConfigError("accesses_per_ref must be >= 1")
        if not 0 <= self.random_per_ref <= self.accesses_per_ref:
            raise ConfigError(
                "random_per_ref must be within [0, accesses_per_ref]"
            )

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
        budget = self.refresh.policy.access_budget(self.accesses_per_ref)
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
