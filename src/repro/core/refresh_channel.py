"""Refresh-window access scheduling: XFM's transparent DRAM side channel.

XFM batches NMA accesses received during a tREFI interval and executes
them during the next tRFC, in parallel with the all-bank refresh (§4.3,
Fig. 5). Accesses are *conditional* when their target row is in the set
being refreshed (the row is open in its local row buffer anyway) and
*random* otherwise (served from a non-refreshing subarray via the Fig. 7
latches, budgeted by unused TRR slots — one per REF in the paper's
methodology).

:class:`WindowScheduler` keeps per-REF-slot buckets so each refresh window
pops its conditional matches in O(1), and serves randoms oldest-first from
a deadline heap when budget remains.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.dram.refresh import RefreshScheduler, RefreshWindow
from repro.errors import ConfigError
from repro.telemetry import trace as _trace


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass
class AccessRequest:
    """One pending NMA access to a rank-local row."""

    request_id: int
    kind: AccessKind
    #: Target row; None means placement-flexible (the compressed-blob
    #: writeback case: the allocator can target whatever row is being
    #: refreshed right now, making the access conditional by construction).
    row: Optional[int]
    #: REF index at which the request was enqueued.
    enqueued_ref: int
    #: Bytes moved by this access (page or blob).
    nbytes: int = 4096
    #: Bank holding the fixed-row target, or None when the request is
    #: bank-agnostic (all-bank windows serve any bank; per-bank windows
    #: serve conditional matches only in the refreshing bank).
    bank: Optional[int] = None
    #: Set when the access executes; its ``_age_heap`` entry, if one is
    #: still queued, is dropped lazily when it reaches the top.
    served: bool = False


@dataclass
class ExecutedAccess:
    """Record of one access performed inside a refresh window."""

    request: AccessRequest
    ref_index: int
    conditional: bool

    @property
    def waited_refs(self) -> int:
        return self.ref_index - self.request.enqueued_ref


@dataclass
class WindowScheduler:
    """Batches NMA accesses and drains them through refresh windows."""

    refresh: RefreshScheduler
    #: Total NMA accesses accommodated per tRFC (Fig. 12's 1/2/3 series).
    accesses_per_ref: int = 3
    #: Of those, how many may be random (methodology: 1).
    random_per_ref: int = 1
    #: Randoms are spent on the oldest requests once they have waited this
    #: many REFs, or immediately when pressure (see :meth:`drain`) demands
    #: it. The default of 0 makes the scheduler work-conserving: conditional
    #: service is still preferred (it is tried first and costs less energy),
    #: but leftover budget is never wasted while fixed-row requests starve.
    random_age_refs: int = 0

    _slot_buckets: Dict[int, List[AccessRequest]] = field(
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
    ) -> AccessRequest:
        """Queue an access; it will execute in some later refresh window."""
        request = AccessRequest(
            request_id=self._next_id,
            kind=kind,
            row=row,
            enqueued_ref=current_ref,
            nbytes=nbytes,
            bank=bank,
        )
        self._next_id += 1
        if row is None:
            self._flexible.append(request)
        else:
            slot = self.refresh.ref_slot_for_row(row)
            self._slot_buckets.setdefault(slot, []).append(request)
            heapq.heappush(
                self._age_heap,
                (request.enqueued_ref, request.request_id, request),
            )
        self.pending_count += 1
        return request

    # -- drain -------------------------------------------------------------

    def drain(
        self, ref_index: int, pressure: bool = False
    ) -> List[ExecutedAccess]:
        """Execute accesses in the ``ref_index``-th refresh window.

        Legacy entry point: builds the policy's window for ``ref_index``
        and delegates to :meth:`drain_window` (identical behavior under
        the default all-bank policy).
        """
        return self.drain_window(
            self.refresh.window(ref_index), pressure=pressure
        )

    def drain_window(
        self, window: RefreshWindow, pressure: bool = False
    ) -> List[ExecutedAccess]:
        """Execute up to the window's access budget during ``window``.

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
        executed: List[ExecutedAccess] = []

        # (1) flexible writebacks ride the current refresh rows.
        while budget and self._flexible:
            request = self._flexible.popleft()
            request.served = True
            executed.append(
                ExecutedAccess(request=request, ref_index=ref_index, conditional=True)
            )
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
                    request = bucket.pop(0)
                    request.served = True
                    executed.append(
                        ExecutedAccess(
                            request=request, ref_index=ref_index, conditional=True
                        )
                    )
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
                    bucket.pop(position)
                    request.served = True
                    executed.append(
                        ExecutedAccess(
                            request=request, ref_index=ref_index, conditional=True
                        )
                    )
                    budget -= 1
            if not bucket:
                del self._slot_buckets[slot]

        # (3) randoms for the oldest requests, subarray conflicts avoided.
        while budget and random_budget and self._age_heap:
            enqueued_ref, _, request = self._age_heap[0]
            if request.served:
                heapq.heappop(self._age_heap)
                continue
            old_enough = ref_index - enqueued_ref >= self.random_age_refs
            if not (pressure or old_enough):
                break
            assert request.row is not None
            if not self.refresh.random_allowed_in_window(request.row, window):
                # Subarray conflict with a refreshing row: the reorder
                # logic defers this request to the next window.
                break
            heapq.heappop(self._age_heap)
            self._remove_from_bucket(request)
            request.served = True
            executed.append(
                ExecutedAccess(
                    request=request, ref_index=ref_index, conditional=False
                )
            )
            budget -= 1
            random_budget -= 1

        self.pending_count -= len(executed)
        if executed and _trace.tracing_enabled():
            # Pure emission: the window placement decisions above are
            # unchanged whether or not a trace ring is attached.
            for access in executed:
                _trace.instant(
                    "window_access",
                    _trace.TRACK_NMA,
                    args={
                        "kind": access.request.kind.value,
                        "conditional": access.conditional,
                        "row": access.request.row,
                        "request_id": access.request.request_id,
                        "waited_refs": access.waited_refs,
                    },
                )
        return executed

    def _remove_from_bucket(self, request: AccessRequest) -> None:
        assert request.row is not None
        slot = self.refresh.ref_slot_for_row(request.row)
        bucket = self._slot_buckets.get(slot)
        if not bucket:
            return
        # By identity: the dataclass ``__eq__`` compares every field.
        for position, queued in enumerate(bucket):
            if queued is request:
                del bucket[position]
                break
        if not bucket:
            del self._slot_buckets[slot]

    # -- introspection --------------------------------------------------------

    def oldest_wait_refs(self, ref_index: int) -> int:
        """Age (in REFs) of the oldest pending fixed-row request."""
        while self._age_heap and self._age_heap[0][2].served:
            heapq.heappop(self._age_heap)
        if not self._age_heap:
            return 0
        return ref_index - self._age_heap[0][0]
