"""Differential oracles: cross-implementation agreement checks.

Three families of oracle, all raising :class:`OracleMismatch` with a
precise diff on disagreement:

* **codec vs stdlib zlib** — our codecs are from-scratch and their
  containers are not RFC 1950 interchangeable, so the overlap with zlib
  is semantic, not bitwise: both must round-trip the same plaintext
  byte-exactly, and for the Deflate family (the algorithm zlib
  implements) compressed sizes must land in a fixed band around zlib's.

* **emulator vs xfm_module** — the optimistic refresh-window engine
  (:class:`~repro.core.refresh_channel.WindowScheduler` driven exactly
  the way :class:`~repro.core.refresh_channel.XfmDevice` drives it) and the
  FSM-protocol-checked :class:`~repro.core.xfm_module.XfmModule` replay
  the *same* offload batch; they must service the same requests in the
  same windows with the same conditional/random split, and the module
  path must complete with zero
  :class:`~repro.errors.DramProtocolError`.

* **command-trace replay** — the module's emitted command stream is
  re-validated from scratch by :class:`~repro.dram.trace.TraceValidator`
  (independent bank FSM instances), so a bug in the module's in-line
  checking cannot self-certify.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compression.base import Codec
from repro.core.refresh_channel import AccessKind, WindowScheduler
from repro.core.xfm_module import XfmModule
from repro.dram.device import DDR5_32GB, DramDeviceConfig, timings_for_device
from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import DramTimings
from repro.dram.trace import TraceStats, TraceValidator
from repro.errors import ReproError
from repro.validation.generators import OffloadOp


class OracleMismatch(ReproError, AssertionError):
    """Two implementations that must agree disagreed."""


# -- codec oracles -----------------------------------------------------------


def check_roundtrip(codec: Codec, data: bytes) -> bytes:
    """Byte-exact round-trip through ``codec``; returns the blob."""
    blob = codec.compress(data)
    restored = codec.decompress(blob)
    if restored != data:
        prefix = next(
            (
                i
                for i, (a, b) in enumerate(zip(restored, data))
                if a != b
            ),
            min(len(restored), len(data)),
        )
        raise OracleMismatch(
            f"{codec.name}: round-trip mismatch on {len(data)}-byte input "
            f"(restored {len(restored)} bytes, first divergence at "
            f"offset {prefix})"
        )
    return blob


def decode_outcome(decompress, blob: bytes) -> Tuple:
    """What ``decompress(blob)`` did, as a comparable value: the bytes,
    or the exception's type and message. Two decoders of one format
    agree on a blob when their outcomes are equal."""
    try:
        return ("ok", decompress(blob))
    except Exception as exc:  # the outcome under comparison, not handled
        return (type(exc).__name__, str(exc))


def crosscheck_vs_zlib(
    codec: Codec,
    data: bytes,
    size_band: Optional[Tuple[float, float]] = None,
) -> Tuple[int, int]:
    """Differential round-trip against stdlib zlib on the same plaintext.

    Both stacks must restore ``data`` exactly from their own containers.
    When ``size_band=(low, high)`` is given (the Deflate-family case,
    where the algorithms overlap), our compressed size must satisfy
    ``low * zlib_size <= ours <= high * zlib_size``. Returns
    ``(our_size, zlib_size)``.
    """
    blob = check_roundtrip(codec, data)
    reference = zlib.compress(data, 6)
    if zlib.decompress(reference) != data:  # pragma: no cover — stdlib
        raise OracleMismatch("stdlib zlib failed its own round-trip")
    if size_band is not None and data:
        low, high = size_band
        if not low * len(reference) <= len(blob) <= high * len(reference):
            raise OracleMismatch(
                f"{codec.name}: compressed {len(data)} bytes to "
                f"{len(blob)}, outside [{low}, {high}] x zlib's "
                f"{len(reference)}"
            )
    return len(blob), len(reference)


# -- emulator vs xfm_module --------------------------------------------------


@dataclass
class ReplayResult:
    """What one path serviced while replaying an offload batch."""

    serviced: int = 0
    conditional: int = 0
    random: int = 0
    bytes_moved: int = 0
    #: ref index -> number of accesses executed in that window.
    per_window: Dict[int, int] = field(default_factory=dict)
    #: request ids in execution order (both paths number submissions
    #: identically, so these must match element-wise).
    order: List[int] = field(default_factory=list)


def _record(result: ReplayResult, executed, ref: int) -> None:
    for request in executed:
        result.serviced += 1
        if request.conditional:
            result.conditional += 1
        else:
            result.random += 1
        result.bytes_moved += request.nbytes
        result.order.append(request.request_id)
    if executed:
        result.per_window[ref] = (
            result.per_window.get(ref, 0) + len(executed)
        )


def replay_batch_optimistic(
    batch: Sequence[OffloadOp],
    device: DramDeviceConfig = DDR5_32GB,
    timings: Optional[DramTimings] = None,
    accesses_per_ref: int = 3,
    random_per_ref: int = 1,
    num_refs: Optional[int] = None,
    pressure: bool = False,
) -> ReplayResult:
    """The emulator's engine: a bare :class:`WindowScheduler` over a
    :class:`RefreshScheduler`, no bank state machines — exactly the
    optimistic path :meth:`XfmDevice.process_window` drives."""
    timings = timings if timings is not None else timings_for_device(device)
    scheduler = WindowScheduler(
        refresh=RefreshScheduler(device, timings),
        accesses_per_ref=accesses_per_ref,
        random_per_ref=random_per_ref,
    )
    result = ReplayResult()
    for ref in range(_horizon(batch, num_refs)):
        for op in batch:
            if op.ref == ref:
                scheduler.submit(
                    AccessKind.WRITE if op.is_write else AccessKind.READ,
                    op.row,
                    ref,
                    nbytes=op.nbytes,
                )
        executed = scheduler.drain_window(ref, pressure=pressure)
        _record(result, executed, ref)
    return result


def replay_batch_module(
    batch: Sequence[OffloadOp],
    device: DramDeviceConfig = DDR5_32GB,
    timings: Optional[DramTimings] = None,
    accesses_per_ref: int = 3,
    random_per_ref: int = 1,
    num_refs: Optional[int] = None,
    pressure: bool = False,
) -> Tuple[ReplayResult, XfmModule]:
    """The FSM-checked path: every scheduler decision is executed by
    :class:`XfmModule` against real rank/bank state, raising
    :class:`~repro.errors.DramProtocolError` on any illegal access."""
    module = XfmModule(
        device=device,
        timings=timings,
        accesses_per_ref=accesses_per_ref,
        random_per_ref=random_per_ref,
    )
    result = ReplayResult()
    for ref in range(_horizon(batch, num_refs)):
        for op in batch:
            if op.ref == ref:
                if op.is_write:
                    module.submit_write(op.row, nbytes=op.nbytes)
                else:
                    module.submit_read(op.row, nbytes=op.nbytes)
        _record(result, module.step(pressure=pressure), ref)
    return result, module


def _horizon(batch: Sequence[OffloadOp], num_refs: Optional[int]) -> int:
    if num_refs is not None:
        return num_refs
    last = max((op.ref for op in batch), default=0)
    # Drain slack: every fixed row meets its refresh slot within one
    # retention period (8192 REFs) — cap well below that for test speed.
    return last + 64


def differential_offload_check(
    batch: Sequence[OffloadOp],
    device: DramDeviceConfig = DDR5_32GB,
    timings: Optional[DramTimings] = None,
    accesses_per_ref: int = 3,
    random_per_ref: int = 1,
    num_refs: Optional[int] = None,
    pressure: bool = False,
    validate_trace: bool = True,
) -> Tuple[ReplayResult, ReplayResult]:
    """Replay ``batch`` through both paths and require exact agreement.

    Any :class:`~repro.errors.DramProtocolError` from the module path
    propagates (zero tolerance); disagreement in service counts, window
    placement, execution order, or conditional/random split raises
    :class:`OracleMismatch`. With ``validate_trace`` the module's command
    stream is additionally replayed through an independent
    :class:`TraceValidator`.
    """
    optimistic = replay_batch_optimistic(
        batch,
        device=device,
        timings=timings,
        accesses_per_ref=accesses_per_ref,
        random_per_ref=random_per_ref,
        num_refs=num_refs,
        pressure=pressure,
    )
    checked, module = replay_batch_module(
        batch,
        device=device,
        timings=timings,
        accesses_per_ref=accesses_per_ref,
        random_per_ref=random_per_ref,
        num_refs=num_refs,
        pressure=pressure,
    )
    if optimistic.serviced != checked.serviced:
        raise OracleMismatch(
            f"serviced counts diverge: optimistic {optimistic.serviced} "
            f"vs FSM-checked {checked.serviced}"
        )
    if optimistic.order != checked.order:
        first = next(
            i
            for i, (a, b) in enumerate(
                zip(optimistic.order, checked.order)
            )
            if a != b
        )
        raise OracleMismatch(
            f"execution order diverges at position {first}: "
            f"optimistic request {optimistic.order[first]} vs "
            f"FSM-checked {checked.order[first]}"
        )
    if (optimistic.conditional, optimistic.random) != (
        checked.conditional,
        checked.random,
    ):
        raise OracleMismatch(
            "conditional/random split diverges: optimistic "
            f"{optimistic.conditional}/{optimistic.random} vs FSM-checked "
            f"{checked.conditional}/{checked.random}"
        )
    if optimistic.per_window != checked.per_window:
        raise OracleMismatch(
            "per-window service counts diverge between the optimistic "
            "and FSM-checked paths"
        )
    if validate_trace:
        stats = check_command_trace(module)
        if stats.nma_accesses != checked.serviced:
            raise OracleMismatch(
                f"trace replay counted {stats.nma_accesses} NMA accesses "
                f"but the module serviced {checked.serviced}"
            )
    return optimistic, checked


def check_command_trace(module: XfmModule) -> TraceStats:
    """Replay the module's emitted command stream through an independent
    :class:`TraceValidator` (fresh bank FSMs and refresh schedule)."""
    validator = TraceValidator(
        module.device, module.timings, num_ranks=module.rank.index + 1
    )
    return validator.validate(module.commands)
