"""XFM_Driver: the host-side kernel-driver shim (§6).

The driver exposes the DIMM through ioctl-style primitives over MMIO:
``xfm_paramset`` programs the SFM region, ``submit_compress`` /
``submit_decompress`` push offloads into the Compress_Request_Queue, and
the SPM occupancy is tracked *lazily*: the driver keeps an upper bound on
consumed scratchpad bytes and only reads ``SP_Capacity_Register`` when that
bound says the SPM might be full. If the register confirms exhaustion, the
call raises and the backend runs ``CPU_Fallback``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.nma import NearMemoryAccelerator, OffloadRequest
from repro.core.registers import SP_CAPACITY, Registers
from repro.errors import (
    ConfigError,
    DeviceFault,
    QueueFullError,
    SpmFullError,
)
from repro.resilience import faults as _faults
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.stats import Stats

IOCTL_PARAMSET = 0x5801
IOCTL_COMPACT = 0x5802


class DriverStats(Stats):
    """MMIO/synchronization accounting (plain fields, registry views)."""

    _PREFIX = "driver"
    _FIELDS = {
        "mmio_reads": 0,
        "mmio_writes": 0,
        "capacity_syncs": 0,
        "submissions": 0,
        "rejected_submissions": 0,
        # Resilience: doorbells the device never saw / stalls observed.
        "device_faults": 0,
        # Register reads whose value failed the driver's sanity check
        # and were re-read (injected ``driver.reg_corruption``).
        "corrupt_register_reads": 0,
    }
    __slots__ = tuple(_FIELDS)


class XfmDriver:
    """Host interface to one XFM DIMM."""

    def __init__(
        self,
        nma: NearMemoryAccelerator,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[dict] = None,
    ) -> None:
        self.nma = nma
        self.stats = DriverStats(registry=registry, labels=labels)
        #: Lazy upper bound on SPM bytes consumed by our submissions.
        self._inferred_spm_used = 0
        self._sfm_base = 0
        self._sfm_size = 0

    # -- ioctl surface --------------------------------------------------------

    def ioctl(self, cmd: int, arg: object) -> int:
        """Character-device ioctl dispatch (§6's Linux integration)."""
        if cmd == IOCTL_PARAMSET:
            base, size = arg  # type: ignore[misc]
            return self.xfm_paramset(base, size)
        if cmd == IOCTL_COMPACT:
            return 0  # compaction is a host-side memcpy path (§6)
        raise ConfigError(f"unknown ioctl 0x{cmd:x}")

    def xfm_paramset(self, sfm_base: int, sfm_size: int) -> int:
        """Program the SFM region base/size configuration registers."""
        if sfm_base < 0 or sfm_size <= 0:
            raise ConfigError("SFM region must have positive size")
        self._mmio_write(Registers.SFM_BASE, sfm_base)
        self._mmio_write(Registers.SFM_SIZE, sfm_size)
        self._mmio_write(Registers.CTRL, 1)
        self._sfm_base = sfm_base
        self._sfm_size = sfm_size
        return 0

    # -- MMIO helpers ------------------------------------------------------------

    def _mmio_read(self, register: Registers) -> int:
        self.stats.mmio_reads += 1
        value = self.nma.registers.mmio_read(int(register))
        if _faults.injection_enabled():
            event = _faults.fire(_faults.DRIVER_REG_CORRUPTION)
            if event is not None:
                # XOR in a guaranteed-high bit so the corruption lands
                # outside any register's legal range — detectable by the
                # sanity checks, deterministic per (seed, site, seq).
                value ^= event.salt | (1 << 62)
        return value

    def _mmio_write(self, register: Registers, value: int) -> None:
        self.stats.mmio_writes += 1
        self.nma.registers.mmio_write(int(register), value)

    def sp_capacity(self) -> int:
        """Read the SP_Capacity_Register (free SPM bytes).

        The value is sanity-checked against the SPM's physical capacity:
        a corrupted read is counted, re-read once, and raises
        :class:`~repro.errors.DeviceFault` if still implausible rather
        than letting a garbage capacity steer placement.
        """
        capacity = self.nma.spm.capacity_bytes
        free = self._mmio_read(SP_CAPACITY)
        if not 0 <= free <= capacity:
            self.stats.corrupt_register_reads += 1
            free = self._mmio_read(SP_CAPACITY)
            if not 0 <= free <= capacity:
                self.stats.device_faults += 1
                raise DeviceFault(
                    f"SP_Capacity_Register read implausible twice "
                    f"(0x{free:x} vs capacity {capacity})"
                )
        return free

    # -- offload submission ----------------------------------------------------------

    def _check_submit_faults(self) -> None:
        """Injected submit-path failures, evaluated before any state is
        reserved so nothing needs unwinding:

        - ``driver.lost_doorbell`` — the MMIO doorbell write never
          reached the device: transient :class:`DeviceFault`, the caller
          retries.
        - ``driver.spm_full`` / ``driver.queue_full`` — forced resource
          exhaustion independent of actual occupancy, so the per-reason
          CPU-fallback accounting can be exercised at will.
        """
        if _faults.fire(_faults.DRIVER_LOST_DOORBELL) is not None:
            self.stats.device_faults += 1
            raise DeviceFault("doorbell write lost before the device saw it")
        if _faults.fire(_faults.DRIVER_SPM_FULL) is not None:
            self.stats.rejected_submissions += 1
            raise SpmFullError("injected SPM exhaustion")
        if _faults.fire(_faults.DRIVER_QUEUE_FULL) is not None:
            self.stats.rejected_submissions += 1
            raise QueueFullError("injected Compress_Request_Queue exhaustion")

    def submit_compress(
        self, source_row: int, input_bytes: int, dest_row: Optional[int] = None
    ) -> OffloadRequest:
        """``xfm_compress()``: queue a compression offload.

        Raises :class:`SpmFullError` (caller falls back to the CPU) when
        the scratchpad truly has no room, or
        :class:`~repro.errors.QueueFullError` when the CRQ is full.
        """
        if _faults.injection_enabled():
            self._check_submit_faults()
        self._reserve_spm(input_bytes)
        request = self.nma.submit(
            is_compress=True,
            source_row=source_row,
            dest_row=dest_row,
            input_bytes=input_bytes,
        )
        self.stats.mmio_writes += 1  # CRQ tail doorbell
        self.stats.submissions += 1
        if _trace.tracing_enabled():
            _trace.instant(
                "doorbell",
                _trace.TRACK_DRIVER,
                args={
                    "op": "compress",
                    "request_id": request.request_id,
                    "bytes": input_bytes,
                },
            )
        return request

    def submit_decompress(
        self, source_row: int, input_bytes: int, dest_row: int,
        output_bytes: int = 4096,
    ) -> OffloadRequest:
        """``xfm_decompress()``: queue a decompression offload.

        The SPM reservation is the *output* page size — decompression
        inflates, so the staging buffer must hold the result.
        """
        if _faults.injection_enabled():
            self._check_submit_faults()
        self._reserve_spm(output_bytes)
        request = self.nma.submit(
            is_compress=False,
            source_row=source_row,
            dest_row=dest_row,
            input_bytes=input_bytes,
        )
        self.stats.mmio_writes += 1
        self.stats.submissions += 1
        if _trace.tracing_enabled():
            _trace.instant(
                "doorbell",
                _trace.TRACK_DRIVER,
                args={
                    "op": "decompress",
                    "request_id": request.request_id,
                    "bytes": input_bytes,
                },
            )
        return request

    def _reserve_spm(self, nbytes: int) -> None:
        """Lazy occupancy check: sync with hardware only on inferred-full."""
        capacity = self.nma.spm.capacity_bytes
        if self._inferred_spm_used + nbytes > capacity:
            self.stats.capacity_syncs += 1
            free = self.sp_capacity()
            self._inferred_spm_used = capacity - free
            if _trace.tracing_enabled():
                _trace.instant(
                    "capacity_sync",
                    _trace.TRACK_DRIVER,
                    args={"free_bytes": free, "need_bytes": nbytes},
                )
            if self._inferred_spm_used + nbytes > capacity:
                self.stats.rejected_submissions += 1
                raise SpmFullError(
                    f"SPM exhausted: need {nbytes}, free {free}"
                )
        self._inferred_spm_used += nbytes

    def notify_release(self, nbytes: int) -> None:
        """Optional fast-path hint when the host observes a writeback
        completion; keeps the inferred bound tight without an MMIO read."""
        self._inferred_spm_used = max(0, self._inferred_spm_used - nbytes)
