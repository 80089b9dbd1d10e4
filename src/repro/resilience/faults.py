"""Seeded, zero-cost-when-disabled fault injection.

Hot paths across the device models call::

    if _faults.injection_enabled():
        event = _faults.fire(_faults.SPM_READ_FLIP)
        if event is not None:
            ...  # apply the fault

When no injector is installed (the default) the guard is one read of
the run context's ``injector`` field (:mod:`repro.sim.context`), cheap
enough to leave in the swap hot paths. When an injector is installed
(``with run_context(injector=FaultInjector(plan)):``), each call site
draws from a per-site RNG derived from the plan seed, so a campaign
with the same seed fires the same faults at the same call indices every
run.

Fault *application* is the call site's job; this module only decides
*whether* a site fires and hands back a :class:`FaultEvent` whose
``salt`` deterministically parameterises the fault (which bit to flip,
how large a latency spike, ...). :func:`corrupt_bytes` is the shared
deterministic corruption primitive.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim import context as _context

# -- injection sites -------------------------------------------------------

#: SPM: a bit flip observed when reading a staged payload back.
SPM_READ_FLIP = "spm.read_flip"
#: NMA: a (de)compression operation stalls past its deadline.
NMA_TIMEOUT = "nma.timeout"
#: Driver: a doorbell write is lost before the device sees it.
DRIVER_LOST_DOORBELL = "driver.lost_doorbell"
#: Driver: an MMIO register read returns a corrupted value.
DRIVER_REG_CORRUPTION = "driver.reg_corruption"
#: Driver: forced SPM-exhaustion on submit (capacity-independent).
DRIVER_SPM_FULL = "driver.spm_full"
#: Driver: forced request-queue exhaustion on submit.
DRIVER_QUEUE_FULL = "driver.queue_full"
#: Zpool: a load returns a corrupted copy (media is intact; retry heals).
ZPOOL_READ_CORRUPTION = "zpool.read_corruption"
#: Zpool: the backing slab itself is corrupted (persistent; page is lost).
ZPOOL_MEDIA_CORRUPTION = "zpool.media_corruption"
#: DFM: a transient link error aborts the transfer.
DFM_LINK_ERROR = "dfm.link_error"
#: DFM: a latency spike multiplies the transfer time.
DFM_LATENCY_SPIKE = "dfm.latency_spike"

ALL_SITES: Tuple[str, ...] = (
    SPM_READ_FLIP,
    NMA_TIMEOUT,
    DRIVER_LOST_DOORBELL,
    DRIVER_REG_CORRUPTION,
    DRIVER_SPM_FULL,
    DRIVER_QUEUE_FULL,
    ZPOOL_READ_CORRUPTION,
    ZPOOL_MEDIA_CORRUPTION,
    DFM_LINK_ERROR,
    DFM_LATENCY_SPIKE,
)


# -- plan / schedule -------------------------------------------------------

@dataclass(frozen=True)
class FaultSpec:
    """Schedule for one injection site.

    ``probability`` is the per-call chance of firing once the site is
    eligible; ``skip_calls`` makes the first N calls immune (lets a
    workload warm up before faults start); ``max_fires`` bounds the
    total number of fires (0 = unbounded); ``magnitude`` is a free
    site-interpreted parameter (e.g. the latency-spike multiplier).
    """

    site: str
    probability: float = 0.0
    skip_calls: int = 0
    max_fires: int = 0
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ConfigError(f"unknown injection site {self.site!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.skip_calls < 0 or self.max_fires < 0:
            raise ConfigError("skip_calls/max_fires must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus one :class:`FaultSpec` per targeted site."""

    seed: int
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        sites = [spec.site for spec in self.specs]
        if len(sites) != len(set(sites)):
            raise ConfigError("FaultPlan has duplicate sites")


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault: which site, the per-site fire ordinal, the
    deterministic salt parameterising the fault, and its spec."""

    site: str
    seq: int
    salt: int
    spec: FaultSpec


def _site_seed(seed: int, site: str) -> int:
    digest = hashlib.blake2b(
        f"{seed}:{site}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _event_salt(seed: int, site: str, seq: int) -> int:
    digest = hashlib.blake2b(
        f"{seed}:{site}:{seq}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class FaultInjector:
    """Evaluates a :class:`FaultPlan`: one independent seeded RNG per
    site, so adding a site to a plan never perturbs another site's
    schedule, and the same (seed, site, call index) always yields the
    same decision."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rngs: Dict[str, random.Random] = {}
        self._specs: Dict[str, FaultSpec] = {}
        for spec in plan.specs:
            self._rngs[spec.site] = random.Random(
                _site_seed(plan.seed, spec.site)
            )
            self._specs[spec.site] = spec
        #: site -> number of times the site was evaluated.
        self.calls: Dict[str, int] = {site: 0 for site in self._specs}
        #: site -> number of times the site fired.
        self.fires: Dict[str, int] = {site: 0 for site in self._specs}
        #: every fired event, in firing order (feeds the chaos report).
        self.log: List[FaultEvent] = []

    def evaluate(self, site: str) -> Optional[FaultEvent]:
        spec = self._specs.get(site)
        if spec is None:
            return None
        index = self.calls[site]
        self.calls[site] = index + 1
        # Draw unconditionally so a spec tweak (skip_calls/max_fires)
        # never shifts the random stream of later calls.
        draw = self._rngs[site].random()
        if index < spec.skip_calls:
            return None
        if spec.max_fires and self.fires[site] >= spec.max_fires:
            return None
        if draw >= spec.probability:
            return None
        seq = self.fires[site]
        self.fires[site] = seq + 1
        event = FaultEvent(
            site=site,
            seq=seq,
            salt=_event_salt(self.plan.seed, site, seq),
            spec=spec,
        )
        self.log.append(event)
        return event

    @property
    def total_fires(self) -> int:
        return sum(self.fires.values())

    def summary(self) -> Dict[str, int]:
        """Fired-count per site, only sites that fired (stable keys)."""
        return {
            site: count
            for site, count in sorted(self.fires.items())
            if count
        }


# -- hot-path guard (reads the run context) --------------------------------

def injection_enabled() -> bool:
    """Whether fault injection is active (the hot-path guard)."""
    return _context._current.injector is not None


def fire(site: str) -> Optional[FaultEvent]:
    """Evaluate ``site`` against the active schedule.

    Returns the :class:`FaultEvent` when the site fires, else ``None``.
    Callers on hot paths should guard with :func:`injection_enabled`
    first so the disabled cost is one field read.
    """
    injector = _context._current.injector
    if injector is None:
        return None
    return injector.evaluate(site)


# -- deterministic corruption primitive ------------------------------------

def corrupt_bytes(data: bytes, salt: int) -> bytes:
    """Flip one bit of ``data`` at a position derived from ``salt``.

    Deterministic: the same (data length, salt) flips the same bit, so a
    replayed campaign corrupts identically. Empty input is returned
    unchanged (there is no bit to flip).
    """
    if not data:
        return data
    bit = salt % (len(data) * 8)
    byte_index, bit_index = divmod(bit, 8)
    corrupted = bytearray(data)
    corrupted[byte_index] ^= 1 << bit_index
    return bytes(corrupted)
