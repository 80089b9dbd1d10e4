"""The lossless contract, stated once.

Offload is invisible and lossless: every *acknowledged* page comes back
byte-exact, or its loss is an explicit typed error — never wrong bytes.
A :class:`ShadowOracle` holds the acknowledged bytes host-side and is
the only code that compares what a stack returned with them. A wrong or
unowned return is a **silent** corruption (the contract broke; a
``chaos_loss`` flight record is cut); a loss the stack itself reported
(:class:`~repro.errors.CorruptedBlobError`, a ``missing`` completion) is
**explicit** — allowed under media faults, but counted.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.telemetry import flightrec as _flightrec


class ShadowOracle:
    """Acknowledged page bytes by key, and the verdicts drawn from them."""

    def __init__(self) -> None:
        self._acked: Dict[int, bytes] = {}
        self.verified = 0
        self.silent_corruptions = 0
        self.explicit_losses = 0

    def __len__(self) -> int:
        return len(self._acked)

    def keys(self) -> List[int]:
        """Acknowledged keys, sorted (seeded campaigns draw from this)."""
        return sorted(self._acked)

    def ack(self, key: int, data: bytes) -> None:
        """The stack accepted ``data`` for ``key`` and now owes it back."""
        self._acked[key] = data

    def forget(self, key: int) -> None:
        """The owner dropped ``key`` on purpose (invalidate)."""
        self._acked.pop(key, None)

    def check(self, key: int, data: Optional[bytes], phase: str) -> bool:
        """Verdict on one exclusive load: the page returns to its owner,
        so the acknowledgement is consumed either way. Anything but the
        acknowledged bytes — including bytes for a key nobody was owed —
        is silent corruption."""
        expect = self._acked.pop(key, None)
        if expect is not None and data == expect:
            self.verified += 1
            return True
        self.silent_corruptions += 1
        _flightrec.trigger(
            _flightrec.REASON_CHAOS_LOSS, {"key": key, "phase": phase}
        )
        return False

    def lost(self, key: int) -> bool:
        """The stack reported ``key`` gone with a typed error; returns
        whether the page had been acknowledged (and is now counted)."""
        if self._acked.pop(key, None) is None:
            return False
        self.explicit_losses += 1
        return True

    def sweep(self, fetch: Callable[[int], Optional[bytes]]) -> Dict[str, int]:
        """Read every acknowledged page back through ``fetch`` (``None``
        = not found) without consuming the acknowledgements."""
        lost = corrupt = 0
        for key in self.keys():
            data = fetch(key)
            if data is None:
                lost += 1
            elif data != self._acked[key]:
                corrupt += 1
        return {"checked": len(self._acked), "lost": lost, "corrupt": corrupt}
