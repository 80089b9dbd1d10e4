"""Deterministic stdlib-only fuzz micro-framework.

A tiny property-testing engine with the three features the validation
suite needs and nothing else:

* **single-seed reproduction** — every case is generated from a *case
  seed* derived purely from ``(root seed, run index)``; a failure
  message prints that one integer and :func:`fuzz_reproduce`
  regenerates the exact case from it, independent of run counts, time
  budgets, or which run tripped;
* **shrinking** — on failure the framework greedily minimizes the case
  with type-directed candidates (shorter lists/bytes, smaller ints,
  field-wise tuple shrinks) while the property keeps failing;
* **time budgets** — a wall-clock cap (for CI smoke runs) that stops
  *generating new cases* without affecting determinism of the cases
  that do run.

Usage::

    fuzzer = Fuzzer(seed=1234, runs=200)
    fuzzer.run(gen_page, lambda page: check_roundtrip(codec, page))

On failure a :class:`FuzzFailure` is raised whose message contains the
``case_seed=`` line; reproduce with::

    fuzz_reproduce(gen_page, check, case_seed=<printed value>)
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Iterable, Iterator, List, Optional

from repro.errors import ReproError

#: Safety valve for the greedy shrink loop.
_MAX_SHRINK_ATTEMPTS = 400


def case_seed(root_seed: int, index: int) -> int:
    """The derived seed for run ``index`` of a fuzzer rooted at
    ``root_seed`` — a pure function, stable across platforms and runs."""
    digest = hashlib.blake2b(
        f"repro.fuzz:{root_seed}:{index}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class FuzzFailure(ReproError, AssertionError):
    """A fuzzed property failed; carries everything needed to reproduce."""

    def __init__(
        self,
        message: str,
        *,
        seed: int,
        run: int,
        failing_seed: int,
        case: Any,
        shrunk: Any,
        cause: BaseException,
    ) -> None:
        super().__init__(message)
        self.seed = seed
        self.run = run
        self.case_seed = failing_seed
        self.case = case
        self.shrunk = shrunk
        self.cause = cause


@dataclass
class FuzzReport:
    """Outcome of a completed (non-failing) fuzz run."""

    seed: int
    cases_run: int
    elapsed_s: float
    stopped_by_budget: bool = False


@dataclass
class Fuzzer:
    """Deterministic property fuzzer.

    ``runs`` bounds the number of cases; ``time_budget_s`` (optional)
    additionally stops the loop once the wall clock is spent — whichever
    comes first.
    """

    seed: int
    runs: int = 100
    time_budget_s: Optional[float] = None
    #: Shrink candidates tried per accepted reduction (breadth cap).
    shrink_attempts: int = _MAX_SHRINK_ATTEMPTS

    def run(
        self,
        generate: Callable[[random.Random], Any],
        check: Callable[[Any], None],
        shrink: Optional[Callable[[Any], Iterable[Any]]] = None,
    ) -> FuzzReport:
        """Generate and check up to ``runs`` cases; raise on failure.

        ``generate(rng)`` builds one case from a seeded
        ``random.Random``; ``check(case)`` raises (any exception) to
        signal a failing property; ``shrink(case)`` optionally yields
        reduced candidate cases (defaults to :func:`shrink_candidates`).
        """
        started = time.monotonic()
        cases_run = 0
        stopped = False
        for index in range(self.runs):
            if (
                self.time_budget_s is not None
                and time.monotonic() - started >= self.time_budget_s
            ):
                stopped = True
                break
            derived = case_seed(self.seed, index)
            case = generate(random.Random(derived))
            try:
                check(case)
            except Exception as exc:  # noqa: BLE001 — any failure counts
                self._fail(index, derived, case, exc, check, shrink)
            cases_run += 1
        return FuzzReport(
            seed=self.seed,
            cases_run=cases_run,
            elapsed_s=time.monotonic() - started,
            stopped_by_budget=stopped,
        )

    def _fail(
        self,
        index: int,
        derived: int,
        case: Any,
        exc: BaseException,
        check: Callable[[Any], None],
        shrink: Optional[Callable[[Any], Iterable[Any]]],
    ) -> None:
        shrunk = self._shrink(case, check, shrink or shrink_candidates)
        message = (
            f"fuzz property failed on run {index} (root seed {self.seed})\n"
            f"  case_seed={derived}\n"
            f"  reproduce: fuzz_reproduce(generate, check, "
            f"case_seed={derived})\n"
            f"  failure: {type(exc).__name__}: {exc}\n"
            f"  case: {_render(case)}\n"
            f"  shrunk: {_render(shrunk)}"
        )
        raise FuzzFailure(
            message,
            seed=self.seed,
            run=index,
            failing_seed=derived,
            case=case,
            shrunk=shrunk,
            cause=exc,
        ) from exc

    def _shrink(
        self,
        case: Any,
        check: Callable[[Any], None],
        shrink: Callable[[Any], Iterable[Any]],
    ) -> Any:
        current = case
        attempts = 0
        improved = True
        while improved and attempts < self.shrink_attempts:
            improved = False
            for candidate in shrink(current):
                attempts += 1
                if attempts >= self.shrink_attempts:
                    break
                try:
                    check(candidate)
                except Exception:  # noqa: BLE001 — still failing: accept
                    current = candidate
                    improved = True
                    break
        return current


def fuzz_reproduce(
    generate: Callable[[random.Random], Any],
    check: Callable[[Any], None],
    case_seed: int,
) -> Any:
    """Re-run one case from its printed seed; returns the case if the
    property now holds, re-raises the original failure otherwise."""
    case = generate(random.Random(case_seed))
    check(case)
    return case


# -- generic shrinking -------------------------------------------------------


def _render(case: Any, limit: int = 160) -> str:
    text = repr(case)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def shrink_candidates(case: Any) -> Iterator[Any]:
    """Type-directed reduction candidates for ``case``.

    Lists/tuples drop chunks then elements, bytes shorten and zero out,
    ints move toward zero, dataclasses shrink field-wise. Unknown types
    yield nothing (no shrinking, which is always sound).
    """
    if isinstance(case, list):
        yield from _shrink_sequence(case, list)
    elif isinstance(case, tuple):
        yield from _shrink_sequence(list(case), lambda items: tuple(items))
    elif isinstance(case, (bytes, bytearray)):
        yield from _shrink_bytes(bytes(case))
    elif isinstance(case, bool):
        if case:
            yield False
    elif isinstance(case, int):
        yield from _shrink_int(case)
    elif is_dataclass(case) and not isinstance(case, type):
        for f in fields(case):
            value = getattr(case, f.name)
            for reduced in shrink_candidates(value):
                yield replace(case, **{f.name: reduced})


def _shrink_sequence(items: List[Any], rebuild: Callable) -> Iterator[Any]:
    n = len(items)
    if n == 0:
        return
    yield rebuild([])
    if n > 1:
        yield rebuild(items[: n // 2])
        yield rebuild(items[n // 2 :])
    for index in range(min(n, 16)):
        yield rebuild(items[:index] + items[index + 1 :])
    for index in range(min(n, 8)):
        for reduced in shrink_candidates(items[index]):
            yield rebuild(items[:index] + [reduced] + items[index + 1 :])


def _shrink_bytes(data: bytes) -> Iterator[bytes]:
    n = len(data)
    if n == 0:
        return
    yield b""
    if n > 1:
        yield data[: n // 2]
        yield data[n // 2 :]
        yield data[:-1]
    if any(byte != 0 for byte in data):
        yield bytes(n)


def _shrink_int(value: int) -> Iterator[int]:
    if value == 0:
        return
    yield 0
    if abs(value) > 1:
        yield value // 2
    if value < 0:
        yield -value
