"""Deterministic auto-tuner for the deflate matcher, per corpus domain.

Static tables (see :mod:`repro.compression.static_tables`) bake a token
distribution into the artifact, and that distribution depends on how the
matcher tokenizes: window size decides which back-references exist at all,
chain depth and lazy matching decide which of them get picked. Rather than
hard-coding one tuning for every corpus, the tuner scores a small grid of
matcher configurations against a deterministic sample of the domain's
pages and picks the one that compresses the sample smallest, with ties
broken toward the cheapest search (shallower chains, smaller windows,
greedy matching) so equal-ratio configs never burn extra work.

Everything here is deterministic — stride sampling, a fixed grid, integer
byte scores — so a re-run over the same corpus always picks the same
configuration and the persisted artifact stays byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.compression.deflate import DeflateCodec, train_static_tables
from repro.errors import ConfigError

#: ``(window_size, max_chain, lazy)`` candidates. Windows cover the 1 KiB
#: "zswap cell" shape through 2x-page; chain/lazy pairs span cheap-greedy
#: to the codec's default thorough search.
DEFAULT_GRID: Tuple[Tuple[int, int, bool], ...] = (
    (1024, 16, False),
    (1024, 64, True),
    (2048, 64, True),
    (4096, 16, False),
    (4096, 64, True),
    (8192, 64, True),
)

#: Pages scored per domain; stride-sampled so the sample spans the whole
#: corpus instead of its first files.
DEFAULT_SAMPLE_PAGES = 48


@dataclass(frozen=True)
class TuningChoice:
    """The winning configuration for one domain."""

    domain: str
    window_size: int
    max_chain: int
    lazy: bool
    #: Total compressed bytes of the sample under this configuration.
    compressed_bytes: int
    #: Uncompressed bytes of the scored sample (for ratio reporting).
    sample_bytes: int
    sample_pages: int

    @property
    def ratio(self) -> float:
        return self.sample_bytes / self.compressed_bytes


def stride_sample(pages: Sequence[bytes], limit: int) -> List[bytes]:
    """Up to ``limit`` pages, evenly strided across the corpus."""
    if limit <= 0:
        raise ConfigError("sample limit must be positive")
    if len(pages) <= limit:
        return list(pages)
    step = len(pages) / limit
    return [pages[int(i * step)] for i in range(limit)]


def tune_domain(
    domain: str,
    pages: Sequence[bytes],
    grid: Sequence[Tuple[int, int, bool]] = DEFAULT_GRID,
    sample_limit: int = DEFAULT_SAMPLE_PAGES,
) -> TuningChoice:
    """Score every grid point on a sample of ``pages`` and pick a winner.

    Each candidate is evaluated end-to-end the way it would actually run:
    tables trained on the sample with that matcher tuning, then every
    sample page compressed with those tables. The score is total compressed
    bytes; ties prefer ``(max_chain, window_size, lazy)`` ascending.
    """
    if not pages:
        raise ConfigError(f"domain {domain!r}: no pages to tune on")
    if not grid:
        raise ConfigError("tuning grid is empty")
    sample = [p for p in stride_sample(pages, sample_limit) if p]
    if not sample:
        raise ConfigError(f"domain {domain!r}: sample contains only empty pages")
    sample_bytes = sum(len(p) for p in sample)
    best = None
    best_key = None
    for window_size, max_chain, lazy in grid:
        tables = train_static_tables(
            sample,
            domain=domain,
            window_size=window_size,
            max_chain=max_chain,
            lazy=lazy,
        )
        codec = DeflateCodec(
            window_size=window_size,
            max_chain=max_chain,
            lazy=lazy,
            static_tables=tables,
        )
        total = sum(len(codec.compress(page)) for page in sample)
        key = (total, max_chain, window_size, lazy)
        if best_key is None or key < best_key:
            best_key = key
            best = TuningChoice(
                domain=domain,
                window_size=window_size,
                max_chain=max_chain,
                lazy=lazy,
                compressed_bytes=total,
                sample_bytes=sample_bytes,
                sample_pages=len(sample),
            )
    return best


def make_tuner(
    grid: Sequence[Tuple[int, int, bool]] = DEFAULT_GRID,
    sample_limit: int = DEFAULT_SAMPLE_PAGES,
    record: dict = None,
) -> Callable[[str, Sequence[bytes]], TuningChoice]:
    """A ``tuner(domain, pages)`` callback for
    :meth:`~repro.compression.static_tables.StaticTableRegistry.train_from_manifest`.
    When ``record`` is a dict, each domain's choice is stored in it so the
    caller can report what was picked."""

    def tuner(domain: str, pages: Sequence[bytes]) -> TuningChoice:
        choice = tune_domain(
            domain, pages, grid=grid, sample_limit=sample_limit
        )
        if record is not None:
            record[domain] = choice
        return choice

    return tuner
