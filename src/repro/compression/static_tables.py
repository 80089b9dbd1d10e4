"""Corpus-trained static Huffman tables: registry + persistence.

The deflate codec's dynamic mode spends header bytes and a table build on
every page. For pages that look like a known corpus (this repository's own
source tree is the first one, via :mod:`repro.scenarios.ingest`), a table
pair trained once over the whole corpus amortizes that cost to zero: the
encoder reuses the pre-rendered header and pre-built codes (blob mode 3),
and skips the per-page dynamic table build entirely.

This module owns everything *around* the tables: training them from an
ingested :class:`~repro.scenarios.ingest.CorpusManifest`, persisting them
(one deterministic JSON document holding code lengths, tuning parameters,
and provenance), and looking them up per domain. The blob format itself —
how a mode-3 blob embeds its own table header so it decodes *without* this
registry — lives in :mod:`repro.compression.deflate`.

The persisted document is deterministic (sorted keys, no timestamps): two
trainings over the same corpus with the same tuning produce byte-identical
files, which makes the artifact diffable and CI-comparable.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.compression.deflate import (
    DeflateCodec,
    StaticTableSet,
    train_static_tables,
)
from repro.errors import ConfigError, ManifestError

#: Bumped only for changes an old reader would misinterpret.
TABLES_SCHEMA_VERSION = 1

#: Default artifact shipped with the package (trained on this repo's own
#: source tree; regenerate with ``python -m repro codectune``).
DEFAULT_TABLES_PATH = Path(__file__).with_name("data") / "static_tables.json"
#: Its string form, built once at import. ``pathlib`` splits a path into
#: its components again for every new ``Path`` (one ``sys.intern`` per
#: component on Python 3.12), so the first-use load reads the string and
#: costs the same calls at any checkout depth.
_DEFAULT_TABLES_FILE = str(DEFAULT_TABLES_PATH)


@dataclass(frozen=True)
class TableEntry:
    """One domain's trained tables plus the tuning that produced them.

    The matcher parameters are part of the artifact on purpose: a static
    table is only as good as the token distribution it was trained on, so
    an encoder using the tables should tokenize with the same window and
    search depth the trainer (or the auto-tuner) chose.
    """

    tables: StaticTableSet
    window_size: int
    max_chain: int
    lazy: bool
    #: Where the training pages came from (e.g. the manifest root label).
    source_label: str
    num_pages: int

    @property
    def domain(self) -> str:
        return self.tables.domain

    def to_json(self) -> Dict[str, object]:
        return {
            "domain": self.domain,
            "table_id": self.tables.table_id,
            "litlen_lengths": list(self.tables.litlen_table.lengths),
            "dist_lengths": list(self.tables.dist_table.lengths),
            "tuning": {
                "window_size": self.window_size,
                "max_chain": self.max_chain,
                "lazy": self.lazy,
            },
            "provenance": {
                "source_label": self.source_label,
                "num_pages": self.num_pages,
            },
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "TableEntry":
        try:
            tables = StaticTableSet(
                list(doc["litlen_lengths"]),
                list(doc["dist_lengths"]),
                domain=str(doc["domain"]),
            )
            tuning = doc["tuning"]
            entry = cls(
                tables=tables,
                window_size=int(tuning["window_size"]),
                max_chain=int(tuning["max_chain"]),
                lazy=bool(tuning["lazy"]),
                source_label=str(doc["provenance"]["source_label"]),
                num_pages=int(doc["provenance"]["num_pages"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed table entry: {exc}") from exc
        if int(doc["table_id"]) != tables.table_id:
            # Lengths are the identity; a stale id means the file was
            # hand-edited or truncated.
            raise ManifestError(
                f"table entry {tables.domain!r}: declared id "
                f"{doc['table_id']:#x} != derived {tables.table_id:#x}"
            )
        return entry


class StaticTableRegistry:
    """Per-domain lookup of trained static tables.

    Purely an encode-side construct: mode-3 blobs are self-describing,
    so decode never consults a registry. The registry exists so swap
    paths and benchmarks can ask "which tables (and which matcher
    tuning) should pages of domain X use?" and get one answer that
    survives process restarts via :meth:`save`/:meth:`load`.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, TableEntry] = {}

    # -- population ----------------------------------------------------------

    def register(self, entry: TableEntry) -> None:
        self._entries[entry.domain] = entry

    def train(
        self,
        pages: Sequence[bytes],
        domain: str,
        window_size: int = 4096,
        max_chain: int = 64,
        lazy: bool = True,
        source_label: str = "unspecified",
    ) -> TableEntry:
        """Train tables for ``domain`` over ``pages`` and register them."""
        if not pages:
            raise ConfigError(f"domain {domain!r}: no pages to train on")
        tables = train_static_tables(
            pages,
            domain=domain,
            window_size=window_size,
            max_chain=max_chain,
            lazy=lazy,
        )
        entry = TableEntry(
            tables=tables,
            window_size=window_size,
            max_chain=max_chain,
            lazy=lazy,
            source_label=source_label,
            num_pages=len(pages),
        )
        self.register(entry)
        return entry

    def train_from_manifest(
        self,
        manifest,
        domains: Optional[Sequence[str]] = None,
        tuner=None,
    ) -> List[TableEntry]:
        """Train one entry per corpus domain of an ingested manifest.

        ``manifest`` is a :class:`~repro.scenarios.ingest.CorpusManifest`
        (typed loosely to keep this module import-light). When ``tuner``
        is given (see :mod:`repro.compression.tuning`), it picks the
        matcher parameters per domain; otherwise the training defaults
        apply.
        """
        wanted = sorted(manifest.domains) if domains is None else list(domains)
        entries = []
        for domain in wanted:
            pages = manifest.load_pages(domain)
            if not pages:
                continue
            if tuner is not None:
                choice = tuner(domain, pages)
                window_size = choice.window_size
                max_chain = choice.max_chain
                lazy = choice.lazy
            else:
                window_size, max_chain, lazy = 4096, 64, True
            entries.append(
                self.train(
                    pages,
                    domain,
                    window_size=window_size,
                    max_chain=max_chain,
                    lazy=lazy,
                    source_label=manifest.root_label,
                )
            )
        return entries

    # -- lookup --------------------------------------------------------------

    def domains(self) -> List[str]:
        return sorted(self._entries)

    def get(self, domain: str) -> TableEntry:
        try:
            return self._entries[domain]
        except KeyError:
            raise ConfigError(
                f"no static tables for domain {domain!r}; "
                f"have {self.domains()}"
            ) from None

    def find(self, domain: str) -> Optional[TableEntry]:
        return self._entries.get(domain)

    def by_table_id(self, table_id: int) -> Optional[TableEntry]:
        """Reverse lookup for tooling (blob forensics); decode does not
        need it — mode-3 blobs carry their own header."""
        for entry in self._entries.values():
            if entry.tables.table_id == table_id:
                return entry
        return None

    def codec_for(self, domain: str) -> DeflateCodec:
        """A deflate codec wired with ``domain``'s tables *and* the
        matcher tuning they were trained under."""
        entry = self.get(domain)
        return DeflateCodec(
            window_size=entry.window_size,
            max_chain=entry.max_chain,
            lazy=entry.lazy,
            static_tables=entry.tables,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, domain: str) -> bool:
        return domain in self._entries

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": TABLES_SCHEMA_VERSION,
            "entries": {
                domain: entry.to_json()
                for domain, entry in sorted(self._entries.items())
            },
        }

    def save(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "StaticTableRegistry":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ManifestError(f"no static-tables file at {path}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path} is corrupt JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("schema") != TABLES_SCHEMA_VERSION:
            raise ManifestError(
                f"{path}: unsupported schema {doc.get('schema')!r} "
                f"(expected {TABLES_SCHEMA_VERSION})"
            )
        registry = cls()
        for domain, entry_doc in doc.get("entries", {}).items():
            entry = TableEntry.from_json(entry_doc)
            if entry.domain != domain:
                raise ManifestError(
                    f"{path}: entry keyed {domain!r} declares domain "
                    f"{entry.domain!r}"
                )
            registry.register(entry)
        return registry

    @classmethod
    def load_default(cls) -> Optional["StaticTableRegistry"]:
        """The packaged artifact, or ``None`` when it is not present
        (callers fall back to dynamic-mode deflate). Each call returns a
        registry of its own; the file is read and parsed once per
        process, and every registry shares its frozen entries."""
        if not os.path.exists(_DEFAULT_TABLES_FILE):
            return None
        registry = cls()
        for entry in _default_entries():
            registry.register(entry)
        return registry


@functools.lru_cache(maxsize=1)
def _default_entries() -> Tuple[TableEntry, ...]:
    """The packaged artifact's entries, parsed on first use. A
    :class:`TableEntry` is frozen and its tables are only ever read, so
    the codecs built from them can share them."""
    registry = StaticTableRegistry.load(_DEFAULT_TABLES_FILE)
    return tuple(registry.get(domain) for domain in registry.domains())
