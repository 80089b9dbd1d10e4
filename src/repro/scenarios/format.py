"""Versioned swap-trace format: portable, replayable workload artifacts.

A :class:`ScenarioTrace` is the unit the scenario zoo ships: a header
(format version, scenario name, seed, page size, free-form origin
metadata), a content-addressed page library (unique 4 KiB payloads keyed
by blake2b digest, stored once no matter how often they recur), and a
time-ordered stream of :class:`TraceEvent` records — ``store`` / ``load``
/ ``invalidate`` / ``promote`` with vaddr, page digest, simulated
timestamp, and origin tag.

On disk a trace is gzipped JSONL (``*.trace.jsonl.gz``): one header
line, then one line per unique page (zlib+base64 payload), then one line
per event. Writes pin the gzip mtime to zero so the same trace always
produces the same bytes — trace artifacts diff cleanly in git and can be
digest-compared in CI. Loads are strict: a truncated stream, a corrupt
line, an unknown format version, a page whose bytes do not hash to their
declared digest, or an event referencing an unknown digest all raise
typed :mod:`repro.errors` exceptions instead of yielding a silently
wrong workload.

Version rules: ``version`` is bumped only for changes an old reader
would misinterpret; additive header metadata goes into ``meta`` and must
be ignored by readers that do not know it. Readers reject versions newer
than :data:`TRACE_FORMAT_VERSION`.
"""

from __future__ import annotations

import base64
import gzip
import hashlib
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.errors import ConfigError, TraceFormatError, TraceVersionError
from repro.sfm.page import PAGE_SIZE

#: Newest trace format this build reads and the version it writes.
TRACE_FORMAT_VERSION = 1

#: Event operations (the four verbs of the tier protocol's data plane).
OP_STORE = "store"
OP_LOAD = "load"
OP_INVALIDATE = "invalidate"
OP_PROMOTE = "promote"

OPS = (OP_STORE, OP_LOAD, OP_INVALIDATE, OP_PROMOTE)

#: ``origin`` tag of a promote event that raises a blob toward tier 0
#: *inside* far memory (pipeline ``promote_up``) rather than prefetching
#: it back to local DRAM (the tier protocol's exclusive ``promote``).
ORIGIN_UPWARD = "upward"


def digest_hex(data: bytes) -> str:
    """Content digest used throughout the trace format (blake2b-128).

    Part of the on-disk format, so deliberately its own hash: the
    in-memory integrity digests (:mod:`repro.resilience.integrity`) may
    change without moving a shipped trace's page keys or fingerprint.
    """
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@dataclass(frozen=True)
class TraceEvent:
    """One recorded data-plane operation."""

    seq: int
    #: Simulated time of the operation, nanoseconds.
    t_ns: float
    op: str
    vaddr: int
    #: Content digest of the page moved ("" for invalidate).
    digest: str = ""
    #: Compressed size reported by the recording tier (stores only).
    compressed_len: int = 0
    #: Free-form provenance: "accepted", "reject:pool-full", "demand",
    #: "prefetch", "upward", ...
    origin: str = ""

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ConfigError(f"op must be one of {OPS}, got {self.op!r}")
        if self.t_ns < 0:
            raise ConfigError("event time must be non-negative")
        if self.vaddr < 0:
            raise ConfigError("vaddr must be non-negative")

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": "event",
            "seq": self.seq,
            "t_ns": self.t_ns,
            "op": self.op,
            "vaddr": self.vaddr,
            "digest": self.digest,
            "clen": self.compressed_len,
            "origin": self.origin,
        }


@dataclass
class ScenarioTrace:
    """A replayable swap-trace artifact (header + page library + events)."""

    name: str = "unnamed"
    seed: int = 0
    page_size: int = PAGE_SIZE
    #: Free-form origin metadata (recording backend, generator config,
    #: ...). Additive; readers ignore unknown keys.
    meta: Dict[str, object] = field(default_factory=dict)
    #: Content-addressed page library: digest -> page bytes.
    pages: Dict[str, bytes] = field(default_factory=dict)
    events: List[TraceEvent] = field(default_factory=list)

    # -- construction --------------------------------------------------------

    def add_page(self, data: bytes) -> str:
        """Intern a page payload; returns its digest."""
        if len(data) != self.page_size:
            raise ConfigError(
                f"trace pages are {self.page_size} bytes, got {len(data)}"
            )
        digest = digest_hex(data)
        self.pages.setdefault(digest, bytes(data))
        return digest

    def append(
        self,
        t_ns: float,
        op: str,
        vaddr: int,
        digest: str = "",
        compressed_len: int = 0,
        origin: str = "",
    ) -> TraceEvent:
        if digest and digest not in self.pages:
            raise ConfigError(
                f"event references unknown page digest {digest!r}; "
                "add_page() the payload first"
            )
        event = TraceEvent(
            seq=len(self.events),
            t_ns=t_ns,
            op=op,
            vaddr=vaddr,
            digest=digest,
            compressed_len=compressed_len,
            origin=origin,
        )
        self.events.append(event)
        return event

    def page_for(self, digest: str) -> bytes:
        try:
            return self.pages[digest]
        except KeyError:
            raise TraceFormatError(
                f"trace {self.name!r} has no page with digest {digest!r}"
            ) from None

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # -- persistence ---------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Write gzipped JSONL; byte-identical for identical traces."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "version": TRACE_FORMAT_VERSION,
            "name": self.name,
            "seed": self.seed,
            "page_size": self.page_size,
            "meta": self.meta,
            "num_pages": len(self.pages),
            "num_events": len(self.events),
        }
        with open(target, "wb") as raw:
            # mtime=0 keeps the gzip container reproducible.
            with gzip.GzipFile(
                filename="", mode="wb", fileobj=raw, mtime=0
            ) as fh:
                fh.write(_dumps(header))
                for digest in sorted(self.pages):
                    packed = base64.b64encode(
                        zlib.compress(self.pages[digest], 6)
                    ).decode("ascii")
                    fh.write(
                        _dumps({"kind": "page", "digest": digest, "z": packed})
                    )
                for event in self.events:
                    fh.write(_dumps(event.to_json()))
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScenarioTrace":
        """Read a trace; raises typed errors on any malformation."""
        source = Path(path)
        if not source.exists():
            raise TraceFormatError(f"trace file {source} does not exist")
        try:
            with gzip.open(source, "rt", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, EOFError, zlib.error) as exc:
            raise TraceFormatError(
                f"trace file {source} is not readable gzip: {exc}"
            ) from exc
        if not lines:
            raise TraceFormatError(f"trace file {source} is empty")
        records = []
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"{source}:{lineno}: corrupt JSON line: {exc}"
                ) from exc
            if not isinstance(record, dict) or "kind" not in record:
                raise TraceFormatError(
                    f"{source}:{lineno}: record has no 'kind' field"
                )
            records.append((lineno, record))

        lineno, header = records[0]
        if header["kind"] != "header":
            raise TraceFormatError(
                f"{source}: first record must be the header, "
                f"got kind={header['kind']!r}"
            )
        version = header.get("version")
        if not isinstance(version, int) or version < 1:
            raise TraceFormatError(f"{source}: bad format version {version!r}")
        if version > TRACE_FORMAT_VERSION:
            raise TraceVersionError(
                f"{source}: format version {version} is newer than this "
                f"reader (max {TRACE_FORMAT_VERSION})"
            )
        try:
            trace = cls(
                name=str(header["name"]),
                seed=int(header["seed"]),
                page_size=int(header["page_size"]),
                meta=dict(header.get("meta", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"{source}: malformed header: {exc}"
            ) from exc

        for lineno, record in records[1:]:
            kind = record["kind"]
            if kind == "page":
                trace._load_page(source, lineno, record)
            elif kind == "event":
                trace._load_event(source, lineno, record)
            else:
                raise TraceFormatError(
                    f"{source}:{lineno}: unknown record kind {kind!r}"
                )
        declared_pages = header.get("num_pages")
        declared_events = header.get("num_events")
        if declared_pages is not None and declared_pages != len(trace.pages):
            raise TraceFormatError(
                f"{source}: header declares {declared_pages} pages, "
                f"found {len(trace.pages)} (truncated?)"
            )
        if declared_events is not None and declared_events != len(trace.events):
            raise TraceFormatError(
                f"{source}: header declares {declared_events} events, "
                f"found {len(trace.events)} (truncated?)"
            )
        return trace

    def _load_page(self, source: Path, lineno: int, record: Dict) -> None:
        try:
            digest = record["digest"]
            data = zlib.decompress(base64.b64decode(record["z"]))
        except (KeyError, TypeError, ValueError, zlib.error) as exc:
            raise TraceFormatError(
                f"{source}:{lineno}: corrupt page record: {exc}"
            ) from exc
        if len(data) != self.page_size:
            raise TraceFormatError(
                f"{source}:{lineno}: page is {len(data)} bytes, "
                f"expected {self.page_size}"
            )
        if digest_hex(data) != digest:
            raise TraceFormatError(
                f"{source}:{lineno}: page bytes do not match declared "
                f"digest {digest!r}"
            )
        self.pages[digest] = data

    def _load_event(self, source: Path, lineno: int, record: Dict) -> None:
        try:
            event = TraceEvent(
                seq=int(record["seq"]),
                t_ns=float(record["t_ns"]),
                op=str(record["op"]),
                vaddr=int(record["vaddr"]),
                digest=str(record.get("digest", "")),
                compressed_len=int(record.get("clen", 0)),
                origin=str(record.get("origin", "")),
            )
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise TraceFormatError(
                f"{source}:{lineno}: corrupt event record: {exc}"
            ) from exc
        if event.digest and event.digest not in self.pages:
            raise TraceFormatError(
                f"{source}:{lineno}: event references unknown page "
                f"digest {event.digest!r}"
            )
        self.events.append(event)


def _dumps(record: Dict[str, object]) -> bytes:
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def trace_fingerprint(trace: ScenarioTrace) -> str:
    """Digest over the logical content (header fields, events, page
    digests) — stable across serializations, used by CI's record ->
    replay -> compare step."""
    h = hashlib.blake2b(digest_size=16)
    h.update(
        _dumps(
            {
                "name": trace.name,
                "seed": trace.seed,
                "page_size": trace.page_size,
            }
        )
    )
    for digest in sorted(trace.pages):
        h.update(digest.encode("ascii"))
    for event in trace.events:
        h.update(_dumps(event.to_json()))
    return h.hexdigest()
