"""The versioned swap-trace format: round-trips, reproducibility, and
typed failure on every malformation a reader can encounter."""

import base64
import gzip
import json
import zlib

import pytest

from repro.errors import (
    ConfigError,
    ScenarioError,
    TraceFormatError,
    TraceVersionError,
)
from repro.scenarios.format import (
    OP_INVALIDATE,
    OP_LOAD,
    OP_STORE,
    TRACE_FORMAT_VERSION,
    ScenarioTrace,
    TraceEvent,
    digest_hex,
    trace_fingerprint,
)
from repro.sfm.page import PAGE_SIZE
from repro.workloads.corpus import corpus_pages


def _sample_trace(num_pages: int = 3, name: str = "sample") -> ScenarioTrace:
    trace = ScenarioTrace(name=name, seed=3, meta={"origin": "unit-test"})
    pages = corpus_pages("json-records", num_pages, seed=3)
    digests = [trace.add_page(page) for page in pages]
    t = 0.0
    for index, digest in enumerate(digests):
        t += 1000.0
        trace.append(t, OP_STORE, index * PAGE_SIZE, digest=digest,
                     compressed_len=1024, origin="accepted")
    t += 1000.0
    trace.append(t, OP_LOAD, 0, digest=digests[0], origin="demand")
    t += 1000.0
    trace.append(t, OP_INVALIDATE, PAGE_SIZE)
    return trace


class TestEventAndConstruction:
    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigError):
            TraceEvent(seq=0, t_ns=0.0, op="teleport", vaddr=0)

    def test_negative_time_and_vaddr_rejected(self):
        with pytest.raises(ConfigError):
            TraceEvent(seq=0, t_ns=-1.0, op=OP_STORE, vaddr=0)
        with pytest.raises(ConfigError):
            TraceEvent(seq=0, t_ns=0.0, op=OP_STORE, vaddr=-4096)

    def test_add_page_wrong_size_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioTrace().add_page(b"short")

    def test_append_unknown_digest_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioTrace().append(0.0, OP_STORE, 0, digest="ff" * 16)

    def test_page_for_unknown_digest_is_typed(self):
        with pytest.raises(TraceFormatError):
            ScenarioTrace().page_for("ab" * 16)

    def test_pages_are_interned_once(self):
        trace = ScenarioTrace()
        page = corpus_pages("json-records", 1, seed=1)[0]
        assert trace.add_page(page) == trace.add_page(page)
        assert len(trace.pages) == 1


class TestRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        trace = _sample_trace()
        path = trace.save(tmp_path / "t.trace.jsonl.gz")
        loaded = ScenarioTrace.load(path)
        assert loaded.name == trace.name
        assert loaded.seed == trace.seed
        assert loaded.meta == trace.meta
        assert loaded.pages == trace.pages
        assert [e.to_json() for e in loaded] == [
            e.to_json() for e in trace
        ]
        assert trace_fingerprint(loaded) == trace_fingerprint(trace)

    def test_save_is_byte_reproducible(self, tmp_path):
        trace = _sample_trace()
        a = trace.save(tmp_path / "a.gz").read_bytes()
        b = trace.save(tmp_path / "b.gz").read_bytes()
        assert a == b

    def test_fingerprint_tracks_content(self):
        assert trace_fingerprint(_sample_trace()) == trace_fingerprint(
            _sample_trace()
        )
        assert trace_fingerprint(_sample_trace(num_pages=2)) != (
            trace_fingerprint(_sample_trace(num_pages=3))
        )


def _rewrite(path, mutate):
    """Load the JSONL lines of a trace file, apply ``mutate``, regzip."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    lines = mutate(lines)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


class TestTypedLoadErrors:
    @pytest.fixture()
    def saved(self, tmp_path):
        return _sample_trace().save(tmp_path / "t.trace.jsonl.gz")

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            ScenarioTrace.load(tmp_path / "nope.gz")

    def test_not_gzip(self, saved):
        saved.write_bytes(b"this is not gzip at all")
        with pytest.raises(TraceFormatError):
            ScenarioTrace.load(saved)

    def test_truncated_gzip_stream(self, saved):
        saved.write_bytes(saved.read_bytes()[:-40])
        with pytest.raises(ScenarioError):
            ScenarioTrace.load(saved)

    def test_empty_file(self, saved):
        with gzip.open(saved, "wt") as fh:
            fh.write("")
        with pytest.raises(TraceFormatError):
            ScenarioTrace.load(saved)

    def test_corrupt_json_line(self, saved):
        _rewrite(saved, lambda lines: lines[:1] + ["{not json"] + lines[2:])
        with pytest.raises(TraceFormatError):
            ScenarioTrace.load(saved)

    def test_newer_version_rejected(self, saved):
        def bump(lines):
            header = json.loads(lines[0])
            header["version"] = TRACE_FORMAT_VERSION + 1
            return [json.dumps(header)] + lines[1:]

        _rewrite(saved, bump)
        with pytest.raises(TraceVersionError):
            ScenarioTrace.load(saved)

    def test_dropped_event_is_truncation(self, saved):
        # Header still declares the old counts -> typed truncation error.
        _rewrite(saved, lambda lines: lines[:-1])
        with pytest.raises(TraceFormatError, match="truncated"):
            ScenarioTrace.load(saved)

    def test_page_digest_mismatch(self, saved):
        def corrupt(lines):
            out, poisoned = [], False
            for line in lines:
                record = json.loads(line)
                if record["kind"] == "page" and not poisoned:
                    record["z"] = base64.b64encode(
                        zlib.compress(bytes(PAGE_SIZE))
                    ).decode("ascii")
                    poisoned = True
                out.append(json.dumps(record))
            return out

        _rewrite(saved, corrupt)
        with pytest.raises(TraceFormatError, match="digest"):
            ScenarioTrace.load(saved)

    def test_event_with_unknown_digest(self, saved):
        def retarget(lines):
            out = []
            for line in lines:
                record = json.loads(line)
                if record["kind"] == "event" and record["digest"]:
                    record["digest"] = "ee" * 16
                out.append(json.dumps(record))
            return out

        _rewrite(saved, retarget)
        with pytest.raises(TraceFormatError, match="unknown page"):
            ScenarioTrace.load(saved)

    def test_unknown_record_kind(self, saved):
        _rewrite(
            saved,
            lambda lines: lines + [json.dumps({"kind": "mystery"})],
        )
        with pytest.raises(TraceFormatError, match="kind"):
            ScenarioTrace.load(saved)

    def test_all_load_errors_are_scenario_errors(self):
        # Callers can catch the whole family with one except clause.
        assert issubclass(TraceFormatError, ScenarioError)
        assert issubclass(TraceVersionError, TraceFormatError)


def test_digest_hex_matches_page_digest():
    page = corpus_pages("json-records", 1, seed=5)[0]
    assert digest_hex(page) == digest_hex(page)
    assert len(digest_hex(page)) == 32
