"""Static-table registry, mode-3 blob self-description, and the
deterministic auto-tuner."""

import json

import pytest

from repro.compression.deflate import (
    DeflateCodec,
    StaticTableSet,
    train_static_tables,
)
from repro.compression.static_tables import (
    DEFAULT_TABLES_PATH,
    StaticTableRegistry,
    TableEntry,
)
from repro.compression.tuning import (
    DEFAULT_GRID,
    make_tuner,
    stride_sample,
    tune_domain,
)
from repro.errors import ConfigError, ManifestError
from repro.workloads.corpus import corpus_pages


@pytest.fixture(scope="module")
def json_pages():
    return corpus_pages("json-records", 12, seed=7)


@pytest.fixture(scope="module")
def trained(json_pages):
    registry = StaticTableRegistry()
    registry.train(json_pages, "json-test", source_label="unit-test")
    return registry


class TestMode3SelfDescription:
    def test_static_blob_decodes_without_any_registry(
        self, trained, json_pages
    ):
        """The acceptance criterion: a mode-3 blob must carry its own
        tables. A bare default codec — no registry, no tables — decodes
        it."""
        static_codec = trained.codec_for("json-test")
        for page in json_pages[:4]:
            blob = static_codec.compress(page)
            assert blob[1] == 3  # mode byte: static-table block
            assert DeflateCodec().decompress(blob) == page

    def test_dynamic_blobs_remain_decodable_by_static_codec(
        self, trained, json_pages
    ):
        """Table rollout is not a format break in either direction."""
        static_codec = trained.codec_for("json-test")
        dynamic_blob = DeflateCodec().compress(json_pages[0])
        assert static_codec.decompress(dynamic_blob) == json_pages[0]

    def test_untrained_bytes_round_trip_through_static_codec(self, trained):
        """Pages whose symbols the trained tables cannot code must fall
        back to dynamic/stored modes, never fail."""
        static_codec = trained.codec_for("json-test")
        for data in (b"", b"\x00" * 4096, bytes(range(256)) * 16):
            blob = static_codec.compress(data)
            assert static_codec.decompress(blob) == data
            assert DeflateCodec().decompress(blob) == data

    def test_table_id_is_derived_from_lengths(self, trained):
        entry = trained.get("json-test")
        rebuilt = StaticTableSet(
            list(entry.tables.litlen_table.lengths),
            list(entry.tables.dist_table.lengths),
            domain="renamed",
        )
        assert rebuilt.table_id == entry.tables.table_id
        assert trained.by_table_id(entry.tables.table_id) is entry
        assert trained.by_table_id(0xDEADBEEF) is None


class TestRegistryPersistence:
    def test_save_load_round_trip_is_byte_identical(self, trained, tmp_path):
        path = tmp_path / "tables.json"
        trained.save(path)
        loaded = StaticTableRegistry.load(path)
        assert loaded.domains() == trained.domains()
        second = tmp_path / "tables2.json"
        loaded.save(second)
        assert path.read_bytes() == second.read_bytes()

    def test_loaded_tables_produce_identical_blobs(
        self, trained, json_pages, tmp_path
    ):
        path = trained.save(tmp_path / "tables.json")
        loaded = StaticTableRegistry.load(path)
        original = trained.codec_for("json-test")
        restored = loaded.codec_for("json-test")
        assert [restored.compress(page) for page in json_pages] == (
            [original.compress(page) for page in json_pages]
        )

    def test_tampered_table_id_rejected(self, trained, tmp_path):
        path = trained.save(tmp_path / "tables.json")
        doc = json.loads(path.read_text())
        doc["entries"]["json-test"]["table_id"] ^= 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="declared id"):
            StaticTableRegistry.load(path)

    def test_unsupported_schema_rejected(self, trained, tmp_path):
        path = trained.save(tmp_path / "tables.json")
        doc = json.loads(path.read_text())
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="schema"):
            StaticTableRegistry.load(path)

    def test_missing_domain_raises_config_error(self, trained):
        with pytest.raises(ConfigError, match="no static tables"):
            trained.get("nope")
        assert trained.find("nope") is None
        assert "nope" not in trained
        assert "json-test" in trained

    def test_packaged_artifact_loads_and_covers_source(self):
        """The shipped default (trained on this repo's tree by
        ``python -m repro codectune``) must stay loadable and include
        the source domain — the corpus the tentpole targets first."""
        assert DEFAULT_TABLES_PATH.exists()
        registry = StaticTableRegistry.load_default()
        assert registry is not None and "source" in registry
        entry = registry.get("source")
        assert entry.num_pages > 0
        codec = registry.codec_for("source")
        # On the corpus the tables were trained for, static mode must
        # actually win the per-page mode election on some pages (the
        # encoder picks the smallest of stored/fixed/dynamic/static).
        from repro.workloads.ingested import ingested_corpus_pages

        pages = ingested_corpus_pages("source", 12)
        blobs = [codec.compress(page) for page in pages]
        assert any(blob[1] == 3 for blob in blobs)
        plain = DeflateCodec()
        assert [plain.decompress(blob) for blob in blobs] == pages

    def test_packaged_artifact_is_parsed_once(self, refuse_table_parsing):
        """The first ``load_default`` of a process parses the artifact;
        later calls hand out fresh registries over the same frozen
        entries, so registering into one changes no other."""
        first, second = (StaticTableRegistry.load_default() for _ in "ab")
        assert first is not second and first.get("text") is second.get("text")
        first.register(TableEntry.from_json(first.get("json").to_json()))
        assert first.get("json") is not second.get("json")


class TestTuner:
    def test_stride_sample_spans_corpus(self):
        pages = [bytes([i]) for i in range(100)]
        sample = stride_sample(pages, 10)
        assert len(sample) == 10
        assert sample[0] == pages[0] and sample[-1] == pages[90]
        assert stride_sample(pages, 200) == pages
        with pytest.raises(ConfigError):
            stride_sample(pages, 0)

    def test_tune_domain_is_deterministic(self, json_pages):
        first = tune_domain("json-test", json_pages)
        second = tune_domain("json-test", json_pages)
        assert first == second
        assert (first.window_size, first.max_chain, first.lazy) in [
            (w, c, lz) for w, c, lz in DEFAULT_GRID
        ]
        assert first.ratio > 1.0

    def test_ties_prefer_cheapest_search(self):
        # One tiny incompressible page: every config stores it, so every
        # grid point scores identically and the tie-break must pick the
        # shallowest chain, then the smallest window, greedy over lazy.
        pages = [bytes(range(64))]
        choice = tune_domain("tie", pages)
        candidates = sorted((c, w, lz) for w, c, lz in DEFAULT_GRID)
        assert (
            choice.max_chain,
            choice.window_size,
            choice.lazy,
        ) == candidates[0]

    def test_make_tuner_records_choices(self, json_pages):
        record = {}
        tuner = make_tuner(record=record)
        choice = tuner("json-test", json_pages)
        assert record == {"json-test": choice}

    def test_empty_domain_rejected(self):
        with pytest.raises(ConfigError):
            tune_domain("empty", [])
        with pytest.raises(ConfigError):
            tune_domain("blank", [b""])

    def test_trained_entry_respects_tuner_choice(self, json_pages):
        registry = StaticTableRegistry()
        entry = registry.train(
            json_pages,
            "tuned",
            window_size=2048,
            max_chain=16,
            lazy=False,
            source_label="t",
        )
        codec = registry.codec_for("tuned")
        assert codec.window_size == 2048 == entry.window_size
        blob = codec.compress(json_pages[0])
        assert codec.decompress(blob) == json_pages[0]


class TestTrainingInvariants:
    def test_training_ignores_empty_pages(self, json_pages):
        with_empty = train_static_tables(
            [b""] + list(json_pages), domain="d"
        )
        without = train_static_tables(json_pages, domain="d")
        assert with_empty.table_id == without.table_id

    def test_training_requires_some_bytes(self):
        with pytest.raises(ConfigError):
            train_static_tables([], domain="d")

    def test_entry_round_trips_through_json(self, trained):
        entry = trained.get("json-test")
        clone = TableEntry.from_json(
            json.loads(json.dumps(entry.to_json()))
        )
        assert clone.tables.table_id == entry.tables.table_id
        assert clone.window_size == entry.window_size
        assert clone.source_label == entry.source_label


def test_packaged_tables_are_a_pinned_artifact():
    """``data/static_tables.json`` was trained on the PR-7 source tree,
    which no longer exists: ``codectune src`` does not reproduce it.
    It is a frozen input — goldens and benchmarks compress with these
    code lengths — so regenerating it must show up as a visible diff
    here, with the goldens regenerated in the same change."""
    import hashlib

    assert hashlib.sha256(DEFAULT_TABLES_PATH.read_bytes()).hexdigest() == (
        "13c6fd451fbbb03e1c21bd4f1e798a4d91969507c0a8f674154db766457003ea"
    )
