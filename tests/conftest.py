"""Shared fixtures and suite-wide options for the XFM reproduction tests.

Options (also see the marker scheme in ``pyproject.toml``):

``--validation``
    Turn on the invariant checkpoints in :mod:`repro.validation.hooks`
    for the whole run, so every mutating operation on the instrumented
    data structures (SFM backend, zpool, SPM, NMA, register file, xfm_module)
    validates its structural invariants. Equivalent to setting
    ``REPRO_VALIDATION=1`` in the environment.

``--runslow``
    Also run tests marked ``slow`` (skipped by default).

Importing :mod:`tests.hypothesis_settings` here loads the suite's one
Hypothesis profile before any test module builds its settings.
"""

from __future__ import annotations

import pytest

import tests.hypothesis_settings  # noqa: F401 — loads the Hypothesis profile
from repro.compression import DeflateCodec, LzFastCodec, ZstdLikeCodec
from repro.compression.static_tables import StaticTableRegistry
from repro.sfm.page import PAGE_SIZE
from repro.sim.context import run_context
from repro.workloads.corpus import corpus_pages

#: The suite-wide ``--validation`` scope, open from configure to
#: unconfigure.
_validation_scope = None


def pytest_addoption(parser):
    parser.addoption(
        "--validation",
        action="store_true",
        default=False,
        help="enable repro.validation invariant checkpoints for the run",
    )
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked slow",
    )


def pytest_configure(config):
    global _validation_scope
    if config.getoption("--validation"):
        _validation_scope = run_context(validation=True)
        _validation_scope.__enter__()


def pytest_unconfigure(config):
    global _validation_scope
    if _validation_scope is not None:
        _validation_scope.__exit__(None, None, None)
        _validation_scope = None


def pytest_collection_modifyitems(config, items):
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            if not config.getoption("--runslow"):
                item.add_marker(skip_slow)
        elif "fuzz" not in item.keywords:
            # Everything that is neither slow nor fuzz is the tier-1 gate.
            item.add_marker(pytest.mark.tier1)


@pytest.fixture(scope="session")
def json_pages():
    """Compressible 4 KiB pages (fixed-schema JSON records)."""
    return corpus_pages("json-records", 8, seed=11)


@pytest.fixture(scope="session")
def text_pages():
    return corpus_pages("text-english", 8, seed=11)


@pytest.fixture(scope="session")
def random_pages():
    """Incompressible pages."""
    return corpus_pages("random-bytes", 4, seed=11)


@pytest.fixture(scope="session")
def sample_buffers(json_pages, random_pages):
    """A spectrum of buffers every codec must round-trip."""
    return [
        b"",
        b"a",
        b"abc",
        b"aaaaaaaaaaaaaaaaaaaaaaaaaaaa",
        bytes(range(256)),
        bytes(PAGE_SIZE),
        json_pages[0],
        random_pages[0],
        (b"0123456789" * 500)[:PAGE_SIZE],
    ]


@pytest.fixture(params=["deflate", "lzfast", "zstd-like"])
def codec(request):
    """Each registered codec, parametrized."""
    return {
        "deflate": DeflateCodec(),
        "lzfast": LzFastCodec(),
        "zstd-like": ZstdLikeCodec(),
    }[request.param]


@pytest.fixture
def refuse_table_parsing(monkeypatch):
    """Load the packaged static tables once, then fail the test on any
    further ``StaticTableRegistry.load``."""
    StaticTableRegistry.load_default()

    def parse_again(cls, path):
        raise AssertionError(f"{path} parsed again")

    monkeypatch.setattr(StaticTableRegistry, "load", classmethod(parse_again))
