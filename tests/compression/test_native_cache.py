"""The compiled-kernel cache is only trusted when nobody else could
have written it.

The cache used to be ``<tempdir>/repro-native`` — a predictable name in
a world-writable directory, created with the process umask: whoever
created it first owned it (a second user's compile failed and they ran
the ~80x slower Python engines with no message), and a planted
``hotpath-<digest>.so`` was ``ctypes.CDLL``-loaded as is.
"""

import hashlib
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.compression import _native
from repro.compression.deflate import DeflateCodec

pytestmark = pytest.mark.skipif(
    bool(os.environ.get("REPRO_NO_NATIVE")) or shutil.which("cc") is None,
    reason="needs a C compiler and the native engine switched on",
)


@pytest.fixture
def fresh_load(monkeypatch):
    """Let one test drive ``_native.load()`` from scratch."""
    _native.reset_for_tests()
    yield monkeypatch
    monkeypatch.undo()
    _native.reset_for_tests()


def _kernel_name() -> str:
    source = Path(_native._SOURCE).read_bytes()
    return f"hotpath-{hashlib.blake2b(source, digest_size=12).hexdigest()}.so"


def _assert_kernels_work():
    page = b"far memory, " * 300
    assert _native.available()
    assert DeflateCodec().decompress(DeflateCodec().compress(page)) == page


def test_private_cache_is_created_0700_and_reused(fresh_load, tmp_path):
    cache = tmp_path / "cache"
    fresh_load.setenv("REPRO_NATIVE_CACHE", str(cache))
    _assert_kernels_work()
    built = cache / _kernel_name()
    assert cache.stat().st_mode & 0o777 == 0o700
    assert built.stat().st_mode & 0o022 == 0
    assert _native.load()._name == str(built)
    stamp = built.stat().st_mtime_ns
    _native.reset_for_tests()
    assert _native.load()._name == str(built)
    assert built.stat().st_mtime_ns == stamp  # loaded, not rebuilt


@pytest.mark.parametrize("mode", [0o770, 0o707])
def test_cache_others_can_write_is_not_loaded_from(fresh_load, tmp_path, mode):
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(mode)
    planted = cache / _kernel_name()
    planted.write_bytes(b"not a shared object")
    fresh_load.setenv("REPRO_NATIVE_CACHE", str(cache))
    _assert_kernels_work()
    assert not _native.load()._name.startswith(str(cache))
    assert sorted(cache.iterdir()) == [planted]  # nothing built there either
    assert planted.read_bytes() == b"not a shared object"
    # The private build directory is gone once the library is mapped.
    assert not Path(_native.load()._name).exists()


def test_writable_library_in_a_private_cache_is_rebuilt(fresh_load, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    planted = cache / _kernel_name()
    planted.write_bytes(b"not a shared object")
    planted.chmod(0o666)
    fresh_load.setenv("REPRO_NATIVE_CACHE", str(cache))
    _assert_kernels_work()
    assert _native.load()._name == str(planted)
    assert planted.read_bytes()[:4] == b"\x7fELF"
    assert planted.stat().st_mode & 0o022 == 0


@pytest.mark.skipif(
    os.getuid() != 0, reason="only root can give a directory away"
)
def test_cache_owned_by_another_user_is_not_loaded_from(fresh_load, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    planted = cache / _kernel_name()
    planted.write_bytes(b"not a shared object")
    os.chown(cache, 12345, -1)
    fresh_load.setenv("REPRO_NATIVE_CACHE", str(cache))
    _assert_kernels_work()
    assert not _native.load()._name.startswith(str(cache))
    assert planted.read_bytes() == b"not a shared object"


def test_default_cache_is_per_user(fresh_load, tmp_path):
    fresh_load.delenv("REPRO_NATIVE_CACHE", raising=False)
    fresh_load.setattr(tempfile, "tempdir", str(tmp_path))
    _assert_kernels_work()
    cache = tmp_path / f"repro-native-{os.getuid()}"
    assert cache.stat().st_mode & 0o777 == 0o700
    assert _native.load()._name == str(cache / _kernel_name())
