"""Optional native accelerator for the codec hot paths.

Loads ``_hotpath.c`` (shipped next to this module) as a shared library,
compiling it on first use with the host C compiler — the Python analog
of the paper's point that the deflate family is what you bolt an
accelerator onto.  The compiled object is cached in the system temp
directory keyed by a hash of the source, so each source revision
compiles at most once per machine.

Availability is strictly best-effort: if ``REPRO_NO_NATIVE`` is set, no
compiler is present, compilation fails, or the library will not load,
:func:`load` returns ``None`` and every caller silently stays on its
pure-Python reference path (the scalar matcher, the heap-built Huffman
lengths, the ``BitWriter``/``BitReader`` encoders and decoders).
Correctness never depends on this module — the native kernels are
bit-exact translations, and the test suite runs the differential checks
both with and without it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

_SOURCE = Path(__file__).with_name("_hotpath.c")

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False

#: Compilers tried in order; the first that produces a loadable .so wins.
_COMPILERS = ("cc", "gcc", "clang")


def _declare(lib: ctypes.CDLL) -> None:
    """Attach argtypes/restypes; pointers travel as raw addresses."""
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    lib.lz77_tokenize.argtypes = [p, i64, i64, i64, i64, i64, i64, p, p, p]
    lib.lz77_tokenize.restype = i64
    lib.deflate_decode_block.argtypes = [
        p, i64, i64, i64, p, p, p, p, p, p, p, p, p, i64,
    ]
    lib.deflate_decode_block.restype = i64
    lib.deflate_encode_symbols.argtypes = [
        p, i64, p, p, p, p, p, p, p, p, p, p, p,
        ctypes.POINTER(ctypes.c_uint64),
        ctypes.POINTER(ctypes.c_int64),
        p, i64,
    ]
    lib.deflate_encode_symbols.restype = i64
    lib.lzfast_compress.argtypes = [p, i64, i64, p, p, i64]
    lib.lzfast_compress.restype = i64
    lib.lzfast_decompress.argtypes = [p, i64, i64, p, i64]
    lib.lzfast_decompress.restype = i64
    lib.huffman_code_lengths.argtypes = [p, i64, i64, p]
    lib.huffman_code_lengths.restype = i64
    lib.zstdlike_encode_body.argtypes = [p, i64, p, i64]
    lib.zstdlike_encode_body.restype = i64
    lib.zstdlike_decode_body.argtypes = [p, i64, i64, p, p, p, i64]
    lib.zstdlike_decode_body.restype = i64


def _compile(src: Path, out: Path) -> bool:
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    for compiler in _COMPILERS:
        try:
            proc = subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC",
                 "-o", str(tmp), str(src)],
                capture_output=True,
                timeout=120,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if proc.returncode == 0 and tmp.exists():
            os.replace(tmp, out)  # atomic: concurrent builders converge
            return True
    if tmp.exists():
        try:
            tmp.unlink()
        except OSError:
            pass
    return False


def load() -> Optional[ctypes.CDLL]:
    """Return the native library, or ``None`` when unavailable."""
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    try:
        source = _SOURCE.read_bytes()
        digest = hashlib.blake2b(source, digest_size=12).hexdigest()
        cache_dir = Path(
            os.environ.get("REPRO_NATIVE_CACHE")
            or Path(tempfile.gettempdir()) / "repro-native"
        )
        cache_dir.mkdir(parents=True, exist_ok=True)
        so_path = cache_dir / f"hotpath-{digest}.so"
        if not so_path.exists() and not _compile(_SOURCE, so_path):
            return None
        lib = ctypes.CDLL(str(so_path))
        _declare(lib)
        _lib = lib
    except Exception:
        _lib = None
    return _lib


def available() -> bool:
    """True when the native kernels are loaded (or loadable)."""
    return load() is not None


def reset_for_tests() -> None:
    """Forget the cached load result (lets tests flip REPRO_NO_NATIVE)."""
    global _lib, _load_attempted
    _lib = None
    _load_attempted = False
