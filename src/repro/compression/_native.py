"""Optional native accelerator for the codec hot paths.

Loads ``_hotpath.c`` (shipped next to this module) as a shared library,
compiling it on first use with the host C compiler — the Python analog
of the paper's point that the deflate family is what you bolt an
accelerator onto.  The compiled object is cached per user
(``<tempdir>/repro-native-<uid>``, or ``REPRO_NATIVE_CACHE``) keyed by
a hash of the source, so each source revision compiles at most once per
user and machine.

The cache is only trusted when nobody else could have written it: the
directory and the ``.so`` must belong to the current uid and be neither
group- nor world-writable.  Anything else — a directory another user
created first under the predictable name, a planted library — is left
alone and the kernels are built into a fresh private directory for this
process instead.

Availability is strictly best-effort: if ``REPRO_NO_NATIVE`` is set, no
compiler is present, compilation fails, or the library will not load,
:func:`load` returns ``None`` and every caller silently stays on its
Python reference (the scalar matcher, the heap-built Huffman lengths,
the ``BitWriter``/``BitReader`` encoders and decoders).  Correctness
never depends on this module — the native kernels are bit-exact
translations, and the test suite runs the differential checks both with
and without it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import Optional, Tuple

_SOURCE = Path(__file__).with_name("_hotpath.c")

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False

#: Compilers tried in order; the first that produces a loadable .so wins.
_COMPILERS = ("cc", "gcc", "clang")


def _declare(lib: ctypes.CDLL) -> None:
    """Attach argtypes/restypes; pointers travel as raw addresses."""
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    mode_out = ctypes.POINTER(ctypes.c_int64)
    matcher = [i64, i64, i64, i64, i64]  # window, min, max, chain, lazy
    lib.tokenize_scratch_bytes.argtypes = [i64]
    lib.lz77_tokenize.argtypes = [p, i64, *matcher, p, p]
    lib.huffman_code_lengths.argtypes = [p, i64, i64, p]
    lib.deflate_compress.argtypes = [
        p, i64, *matcher, p, p, p, i64, p, p, i64, mode_out,
    ]
    lib.deflate_decompress.argtypes = [p, i64, i64, i64, p, i64]
    lib.lzfast_compress.argtypes = [p, i64, i64, p, p, i64]
    lib.lzfast_decompress.argtypes = [p, i64, i64, p, i64]
    lib.zstdlike_compress.argtypes = [p, i64, *matcher, p, p, i64, mode_out]
    lib.zstdlike_decode_body.argtypes = [p, i64, i64, p, p, p, i64]
    for name in (
        "tokenize_scratch_bytes", "lz77_tokenize", "huffman_code_lengths",
        "deflate_compress", "deflate_decompress",
        "lzfast_compress", "lzfast_decompress",
        "zstdlike_compress", "zstdlike_decode_body",
    ):
        getattr(lib, name).restype = i64


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
            tmp.chmod(0o700)  # whatever the umask: ours alone, see _private
            os.replace(tmp, out)  # atomic: concurrent builders converge
            return True
    if tmp.exists():
        try:
            tmp.unlink()
        except OSError:
            pass
    return False


def _private(path: Path) -> bool:
    """True when ``path`` exists, belongs to this user, and neither its
    group nor anyone else can write it."""
    try:
        status = path.stat()
    except OSError:
        return False
    return status.st_uid == os.getuid() and not status.st_mode & (
        stat.S_IWGRP | stat.S_IWOTH
    )


def _cache_dir() -> Optional[Path]:
    """The per-user kernel cache (created ``0o700`` when missing), or
    ``None`` when what is there cannot be trusted."""
    path = Path(
        os.environ.get("REPRO_NATIVE_CACHE")
        or Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    )
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return None
    return path if _private(path) else None


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
        with ExitStack() as scratch:
            cache_dir = _cache_dir()
            if cache_dir is None:
                # Gone again once the library is mapped into the process.
                cache_dir = Path(
                    scratch.enter_context(
                        tempfile.TemporaryDirectory(prefix="repro-native-")
                    )
                )
            so_path = cache_dir / f"hotpath-{digest}.so"
            if not _private(so_path) and not _compile(_SOURCE, so_path):
                return None
            lib = ctypes.CDLL(str(so_path))
        _declare(lib)
        _lib = lib
    except Exception:
        _lib = None
    return _lib


#: Encoder buffers shared process-wide (the harness is single-threaded),
#: sized for one 4 KiB page: the kernels' tokeniser scratch and an output
#: buffer. The tokeniser leaves its scratch ready for the next call.
_SHARED_ENCODE_BYTES = 4096
_shared_encode: Optional[Tuple[ctypes.Array, ctypes.Array]] = None


def encode_buffers(
    lib: ctypes.CDLL, n: int
) -> Tuple[ctypes.Array, ctypes.Array]:
    """``(scratch, out)`` for tokenising and encoding ``n`` bytes: a
    ``tokenize_scratch_bytes(n)`` block and an ``n``-byte output buffer.
    Up to a 4 KiB page these are the shared pair; a larger input gets a
    fresh (zeroed, hence ready) pair."""
    global _shared_encode
    if n > _SHARED_ENCODE_BYTES:
        return (
            ctypes.create_string_buffer(lib.tokenize_scratch_bytes(n)),
            ctypes.create_string_buffer(n),
        )
    if _shared_encode is None:
        _shared_encode = (
            ctypes.create_string_buffer(
                lib.tokenize_scratch_bytes(_SHARED_ENCODE_BYTES)
            ),
            ctypes.create_string_buffer(_SHARED_ENCODE_BYTES),
        )
    return _shared_encode


def available() -> bool:
    """True when the native kernels are loaded (or loadable)."""
    return load() is not None


def reset_for_tests() -> None:
    """Forget the cached load result (lets tests flip REPRO_NO_NATIVE)."""
    global _lib, _load_attempted
    _lib = None
    _load_attempted = False
