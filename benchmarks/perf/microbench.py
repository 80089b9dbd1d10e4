"""Codec hot-path microbenchmark kernels.

Each kernel times one stage of the compression hot path the SFM store /
load paths exercise millions of times per experiment: full codec
round-trips on 4 KiB pages, the LZ77 tokenizer stage, the Huffman
entropy stage, and one end-to-end emulator window. Kernels measure
*what the codecs actually use*, because that is the code the store path
runs. A fresh run produces the ``baseline`` section of
``BENCH_perf.json`` that CI compares against; the pinned ``reference``
section is a historical measurement of the pre-overhaul kernels and is
never re-run.

Timing protocol: every kernel is measured as ``repeats`` timed batches
of ``inner`` operations each; the *best* batch (minimum wall-clock per
op) is reported, which is the standard way to strip scheduler noise from
a CPU-bound microbenchmark.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from repro.compression.bitio import BitReader, BitWriter
from repro.compression.deflate import DeflateCodec
from repro.compression.huffman import HuffmanTable
from repro.compression.lz77 import Lz77Matcher
from repro.compression.lzfast import LzFastCodec
from repro.compression.zstd_like import ZstdLikeCodec
from repro.workloads.corpus import corpus_pages

PAGE = 4096

#: Page mix used by the codec kernels: compressible structured data,
#: text, and binary records — the shapes the Fig. 8 sweeps compress.
_BENCH_CORPORA = ("json-records", "text-english", "binary-structs")


def _bench_pages() -> List[bytes]:
    pages: List[bytes] = []
    for name in _BENCH_CORPORA:
        pages.extend(corpus_pages(name, 2, seed=11))
    return pages


def _codec_roundtrip(codec) -> Callable[[], None]:
    pages = _bench_pages()
    blobs = [codec.compress(page) for page in pages]

    def op() -> None:
        for page, blob in zip(pages, blobs):
            if codec.decompress(codec.compress(page)) != page:
                raise AssertionError("round-trip mismatch")
            codec.decompress(blob)

    return op


def _kernel_deflate_roundtrip() -> Callable[[], None]:
    return _codec_roundtrip(DeflateCodec(window_size=4096))


def _kernel_zstd_like_roundtrip() -> Callable[[], None]:
    return _codec_roundtrip(ZstdLikeCodec())


def _kernel_lzfast_roundtrip() -> Callable[[], None]:
    return _codec_roundtrip(LzFastCodec())


def _kernel_lz77_tokenize() -> Callable[[], None]:
    matcher = Lz77Matcher(window_size=4096)
    pages = _bench_pages()

    def op() -> None:
        for page in pages:
            matcher.tokenize_packed(page)

    return op


def _kernel_deflate_static_table() -> Callable[[], None]:
    """Mode-3 deflate: corpus-trained tables, compress + decode per page.

    This is the static-table store path end to end — no per-page table
    build, pre-rendered header — against the same page mix the dynamic
    round-trip kernel times."""
    from repro.compression.deflate import train_static_tables

    pages = _bench_pages()
    tables = train_static_tables(pages, domain="bench", window_size=4096)
    codec = DeflateCodec(window_size=4096, static_tables=tables)

    def op() -> None:
        blobs = [codec.compress(page) for page in pages]
        if [codec.decompress(blob) for blob in blobs] != pages:
            raise AssertionError("static-table round-trip mismatch")

    return op


def _huffman_fixture() -> Tuple[HuffmanTable, List[bytes]]:
    pages = _bench_pages()
    freq = [0] * 256
    for page in pages:
        for byte in page:
            freq[byte] += 1
    return HuffmanTable.from_frequencies(freq), pages


def _kernel_huffman_encode() -> Callable[[], None]:
    table, pages = _huffman_fixture()

    def op() -> None:
        for page in pages:
            writer = BitWriter()
            encode = table.encode
            for byte in page:
                encode(writer, byte)
            writer.getvalue()

    return op


def _kernel_huffman_decode() -> Callable[[], None]:
    table, pages = _huffman_fixture()
    encoded = []
    for page in pages:
        writer = BitWriter()
        for byte in page:
            table.encode(writer, byte)
        encoded.append(writer.getvalue())

    def op() -> None:
        # build_decoder() is *inside* the op on purpose: the per-page
        # decode paths historically rebuilt the decoder every page, and
        # the decoder cache is one of the kernels under test.
        for blob in encoded:
            decoder = table.build_decoder()
            reader = BitReader(blob)
            decode = decoder.decode
            for _ in range(PAGE):
                decode(reader)

    return op


def _kernel_emulator_window() -> Callable[[], None]:
    from repro.core.emulator import EmulatorConfig, XfmEmulator

    config = EmulatorConfig(sim_time_s=0.01, seed=7)

    def op() -> None:
        XfmEmulator(config).run()

    return op


def _swap_path_setup(traced: bool) -> Callable[[], None]:
    """Full store/load path (zpool + index + codec + telemetry guards),
    with tracing disabled or enabled — the pair that brackets what the
    instrumentation costs on the real hot path."""
    from repro.sfm.backend import SfmBackend
    from repro.sfm.page import Page
    from repro.sim.context import run_context
    from repro.telemetry.trace import TraceRing

    codec = DeflateCodec(window_size=4096)
    pages = _bench_pages()

    def body() -> None:
        backend = SfmBackend(
            capacity_bytes=len(pages) * PAGE * 2,
            codec=codec,
            page_cache_entries=0,
        )
        for i, data in enumerate(pages):
            page = Page(vaddr=i * PAGE, data=data)
            if backend.swap_out(page).accepted:
                backend.swap_in(page)

    if not traced:
        return body

    def traced_body() -> None:
        with run_context(ring=TraceRing()):
            body()

    return traced_body


def _kernel_swap_telemetry_off() -> Callable[[], None]:
    return _swap_path_setup(traced=False)


def _kernel_swap_telemetry_on() -> Callable[[], None]:
    return _swap_path_setup(traced=True)


def _tier_pipeline_fixture():
    from repro.tiering.pipeline import TierPipeline

    pages = _bench_pages()
    pipeline = TierPipeline.build(
        cpu_capacity_bytes=len(pages) * PAGE * 2,
        xfm_capacity_bytes=len(pages) * PAGE * 2,
        dfm_capacity_bytes=len(pages) * PAGE * 2,
    )
    return pipeline, pages


def _kernel_tier_pipeline_store() -> Callable[[], None]:
    pipeline, pages = _tier_pipeline_fixture()

    def op() -> None:
        # Steady-state keyed stores: after the first batch every store
        # replaces the previous copy (invalidate + re-place), which is
        # what a swap-out-heavy workload does to a warm pipeline.
        for key, data in enumerate(pages):
            if not pipeline.store(key, data):
                raise AssertionError("pipeline store rejected")

    return op


def _kernel_tier_pipeline_load() -> Callable[[], None]:
    pipeline, pages = _tier_pipeline_fixture()

    def op() -> None:
        # load() is exclusive (a demand fault removes the far copy), so
        # each batch re-stores first; the store half is identical to the
        # store kernel, making the delta the pure load-path cost.
        for key, data in enumerate(pages):
            pipeline.store(key, data)
        for key, data in enumerate(pages):
            if pipeline.load(key) != data:
                raise AssertionError("pipeline load mismatch")

    return op


def _kernel_tier_demote_batch() -> Callable[[], None]:
    """Demotion cascade: fill a top tier, then sink every page one tier
    down via ``demote_coldest`` — victims swapped in a round at a time
    and placed page by page."""
    from repro.sfm.backend import SfmBackend
    from repro.sfm.page import Page
    from repro.tiering.pipeline import TierPipeline

    pages = _bench_pages()

    def op() -> None:
        top = SfmBackend(
            capacity_bytes=len(pages) * PAGE * 2, page_cache_entries=0
        )
        bottom = SfmBackend(
            capacity_bytes=len(pages) * PAGE * 4, page_cache_entries=0
        )
        pipeline = TierPipeline([("cpu-zswap", top), ("xfm", bottom)])
        for i, data in enumerate(pages):
            if not pipeline.swap_out(Page(vaddr=i * PAGE, data=data)).accepted:
                raise AssertionError("store rejected")
        if pipeline.demote_coldest(count=len(pages)) != len(pages):
            raise AssertionError("demotion incomplete")

    return op


def _best_of(op: Callable[[], None], repeats: int) -> float:
    """Minimum wall-clock seconds of ``op`` over ``repeats`` timed calls."""
    op()  # warm up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        op()
        best = min(best, time.perf_counter() - start)
    return best


def telemetry_overhead_ratio(repeats: int = 5) -> float:
    """Cost of the *disabled* telemetry guards on the deflate round-trip.

    Times the plain codec round-trip loop against the identical loop with
    the hot path's guard pattern (``tracing_enabled()`` check + early
    out) at the same emission-site density as the real swap path. The
    ratio is measured in-process so it is machine-independent; CI gates
    it at < 3% (``run_perf.py guard telemetry``).
    """
    from repro.sim import CLOCK as _sim_clock
    from repro.sim.context import current
    from repro.telemetry import trace as _trace

    codec = DeflateCodec(window_size=4096)
    pages = _bench_pages()
    blobs = [codec.compress(page) for page in pages]

    def plain() -> None:
        for page, blob in zip(pages, blobs):
            codec.decompress(codec.compress(page))
            codec.decompress(blob)

    def guarded() -> None:
        # Two guarded sites per page, like swap_out + swap_in.
        for page, blob in zip(pages, blobs):
            if _trace.tracing_enabled():
                _trace.complete(
                    "cpu_compress", _trace.TRACK_CPU, _sim_clock.now_ns(), 0.0
                )
            codec.decompress(codec.compress(page))
            if _trace.tracing_enabled():
                _trace.complete(
                    "cpu_decompress", _trace.TRACK_CPU, _sim_clock.now_ns(), 0.0
                )
            codec.decompress(blob)

    assert current().ring is None, "guard must measure the off path"
    return _best_of(guarded, repeats) / _best_of(plain, repeats)


def span_overhead_ratio(repeats: int = 5) -> float:
    """Cost of the *disabled* span/quantile instrumentation.

    The span layer added guarded sites to every pipeline operation: a
    ``tracing_enabled()`` branch that (when on) opens a span, observes
    the op's quantile histogram, and arms the flight-recorder trigger.
    This times the plain codec round-trip loop against the identical
    loop carrying that full guard pattern — span dispatch branch per op
    plus the flight-recorder's no-op module read on the (rare) failure
    path — at the pipeline's real site density. CI gates the off-path
    cost at < 3% (``run_perf.py guard span``), same in-process-ratio
    protocol as :func:`telemetry_overhead_ratio`.
    """
    from repro.sim.context import current
    from repro.telemetry import flightrec as _flightrec
    from repro.telemetry import spans as _spans
    from repro.telemetry import trace as _trace

    codec = DeflateCodec(window_size=4096)
    pages = _bench_pages()
    blobs = [codec.compress(page) for page in pages]

    def plain() -> None:
        for page, blob in zip(pages, blobs):
            codec.decompress(codec.compress(page))
            codec.decompress(blob)

    def guarded() -> None:
        # One store-shaped and one load-shaped site per page, like the
        # pipeline's swap_out/swap_in dispatch. Failure paths (the
        # flight-recorder trigger) are rare in a clean run — once per
        # batch is already denser than reality.
        for page, blob in zip(pages, blobs):
            if _trace.tracing_enabled():
                handle = _spans.begin("pipeline_store", "tier")
                try:
                    codec.decompress(codec.compress(page))
                finally:
                    _spans.end(handle)
            else:
                codec.decompress(codec.compress(page))
            if _trace.tracing_enabled():
                handle = _spans.begin("pipeline_load", "tier")
                try:
                    codec.decompress(blob)
                finally:
                    _spans.end(handle)
            else:
                codec.decompress(blob)
        _flightrec.trigger(_flightrec.REASON_POISON)

    assert current().ring is None, "guard must measure the off path"
    assert current().flight is None, (
        "guard must measure the uninstalled flight-recorder path"
    )
    return _best_of(guarded, repeats) / _best_of(plain, repeats)


def tier_overhead_ratio(repeats: int = 5) -> float:
    """Cost of TierPipeline bookkeeping on the single-tier zswap path.

    Times a zswap store/load loop over a bare ``SfmBackend`` against the
    identical loop over a single-CPU-tier ``TierPipeline`` wrapping the
    same backend class. The ratio isolates the pipeline's
    placement/LRU/accounting bookkeeping (~4 us per op over a ~40 us
    loop of digest-cache-hit stores and native decodes); CI gates it at
    < 25% (``run_perf.py guard tier``). Measured in-process (same
    machine, same run) like :func:`telemetry_overhead_ratio`.
    """
    from repro.sfm.backend import SfmBackend
    from repro.sfm.zswap import ZswapFrontend
    from repro.tiering.pipeline import TierPipeline

    pages = _bench_pages()
    capacity = len(pages) * PAGE * 4

    def frontend_over(backend) -> ZswapFrontend:
        return ZswapFrontend(
            backend,
            total_ram_bytes=len(pages) * PAGE * 8,
            max_pool_percent=50,
        )

    plain_frontend = frontend_over(SfmBackend(capacity_bytes=capacity))
    piped_frontend = frontend_over(
        TierPipeline([("cpu-zswap", SfmBackend(capacity_bytes=capacity))])
    )

    def loop(frontend: ZswapFrontend) -> Callable[[], None]:
        def op() -> None:
            # Exclusive loads empty the pool, so every cycle is a full
            # store-all / load-all — the single-tier store path the
            # gate protects. 25 cycles per timed call: one is ~0.4 ms,
            # too short to time.
            for _ in range(25):
                for offset, data in enumerate(pages):
                    if not frontend.store(0, offset, data):
                        raise AssertionError("zswap store rejected")
                for offset, data in enumerate(pages):
                    if frontend.load(0, offset) != data:
                        raise AssertionError("zswap load mismatch")

        return op

    return _best_of(loop(piped_frontend), repeats) / _best_of(
        loop(plain_frontend), repeats
    )


def stats_overhead_ratio(repeats: int = 5) -> float:
    """Cost of a ``SwapStats`` field increment over a plain attribute's.

    Times ``stats.swap_outs += 1`` on a registry-bound ``SwapStats`` (as
    every backend binds one) against the identical loop on a one-slot
    ``__slots__`` object. Stats fields are plain slots that the registry
    reads only at snapshot time, so the ratio is ~1; a return to
    per-increment descriptors or registry writes reads several times
    that. CI gates it at < 50% (``run_perf.py guard stats``), measured
    in-process like :func:`telemetry_overhead_ratio`.
    """
    from repro.sfm.metrics import SwapStats
    from repro.telemetry.registry import MetricsRegistry

    class Plain:
        __slots__ = ("swap_outs",)

        def __init__(self) -> None:
            self.swap_outs = 0

    def loop(stats) -> Callable[[], None]:
        def op() -> None:
            for _ in range(20_000):
                stats.swap_outs += 1
                stats.swap_outs += 1
                stats.swap_outs += 1
                stats.swap_outs += 1
                stats.swap_outs += 1

        return op

    bound = SwapStats(registry=MetricsRegistry(), labels={"tier": "cpu"})
    return _best_of(loop(bound), repeats) / _best_of(loop(Plain()), repeats)


#: name -> (setup, default inner iterations per timed batch).
KERNELS: Dict[str, Tuple[Callable[[], Callable[[], None]], int]] = {
    "deflate_roundtrip_4k": (_kernel_deflate_roundtrip, 1),
    "zstd_like_roundtrip_4k": (_kernel_zstd_like_roundtrip, 1),
    "lzfast_roundtrip_4k": (_kernel_lzfast_roundtrip, 2),
    "lz77_tokenize_4k": (_kernel_lz77_tokenize, 2),
    "deflate_static_table_4k": (_kernel_deflate_static_table, 2),
    "huffman_encode_4k": (_kernel_huffman_encode, 2),
    "huffman_decode_4k": (_kernel_huffman_decode, 1),
    "emulator_window": (_kernel_emulator_window, 1),
    "swap_telemetry_off": (_kernel_swap_telemetry_off, 1),
    "swap_telemetry_on": (_kernel_swap_telemetry_on, 1),
    "tier_pipeline_store": (_kernel_tier_pipeline_store, 20),
    # 20: a batch is ~0.5 ms, and `guard sim` gates this kernel at 5 %.
    "tier_pipeline_load": (_kernel_tier_pipeline_load, 20),
    "tier_demote_batch": (_kernel_tier_demote_batch, 1),
}


def run_kernel(
    name: str, inner_scale: float = 1.0, repeats: int = 3
) -> Dict[str, float]:
    """Measure one kernel; returns its result record."""
    setup, inner = KERNELS[name]
    inner = max(1, int(round(inner * inner_scale)))
    op = setup()
    op()  # warm up: JIT-free but primes caches and lazy imports
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            op()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / inner)
    return {"seconds_per_op": best, "inner": inner, "repeats": repeats}


def run_all(
    inner_scale: float = 1.0, repeats: int = 3, names=None
) -> Dict[str, Dict[str, float]]:
    results: Dict[str, Dict[str, float]] = {}
    for name in names or KERNELS:
        results[name] = run_kernel(name, inner_scale, repeats)
    return results
