"""Ablation A3 — codec choice: ratio and measured throughput on corpora.

Grounds the cost model's codec assumptions (§2.1's lzo/zstd trade-off and
the Deflate accelerator choice): the Deflate-style codec is densest, the
LZO-style codec fastest, the zstd-style codec in between.
"""

import time

from repro.analysis.report import format_table
from repro.compression import DeflateCodec, LzFastCodec, ZstdLikeCodec
from repro.compression.static_tables import StaticTableRegistry
from repro.workloads.corpus import corpus_pages
from repro.workloads.ingested import ingested_corpus_pages, ingested_domains

CORPORA = ("json-records", "server-log", "source-code", "heap-pointers")

#: Pages per ingested domain in the real-corpus ablation (strided across
#: the corpus; kept small so the sweep stays interactive).
INGESTED_PAGES = 24


def _measure():
    pages = [
        page
        for corpus in CORPORA
        for page in corpus_pages(corpus, 4, seed=33)
    ]
    total = sum(len(p) for p in pages)
    out = []
    for codec in (DeflateCodec(), LzFastCodec(), ZstdLikeCodec()):
        start = time.perf_counter()
        blobs = [codec.compress(p) for p in pages]
        compress_s = time.perf_counter() - start
        start = time.perf_counter()
        for blob, page in zip(blobs, pages):
            assert codec.decompress(blob) == page
        decompress_s = time.perf_counter() - start
        out.append(
            {
                "name": codec.name,
                "ratio": total / sum(len(b) for b in blobs),
                "compress_mbps": total / compress_s / 1e6,
                "decompress_mbps": total / decompress_s / 1e6,
            }
        )
    return out


def test_a3_codec_comparison(once, emit):
    results = once(_measure)
    rows = [
        [
            r["name"],
            round(r["ratio"], 2),
            round(r["compress_mbps"], 2),
            round(r["decompress_mbps"], 2),
        ]
        for r in results
    ]
    table = format_table(
        ["codec", "ratio", "compress MB/s*", "decompress MB/s*"],
        rows,
        title="A3 — codec ablation on mixed corpora "
        "(*pure-Python throughput; relative ordering is the signal)",
    )
    emit("a3_codecs", table)

    by_name = {r["name"]: r for r in results}
    # Density ordering: deflate >= zstd-like >= lzfast on mixed corpora.
    assert by_name["deflate"]["ratio"] >= by_name["lzfast"]["ratio"]
    # Speed ordering: the byte-aligned codec compresses fastest.
    assert (
        by_name["lzfast"]["compress_mbps"]
        > by_name["deflate"]["compress_mbps"]
    )


def _measure_ingested():
    """Codec sweep over *real* pages (this repo's ingested tree or
    $REPRO_CORPUS_DIR), including the corpus-trained static-table deflate
    variant, one page per codec call."""
    registry = StaticTableRegistry.load_default()
    rows = []
    for domain in ingested_domains():
        pages = ingested_corpus_pages(domain, INGESTED_PAGES)
        total = sum(len(p) for p in pages)
        candidates = [
            ("deflate", DeflateCodec()),
            ("lzfast", LzFastCodec()),
            ("zstd-like", ZstdLikeCodec()),
        ]
        if registry is not None and domain in registry:
            candidates.append(
                (f"deflate-static[{domain}]", registry.codec_for(domain))
            )
        for label, codec in candidates:
            start = time.perf_counter()
            blobs = [codec.compress(page) for page in pages]
            compress_s = time.perf_counter() - start
            assert [codec.decompress(blob) for blob in blobs] == pages
            rows.append(
                {
                    "domain": domain,
                    "codec": label,
                    "ratio": total / sum(len(b) for b in blobs),
                    "compress_mbps": total / compress_s / 1e6,
                    "static_blobs": sum(b[1] == 3 for b in blobs),
                    "pages": len(pages),
                }
            )
    return rows


def test_a3_codecs_on_ingested_corpus(once, emit):
    rows = once(_measure_ingested)
    table = format_table(
        ["domain", "codec", "ratio", "compress MB/s*", "mode-3 blobs"],
        [
            [
                r["domain"],
                r["codec"],
                round(r["ratio"], 2),
                round(r["compress_mbps"], 2),
                f"{r['static_blobs']}/{r['pages']}",
            ]
            for r in rows
        ],
        title="A3b — codecs on ingested (real) corpora "
        "(*batch-API throughput; values drift as the tree grows)",
    )
    emit("a3_codecs_ingested", table)

    # Real text/source pages compress well under every codec.
    for r in rows:
        assert r["ratio"] > 1.2, r
    # Where trained tables exist, the static variant must actually emit
    # self-describing mode-3 blobs (not silently fall back) and stay in
    # the same density ballpark as dynamic deflate.
    static_rows = [r for r in rows if r["codec"].startswith("deflate-static")]
    dynamic = {r["domain"]: r for r in rows if r["codec"] == "deflate"}
    for r in static_rows:
        assert r["static_blobs"] > 0, r
        assert r["ratio"] > 0.85 * dynamic[r["domain"]]["ratio"], r
