#!/usr/bin/env python3
"""Quickstart: swap pages through the baseline SFM and through XFM.

Demonstrates the core API in ~60 lines: build pages from a realistic
corpus, swap them out through (a) the baseline CPU backend and (b) the
XFM backend, and compare what each costs — CPU cycles and DDR-channel
traffic — for identical functional behaviour.

Run:  python examples/quickstart.py
"""

from repro import PAGE_SIZE, Page, SfmBackend, XfmBackend, corpus_pages
from repro._units import pretty_bytes


def build_pages(num_pages: int):
    """Fixed-schema JSON record pages: realistically compressible data."""
    data = corpus_pages("json-records", num_pages, seed=7)
    return data, [
        Page(vaddr=i * PAGE_SIZE, data=d) for i, d in enumerate(data)
    ]


def exercise(backend, pages):
    accepted = sum(1 for page in pages if backend.swap_out(page).accepted)
    # Promote the first few back in and verify the contents survived.
    for page in pages[:4]:
        if page.swapped:
            backend.swap_in(page)
    return accepted


def main() -> None:
    num_pages = 32
    originals, baseline_pages = build_pages(num_pages)
    _, xfm_pages = build_pages(num_pages)

    baseline = SfmBackend(capacity_bytes=64 * PAGE_SIZE)
    xfm = XfmBackend(capacity_bytes=64 * PAGE_SIZE)

    exercise(baseline, baseline_pages)
    exercise(xfm, xfm_pages)

    for page, original in zip(baseline_pages[:4], originals[:4]):
        assert page.data == original, "baseline corrupted a page!"
    for page, original in zip(xfm_pages[:4], originals[:4]):
        assert page.data == original, "XFM corrupted a page!"

    print("identical functional behaviour, very different cost:\n")
    header = f"{'':24s}{'baseline CPU SFM':>20s}{'XFM':>16s}"
    print(header)
    print("-" * len(header))
    rows = [
        ("pages stored", baseline.stored_pages(), xfm.stored_pages()),
        (
            "mean compression ratio",
            f"{baseline.stats.mean_compression_ratio:.2f}",
            f"{xfm.stats.mean_compression_ratio:.2f}",
        ),
        (
            "CPU compress cycles",
            f"{baseline.stats.cpu_compress_cycles:,.0f}",
            f"{xfm.stats.cpu_compress_cycles:,.0f}",
        ),
        (
            "DDR channel traffic",
            pretty_bytes(baseline.traffic.channel_bytes),
            pretty_bytes(xfm.traffic.channel_bytes),
        ),
        (
            "on-DIMM (NMA) traffic",
            pretty_bytes(baseline.traffic.nma_bytes),
            pretty_bytes(xfm.traffic.nma_bytes),
        ),
        (
            "offloaded compressions",
            baseline.stats.offloaded_compressions,
            xfm.stats.offloaded_compressions,
        ),
    ]
    for label, base_value, xfm_value in rows:
        print(f"{label:24s}{str(base_value):>20s}{str(xfm_value):>16s}")
    print(
        "\nNote: XFM's swap-ins above used CPU_Fallback (the default demand-"
        "fault path);\npass do_offload=True via xfm_swap_in() for prefetch "
        "promotions."
    )


if __name__ == "__main__":
    main()
