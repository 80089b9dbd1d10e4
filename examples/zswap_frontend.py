#!/usr/bin/env python3
"""zswap-style OS integration over an XFM backend.

Drives the frontswap-shaped store/load/invalidate surface the way a
kernel's swap path would: a mix of compressible pages, same-value-filled
pages (zswap's fast path), incompressible pages (rejected to the "swap
device"), pool-limit pressure, and a swapoff. Shows the debugfs-style
statistics and where the work happened (NMA vs channel).

Run:  python examples/zswap_frontend.py
"""

import random

from repro import PAGE_SIZE, XfmBackend
from repro._units import pretty_bytes
from repro.sfm.zswap import ZswapFrontend
from repro.workloads.corpus import corpus_pages


def main() -> None:
    random.seed(11)
    backend = XfmBackend(capacity_bytes=128 * PAGE_SIZE)
    zswap = ZswapFrontend(
        backend,
        total_ram_bytes=512 * PAGE_SIZE,
        max_pool_percent=20,  # the Linux default
    )

    compressible = corpus_pages("json-records", 48, seed=3)
    incompressible = corpus_pages("random-bytes", 8, seed=3)
    zero = bytes(PAGE_SIZE)

    kept, rejected = 0, 0
    swap_device = {}  # where rejected pages would land

    offset = 0
    for page in compressible:
        if zswap.store(0, offset, page):
            kept += 1
        else:
            swap_device[(0, offset)] = page
            rejected += 1
        offset += 1
    for page in incompressible:
        if zswap.store(0, offset, page):
            kept += 1
        else:
            swap_device[(0, offset)] = page
            rejected += 1
        offset += 1
    for _ in range(6):
        zswap.store(0, offset, zero)
        kept += 1
        offset += 1

    print("after a swap-out burst:")
    print(f"  pages kept by zswap      : {kept}")
    print(f"  rejected to swap device  : {rejected}")
    stats = zswap.stats
    print(f"  same_filled_pages        : {stats.same_filled_pages}")
    print(f"  reject_compress_poor     : {stats.reject_compress_poor}")
    print(f"  reject_pool_limit        : {stats.reject_pool_limit}")
    print(f"  pool usage / limit       : "
          f"{pretty_bytes(zswap.pool_usage_bytes())} / "
          f"{pretty_bytes(zswap.pool_limit_bytes())}")
    print(f"  DDR channel traffic      : "
          f"{pretty_bytes(backend.traffic.channel_bytes)}")
    print(f"  on-DIMM (NMA) traffic    : "
          f"{pretty_bytes(backend.traffic.nma_bytes)}")

    # Fault a few pages back in and verify content end to end.
    hits = 0
    for probe in random.sample(range(offset), 20):
        page = zswap.load(0, probe)
        if page is None:
            page = swap_device.get((0, probe))
        else:
            hits += 1
        assert page is not None, "page lost!"
    print(f"\nfaulted 20 pages back in: {hits} zswap hits, "
          f"{20 - hits} from the swap device; all contents verified.")

    dropped = zswap.invalidate_area(0)
    print(f"swapoff: invalidated {dropped} remaining zswap pages; "
          f"pool now {pretty_bytes(zswap.pool_usage_bytes())}.")


if __name__ == "__main__":
    main()
