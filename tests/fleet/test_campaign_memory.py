"""A fleet campaign's own allocations stay bounded: what it holds at its
peak is what it still owes, measured with ``tracemalloc``, not host RSS.

The campaign is ``test_campaign.SPIKE_CONFIG`` (2 872 arrivals), run in
a fresh interpreter after its imports, so neither earlier tests nor the
import itself moves the peak. Traced peaks, in bytes:

=============================================  ==========  ==========
campaign                                       3.11.7      3.12.1
=============================================  ==========  ==========
refused blobs cached whole, a page per store,  5 388 555   5 354 651
every arrival scheduled up front
refused blobs cached as their length, one      3 596 607   3 585 439
shared page per content, arrivals streamed
=============================================  ==========  ==========

The bound sits halfway between the two rows on both interpreters.
"""

import os
import subprocess
import sys

#: Bytes: halfway between the rows above (4 492 581 on 3.11.7,
#: 4 470 045 on 3.12.1).
PEAK_BOUND = 4_480_000

PROBE = """
import tracemalloc
from repro.fleet.harness import run_fleet
from tests.fleet.test_campaign import SPIKE_CONFIG
tracemalloc.start()
report = run_fleet(SPIKE_CONFIG)
print(report["arrivals"], tracemalloc.get_traced_memory()[1])
"""


def test_spike_campaign_traced_peak_is_bounded():
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(os.environ)
    env.pop("REPRO_VALIDATION", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        env=env, cwd=root, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    arrivals, peak = map(int, result.stdout.split())
    assert arrivals == 2872
    assert peak < PEAK_BOUND, f"traced peak {peak} bytes"
