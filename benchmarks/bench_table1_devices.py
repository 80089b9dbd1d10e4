"""Table 1 — DDR5 device configurations and refresh-window arithmetic.

Paper values: 8/16/32 Gb devices with 64K/64K/128K rows per bank,
16/32/32 banks, tRFC 195/295/410 ns, 8/8/16 rows refreshed per tRFC,
128/128/256 subarrays per bank; §5 derives 2/3/4 conditional 4 KiB
accesses per tRFC.
"""


def test_table1_devices(experiment):
    rows = experiment("table1")

    expected = [
        ["DDR5-8Gb", "64K", 16, 195.0, 8, 128, 2],
        ["DDR5-16Gb", "64K", 32, 295.0, 8, 128, 3],
        ["DDR5-32Gb", "128K", 32, 410.0, 16, 256, 4],
    ]
    assert rows == expected
