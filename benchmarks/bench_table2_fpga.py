"""Table 2 — FPGA resource utilization of the XFM prototype.

Paper values: 435467/522720 LUTs (83.30%), 94135/1045440 FFs (9.00%),
51/984 BRAM (5.18%), dominated by the open-source Deflate engines.
"""


def test_table2_fpga(experiment):
    data = experiment("table2")

    by_resource = {row[0]: row for row in data["rows"]}
    assert by_resource["LUTs"][1] == 435467
    assert by_resource["FFs"][1] == 94135
    assert by_resource["BRAM"][1] == 51
