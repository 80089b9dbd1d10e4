"""``case_seed``: the per-case seed the fixed fuzz corpora are built from.

The blob lists of the codec differentials are derived from it, so it
must stay a pure function, distinct per case index and per root seed.
"""

from repro.validation.generators import case_seed


def test_case_seed_is_pure_and_distinct():
    assert case_seed(1234, 0) == case_seed(1234, 0)
    seeds = {case_seed(1234, i) for i in range(500)}
    assert len(seeds) == 500
    assert case_seed(1234, 0) != case_seed(1235, 0)
