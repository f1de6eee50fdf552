"""Every pair of the map table round-trips, with its statistic, at n = 20..60.

The exhaustive sweeps of the same rows run in coxcat.verify up to each
check's bound; this test takes them to sizes no enumeration reaches.  The
maps are called with check=True, so a forward map also confirms that the
inverse image lies in its source family.
"""

import pytest
from conftest import SAMPLED, large_member
from hypothesis import given, settings, strategies as st

from coxcat import maps


@pytest.mark.parametrize("row", maps.PAIRS, ids=lambda row: row.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_large_round_trip(row, data):
    x = data.draw(large_member(row.source), label="source")
    y = row.forward(x, check=True)
    assert row.inverse(y, check=True) == x
    assert row.keeps(x, y)
    if row.target in SAMPLED:
        y = data.draw(large_member(row.target), label="target")
        x = row.inverse(y, check=True)
        assert row.forward(x, check=True) == y
        assert row.keeps(x, y)
