"""Hypothesis strategies shared by the large-n round-trip tests."""

import random

from hypothesis import strategies as st

from coxcat.core import nonnested_blocks
from coxcat.encode import LatticePath, dyck_to_nc
from coxcat.models import MarkedPair, MarkedTriple


@st.composite
def large_noncrossing(draw, lo=20, hi=60):
    """A noncrossing partition of [n], n in [lo, hi]: a shuffled word of n N's
    and n + 1 E's, rotated to a Dyck path (cycle lemma) and read by dyck_to_nc.

    The shuffle comes from a drawn integer seed, so a failing example shrinks
    over two integers rather than over a permutation of up to 121 steps."""
    n = draw(st.integers(min_value=lo, max_value=hi))
    steps = list("N" * n + "E" * (n + 1))
    random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1))).shuffle(steps)
    height = low = start = 0
    for i, s in enumerate(steps):
        height += 1 if s == "N" else -1
        if height < low:
            low, start = height, i + 1
    rotated = steps[start:] + steps[:start]
    return dyck_to_nc(LatticePath("".join(rotated[:-1])))


@st.composite
def large_marked_pairs(draw):
    sigma = draw(large_noncrossing())
    special = nonnested_blocks(sigma)
    keep = draw(st.lists(st.booleans(), min_size=len(special), max_size=len(special)))
    return MarkedPair.make(sigma, [b for b, k in zip(special, keep) if k])


@st.composite
def large_marked_triples(draw):
    m = draw(large_marked_pairs())
    epsilon = draw(st.sampled_from((-1, 0, 1))) if m.marked else 0
    return MarkedTriple.make(m.sigma, m.marked, epsilon)
