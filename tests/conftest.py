"""The paper's worked figures shared by several test files, and random
members of the map table's domains (coxcat.maps.DOMAINS) for the large-n
round-trip tests."""

import random

from hypothesis import strategies as st

from coxcat import maps
from coxcat.core import SetPartition, nonaligned_blocks, nonnested_blocks
from coxcat.encode import LatticePath, dyck_to_nc
from coxcat.models import MARKED_CLASSES, MARKED_TRIPLE_CLASSES, SIGNED_FAMILIES, MarkedPair, MarkedTriple
from coxcat.signed import SignedPartition
from coxcat.typemaps import rho

FIG2 = SetPartition.from_blocks([[1, 4, 10], [2, 3], [5, 6, 7, 9], [8]])
FIG4 = SignedPartition.from_blocks(
    [[1, 4, 5, -10], [-1, -4, -5, 10], [2, 3], [-2, -3], [7, 9, -7, -9], [6], [-6], [8], [-8]]
)
FIG5 = SignedPartition.from_blocks(
    [[1, 2, -8], [-1, -2, 8], [-3, -5, 6, 7, 10], [3, 5, -6, -7, -10], [4], [-4], [9], [-9]]
)
# phi_nc_b(FIG4).sigma, the partition of the Dyck-path and g-map examples
FIG4_SIGMA = SetPartition.from_blocks([[1, 4, 5], [2, 3], [6], [7, 9], [8], [10]])

# The domains random_member draws from; the others are reached through the maps.
SAMPLED = ("nc_a", "nn_a") + MARKED_CLASSES + MARKED_TRIPLE_CLASSES + tuple(SIGNED_FAMILIES)


def random_noncrossing(rng: random.Random, n: int):
    """A uniform noncrossing partition of [n]: a shuffled word of n N's and
    n + 1 E's, rotated to a Dyck path (cycle lemma) and read by dyck_to_nc."""
    steps = list("N" * n + "E" * (n + 1))
    rng.shuffle(steps)
    height = low = start = 0
    for i, s in enumerate(steps):
        height += 1 if s == "N" else -1
        if height < low:
            low, start = height, i + 1
    rotated = steps[start:] + steps[:start]
    return dyck_to_nc(LatticePath("".join(rotated[:-1])))


def random_member(rng: random.Random, domain: str, n: int):
    """A member at rank n of a SAMPLED domain.  Nonnesting partitions are rho
    images, each special block is marked with probability 1/2, and a signed
    partition is the image of its marked class under the family's inverse."""
    if domain in SIGNED_FAMILIES:
        marked = random_member(rng, SIGNED_FAMILIES[domain].marked, n)
        return maps.MAP[f"phi_{domain}"].inverse(marked, check=True)
    base = domain.removesuffix("_pm")
    is_triple = base != domain
    sigma = random_noncrossing(rng, n - 1 if is_triple else n)
    if base.startswith("nn"):
        sigma = rho(sigma, check=False)
    if base in ("nc_a", "nn_a"):
        return sigma
    special = nonnested_blocks(sigma) if base.endswith("nn") else nonaligned_blocks(sigma)
    marked = [b for b in special if rng.random() < 0.5]
    if not is_triple:
        return MarkedPair.make(sigma, marked)
    return MarkedTriple.make(sigma, marked, rng.choice((-1, 0, 1)) if marked else 0)


@st.composite
def large_member(draw, domain):
    """random_member at a rank in 20..60; a failing example shrinks over the rank and a seed."""
    n = draw(st.integers(min_value=20, max_value=60))
    return random_member(random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1))), domain, n)
