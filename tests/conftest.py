"""The paper's worked figures shared by several test files, the objects just
outside each domain of the map table (coxcat.maps.DOMAINS) for the guard
tests, and random members of those domains for the large-n round-trip tests."""

import random
import re

import pytest
from hypothesis import strategies as st

from coxcat import maps
from coxcat.core import EMPTY, SetPartition, ValidationError, nonaligned_blocks, nonnested_blocks
from coxcat.encode import BPair, DPair, LatticePath, ShiftedTableau, dyck_to_nc
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

CROSSING = SetPartition.from_blocks([[1, 3], [2, 4]])
NESTING = SetPartition.from_blocks([[1, 4], [2, 3]])
NESTED_MARK = MarkedPair.make(NESTING, [(2, 3)])  # nonaligned, but nested
ALIGNED_MARK = MarkedPair.make(SetPartition.from_blocks([[1, 2], [3, 4]]), [(1, 2)])  # nonnested, but aligned
NESTED_TRIPLE = MarkedTriple(NESTED_MARK.sigma, NESTED_MARK.marked, 1)
ALIGNED_TRIPLE = MarkedTriple(ALIGNED_MARK.sigma, ALIGNED_MARK.marked, 1)
CROSSED = SignedPartition.from_blocks([[1, 3], [-1, -3], [2, -2]])  # crossing in types B and D
OUTSIDE_ALL = SignedPartition.from_blocks([[1, -2], [-1, 2], [3, -3]])  # in no nonnesting family
EMPTY_PAIR = MarkedPair.make(EMPTY, ())  # rank 0, below the least rank of the restricted pairs
UNMARKED = SetPartition.from_blocks([[1, 2]])  # a noncrossing, nonnesting partition, not a marked pair or triple

# The domains with no member at rank 0; every other domain has one empty object there.
RANK_ONE = ("nc_d", "nn_d", "nc_nn_pm", "nc_na_pm", "nn_na_pm", "d_pairs", "restricted")

# domain -> (objects just outside it, the one error text of its guard).  Every
# path lies in "paths", so that domain has no entry.
OUTSIDE = {
    "nc_a": ((CROSSING,), "not a noncrossing partition"),
    "nn_a": ((NESTING,), "not a nonnesting partition"),
    "nc_nn": ((NESTED_MARK, UNMARKED), "not a marked noncrossing pair with nonnested marks"),
    "nc_na": ((ALIGNED_MARK, UNMARKED), "not a marked noncrossing pair with nonaligned marks"),
    "nn_na": ((ALIGNED_MARK, UNMARKED), "not a marked nonnesting pair with nonaligned marks"),
    "nc_nn_pm": ((NESTED_TRIPLE, UNMARKED), "not a marked noncrossing triple with nonnested marks"),
    "nc_na_pm": ((ALIGNED_TRIPLE, UNMARKED), "not a marked noncrossing triple with nonaligned marks"),
    "nn_na_pm": ((ALIGNED_TRIPLE, UNMARKED), "not a marked nonnesting triple with nonaligned marks"),
    "nc_b": ((CROSSED,), "not a type-B noncrossing partition"),
    "nn_b": ((OUTSIDE_ALL,), "not a type-B nonnesting partition"),
    "nn_c": ((OUTSIDE_ALL,), "not a type-C nonnesting partition"),
    "nc_d": ((CROSSED,), "not a type-D noncrossing partition"),
    "nn_d": ((OUTSIDE_ALL,), "not a type-D nonnesting partition"),
    "restricted": ((MarkedPair.make(SetPartition.from_blocks([[1], [2]]), [(2,)]), EMPTY_PAIR, UNMARKED),
                   "not a restricted marked noncrossing pair"),
    "b_pairs": ((BPair(CROSSING, None),), "not a noncrossing partition"),
    "d_pairs": ((DPair(CROSSING, None),), "not a noncrossing partition"),
    "dyck": ((LatticePath("ENNE"),), "not a Dyck path"),
    "CT_B": ((ShiftedTableau.make([1], [2], ()),), "not a valid Catalan tableau"),
}


def guard_params():
    """pytest params (map, x, text) for the rows of the map table, both ways:
    each map with each object just outside its input domain and the text its
    guard must raise, id'd by the map's CLI name."""
    seen = set()
    for row in maps.PAIRS:
        for name, call, domain in ((row.name, row.forward, row.source), (row.inverse_name, row.inverse, row.target)):
            if name in seen or domain == "paths":
                continue
            seen.add(name)
            objects, text = OUTSIDE[domain]
            for x in objects:
                suffix = "_rank0" if x is EMPTY_PAIR else "_unmarked" if x is UNMARKED else ""
                yield pytest.param(call, x, text, id=name + suffix)


def raises_guard_text(call, x, text):
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
        call(x, check=True)


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
