import itertools
import random

import pytest
from hypothesis import given, strategies as st

from coxcat.core import (
    EMPTY,
    SetPartition,
    ValidationError,
    arcs_cross,
    arcs_in_order,
    arcs_nest,
    edges,
    nonaligned_blocks,
    nonnested_blocks,
    noncrossing_partitions,
    noncrossing_wrt,
    nonnesting_partitions,
    nonnesting_wrt,
    partitions,
    pattern_free,
    slice_partition,
    special_blocks,
    type_of,
)
from coxcat.models import _with_zero_element, order_nc_b, order_nn_b, order_nn_c
from coxcat.signed import enumerate_signed

sp = SetPartition.from_blocks
FIG2 = sp([[1, 4, 10], [2, 3], [5, 6, 7, 9], [8]])


def test_canonical_form():
    p = sp([[3, 2], [10, 4, 1], [9, 7, 6, 5], [8]])
    assert p == FIG2
    assert p.blocks == ((1, 4, 10), (2, 3), (5, 6, 7, 9), (8,))


@pytest.mark.parametrize(
    "blocks",
    [
        [[1, 2], [2, 3]],
        [[1], [3]],
        [[]],
        [[1, 1, 2]],
    ],
)
def test_invalid_partitions(blocks):
    with pytest.raises(ValidationError):
        sp(blocks)


def test_edges_examples():
    assert edges(FIG2) == ((1, 4), (2, 3), (4, 10), (5, 6), (6, 7), (7, 9))
    assert edges(sp([[1], [2], [3]])) == ()
    assert edges(sp([[1, 2, 3]])) == ((1, 2), (2, 3))


def test_pattern_free_examples():
    p = sp([[1, 3, 8], [2], [4, 5, 6], [7], [9, 10]])
    order = (4, 3, 8, 1, 5, 2, 6, 7, 10, 9)
    assert pattern_free(p, order, "crossing")
    assert not pattern_free(p, order, "nesting")
    single = sp([[1, 2, 3, 4]])
    for pat in ("crossing", "nesting"):
        assert pattern_free(single, (2, 4, 1, 3), pat)
    q = sp([[1, 3], [2, 4]])
    assert not pattern_free(q, (1, 2, 3, 4), "crossing")
    assert pattern_free(q, (1, 2, 3, 4), "nesting")


def test_pattern_free_validates_order():
    with pytest.raises(ValidationError):
        pattern_free(sp([[1, 2]]), (1, 1), "crossing")
    with pytest.raises(ValidationError):
        pattern_free(sp([[1, 2]]), (1, 2, 3), "crossing")
    with pytest.raises(ValidationError):
        pattern_free(sp([[1, 2]]), (1, 2), "zigzag")


def test_special_blocks_examples():
    assert nonnested_blocks(FIG2) == ((1, 4, 10),)
    assert nonaligned_blocks(FIG2) == ((8,), (5, 6, 7, 9), (1, 4, 10))
    allsing = sp([[1], [2], [3]])
    assert set(nonnested_blocks(allsing)) == set(allsing.blocks)
    assert set(nonaligned_blocks(allsing)) == set(allsing.blocks)
    assert {(8,), (1, 4, 10)} <= set(nonaligned_blocks(FIG2))
    assert special_blocks(FIG2, "nonnested") == nonnested_blocks(FIG2)
    with pytest.raises(ValidationError):
        special_blocks(FIG2, "sideways")


def test_type_of():
    assert type_of(FIG2) == (4, 3, 2, 1)
    assert type_of(sp([[1]])) == (1,)
    assert type_of(sp([[1, 2], [3, 4]])) == (2, 2)


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (4, 14), (7, 429)])
def test_enumerators_agree_with_catalan(n, count):
    assert sum(1 for _ in noncrossing_partitions(n)) == count
    assert sum(1 for _ in nonnesting_partitions(n)) == count


def test_enumerators_yield_valid_members():
    for p in noncrossing_partitions(5):
        assert pattern_free(p, (1, 2, 3, 4, 5), "crossing")
    nested = sp([[1, 4], [2, 3], [5]])
    assert nested not in set(nonnesting_partitions(5))


def test_quadruple_crossing_agrees_with_arc_test_exhaustively():
    for n in range(7):
        order = tuple(range(1, n + 1))
        for p in partitions(n):
            assert pattern_free(p, order, "crossing") == noncrossing_wrt(p, order)


def test_quadruple_nesting_differs_from_arc_test():
    # the block {1,3,6} spans {2,4} elementwise but no two arcs nest
    p = sp([[1, 3, 6], [2, 4], [5]])
    order = tuple(range(1, 7))
    assert not pattern_free(p, order, "nesting")
    from coxcat.core import nonnesting_wrt

    assert nonnesting_wrt(p, order)


def test_counting_identities():
    for n in range(7):
        for p in partitions(n):
            assert sum(type_of(p)) == n
            assert len(p.blocks) + len(edges(p)) == n


def test_nonaligned_top_run_characterization():
    for n in range(1, 8):
        for p in noncrossing_partitions(n):
            blocks = sorted(p.blocks, key=lambda b: b[-1])
            na = set(nonaligned_blocks(p))
            k = len(blocks)
            for i in range(k):
                assert (blocks[k - 1 - i] in na) == (blocks[k - 1 - i][-1] == n - i)


def test_slice_partition():
    assert slice_partition(FIG2, 5, 9) == sp([[1, 2, 3, 5], [4]])
    assert slice_partition(FIG2, 4, 3) == EMPTY


@st.composite
def random_partition(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    rgs = [0]
    mx = 0
    for _ in range(max(n - 1, 0)):
        v = draw(st.integers(min_value=0, max_value=mx + 1))
        rgs.append(v)
        mx = max(mx, v)
    if n == 0:
        return EMPTY
    blocks = {}
    for i, v in enumerate(rgs):
        blocks.setdefault(v, []).append(i + 1)
    return sp(blocks.values())


@given(random_partition(), st.randoms())
def test_crossing_check_under_random_orders(p, rnd):
    order = list(range(1, p.n + 1))
    rnd.shuffle(order)
    assert pattern_free(p, tuple(order), "crossing") == noncrossing_wrt(p, tuple(order))


# ---------------------------------------------------------------------------
# Reference oracles: the pairwise and per-block definitions the linear
# kernels replace.


def _arcs_cross_pairwise(arcs):
    for (a, b), (c, d) in itertools.combinations(arcs, 2):
        if a < c < b < d or c < a < d < b:
            return True
    return False


def _arcs_nest_pairwise(arcs):
    for (a, b), (c, d) in itertools.combinations(arcs, 2):
        if a < c < d < b or c < a < b < d:
            return True
    return False


def _nonnested_by_definition(p):
    es = edges(p)
    out = [b for b in p.blocks if not any(i < b[0] and b[-1] < j for i, j in es)]
    return tuple(sorted(out, key=lambda b: b[-1]))


def _nonaligned_by_definition(p):
    es = edges(p)
    out = [b for b in p.blocks if not any(i > b[-1] for i, j in es)]
    return tuple(sorted(out, key=lambda b: b[-1]))


def _assert_arc_tests_agree(blocks, order):
    arcs = arcs_in_order(getattr(blocks, "blocks", blocks), order)
    assert arcs_cross(arcs) == _arcs_cross_pairwise(arcs)
    assert arcs_nest(arcs) == _arcs_nest_pairwise(arcs)
    assert noncrossing_wrt(blocks, order) == pattern_free(blocks, order, "crossing")
    assert nonnesting_wrt(blocks, order) == (not _arcs_nest_pairwise(arcs))


def test_arc_tests_match_pairwise_oracle_under_random_orders():
    rng = random.Random("coxcat-arcs")
    for n in range(8):
        identity = list(range(1, n + 1))
        for p in partitions(n):
            _assert_arc_tests_agree(p, identity)
            for _ in range(3):
                order = identity[:]
                rng.shuffle(order)
                _assert_arc_tests_agree(p, order)


def test_arc_tests_match_pairwise_oracle_under_type_b_orders():
    # every partition of a ground set of size <= 7, relabeled onto each
    # type-B order of that size, then the signed partitions themselves
    for m in range(8):
        k = m // 2
        b_orders = [order_nn_b(k)] if m % 2 else [order_nc_b(k), order_nn_c(k)]
        for order in b_orders:
            rank = {x: i + 1 for i, x in enumerate(sorted(order))}
            relabeled = [rank[x] for x in order]
            for p in partitions(m):
                _assert_arc_tests_agree(p, relabeled)
    for n in range(4):
        for p in enumerate_signed(n):
            _assert_arc_tests_agree(p, order_nc_b(n))
            _assert_arc_tests_agree(p, order_nn_c(n))
            _assert_arc_tests_agree(_with_zero_element(p), order_nn_b(n))


def test_special_blocks_match_definitions_exhaustively():
    for n in range(10):
        for p in partitions(n):
            assert nonnested_blocks(p) == _nonnested_by_definition(p)
            assert nonaligned_blocks(p) == _nonaligned_by_definition(p)
