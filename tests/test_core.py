import json
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from conftest import FIG2
from coxcat.core import (
    EMPTY,
    SetPartition,
    ValidationError,
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
from coxcat.jsonio import set_partition_to_obj
from coxcat.models import _with_zero_element, is_member, order_nc_b, order_nn_b, order_nn_c
from coxcat.signed import enumerate_signed

sp = SetPartition.from_blocks


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


@pytest.mark.parametrize("blocks, n", [([], -3), ([], -1), ([[1]], -1)])
def test_from_blocks_rejects_negative_n(blocks, n):
    with pytest.raises(ValidationError, match=r"^n must be >= 0$"):
        sp(blocks, n)


@pytest.mark.parametrize(
    "generate, first",
    [
        (noncrossing_partitions, tuple((x,) for x in range(1, 3001))),
        (nonnesting_partitions, tuple((x,) for x in range(1, 3001))),
        (partitions, (tuple(range(1, 3001)),)),
    ],
)
def test_generators_yield_at_large_n(generate, first):
    assert next(generate(3000)) == SetPartition(3000, first)


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


@pytest.mark.parametrize(
    "generate, avoids",
    [(noncrossing_partitions, noncrossing_wrt), (nonnesting_partitions, nonnesting_wrt)],
    ids=["noncrossing", "nonnesting"],
)
def test_scan_matches_filtered_partitions(generate, avoids):
    # partitions() is the restricted-growth recursion, independent of the scan
    for n in range(10):
        order = tuple(range(1, n + 1))
        got = list(generate(n))
        assert len(set(got)) == len(got)
        assert set(got) == {p for p in partitions(n) if avoids(p, order)}


@pytest.mark.parametrize("generate", [partitions, noncrossing_partitions, nonnesting_partitions])
def test_negative_n_is_rejected(generate):
    with pytest.raises(ValidationError, match="^n must be >= 0$"):
        next(generate(-1))


def test_spanning_block_without_nested_arcs_is_nesting_free():
    # {1,3,..} has an element before and after both of {2,4}, yet no arc of
    # one block nests over an arc of the other
    for p in (sp([[1, 3, 6], [2, 4], [5]]), sp([[1, 3, 5], [2, 4]])):
        order = tuple(range(1, p.n + 1))
        assert pattern_free(p, order, "nesting")
        assert nonnesting_wrt(p, order)


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
    assert pattern_free(p, tuple(order), "nesting") == nonnesting_wrt(p, tuple(order))


# ---------------------------------------------------------------------------
# Reference oracles: the per-block definitions the linear kernels replace;
# pattern_free is the pairwise one for crossings and nestings.


def _nonnested_by_definition(p):
    es = edges(p)
    out = [b for b in p.blocks if not any(i < b[0] and b[-1] < j for i, j in es)]
    return tuple(sorted(out, key=lambda b: b[-1]))


def _nonaligned_by_definition(p):
    es = edges(p)
    out = [b for b in p.blocks if not any(i > b[-1] for i, j in es)]
    return tuple(sorted(out, key=lambda b: b[-1]))


def _assert_arc_tests_agree(blocks, order):
    assert noncrossing_wrt(blocks, order) == pattern_free(blocks, order, "crossing")
    assert nonnesting_wrt(blocks, order) == pattern_free(blocks, order, "nesting")


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


def test_natural_order_scan_leaves_the_nonnested_blocks():
    # read in its own order, the noncrossing scan keeps the nonnested blocks of
    # a noncrossing partition on it, and leaves a crossing one as it found it
    for n in range(10):
        order = tuple(range(1, n + 1))
        for p in partitions(n):
            fresh = SetPartition(p.n, p.blocks)
            member = is_member(fresh, "nc_a")
            assert member == noncrossing_wrt(p, order)
            assert (fresh._nonnested is not None) == member
            assert nonnested_blocks(fresh) == _nonnested_by_definition(p)


def test_cached_special_blocks_are_invisible():
    # the special blocks are cached on the instance, by their own scans or by
    # the natural-order noncrossing scan; the cache must not show in equality,
    # hashing, pickling (verify --jobs sends partitions between processes) or
    # JSON, nor go stale
    for n in range(7):
        for p in partitions(n):
            scanned = SetPartition(p.n, p.blocks)
            noncrossing_wrt(scanned, range(1, n + 1))
            nonnested_blocks(p), nonaligned_blocks(p), nonaligned_blocks(scanned)
            fresh = SetPartition(p.n, p.blocks)
            for cached in (p, scanned):
                assert cached == fresh and hash(cached) == hash(fresh)
                copy = pickle.loads(pickle.dumps(cached))
                assert copy == cached and hash(copy) == hash(cached)
                assert json.dumps(set_partition_to_obj(cached)) == json.dumps(set_partition_to_obj(fresh))
                for q in (cached, copy):
                    assert nonnested_blocks(q) == _nonnested_by_definition(q)
                    assert nonaligned_blocks(q) == _nonaligned_by_definition(q)
