import itertools
import math
import random

import pytest

from conftest import CROSSING, FIG2, FIG4, raises_guard_text, random_member, random_noncrossing
from coxcat import typemaps
from coxcat.core import (
    EMPTY,
    SetPartition,
    ValidationError,
    nonaligned_blocks,
    noncrossing_partitions,
    nonnested_blocks,
    slice_partition,
)
from coxcat.models import MarkedPair, MarkedTriple, marked_members
from coxcat.signed import signed_type, zero_block_size
from coxcat.typemaps import (
    NcDecomposition,
    decompose,
    iota_b,
    iota_b_inverse,
    iota_d,
    iota_d_inverse,
    is_connected,
    nc_to_nn,
    rearrange,
    rho,
    rho_bar,
    rho_bar_inverse,
    star,
    uplus,
    xi,
    xi_bar,
    xi_bar_inverse,
    xi_by_decomposition,
)

sp = SetPartition.from_blocks


def test_rho_examples():
    assert rho(FIG2) == sp([[1, 3], [2, 4, 6, 9], [5, 7, 10], [8]])
    assert rho(sp([[1, 2, 3]])) == sp([[1, 2, 3]])
    allsing = sp([[1], [2], [3]])
    assert rho(allsing) == allsing
    assert rho(sp([[1, 4], [2, 3]])) == sp([[1, 3], [2, 4]])


def test_rho_requires_noncrossing():
    with pytest.raises(ValidationError):
        rho(sp([[1, 3], [2, 4]]))


def test_rho_bar_example():
    m = MarkedPair.make(FIG2, [(8,), (1, 4, 10)])
    out = rho_bar(m)
    assert out.sigma == rho(FIG2)
    assert set(out.marked) == {(8,), (5, 7, 10)}
    assert [b[-1] for b in m.marked] == [b[-1] for b in out.marked]
    assert rho_bar_inverse(out) == m


def test_algebra_examples():
    assert star(sp([[1, 2, 4], [3]]), sp([[1, 2], [3]])) == sp([[1, 2, 4, 8], [3], [5, 6], [7]])
    assert star(EMPTY, EMPTY) == sp([[1]])
    assert star(EMPTY, sp([[1, 2]])) == sp([[1, 2], [3]])
    assert star(sp([[1, 2]]), EMPTY) == sp([[1, 2, 3]])
    assert uplus(sp([[1, 2]]), sp([[1]])) == sp([[1, 2], [3]])
    assert is_connected(sp([[1, 3], [2]]))
    assert not is_connected(sp([[1], [2]]))
    assert not is_connected(EMPTY)
    with pytest.raises(ValidationError):
        star(sp([[1], [2]]), EMPTY)


def test_decompose_examples():
    d = decompose(sp([[1, 2], [3, 5], [4]]), 1)
    assert d == NcDecomposition(sp([[1, 2]]), sp([[1]]), sp([[1]]))
    d1 = decompose(sp([[1, 2], [3]]), 1)
    d2 = decompose(sp([[1, 2], [3]]), 2)
    assert d1 == NcDecomposition(sp([[1, 2]]), EMPTY, EMPTY)
    assert d2 == NcDecomposition(EMPTY, EMPTY, sp([[1, 2]]))
    with pytest.raises(ValidationError):
        decompose(EMPTY, 1)
    with pytest.raises(ValidationError):
        decompose(sp([[1]]), 3)


def test_decompose_reassembles_everywhere():
    for n in range(1, 8):
        for p in noncrossing_partitions(n):
            for variant in (1, 2):
                d = decompose(p, variant)
                assert uplus(d.prefix, star(d.connected_part, d.tail)) == p


def test_xi_examples():
    assert xi(sp([[1, 2]])) == sp([[1, 2]])
    assert xi(sp([[1, 3], [2], [4]])) == sp([[1], [2, 3], [4]])
    allsing = sp([[1], [2], [3]])
    assert xi(allsing) == allsing
    assert xi(EMPTY) == EMPTY


def test_xi_worked_example_n27():
    # a large fixed instance exercising long mixed decompositions
    upper = sp(
        [[1, 4], [2, 3], [5, 6, 7, 8], [9], [10, 12, 25], [11], [13, 14, 15],
         [16, 17], [18, 22, 24], [19, 21], [20], [23], [26], [27]]
    )
    lower = sp(
        [[1], [2, 6, 12], [3, 5], [4], [7, 8, 9], [10, 11], [13, 15, 25], [14],
         [16, 17, 18, 23], [19, 20], [21, 22], [24], [26], [27]]
    )
    assert xi(upper) == lower
    assert xi(lower) == upper


def test_xi_agrees_with_the_decomposition_route_on_every_small_partition():
    # verify's xi check compares the two routes up to its bound of 9
    for p in noncrossing_partitions(10):
        assert xi(p, check=False) == xi_by_decomposition(p)


def test_xi_agrees_with_the_decomposition_route_at_large_n():
    rng = random.Random(12)
    for _ in range(200):
        p = random_noncrossing(rng, rng.randint(100, 300))
        q = xi(p)
        assert q == xi_by_decomposition(p)
        assert xi(q) == p


def test_xi_special_returns_the_special_blocks_of_its_argument():
    # _xi_special reads p's own scans, trailing singletons included; a fresh copy has none cached
    trailing = 0
    for n in range(9):
        for p in noncrossing_partitions(n):
            _, nonnested, nonaligned = typemaps._xi_special(p)
            fresh = SetPartition(p.n, p.blocks)
            assert nonnested == nonnested_blocks(fresh)
            assert nonaligned == nonaligned_blocks(fresh)
            trailing += n > 0 and p.blocks[-1] == (n,)
    assert trailing == sum(math.comb(2 * k, k) // (k + 1) for k in range(8))  # those of [n] ending in {n}


def test_xi_bar_example():
    m = MarkedPair.make(sp([[1, 3], [2], [4]]), [(1, 3), (4,)])
    out = xi_bar(m)
    assert out.sigma == sp([[1], [2, 3], [4]])
    assert set(out.marked) == {(2, 3), (4,)}
    assert xi_bar_inverse(out) == m
    empty = MarkedPair.make(sp([[1, 3], [2], [4]]), [])
    assert xi_bar(empty).marked == ()


def test_rearrange_and_iota():
    m = MarkedPair.make(sp([[1, 2], [3], [4]]), [(1, 2), (3,), (4,)])
    out = iota_b(m)
    assert out.sigma == sp([[1], [2, 3], [4]])
    assert set(out.marked) == set(out.sigma.blocks)
    assert iota_b_inverse(out) == m
    even = MarkedPair.make(sp([[1, 2], [3], [4]]), [(1, 2), (4,)])
    assert iota_b(even) == even
    with pytest.raises(ValidationError):
        rearrange(m, (1, 2))


def _rearrange_by_slices(m: MarkedPair, perm: tuple[int, ...]) -> MarkedPair:
    """Oracle: slice out every component and concatenate them in the new order."""
    spans = nonnested_blocks(m.sigma)
    marked_idx = [i for i, b in enumerate(spans) if b in m.marked]
    order = list(range(len(spans)))
    for t, i in enumerate(marked_idx):
        order[i] = marked_idx[perm[t] - 1]
    out = EMPTY
    for i in order:
        out = uplus(out, slice_partition(m.sigma, spans[i][0], spans[i][-1]))
    new_spans = nonnested_blocks(out)
    return MarkedPair(out, tuple(new_spans[i] for i in marked_idx))


def test_rearrange_agrees_with_slicing_on_every_small_pair_and_perm():
    for n in range(8):
        for m in marked_members("nc_nn", n):
            for perm in itertools.permutations(range(1, len(m.marked) + 1)):
                assert rearrange(m, perm) == _rearrange_by_slices(m, perm)


def test_rearrange_agrees_with_slicing_at_large_n():
    rng = random.Random(12)
    for _ in range(200):
        m = random_member(rng, "nc_nn", rng.randint(1, 120))
        perm = list(range(1, len(m.marked) + 1))
        rng.shuffle(perm)
        assert rearrange(m, tuple(perm)) == _rearrange_by_slices(m, tuple(perm))


def test_one_pass_maps_build_no_intermediate_partition(monkeypatch):
    def refuse(*args):
        raise AssertionError("an intermediate partition was built")

    for name in ("decompose", "slice_partition", "uplus", "star"):
        monkeypatch.setattr(typemaps, name, refuse)
    p = sp([[1, 4, 10], [2, 3], [5, 6, 7, 9], [8], [11, 13], [12], [14]])
    assert xi(xi(p)) == p
    pair = MarkedPair.make(p, nonnested_blocks(p))
    assert rearrange(rearrange(pair, (3, 1, 2)), (2, 3, 1)) == pair
    assert iota_b_inverse(iota_b(pair)) == pair
    triple = MarkedTriple(pair.sigma, pair.marked, 1)
    assert iota_d_inverse(iota_d(triple)) == triple


# Oracles: iota's permutations written out by family, parity and sign
def _iota_perm_b(k: int) -> tuple[int, ...]:
    if k % 2 == 0:
        return tuple(range(1, k + 1))
    t = k // 2
    return (t + 1,) + tuple(range(1, t + 1)) + tuple(range(t + 2, k + 1))


def _iota_perm_d(k: int, epsilon: int) -> tuple[int, ...]:
    if k % 2 == 1:
        return _iota_perm_b(k)
    if epsilon == 0:
        return tuple(range(1, k + 1))
    t = k // 2
    return (t, t + 1) + tuple(range(1, t)) + tuple(range(t + 2, k + 1))


def test_iota_permutes_by_the_hand_written_rule():
    for n in range(1, 8):
        for m in marked_members("nc_nn", n):
            perm = _iota_perm_b(len(m.marked))
            assert iota_b(m, check=False) == rearrange(m, perm)
            assert rearrange(iota_b_inverse(m, check=False), perm) == m
        # the triples over [n] have rank n + 1
        for t in marked_members("nc_nn_pm", n + 1):
            perm = _iota_perm_d(len(t.marked), t.epsilon)
            out, back = iota_d(t, check=False), iota_d_inverse(t, check=False)
            assert (out.pair, out.epsilon) == (rearrange(t.pair, perm), t.epsilon)
            assert (rearrange(back.pair, perm), back.epsilon) == (t.pair, t.epsilon)


def test_composed_map_type_oracle_fig4():
    q = nc_to_nn("B", FIG4)
    from coxcat.models import is_member

    assert is_member(q, "nn_b")
    assert signed_type(q) == (4, 2, 1, 1)
    assert zero_block_size(q) == 4


def rearrange_fixed(m, check):
    """rearrange with the empty permutation, the one its bad inputs below were accepted with."""
    return rearrange(m, (), check=check)


# rearrange is not a row of the map table, so test_maps.py::test_domain_guard does not reach it
GUARDS = [
    pytest.param(rearrange_fixed, MarkedPair.make(sp([[1, 3], [2]]), [(2,)]),
                 "not a marked noncrossing pair with nonnested marks", id="rearrange_fixed0"),
    pytest.param(rearrange_fixed, MarkedPair.make(CROSSING, []),
                 "not a marked noncrossing pair with nonnested marks", id="rearrange_fixed1"),
]


@pytest.mark.parametrize("fn,arg,message", GUARDS)
def test_domain_guard_text(fn, arg, message):
    raises_guard_text(fn, arg, message)
