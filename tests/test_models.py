import math

import pytest

from coxcat.core import SetPartition, ValidationError
from coxcat.models import (
    FAMILIES,
    MarkedPair,
    MarkedTriple,
    count_by_type,
    count_family,
    enumerate_family,
    exhaustive_count_by_type,
    is_member,
    marked_pairs,
    marked_triples,
    validate_marked,
)
from coxcat.signed import SignedPartition

sp = SetPartition.from_blocks
sgn = SignedPartition.from_blocks

FIG2 = sp([[1, 4, 10], [2, 3], [5, 6, 7, 9], [8]])
FIG4 = sgn([[1, 4, 5, -10], [-1, -4, -5, 10], [2, 3], [-2, -3], [7, 9, -7, -9], [6], [-6], [8], [-8]])
FIG5 = sgn([[1, 2, -8], [-1, -2, 8], [-3, -5, 6, 7, 10], [3, 5, -6, -7, -10], [4], [-4], [9], [-9]])


def test_membership_worked_examples():
    assert is_member(FIG4, "nc_b")
    assert is_member(FIG5, "nc_d")


def test_nc_d_zero_block_must_properly_contain_top_pair():
    p = sgn([[3, -3], [1], [-1], [2], [-2]])
    assert not is_member(p, "nc_d")
    q = sgn([[3, -3, 2, -2], [1], [-1]])
    assert is_member(q, "nc_d")


def test_membership_needs_matching_kind():
    with pytest.raises(ValidationError):
        is_member(FIG2, "nc_b")
    with pytest.raises(ValidationError):
        is_member(FIG4, "nc_a")
    with pytest.raises(ValidationError):
        is_member(FIG4, "nc_x")


@pytest.mark.parametrize(
    "family,n,count",
    [
        ("nc_a", 4, 14),
        ("nn_a", 4, 14),
        ("nc_b", 3, 20),
        ("nn_b", 3, 20),
        ("nn_c", 3, 20),
        ("nc_d", 3, 14),
        ("nn_d", 3, 14),
        ("pi_b", 3, 24),
    ],
)
def test_family_counts(family, n, count):
    assert len(enumerate_family(family, n)) == count
    assert count_family(family, n) == count


def test_enumeration_is_sorted_canonically():
    items = enumerate_family("nc_b", 3)
    assert list(items) == sorted(items, key=lambda p: p.blocks)


def test_constructive_route_matches_filter():
    for n in range(1, 6):
        assert enumerate_family("nc_b", n) == enumerate_family("nc_b", n, constructive=True)


def test_validate_marked():
    m = MarkedPair.make(FIG2, [(8,), (1, 4, 10)])
    assert validate_marked(m, "nc_na")
    assert not validate_marked(m, "nc_nn")  # {8} is nested
    bad = MarkedPair.make(FIG2, [(2, 3)])
    assert not validate_marked(bad, "nc_nn")
    t = MarkedTriple.make(FIG2, (), 1)
    assert all(not validate_marked(t, cls) for cls in ("nc_nn_pm", "nc_na_pm", "nn_na_pm"))
    t0 = MarkedTriple.make(FIG2, (), 0)
    assert validate_marked(t0, "nc_nn_pm")


def test_marked_pair_construction_checks_blocks():
    with pytest.raises(ValidationError):
        MarkedPair.make(FIG2, [(1, 2)])
    with pytest.raises(ValidationError):
        MarkedTriple.make(FIG2, (), 5)


def test_marked_class_sizes():
    # all marks on nonnested blocks of noncrossing partitions: central binomial
    for n in range(1, 6):
        assert sum(1 for _ in marked_pairs(n, "nc_nn")) == math.comb(2 * n, n)
        assert sum(1 for _ in marked_pairs(n, "nn_na")) == math.comb(2 * n, n)
    assert sum(1 for _ in marked_triples(3, "nc_nn_pm")) == 50


@pytest.mark.parametrize(
    "family,n,lam,expected",
    [
        ("A", 4, (2, 2), 2),
        ("B", 2, (1,), 2),
        ("D", 3, (3,), 4),
        ("D", 4, (3,), 0),
        ("A", 4, (4,), 1),
        ("B", 3, (), 1),
        ("A", 0, (), 1),
        ("B", 0, (), 1),
    ],
)
def test_count_by_type_examples(family, n, lam, expected):
    assert count_by_type(family, n, lam) == expected
    assert exhaustive_count_by_type(family, n, lam) == expected


def test_count_by_type_validation():
    with pytest.raises(ValidationError):
        count_by_type("A", 4, (2,))
    with pytest.raises(ValidationError):
        count_by_type("B", 2, (2, 2))
    with pytest.raises(ValidationError):
        count_by_type("A", 3, (0, 3))


def test_count_by_type_type_d_needs_positive_n():
    with pytest.raises(ValidationError, match="^n must be >= 1$"):
        count_by_type("D", 0, ())
    with pytest.raises(ValidationError, match="^n must be >= 1$"):
        count_by_type("D", -1, (1,))


@pytest.mark.parametrize("family", FAMILIES)
def test_count_agrees_with_enumeration_over_domain(family):
    least = 1 if family in ("nc_d", "nn_d") else 0
    for n in range(-1, 6):
        if n < least:
            with pytest.raises(ValidationError, match=f"^n must be >= {least}$"):
                count_family(family, n)
            with pytest.raises(ValidationError, match=f"^n must be >= {least}$"):
                enumerate_family(family, n)
        else:
            assert count_family(family, n) == len(enumerate_family(family, n))


def test_count_by_type_matches_enumeration():
    from coxcat.verify import _all_types, _int_partitions

    for n in range(1, 6):
        for fam in ("A", "B", "D"):
            for lam in _all_types(fam, n):
                assert count_by_type(fam, n, lam) == exhaustive_count_by_type(fam, n, lam)
