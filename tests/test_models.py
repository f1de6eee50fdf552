import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIG2, FIG4, FIG5, RANK_ONE, random_member
from coxcat import models
from coxcat.core import (
    SetPartition, ValidationError, noncrossing_partitions, nonnesting_partitions, partitions, pattern_free,
)
from coxcat.encode import lattice_paths, restricted_pairs
from coxcat.jsonio import marked_pair_from_obj, marked_pair_to_obj, marked_triple_from_obj, marked_triple_to_obj
from coxcat.models import (
    FAMILIES,
    MARKED_CLASSES,
    MARKED_TRIPLE_CLASSES,
    SIGNED_FAMILIES,
    MarkedPair,
    MarkedTriple,
    _ORDERS,
    _read_marked,
    _read_signed,
    _with_zero_element,
    count_by_type,
    count_family,
    enumerate_family,
    exhaustive_count_by_type,
    is_member,
    marked_members,
    validate_marked,
)
from coxcat.signed import SignedPartition, count_signed, enumerate_signed

sp = SetPartition.from_blocks
sgn = SignedPartition.from_blocks


def test_membership_worked_examples():
    assert is_member(FIG4, "nc_b")
    assert is_member(FIG5, "nc_d")


@pytest.mark.parametrize("family", ["nc_d", "nn_d"])
def test_type_d_zero_block_must_properly_contain_top_pair(family):
    assert not is_member(sgn([[3, -3], [1], [-1], [2], [-2]]), family)  # exactly {n, -n}
    assert not is_member(sgn([[1, -1, 2, -2], [3], [-3]]), family)  # no +-n
    assert is_member(sgn([[3, -3, 2, -2], [1], [-1]]), family)
    assert not is_member(sgn([], 0), family)


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
        ("pi_b", 3, 24),
    ]
    # the type-D counts, kept as independent data
    + [(fam, n, c) for fam in ("nc_d", "nn_d") for n, c in ((2, 4), (3, 14), (4, 50), (5, 182), (6, 672))],
)
def test_family_counts(family, n, count):
    assert len(enumerate_family(family, n)) == count
    assert count_family(family, n) == count


def test_enumeration_is_sorted_canonically():
    items = enumerate_family("nc_b", 3)
    assert list(items) == sorted(items, key=lambda p: p.blocks)


# verify's filter check sweeps n = 1..6, so only the rank-0 member is left to compare
@pytest.mark.parametrize("family", [fam for fam in SIGNED_FAMILIES if fam not in RANK_ONE])
def test_enumeration_matches_filter_oracle(family):
    filtered = [p for p in enumerate_signed(0) if is_member(p, family)]
    assert enumerate_family(family, 0) == tuple(filtered)


@pytest.mark.parametrize("family", SIGNED_FAMILIES)
def test_kernel_builds_canonical_objects(family):
    """The unchecked signed<->marked readings agree with the checked
    constructors on every marked member of rank <= 7, and read each other back."""
    for n in range(1 if family in RANK_ONE else 0, 8):
        for m in marked_members(SIGNED_FAMILIES[family].marked, n):
            p = _read_signed(family, m)
            assert p == sgn(p.blocks, p.n)
            assert _read_marked(family, p) == m


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
    # an empty mark is rejected before the marks are sorted by maximum
    message = "^marked blocks must be distinct blocks of the partition$"
    with pytest.raises(ValidationError, match=message):
        MarkedPair.make(FIG2, [()])
    with pytest.raises(ValidationError, match=message):
        MarkedTriple.make(FIG2, [()], 1)
    # marks that are not collections of integers get the same text, not a TypeError
    for marked in (5, [5], [["a", 1]], [[[1]]], None):
        with pytest.raises(ValidationError, match=message):
            MarkedPair.make(FIG2, marked)
        with pytest.raises(ValidationError, match=message):
            MarkedTriple.make(FIG2, marked, 0)
    # a mark equal to a block is stored as that block, and epsilon as an int
    m = MarkedPair.make(sp([[1, 2], [3]]), [(1.0, 2.0)])
    t = MarkedTriple.make(sp([[1, 2]]), [(1, 2)], True)
    assert repr(m.marked) == "((1, 2),)" and repr(t.epsilon) == "1"
    assert marked_pair_from_obj(json.loads(json.dumps(marked_pair_to_obj(m)))) == m
    assert marked_triple_from_obj(json.loads(json.dumps(marked_triple_to_obj(t)))) == t
    with pytest.raises(ValidationError, match=r"^each of marked must be a list of integers, got \[1\.0, 2\.0\]$"):
        marked_pair_from_obj({"sigma": {"n": 3, "blocks": [[1, 2], [3]]}, "marked": [[1.0, 2.0]]})
    with pytest.raises(ValidationError, match="^epsilon must be -1, 0 or 1$"):
        marked_triple_from_obj({"sigma": {"n": 2, "blocks": [[1, 2]]}, "marked": [[1, 2]], "epsilon": True})


def test_marked_class_sizes():
    # all marks on nonnested blocks of noncrossing partitions: central binomial
    for n in range(1, 6):
        assert sum(1 for _ in marked_members("nc_nn", n)) == math.comb(2 * n, n)
        assert sum(1 for _ in marked_members("nn_na", n)) == math.comb(2 * n, n)
    # the triples over [3] have rank 4, like |NC_D(4)|
    assert sum(1 for _ in marked_members("nc_nn_pm", 4)) == 50


def test_marked_members_yield_at_large_n():
    singletons = SetPartition(1200, tuple((x,) for x in range(1, 1201)))
    assert next(marked_members("nc_nn", 1200)) == MarkedPair(singletons, ())


def test_marked_members_order():
    """sigma in generator order, marks by itertools.combinations, epsilon in -1, 0, 1."""
    got = [(t.sigma.blocks, t.marked, t.epsilon) for t in marked_members("nc_nn_pm", 3)]
    apart, whole = ((1,), (2,)), ((1, 2),)
    marks = [((1,),), ((2,),), ((1,), (2,))]
    assert got == [
        (apart, (), 0), *((apart, m, e) for m in marks for e in (-1, 0, 1)),
        (whole, (), 0), *((whole, whole, e) for e in (-1, 0, 1)),
    ]


@pytest.mark.parametrize("call", [lambda: marked_members("nc_xx", 3), lambda: marked_members("nc_nn_pm", 0)],
                         ids=["unknown class", "triple class at rank 0"])
def test_marked_members_checks_at_the_call(call):
    with pytest.raises(ValidationError):
        call()


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
        ("D", 4, (2, 2), 6),  # parts summing to n
        ("D", 4, (2,), 3),  # parts summing to n - 2
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
    for fn in (count_by_type, exhaustive_count_by_type):
        with pytest.raises(ValidationError, match="unknown type family"):
            fn("E", 3, ())


@pytest.mark.parametrize("family", ["A", "B"])
def test_count_by_type_negative_n(family):
    with pytest.raises(ValidationError, match="^n must be >= 0$"):
        count_by_type(family, -1, ())


def test_count_by_type_type_d_needs_positive_n():
    with pytest.raises(ValidationError, match="^n must be >= 1$"):
        count_by_type("D", 0, ())
    with pytest.raises(ValidationError, match="^n must be >= 1$"):
        count_by_type("D", -1, (1,))


@pytest.mark.parametrize("family", FAMILIES)
def test_count_agrees_with_enumeration_over_domain(family):
    least = 1 if family in RANK_ONE else 0
    for n in range(-1, 6):
        if n < least:
            with pytest.raises(ValidationError, match=f"^n must be >= {least}$"):
                count_family(family, n)
            with pytest.raises(ValidationError, match=f"^n must be >= {least}$"):
                enumerate_family(family, n)
        else:
            assert count_family(family, n) == len(enumerate_family(family, n))


NOT_AN_INTEGER, NOT_A_PART = "n must be an integer", "type parts must be positive integers"

# entry point -> (call on n, the error text for an n that operator.index rejects)
NON_INTEGER_N = {
    "partitions": (lambda n: list(partitions(n)), NOT_AN_INTEGER),
    "noncrossing_partitions": (lambda n: list(noncrossing_partitions(n)), NOT_AN_INTEGER),
    "nonnesting_partitions": (lambda n: list(nonnesting_partitions(n)), NOT_AN_INTEGER),
    "enumerate_family_nc_a": (lambda n: enumerate_family("nc_a", n), NOT_AN_INTEGER),
    "enumerate_family_nn_a": (lambda n: enumerate_family("nn_a", n), NOT_AN_INTEGER),
    "enumerate_signed": (lambda n: list(enumerate_signed(n)), NOT_AN_INTEGER),
    "count_family": (lambda n: count_family("nc_a", n), NOT_AN_INTEGER),
    "count_signed": (count_signed, NOT_AN_INTEGER),
    "lattice_paths": (lambda n: list(lattice_paths(n)), NOT_AN_INTEGER),
    "count_by_type": (lambda n: count_by_type("B", n, ()), NOT_AN_INTEGER),
    "count_by_type_part": (lambda n: count_by_type("B", 2, [n]), NOT_A_PART),
    "exhaustive_count_by_type_part": (lambda n: exhaustive_count_by_type("B", 2, [1, n]), NOT_A_PART),
    "marked_members_pair_class": (lambda n: marked_members("nn_na", n), NOT_AN_INTEGER),
    "marked_members_triple_class": (lambda n: marked_members("nc_nn_pm", n), NOT_AN_INTEGER),
    "restricted_pairs": (restricted_pairs, NOT_AN_INTEGER),
}


@pytest.mark.parametrize("n", [2.5, "3"])
@pytest.mark.parametrize("entry", NON_INTEGER_N)
def test_non_integer_n_is_rejected(entry, n):
    """An n (or a type part) that is not an integer is a ValidationError, never
    a partition of [2.5] or a bare TypeError."""
    call, text = NON_INTEGER_N[entry]
    with pytest.raises(ValidationError, match=f"^{text}$"):
        call(n)


def _move_pair(p: SignedPartition, rng: random.Random, move: str) -> SignedPartition:
    """p with one pair +-x moved: "apart" into the singletons {x} and {-x},
    "pair" into another block C and -x into its mirror, "zero" into the zero
    block (made {x, -x} when there is none).  "pair" falls back to "zero"
    when every other element is in the zero block."""
    x = rng.randint(1, p.n)
    blocks = [b for b in ([y for y in b if abs(y) != x] for b in p.blocks) if b]
    zero = next((b for b in blocks if -b[0] == b[-1]), None)
    others = [b for b in blocks if b is not zero]
    if move == "apart":
        blocks += [[x], [-x]]
    elif move == "pair" and others:
        c = rng.choice(others)
        next(b for b in blocks if -c[0] in b).append(-x)
        c.append(x)
    elif zero is None:
        blocks.append([x, -x])
    else:
        zero += [x, -x]
    return SignedPartition.from_blocks(blocks, p.n)


# nc_d and nn_d have no ordering oracle: they are decided by their triple round trip
@pytest.mark.parametrize("family", list(_ORDERS))
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    move=st.sampled_from(["apart", "pair", "zero"]),
)
def test_near_miss_membership_matches_pattern_free(family, n, seed, move):
    rng = random.Random(seed)
    q = _move_pair(random_member(rng, family, n), rng, move)
    order = _ORDERS[family](n)
    blocks = _with_zero_element(q) if family == "nn_b" else q.blocks
    pattern = "crossing" if family.startswith("nc") else "nesting"
    assert is_member(q, family) == pattern_free(blocks, order, pattern)


def _in_image_by_rebuild(p: SignedPartition, family: str) -> bool:
    """The type-D definition with the whole inverse built: the forward reading
    of p is a valid marked triple whose inverse reading is p."""
    try:
        triple = _read_marked(family, p)
    except ValidationError:
        return False
    return validate_marked(triple, SIGNED_FAMILIES[family].marked) and _read_signed(family, triple) == p


@pytest.mark.parametrize("family", ["nc_d", "nn_d"])
def test_type_d_membership_matches_the_rebuild_on_every_signed_partition(family):
    for n in range(7):
        for p in enumerate_signed(n):
            assert is_member(p, family) == _in_image_by_rebuild(p, family)


@pytest.mark.parametrize("family", ["nc_d", "nn_d"])
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    move=st.sampled_from(["apart", "pair", "zero"]),
)
def test_near_miss_type_d_membership_matches_the_rebuild(family, n, seed, move):
    rng = random.Random(seed)
    q = _move_pair(random_member(rng, family, n), rng, move)
    assert is_member(q, family) == _in_image_by_rebuild(q, family)


def test_membership_decisions_reach_a_scan(monkeypatch):
    # perfbench times the membership layer as the two scans, so a decision
    # made around them would read as no membership cost at all.  pi_b is every
    # signed partition: its membership is the type test alone.
    reached = []
    for name in ("noncrossing_wrt", "nonnesting_wrt"):
        scan = getattr(models, name)
        monkeypatch.setattr(models, name, lambda blocks, order, scan=scan: reached.append(scan) or scan(blocks, order))
    rng = random.Random("coxcat-scans")
    for domain in [fam for fam in FAMILIES if fam != "pi_b"] + list(MARKED_CLASSES + MARKED_TRIPLE_CLASSES):
        decide = is_member if domain in FAMILIES else validate_marked
        for n in (1, 6, 30):
            x = random_member(rng, domain, n)
            reached.clear()
            assert decide(x, domain)
            assert reached, (domain, n)
