"""The linear construction kernel against the sort-based constructors it
replaced, and the canonical form of the concatenation algebra's outputs."""

import itertools
import json
import random

import pytest
from conftest import random_noncrossing
from hypothesis import given, settings, strategies as st

from coxcat.core import (
    EMPTY,
    SetPartition,
    ValidationError,
    noncrossing_partitions,
    partitions,
    slice_partition,
)
from coxcat.jsonio import set_partition_from_obj, set_partition_to_obj, signed_partition_from_obj, signed_partition_to_obj
from coxcat.signed import SignedPartition
from coxcat.typemaps import decompose, is_connected, star, uplus, xi

# ---------------------------------------------------------------------------
# Oracles: the sort-based constructors, returning (n, blocks)


def sorted_set_partition(blocks, n=None):
    canon = []
    for b in blocks:
        t = tuple(sorted(b))
        if not t:
            raise ValidationError("empty block")
        if len(set(t)) != len(t):
            raise ValidationError(f"repeated element in block {t}")
        canon.append(t)
    elems = sorted(x for b in canon for x in b)
    if n is None:
        n = elems[-1] if elems else 0
    if elems != list(range(1, n + 1)):
        raise ValidationError(f"blocks do not partition [{n}]: {canon}")
    return n, tuple(sorted(canon))


def _block_key(b):
    m = min(abs(x) for x in b)
    return (m, 0 if m in b else 1)


def sorted_signed_partition(blocks, n=None):
    canon = []
    for b in blocks:
        t = tuple(sorted(b))
        if not t:
            raise ValidationError("empty block")
        if len(set(t)) != len(t):
            raise ValidationError(f"repeated element in block {t}")
        if 0 in t:
            raise ValidationError("0 is not a ground-set element")
        canon.append(t)
    elems = sorted(x for b in canon for x in b)
    if n is None:
        n = max((abs(x) for x in elems), default=0)
    if elems != [x for x in range(-n, n + 1) if x != 0]:
        raise ValidationError(f"blocks do not partition [+-{n}]")
    block_set = set(canon)
    zero_count = 0
    for b in canon:
        neg = tuple(-x for x in reversed(b))
        if neg not in block_set:
            raise ValidationError(f"mirror of block {b} is missing")
        if neg == b:
            zero_count += 1
    if zero_count > 1:
        raise ValidationError("more than one zero block")
    return n, tuple(sorted(canon, key=_block_key))


def _outcome(build, blocks, n):
    try:
        p = build(blocks, n)
    except ValidationError as e:
        return "error", str(e)
    return "value", p if isinstance(p, tuple) else (p.n, p.blocks)


def _assert_agrees(cls, oracle, blocks, n):
    got = _outcome(cls.from_blocks, blocks, n)
    if n is not None and n < 0:
        assert got == ("error", "n must be >= 0")
    else:
        assert got == _outcome(oracle, blocks, n)


# ---------------------------------------------------------------------------
# Random block lists, valid and with one fault each


def _random_blocks(rng, n):
    """The blocks of a random partition of [n], as lists."""
    labels = [rng.randrange(n) for _ in range(n)]
    blocks = {}
    for x, label in enumerate(labels, 1):
        blocks.setdefault(label, []).append(x)
    return list(blocks.values())


def _signed_blocks(rng, n):
    """A random signed partition of [+-n]: each block of a partition of [n]
    stays with its mirror, pairs with another into A u -A' and -A u A', or,
    for one of them, becomes the zero block A u -A."""
    base = _random_blocks(rng, n)
    rng.shuffle(base)
    out = []
    zero = rng.random() < 0.5
    while base:
        a = base.pop()
        if zero:
            out.append(a + [-x for x in a])
            zero = False
        elif base and rng.random() < 0.5:
            b = base.pop()
            out += [a + [-x for x in b], b + [-x for x in a]]
        else:
            out += [a, [-x for x in a]]
    return out


FAULTS = ("none", "empty", "repeat", "zero", "drop", "stray", "move", "merge", "merge_mirror", "n_up", "n_down",
          "negative_n")


def _faulty(rng, blocks, n, fault):
    """blocks (lists, shuffled) and the n to pass, with the fault applied."""
    blocks = [list(b) for b in blocks]
    pass_n = n if rng.random() < 0.7 else None
    if fault == "empty":
        blocks.insert(rng.randrange(len(blocks) + 1), [])
    elif blocks and fault == "repeat":
        b = rng.choice(blocks)
        b.append(rng.choice(b))
    elif fault in ("zero", "stray"):
        x = 0 if fault == "zero" else rng.choice((n + 1, -n - 1, n + 5))
        if blocks:
            rng.choice(blocks).append(x)
        else:
            blocks.append([x])
    elif blocks and fault == "drop":
        b = rng.choice(blocks)
        b.remove(rng.choice(b))
    elif len(blocks) > 1 and fault == "move":
        i, j = rng.sample(range(len(blocks)), 2)
        blocks[j].append(blocks[i].pop())
    elif len(blocks) > 1 and fault == "merge":
        i, j = sorted(rng.sample(range(len(blocks)), 2))
        blocks[i] += blocks.pop(j)
    elif blocks and fault == "merge_mirror":
        b = rng.choice(blocks)
        mirror = sorted(-x for x in b)
        for c in blocks:
            if c is not b and sorted(c) == mirror:
                blocks.remove(c)
                b += c
                break
    elif fault == "n_up":
        pass_n = n + 1
    elif fault == "n_down":
        pass_n = n - 1
    elif fault == "negative_n":
        pass_n = -rng.randint(1, 3)
    rng.shuffle(blocks)
    for b in blocks:
        rng.shuffle(b)
    return blocks, pass_n


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.sampled_from(FAULTS), st.randoms(use_true_random=False))
def test_set_partition_from_blocks_matches_sorting_oracle(n, fault, rng):
    blocks, pass_n = _faulty(rng, _random_blocks(rng, n), n, fault)
    _assert_agrees(SetPartition, sorted_set_partition, blocks, pass_n)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=10), st.sampled_from(FAULTS), st.randoms(use_true_random=False))
def test_signed_partition_from_blocks_matches_sorting_oracle(n, fault, rng):
    blocks, pass_n = _faulty(rng, _signed_blocks(rng, n), n, fault)
    _assert_agrees(SignedPartition, sorted_signed_partition, blocks, pass_n)


@pytest.mark.parametrize(
    "blocks, n",
    [
        ([[1, 2], [2, 3]], None),
        ([[1], [1, 1]], None),
        ([[0, 0]], 2),
        ([[5, 5]], 3),
        ([[1], [], [2, 2]], None),
        ([[-1]], None),
        ([[1], [3]], None),
    ],
)
def test_set_partition_faults_name_the_first_offence(blocks, n):
    _assert_agrees(SetPartition, sorted_set_partition, blocks, n)


@pytest.mark.parametrize(
    "blocks, n",
    [
        ([[1, -1], [2, -2]], None),
        ([[1, -2], [2, -1], [3], [-3]], None),
        ([[1, 2], [-1], [-2]], None),
        ([[1, 0], [-1, 1]], None),
        ([[2], [-2], [1, -1], [1]], None),
        ([[1], [-1]], 2),
    ],
)
def test_signed_partition_faults_name_the_first_offence(blocks, n):
    _assert_agrees(SignedPartition, sorted_signed_partition, blocks, n)


@pytest.mark.parametrize(
    "cls, blocks, n",
    [
        (SetPartition, [[1.5]], 2),
        (SetPartition, [[1.0, 2]], None),
        (SetPartition, [[1, "a"]], None),
        (SignedPartition, [[1.5], [-1.5]], None),
        (SignedPartition, [[1], [-1]], 1.0),
        (SetPartition, [[1, 2], [3]], "3"),
        (SignedPartition, [[1], [-1]], "1"),
        # a non-integer after an empty block, with the element count right
        (SetPartition, [[], [1.5]], 1),
        (SignedPartition, [[], [1], ["a"]], 1),
    ],
)
def test_non_integers_are_rejected(cls, blocks, n):
    with pytest.raises(ValidationError, match=r"^block elements and n must be integers$"):
        cls.from_blocks(blocks, n)


@pytest.mark.parametrize(
    "cls, blocks, n",
    [
        (SetPartition, [1, 2], 2),
        (SignedPartition, [1, -1], 2),
        (SetPartition, 5, 2),
        (SignedPartition, 5, None),
    ],
)
def test_non_iterable_blocks_are_rejected(cls, blocks, n):
    with pytest.raises(ValidationError, match=r"^blocks must be an iterable of iterables$"):
        cls.from_blocks(blocks, n)


JSON_IO = {
    SetPartition: (set_partition_to_obj, set_partition_from_obj),
    SignedPartition: (signed_partition_to_obj, signed_partition_from_obj),
}


@pytest.mark.parametrize(
    "cls, blocks, n",
    [
        (SetPartition, [[1]], True),
        (SetPartition, [[True]], None),
        (SignedPartition, [[1], [-1]], True),
        (SignedPartition, [[True], [-1]], None),
    ],
)
def test_a_bool_is_stored_as_its_int(cls, blocks, n):
    # JSON would write a bool n as true, which the reader rejects
    p = cls.from_blocks(blocks, n)
    assert type(p.n) is int and {*map(type, itertools.chain(*p.blocks))} == {int}
    to_obj, from_obj = JSON_IO[cls]
    assert from_obj(json.loads(json.dumps(to_obj(p)))) == p


# ---------------------------------------------------------------------------
# The concatenation algebra emits canonical blocks without sorting


def _assert_canonical(p):
    assert p == SetPartition.from_blocks(p.blocks, p.n)


def test_decompose_star_uplus_and_xi_outputs_are_canonical():
    for n in range(1, 9):
        for p in noncrossing_partitions(n):
            for variant in (1, 2):
                d = decompose(p, variant)
                joined = star(d.connected_part, d.tail)
                for part in (d.prefix, d.connected_part, d.tail, joined, uplus(d.prefix, joined)):
                    _assert_canonical(part)
            _assert_canonical(xi(p))


def test_slice_partition_outputs_are_canonical():
    # every range of every noncrossing partition to n = 8, and of every
    # partition to n = 6, where a block starting before the range may take a
    # new minimum inside it
    parts = [p for n in range(9) for p in noncrossing_partitions(n)] + [p for n in range(7) for p in partitions(n)]
    for p in parts:
        for lo in range(1, p.n + 1):
            for hi in range(lo, p.n + 1):
                _assert_canonical(slice_partition(p, lo, hi))


def test_uplus_and_star_outputs_are_canonical():
    small = [p for n in range(5) for p in noncrossing_partitions(n)]
    for a in [p for n in range(6) for p in noncrossing_partitions(n)]:
        for b in small:
            _assert_canonical(uplus(a, b))
            if a == EMPTY or is_connected(a):
                _assert_canonical(star(a, b))


def test_xi_of_large_random_partitions_is_canonical():
    rng = random.Random("coxcat-construction")
    for _ in range(30):
        _assert_canonical(xi(random_noncrossing(rng, rng.randint(20, 60))))
