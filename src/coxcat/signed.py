"""Partitions of [+-n] closed under negation, with at most one self-negative block.

The triple decomposition (underlying partition of [n], marked blocks, maximal
matching) identifies these with triples over ordinary set partitions, which
drives both enumeration and the Stirling/involution counting formula.  One
block builder, _from_pairs, makes the canonical form directly and trusts its
input; compose_triple checks its arguments and passes the result through
SignedPartition.from_blocks, so enumeration stays a checked route.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, Iterator

from .core import _NOT_INTEGERS, Block, SetPartition, ValidationError, _check_n, _read_off, _reject, partitions


@dataclass(frozen=True)
class SignedPartition:
    """A partition of {+-1, ..., +-n} with mirror blocks and <= 1 zero block.

    Canonical form: blocks sorted ascending internally, ordered by minimum
    absolute value with the block containing the positive representative
    first.  n = 0 gives the unique empty value.
    """

    n: int
    blocks: tuple[Block, ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int | None = None) -> "SignedPartition":
        """Validate integer blocks and put them in canonical form, in O(n).

        n must be >= 0; when it is None it is the largest absolute value.
        Blocks holding other than 2n elements in all are rejected first.  Then
        one pass records owner[x], the index of the block holding x (owner[-x]
        is the entry 2n + 1 - x), and rejects a non-integer element, an empty
        block, a repeated element, 0 in a block and the blocks not
        partitioning [+-n].  Then the owners of the negated elements of each
        block must all name one block, its mirror, and at most one block may
        be its own mirror.  The canonical order is read off the array: for
        x = 1..n the block of x, then the block of -x, is placed unless
        already placed.
        """
        if n is not None:
            _check_n(n)
        bs = [tuple(b) for b in blocks]
        try:
            if n is None:
                n = max((max(map(abs, b)) for b in bs if b), default=0)
            # before the array is allocated, so that an oversized n is an error, not an allocation
            if sum(map(len, bs)) != 2 * n:
                _reject(bs, n, signed=True)
            owner = [-1] * (2 * n + 1)
            for i, b in enumerate(bs):
                if not b:
                    raise ValidationError("empty block")
                for x in b:
                    if not (x and -n <= x <= n) or owner[x] >= 0:
                        _reject(bs, n, signed=True)
                    owner[x] = i
        except TypeError:
            raise ValidationError(_NOT_INTEGERS) from None
        # Block j = mirror[i] holds the negation of the first element of block
        # i; every block has its mirror iff, for each x, -x lies in the mirror
        # of x's block.  owner[:0:-1] lists the owners of -1, ..., -n, n, ..., 1.
        mirror = [owner[-b[0]] for b in bs]
        if owner[:0:-1] != list(map(mirror.__getitem__, owner[1:])):
            for b, j in zip(bs, mirror):
                if sorted(-x for x in b) != sorted(bs[j]):
                    raise ValidationError(f"mirror of block {tuple(sorted(b))} is missing")
        if sum(map(operator.eq, mirror, range(len(bs)))) > 1:
            raise ValidationError("more than one zero block")
        ground = itertools.chain(range(-n, 0), range(1, n + 1))
        firsts = itertools.chain.from_iterable(zip(owner[1:n + 1], owner[:n:-1]))
        return cls(n, _read_off(owner, len(bs), ground, firsts))

    def block_containing(self, x: int) -> Block:
        for b in self.blocks:
            if x in b:
                return b
        raise ValidationError(f"{x} is not in the ground set [+-{self.n}]")

    def zero_block(self) -> Block | None:
        # a block holding m and -m meets its mirror, so it is its own mirror
        for b in self.blocks:
            if -b[0] == b[-1]:
                return b
        return None

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


def signed_type(p: SignedPartition) -> tuple[int, ...]:
    """Sizes of the unordered nonzero mirror pairs, weakly decreasing.

    A block and its mirror have one size, so every other entry of the sorted
    nonzero sizes is the type; the zero block is the one with -min == max.
    """
    return tuple(sorted((len(b) for b in p.blocks if -b[0] != b[-1]), reverse=True)[::2])


def zero_block_size(p: SignedPartition) -> int:
    z = p.zero_block()
    return len(z) if z else 0


@dataclass(frozen=True)
class TripleDecomposition:
    alpha: SetPartition
    beta: tuple[Block, ...]                       # sorted by maximum
    gamma: tuple[tuple[Block, Block], ...]        # matched pairs, smaller max first
    gamma0: tuple[tuple[Block, Block], ...]       # gamma plus ((0,), A) for an odd leftover


def decompose_triple(p: SignedPartition) -> TripleDecomposition:
    """Split into the positive-part partition, its mixed blocks, and their matching."""
    alpha_blocks: list[Block] = []
    beta: list[Block] = []
    pairs: set[tuple[Block, Block]] = set()
    unmatched: Block | None = None
    for b in p.blocks:
        pos = tuple(x for x in b if x > 0)  # blocks are ascending, so this is too
        if not pos:
            continue
        alpha_blocks.append(pos)
        if len(pos) < len(b):
            beta.append(pos)
            mirror_pos = tuple(sorted(-x for x in b if x < 0))
            if mirror_pos == pos:
                unmatched = pos
            else:
                pairs.add(tuple(sorted((pos, mirror_pos), key=lambda t: t[-1])))
    alpha = SetPartition.from_blocks(alpha_blocks, p.n)
    gamma = tuple(sorted(pairs, key=lambda pr: pr[0][-1]))
    gamma0 = gamma if unmatched is None else gamma + (((0,), unmatched),)
    return TripleDecomposition(alpha, tuple(sorted(beta, key=lambda b: b[-1])), gamma, gamma0)


def compose_triple(
    sigma: SetPartition,
    marked: Iterable[Block],
    matching: Iterable[tuple[Block, Block]],
) -> SignedPartition:
    """Inverse of decompose_triple on a marked partition with a maximal matching."""
    marked = {tuple(sorted(b)) for b in marked}
    block_set = set(sigma.blocks)
    if not marked <= block_set:
        raise ValidationError("marked blocks must be blocks of the partition")
    pairs = [tuple(tuple(sorted(b)) for b in pr) for pr in matching]
    in_pairs = [b for pr in pairs for b in pr]
    if len(set(in_pairs)) != len(in_pairs) or not set(in_pairs) <= marked:
        raise ValidationError("matching must consist of disjoint pairs of marked blocks")
    if len(marked) - len(in_pairs) > 1:
        raise ValidationError("matching is not maximal on the marked blocks")
    leftover = marked - set(in_pairs)
    image = _from_pairs(sigma, marked, pairs + [(a, a) for a in leftover], sigma.n)
    # the checked constructor, so that enumerating signed partitions stays independent of the kernel
    return SignedPartition.from_blocks(image.blocks, sigma.n)


def _pair_blocks(a1: Block, a2: Block) -> tuple[Block, ...]:
    """The blocks of the pair (A, A'): sorted(A u -A') and its mirror, or that
    one zero block when A = A'.  Both come out ascending."""
    mixed = tuple(sorted([*a1, *map(operator.neg, a2)]))
    if a1 == a2:
        return (mixed,)
    return mixed, tuple([*map(operator.neg, reversed(mixed))])


def _from_pairs(sigma: SetPartition, marked: Collection[Block], pairs, n: int) -> SignedPartition:
    """The signed partition in canonical form, built without a check.

    Each pair (A, A') gives its _pair_blocks; each block b of sigma outside
    marked gives b and its mirror, b negated and reversed.  Every block comes
    out ascending.  A block's place in the canonical order is that of its
    least absolute value in 1, -1, 2, -2, ...: slot 2x for x > 0 and 1 - 2x
    for x < 0, so a block and its mirror differ in the last bit.  The slots
    are distinct and below 2n + 2, so each block is put into its slot of one
    list, and the filled slots in order are the blocks.  The caller vouches
    for the pairs and marks; compose_triple is the checked route.
    """
    # Each tuple is built from a list of known length.  tuple() of a bare
    # iterator builds an oversized tuple and shrinks it, and on CPython 3.11
    # each such tuple leaves the collector's allocation count one higher, so
    # the maps ran several times as many collections (seen in gc.get_stats()).
    slots: list[Block | None] = [None] * (2 * n + 2)
    for a1, a2 in pairs:
        built = _pair_blocks(a1, a2)
        mixed = built[0]
        i = bisect_left(mixed, 1)  # the least absolute value is mixed[i - 1] or mixed[i]
        key = min([2 * x if x > 0 else 1 - 2 * x for x in mixed[max(i - 1, 0):i + 1]])
        for bit, b in enumerate(built):
            slots[key ^ bit] = b
    for b in sigma.blocks:
        if b not in marked:
            slots[2 * b[0]] = b
            slots[2 * b[0] + 1] = tuple([*map(operator.neg, reversed(b))])
    return SignedPartition(n, tuple([*filter(None, slots)]))


def maximal_matchings(items: Iterable[Block]) -> Iterator[tuple[tuple[Block, Block], ...]]:
    """All perfect (even count) or near-perfect (odd count) matchings."""
    items = list(items)
    if len(items) % 2 == 0:
        yield from _perfect_matchings(items)
    else:
        for i in range(len(items)):
            rest = items[:i] + items[i + 1:]
            yield from _perfect_matchings(rest)


def _perfect_matchings(items: list[Block]) -> Iterator[tuple[tuple[Block, Block], ...]]:
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for j in range(len(rest)):
        pair = (first, rest[j])
        for m in _perfect_matchings(rest[:j] + rest[j + 1:]):
            yield (pair,) + m


def enumerate_signed(n: int) -> Iterator[SignedPartition]:
    """Every signed partition exactly once, built from triples."""
    for sigma in partitions(n):
        bs = sigma.blocks
        for r in range(len(bs) + 1):
            for marked in itertools.combinations(bs, r):
                for matching in maximal_matchings(marked):
                    yield compose_triple(sigma, marked, matching)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def involutions(n: int) -> int:
    if n <= 1:
        return 1
    return involutions(n - 1) + (n - 1) * involutions(n - 2)


def count_signed(n: int) -> int:
    """Number of signed partitions of [+-n], computed exactly; 1 at n = 0."""
    _check_n(n)
    if n == 0:
        return 1  # the empty signed partition
    return sum(stirling2(n, k) * involutions(k + 1) for k in range(1, n + 1))
