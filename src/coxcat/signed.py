"""Partitions of [+-n] closed under negation, with at most one self-negative block.

The triple decomposition (underlying partition of [n], marked blocks, maximal
matching) identifies these with triples over ordinary set partitions, which
drives both enumeration and the Stirling/involution counting formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, Iterator

from .core import Block, SetPartition, ValidationError, partitions


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
        expected = [x for x in range(-n, n + 1) if x != 0]
        if elems != expected:
            raise ValidationError(f"blocks do not partition [+-{n}]")
        block_set = set(canon)
        zero_count = 0
        for b in canon:
            neg = tuple(-x for x in reversed(b))  # b is ascending, so neg is too
            if neg not in block_set:
                raise ValidationError(f"mirror of block {b} is missing")
            if neg == b:
                zero_count += 1
        if zero_count > 1:
            raise ValidationError("more than one zero block")
        return cls(n, tuple(sorted(canon, key=_block_key)))

    def block_containing(self, x: int) -> Block:
        for b in self.blocks:
            if x in b:
                return b
        raise ValidationError(f"{x} is not in the ground set [+-{self.n}]")

    def zero_block(self) -> Block | None:
        for b in self.blocks:
            if -b[0] == b[-1] and all(-x in b for x in b):
                return b
        return None

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


def _block_key(b: Block) -> tuple[int, int]:
    m = min(abs(x) for x in b)
    return (m, 0 if m in b else 1)


EMPTY_SIGNED = SignedPartition(0, ())


def validate_signed(blocks: Iterable[Iterable[int]], n: int | None = None) -> SignedPartition:
    """Canonicalize raw blocks, rejecting anything that is not a signed partition."""
    return SignedPartition.from_blocks(blocks, n)


def positive_part(b: Iterable[int]) -> Block:
    return tuple(sorted(x for x in b if x > 0))


def signed_type(p: SignedPartition) -> tuple[int, ...]:
    """Sizes of the unordered nonzero mirror pairs, weakly decreasing."""
    sizes = []
    seen = set()
    for b in p.blocks:
        neg = tuple(sorted(-x for x in b))
        if b == neg or b in seen:
            continue
        seen.add(neg)
        sizes.append(len(b))
    return tuple(sorted(sizes, reverse=True))


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
        pos = positive_part(b)
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
    return _from_pairs(sigma, marked, pairs + [(a, a) for a in leftover], sigma.n)


def _from_pairs(sigma: SetPartition, marked: Collection[Block], pairs, n: int) -> SignedPartition:
    """Each pair (A, A') gives A u -A' and its mirror, one zero block when A = A';
    each block of sigma outside marked gives itself and its mirror."""
    out: list[Block] = []
    for a1, a2 in pairs:
        mixed = tuple(sorted(a1 + tuple(-x for x in a2)))
        mirror = tuple(-x for x in reversed(mixed))
        out.append(mixed)
        if mirror != mixed:
            out.append(mirror)
    for b in sigma.blocks:
        if b not in marked:
            out.append(b)
            out.append(tuple(-x for x in reversed(b)))
    return SignedPartition.from_blocks(out, n)


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
    if n < 0:
        raise ValidationError("n must be >= 0")
    if n == 0:
        return 1  # the empty signed partition
    return sum(stirling2(n, k) * involutions(k + 1) for k in range(1, n + 1))
