"""Set partitions of [n] and their crossing/nesting structure.

Partitions are stored in canonical form: each block is an ascending tuple
and blocks are ordered by their minimum element.  The empty partition
(n = 0) is a valid value.  Everything here is immutable and pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

Block = tuple[int, ...]
Edge = tuple[int, int]


class ValidationError(ValueError):
    """An input fails structural validation."""


class InternalInvariantError(RuntimeError):
    """A structural identity that must always hold failed at runtime."""


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1, ..., n} into disjoint nonempty blocks."""

    n: int
    blocks: tuple[Block, ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int | None = None) -> "SetPartition":
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
        return cls(n, tuple(sorted(canon)))

    def block_containing(self, x: int) -> Block:
        for b in self.blocks:
            if x in b:
                return b
        raise ValidationError(f"{x} is not in the ground set [{self.n}]")

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


EMPTY = SetPartition(0, ())


def edges(p: SetPartition) -> tuple[Edge, ...]:
    """All pairs of consecutive elements of a block, sorted by left endpoint."""
    out: list[Edge] = []
    for b in p.blocks:
        out.extend(zip(b, b[1:]))
    return tuple(sorted(out))


def type_of(p: SetPartition) -> tuple[int, ...]:
    """Multiset of block sizes, as a weakly decreasing tuple."""
    return tuple(sorted((len(b) for b in p.blocks), reverse=True))


def nonnested_blocks(p: SetPartition) -> tuple[Block, ...]:
    """Blocks B with no edge (i, j) satisfying i < min(B) <= max(B) < j, sorted by maximum.

    One sweep over 1..n keeps the largest right end of an edge that starts
    before the current element, so B is nonnested iff that prefix maximum,
    read at min(B), does not pass max(B).  O(n), plus sorting the result.
    p must be canonical: ascending blocks that partition [n].
    """
    right_end = [0] * (p.n + 1)  # right_end[i] = j for the edge (i, j), else 0
    for b in p.blocks:
        for i, j in zip(b, b[1:]):
            right_end[i] = j
    reach = [0] * (p.n + 1)  # reach[x] = max right end of an edge (i, j) with i < x
    for x in range(1, p.n):
        reach[x + 1] = max(reach[x], right_end[x])
    out = [b for b in p.blocks if reach[b[0]] <= b[-1]]
    return tuple(sorted(out, key=lambda b: b[-1]))


def nonaligned_blocks(p: SetPartition) -> tuple[Block, ...]:
    """Blocks B with no edge (i, j) satisfying max(B) < i, sorted by maximum.

    B is nonaligned iff max(B) is at least the largest left end of an edge,
    which is the largest second-to-last element of a block.  O(n), plus
    sorting the result.  p must be canonical: ascending blocks that
    partition [n].
    """
    last_left = max((b[-2] for b in p.blocks if len(b) > 1), default=0)
    out = [b for b in p.blocks if b[-1] >= last_left]
    return tuple(sorted(out, key=lambda b: b[-1]))


def special_blocks(p: SetPartition, kind: str) -> tuple[Block, ...]:
    if kind == "nonnested":
        return nonnested_blocks(p)
    if kind == "nonaligned":
        return nonaligned_blocks(p)
    raise ValidationError(f"unknown block kind {kind!r}")


def _blocks_of(obj) -> tuple[Block, ...]:
    return obj.blocks if hasattr(obj, "blocks") else tuple(tuple(sorted(b)) for b in obj)


def pattern_free(p, order: Sequence[int], pattern: str) -> bool:
    """No quadruple of positions i<j<k<l realizes the pattern across two blocks.

    Crossing means elements of B sit at positions i, k and elements of B' at
    j, l; nesting means B at i, l and B' at j, k.  The order must be a
    permutation of the ground set partitioned by p.
    """
    if pattern not in ("crossing", "nesting"):
        raise ValidationError(f"unknown pattern {pattern!r}")
    blocks = _blocks_of(p)
    ground = sorted(x for b in blocks for x in b)
    if len(set(order)) != len(order) or sorted(order) != ground:
        raise ValidationError("order does not match the partitioned ground set")
    pos = {x: i for i, x in enumerate(order)}
    positioned = [sorted(pos[x] for x in b) for b in blocks]
    for pb, qb in itertools.combinations(positioned, 2):
        if pattern == "crossing":
            if _interleave(pb, qb):
                return False
        else:
            if _two_inside(pb, qb) or _two_inside(qb, pb):
                return False
    return True


def _interleave(pb: list[int], qb: list[int]) -> bool:
    # positions alternate P,Q,P,Q (or Q,P,Q,P) somewhere: three label switches
    merged = sorted([(x, 0) for x in pb] + [(x, 1) for x in qb])
    switches = sum(1 for a, b in zip(merged, merged[1:]) if a[1] != b[1])
    return switches >= 3


def _two_inside(outer: list[int], inner: list[int]) -> bool:
    lo, hi = outer[0], outer[-1]
    return sum(1 for q in inner if lo < q < hi) >= 2


def arcs_in_order(blocks: Iterable[Iterable[int]], order: Sequence[int]) -> list[Edge]:
    """Position arcs of the standard representation with respect to the order.

    Each position is the left end of at most one arc and the right end of at
    most one arc, which is what arcs_cross and arcs_nest rely on.
    """
    pos = {x: i for i, x in enumerate(order)}
    arcs: list[Edge] = []
    for b in blocks:
        q = sorted(pos[x] for x in b)
        arcs.extend(zip(q, q[1:]))
    return arcs


def arcs_cross(arcs: Sequence[Edge]) -> bool:
    """Some two arcs (a, b), (c, d) satisfy a < c < b < d.

    Scans the arcs by left end with a stack of the right ends still open,
    innermost on top; the arc being added crosses an open one iff the top
    closes strictly inside it.  O(k log k) for the sort, then O(k).  Left
    ends must be distinct, as arcs_in_order guarantees: arcs sharing a left
    end never cross, but this scan would report (1, 3), (1, 5) as crossing.
    """
    open_rights: list[int] = []
    for a, b in sorted(arcs):
        while open_rights and open_rights[-1] <= a:
            open_rights.pop()
        if open_rights and open_rights[-1] < b:
            return True
        open_rights.append(b)
    return False


def arcs_nest(arcs: Sequence[Edge]) -> bool:
    """Some two arcs (a, b), (c, d) satisfy a < c < d < b.

    With distinct left ends and distinct right ends, as arcs_in_order
    guarantees, the arcs nest iff their right ends, read by left end, are
    not in increasing order.  O(k log k) for the two sorts.
    """
    rights = [b for _, b in sorted(arcs)]
    return rights != sorted(rights)


def noncrossing_wrt(blocks, order: Sequence[int]) -> bool:
    """Arc test; agrees with the quadruple condition for the crossing pattern.

    O(n log n) for n elements; order must list the ground set of the blocks.
    """
    return not arcs_cross(arcs_in_order(_blocks_of(blocks), order))


def nonnesting_wrt(blocks, order: Sequence[int]) -> bool:
    """No two arcs of the standard representation nest.

    O(n log n) for n elements; order must list the ground set of the blocks.
    """
    return not arcs_nest(arcs_in_order(_blocks_of(blocks), order))


def slice_partition(p: SetPartition, lo: int, hi: int) -> SetPartition:
    """The induced partition on {lo, ..., hi}, relabeled to {1, ..., hi-lo+1}."""
    if lo > hi:
        return EMPTY
    blocks = []
    for b in p.blocks:
        t = tuple(x - lo + 1 for x in b if lo <= x <= hi)
        if t:
            blocks.append(t)
    return SetPartition(hi - lo + 1, tuple(sorted(blocks)))


# ---------------------------------------------------------------------------
# Enumeration


def partitions(n: int) -> Iterator[SetPartition]:
    """All partitions of [n], in restricted-growth-string order."""
    if n == 0:
        yield EMPTY
        return
    rgs = [0] * n

    def rec(i: int, mx: int) -> Iterator[SetPartition]:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(mx + 1)]
            for k, j in enumerate(rgs):
                blocks[j].append(k + 1)
            yield SetPartition(n, tuple(tuple(b) for b in blocks))
            return
        for j in range(mx + 2):
            rgs[i] = j
            yield from rec(i + 1, max(mx, j))

    yield from rec(1, 0)


_NC_CACHE_MAX = 10


@lru_cache(maxsize=None)
def _nc_list(m: int) -> tuple[tuple[Block, ...], ...]:
    return tuple(_iter_nc(m))


def _iter_nc(m: int) -> Iterator[tuple[Block, ...]]:
    # recursive gap decomposition on the block containing 1
    if m == 0:
        yield ()
        return
    rest = range(2, m + 1)
    for k in range(m):
        for comb in itertools.combinations(rest, k):
            first = (1,) + comb
            segs = []
            prev = 1
            for x in comb:
                segs.append((prev + 1, x - 1))
                prev = x
            segs.append((prev + 1, m))
            yield from _fill_segments((first,), segs, 0)


def _fill_segments(acc: tuple[Block, ...], segs, idx) -> Iterator[tuple[Block, ...]]:
    if idx == len(segs):
        yield tuple(sorted(acc))
        return
    lo, hi = segs[idx]
    ln = hi - lo + 1
    if ln <= 0:
        yield from _fill_segments(acc, segs, idx + 1)
        return
    subs = _nc_list(ln) if ln <= _NC_CACHE_MAX else _iter_nc(ln)
    for sub in subs:
        shifted = tuple(tuple(x + lo - 1 for x in b) for b in sub)
        yield from _fill_segments(acc + shifted, segs, idx + 1)


def noncrossing_partitions(n: int) -> Iterator[SetPartition]:
    """All noncrossing partitions of [n]."""
    for bs in (_nc_list(n) if n <= _NC_CACHE_MAX else _iter_nc(n)):
        yield SetPartition(n, bs)


def nonnesting_partitions(n: int) -> Iterator[SetPartition]:
    """All nonnesting partitions of [n].

    Scans 1..n keeping the blocks that may still grow, ordered by their last
    element.  Extending a block forecloses growth of every block whose last
    element is smaller; that restriction is exactly nonnesting.
    """
    if n == 0:
        yield EMPTY
        return

    def rec(p: int, open_bs: tuple[Block, ...], done: tuple[Block, ...]) -> Iterator[tuple[Block, ...]]:
        if p > n:
            yield tuple(sorted(done + open_bs))
            return
        yield from rec(p + 1, open_bs + ((p,),), done)
        for i in range(len(open_bs)):
            ext = open_bs[i] + (p,)
            yield from rec(p + 1, open_bs[i + 1:] + (ext,), done + open_bs[:i])

    for bs in rec(1, (), ()):
        yield SetPartition(n, bs)
