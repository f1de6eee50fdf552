"""Set partitions of [n] and their crossing/nesting structure.

Partitions are stored in canonical form: each block is an ascending tuple
and blocks are ordered by their minimum element.  The empty partition
(n = 0) is a valid value.  Everything here is immutable and pure.

Whether blocks cross or nest in a total order (noncrossing_wrt,
nonnesting_wrt) is one O(n) scan of the order over an ownership array;
pattern_free, one loop over pairs of arcs, is the definition they are tested
against.  A partition's nonnested and nonaligned blocks are each found by one
O(n) scan, made at most once per instance: the result is cached on the
instance, which changes neither its equality, its hash nor its JSON.  The
noncrossing scan of a partition in its own order 1..n passes the nonnested
blocks on its way, so a noncrossing partition leaves that scan with them
cached, and a membership check followed by a map makes one scan, not two.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, NoReturn, Sequence

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

    # nonnested_blocks and nonaligned_blocks keep their result here.  As
    # ClassVars these are not dataclass fields, so equality, hashing, repr and
    # JSON ignore them.  They are set with object.__setattr__, which keeps
    # CPython's compact instance layout; functools.cached_property writes
    # through the instance __dict__, which on CPython 3.11 and 3.12 doubles the
    # cost of every later attribute load on the instance.
    _nonnested: ClassVar[tuple[Block, ...] | None] = None
    _nonaligned: ClassVar[tuple[Block, ...] | None] = None

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int | None = None) -> "SetPartition":
        """Validate integer blocks and put them in canonical form, in O(n).

        n must be >= 0; when it is None it is the largest element.  Blocks
        holding other than n elements in all are rejected first.  Then one
        pass records owner[x], the index of the block holding x, and rejects
        a non-integer element, an empty block, a repeated element and the
        blocks not partitioning [n].  The canonical order is read off the
        array: scanning x = 1..n appends x to its block, and a block is
        placed when its minimum is reached.
        """
        if n is not None:
            _check_n(n)
        bs = [tuple(b) for b in blocks]
        try:
            if n is None:
                n = max((max(b) for b in bs if b), default=0)
            # before the array is allocated, so that an oversized n is an error, not an allocation
            if sum(map(len, bs)) != n:
                _reject(bs, n)
            owner = [-1] * (n + 1)
            for i, b in enumerate(bs):
                if not b:
                    raise ValidationError("empty block")
                for x in b:
                    if not 0 < x <= n or owner[x] >= 0:
                        _reject(bs, n)
                    owner[x] = i
        except TypeError:
            raise ValidationError(_NOT_INTEGERS) from None
        return cls(n, _read_off(owner, len(bs), range(1, n + 1), owner[1:]))

    def block_containing(self, x: int) -> Block:
        for b in self.blocks:
            if x in b:
                return b
        raise ValidationError(f"{x} is not in the ground set [{self.n}]")

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


EMPTY = SetPartition(0, ())

_NOT_INTEGERS = "block elements and n must be integers"

_MAXIMUM = operator.itemgetter(-1)


def _reject(bs: list[tuple], n: int, signed: bool = False) -> NoReturn:
    """Raise the error for blocks that do not partition [n] (or [+-n] when signed).

    A non-integer n or element raises TypeError, which the caller reports as
    _NOT_INTEGERS.  Then each block in turn is checked for emptiness, a
    repeat and (signed) the element 0; then comes the cover of [n] or [+-n].
    """
    for x in itertools.chain((n,), *bs):
        operator.index(x)
    canon = [tuple(sorted(b)) for b in bs]
    for t in canon:
        if not t:
            raise ValidationError("empty block")
        if len(set(t)) != len(t):
            raise ValidationError(f"repeated element in block {t}")
        if signed and 0 in t:
            raise ValidationError("0 is not a ground-set element")
    raise ValidationError(f"blocks do not partition [+-{n}]" if signed else f"blocks do not partition [{n}]: {canon}")


def _read_off(owner: list[int], count: int, ground: Iterable[int], firsts: Iterable[int]) -> tuple[Block, ...]:
    """Blocks 0..count-1 of the ownership array owner, in canonical form.

    Walking the ground set in ascending order appends each element to its
    block, so every block comes out ascending; the blocks are then listed in
    the order in which firsts, a sequence of block indices, first names them.
    """
    members: list[list[int]] = [[] for _ in range(count)]
    for x in ground:
        members[owner[x]].append(x)
    return tuple([tuple(members[i]) for i in dict.fromkeys(firsts)])


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
    before the current element, so B is nonnested iff that running maximum,
    read at min(B), does not pass max(B).  O(n), plus sorting the result,
    once per instance: the result is kept on p.  p must be canonical:
    ascending blocks that partition [n].
    """
    if p._nonnested is not None:
        return p._nonnested
    right_end = [0] * (p.n + 1)  # right_end[i] = j for the edge (i, j), else 0
    for b in p.blocks:
        for i, j in zip(b, b[1:]):
            right_end[i] = j
    out = []
    reach, x = 0, 1  # reach: the largest right end of an edge (i, j) with i < x
    for b in p.blocks:
        while x < b[0]:
            if right_end[x] > reach:
                reach = right_end[x]
            x += 1
        if reach <= b[-1]:
            out.append(b)
    found = tuple(sorted(out, key=_MAXIMUM))
    object.__setattr__(p, "_nonnested", found)
    return found


def nonaligned_blocks(p: SetPartition) -> tuple[Block, ...]:
    """Blocks B with no edge (i, j) satisfying max(B) < i, sorted by maximum.

    B is nonaligned iff max(B) is at least the largest left end of an edge,
    which is the largest second-to-last element of a block.  O(n), plus
    sorting the result, once per instance: the result is kept on p.  p must
    be canonical: ascending blocks that partition [n].
    """
    if p._nonaligned is not None:
        return p._nonaligned
    last_left = max((b[-2] for b in p.blocks if len(b) > 1), default=0)
    found = tuple(sorted([b for b in p.blocks if b[-1] >= last_left], key=_MAXIMUM))
    object.__setattr__(p, "_nonaligned", found)
    return found


def special_blocks(p: SetPartition, kind: str) -> tuple[Block, ...]:
    if kind == "nonnested":
        return nonnested_blocks(p)
    if kind == "nonaligned":
        return nonaligned_blocks(p)
    raise ValidationError(f"unknown block kind {kind!r}")


def _blocks_of(obj) -> tuple[Block, ...]:
    return obj.blocks if hasattr(obj, "blocks") else tuple(tuple(sorted(b)) for b in obj)


def pattern_free(p, order: Sequence[int], pattern: str) -> bool:
    """No two arcs of the standard representation cross, or nest, in the order.

    The arcs join the positions of consecutive elements of a block, read in
    order (arcs_in_order).  Two arcs (a, b) and (c, d) with a < c cross when
    c < b < d and nest when d < b.  The pairwise definition that
    noncrossing_wrt and nonnesting_wrt are tested against; the order must be
    a permutation of the ground set partitioned by p.
    """
    if pattern not in ("crossing", "nesting"):
        raise ValidationError(f"unknown pattern {pattern!r}")
    blocks = _blocks_of(p)
    ground = sorted(x for b in blocks for x in b)
    if len(set(order)) != len(order) or sorted(order) != ground:
        raise ValidationError("order does not match the partitioned ground set")
    crossing = pattern == "crossing"
    for (a, b), (c, d) in itertools.combinations(sorted(arcs_in_order(blocks, order)), 2):
        if (c < b < d) if crossing else d < b:
            return False
    return True


def arcs_in_order(blocks: Iterable[Iterable[int]], order: Sequence[int]) -> list[Edge]:
    """Position arcs of the standard representation with respect to the order.

    Each position is the left end of at most one arc and the right end of at
    most one arc.
    """
    pos = {x: i for i, x in enumerate(order)}
    arcs: list[Edge] = []
    for b in blocks:
        q = sorted(pos[x] for x in b)
        arcs.extend(zip(q, q[1:]))
    return arcs


def _owners(blocks, size: int) -> list[int]:
    """owner[x], the index in blocks of the block holding x; a negative x reads entry size + x."""
    owner = [0] * size
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
    return owner


def _owners_over(blocks, order: Sequence[int]) -> tuple[list, list[int]]:
    """The blocks, and their owner array over the ground set.

    The array is sized from n for a partition: n + 1 entries for a
    SetPartition and 2n + 1 for a signed one.  For a plain list of blocks it
    spans the values of order.
    """
    if isinstance(blocks, SetPartition):
        return blocks.blocks, _owners(blocks.blocks, blocks.n + 1)
    if hasattr(blocks, "blocks"):
        return blocks.blocks, _owners(blocks.blocks, 2 * blocks.n + 1)
    return blocks, _owners(blocks, max(order, default=0) - min(0, min(order, default=0)) + 1)


def noncrossing_wrt(blocks, order: Sequence[int]) -> bool:
    """No two arcs of the standard representation cross, as pattern_free defines it.

    One scan of order keeps the open blocks, those with elements both behind
    and ahead, on a stack in the order they opened.  An element of an open
    block must belong to the innermost one: else the arc it closes crosses
    the arc of each open block above it.  O(n) for n elements; order must
    list the ground set of the blocks.

    A SetPartition read in its own order, order == range(1, n + 1), is
    scanned block by block in its canonical order, the order its blocks open
    in.  Each block must lie in one gap of the innermost open block, which
    bisecting that block at the new minimum finds.  The blocks opened while
    no block is open are then exactly the nonnested blocks, sorted by
    maximum; a noncrossing partition keeps them as nonnested_blocks would,
    so a later nonnested_blocks call makes no scan of its own.
    """
    if isinstance(blocks, SetPartition) and order == range(1, blocks.n + 1):
        outside = (0, blocks.n + 1)  # stands for no open block
        top, end = outside, blocks.n + 1  # the innermost open block and its maximum
        below: list[Block] = []  # the open blocks under top, innermost last
        outer = []
        for b in blocks.blocks:
            first = b[0]
            while end < first:
                top = below.pop()
                end = top[-1]
            if top is outside:
                outer.append(b)
            elif b[-1] > top[bisect_left(top, first)]:
                return False
            if len(b) > 1:
                below.append(top)
                top, end = b, b[-1]
        object.__setattr__(blocks, "_nonnested", tuple(outer))
        return True
    bs, owner = _owners_over(blocks, order)
    left = [len(b) for b in bs]
    started = [False] * len(bs)
    stack: list[int] = []
    for x in order:
        i = owner[x]
        if not started[i]:
            started[i] = True
            stack.append(i)
        elif stack[-1] != i:
            return False
        left[i] -= 1
        if not left[i]:
            stack.pop()
    return True


def nonnesting_wrt(blocks, order: Sequence[int]) -> bool:
    """No two arcs of the standard representation nest.

    One scan of order reads the arcs by right end, each from the position of
    the previous element of its block; no two nest iff their left ends
    increase.  O(n) for n elements; order must list the ground set of the
    blocks.
    """
    bs, owner = _owners_over(blocks, order)
    last = [-1] * len(bs)  # last[i]: the position of block i's latest element so far
    reach = -1  # the left end of the last arc read
    for t, x in enumerate(order):
        i = owner[x]
        s = last[i]
        if s >= 0:
            if s < reach:
                return False
            reach = s
        last[i] = t
    return True


def slice_partition(p: SetPartition, lo: int, hi: int) -> SetPartition:
    """The induced partition on {lo, ..., hi}, relabeled to {1, ..., hi-lo+1}.

    Each block is cut with bisect, and the scan stops at the first block whose
    minimum passes hi.  The cut blocks need no sort: a block with minimum at
    least lo keeps its minimum, shifted, and such blocks stay in order.  Only
    a block that starts before lo and reaches into the range takes a new
    minimum; when one does, the blocks are sorted.  In a noncrossing
    partition none does when lo = 1, or when lo - 1 or lo shares a block with
    hi or a larger element, since an arc of that block would cross it: the
    slices taken by typemaps.decompose are all of this kind.
    """
    if lo > hi:
        return EMPTY
    shift = lo - 1
    blocks = []
    straddles = False
    for b in p.blocks:
        if b[0] > hi:
            break
        if b[-1] < lo:
            continue
        cut = b[bisect_left(b, lo):bisect_right(b, hi)]
        if cut:
            blocks.append(tuple([x - shift for x in cut]) if shift else cut)
            straddles = straddles or b[0] < lo
    if straddles:
        blocks.sort()
    return SetPartition(hi - lo + 1, tuple(blocks))


# ---------------------------------------------------------------------------
# Enumeration


def partitions(n: int) -> Iterator[SetPartition]:
    """All partitions of [n], in restricted-growth-string order.

    Independent of the open-block scan below, so that filtering these by
    noncrossing_wrt or nonnesting_wrt checks the two generators built on it.
    The strings are stepped in place (TAOCP 7.2.1.5): raise the last entry
    that is at most the maximum before it, and zero the entries after it.
    """
    _check_n(n)
    if n == 0:
        yield EMPTY
        return
    rgs = [0] * n
    top = [0] * n  # top[i] = max(rgs[:i + 1])
    while True:
        blocks: list[list[int]] = [[] for _ in range(top[-1] + 1)]
        for k, j in enumerate(rgs):
            blocks[j].append(k + 1)
        yield SetPartition(n, tuple(tuple(b) for b in blocks))
        i = n - 1
        while i and rgs[i] > top[i - 1]:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        top[i] = max(top[i - 1], rgs[i])
        rgs[i + 1:] = [0] * (n - 1 - i)
        top[i + 1:] = [top[i]] * (n - 1 - i)


def _check_n(n: int, least: int = 0) -> None:
    if n < least:
        raise ValidationError(f"n must be >= {least}")


def _open_block_scan(n: int, noncrossing: bool) -> Iterator[SetPartition]:
    """The noncrossing (or else the nonnesting) partitions of [n], by one scan of 1..n.

    The open blocks, those that may still grow, are kept ordered by their
    last element.  Each element starts a block or extends open block i, which
    makes an arc from that block's last element.  A later element joining a
    block after i would cross the new arc, and one joining a block before i
    would nest over it, so the scan closes the blocks after i for noncrossing
    and the blocks before i for nonnesting.  Every partition of the family is
    reached once, by the one sequence of choices that builds it.

    The search over choices runs on an explicit stack, so any n works: each
    placed element leaves its choice and what that choice closed, which is
    enough to undo it.  Choice -1 starts a block; they are tried in order -1,
    0, 1, ... as the recursive form of the scan would.
    """
    _check_n(n)
    open_bs: list[Block] = []
    done: list[Block] = []
    stack: list[tuple[int, Block, list[Block]]] = []  # (choice, extended block, closed blocks)
    x, choice = 1, -1
    while True:
        if x > n:
            yield SetPartition(n, tuple(sorted(done + open_bs)))
        elif choice < len(open_bs):
            if choice < 0:
                b, closed = (), []
            else:
                b = open_bs[choice]
                if noncrossing:
                    closed = open_bs[choice + 1:]
                    del open_bs[choice:]
                else:
                    closed = open_bs[:choice]
                    del open_bs[:choice + 1]
                done += closed
            open_bs.append(b + (x,))
            stack.append((choice, b, closed))
            x, choice = x + 1, -1
            continue
        # a partition was yielded, or every choice for x is spent: undo the
        # choice for x - 1 and take its next
        if not stack:
            return
        choice, b, closed = stack.pop()
        x -= 1
        open_bs.pop()
        if b:
            if noncrossing:
                open_bs += [b] + closed
            else:
                open_bs[:0] = closed + [b]
            del done[len(done) - len(closed):]
        choice += 1


def noncrossing_partitions(n: int) -> Iterator[SetPartition]:
    """All noncrossing partitions of [n]; ValidationError for negative n."""
    yield from _open_block_scan(n, noncrossing=True)


def nonnesting_partitions(n: int) -> Iterator[SetPartition]:
    """All nonnesting partitions of [n]; ValidationError for negative n."""
    yield from _open_block_scan(n, noncrossing=False)
