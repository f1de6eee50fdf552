"""Encodings of the signed noncrossing families into simpler objects.

psi_b sends type-B noncrossing partitions to pairs (partition, x) where x is
nothing, an edge or a block; psi_d adds signed integers as a fourth kind.
Marked pairs also encode as lattice paths (reflecting the subpaths of marked
blocks below the diagonal) and as 0/1-fillings of shifted Ferrers diagrams.
Each map builds its result in canonical form with the trusted dataclass
constructors; the checked ``make`` classmethods are for the JSON readers.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator

from .core import (
    Block,
    InternalInvariantError,
    SetPartition,
    ValidationError,
    _check_n,
    edges,
    noncrossing_partitions,
)
from .interpret import phi_nc_b, phi_nc_b_inverse, phi_nc_d, phi_nc_d_inverse
from .models import MarkedPair, MarkedTriple, _check_rank, _pairs, marked_members, require, validate_marked
from .signed import SignedPartition

# x slot of a pair encoding: None, ("edge", (i, j)), ("block", blk) or ("int", k)
XSlot = tuple | None


@dataclass(frozen=True)
class BPair:
    """A partition with one of its unsigned slots.  Like ``MarkedPair``'s, the dataclass
    constructor trusts that x is a slot of sigma; ``make`` and the checked inverses check it."""

    sigma: SetPartition
    x: XSlot

    @classmethod
    def make(cls, sigma: SetPartition, x) -> "BPair":
        return cls(sigma, _slot(sigma, x, signed=False))


@dataclass(frozen=True)
class DPair:
    """A partition with one of its signed slots, under ``BPair``'s contract."""

    sigma: SetPartition
    x: XSlot

    @classmethod
    def make(cls, sigma: SetPartition, x) -> "DPair":
        return cls(sigma, _slot(sigma, x, signed=True))


def slots(sigma: SetPartition, signed: bool = False) -> list[XSlot]:
    """The slots of sigma in their fixed order: nothing, each edge, each block
    and, when signed, the integers 1, -1, 2, -2, ..., n.

    There are n + 1 unsigned slots (n - k edges and k blocks), and 3n + 1
    signed ones: over [n - 1] that is the 3n - 2 slots of a rank-n D pair.
    """
    out: list[XSlot] = [None]
    out += [("edge", e) for e in edges(sigma)]
    out += [("block", b) for b in sigma.blocks]
    if signed:
        out += [("int", e * v) for v in range(1, sigma.n + 1) for e in (1, -1)]
    return out


def _slot(sigma: SetPartition, x: XSlot, signed: bool) -> XSlot:
    """The slot of sigma equal to x, so a value such as ("int", True) is kept in its int form.

    Only the one slot x could equal is looked for, under the equality of
    slots(sigma, signed): a block among sigma's blocks, an edge in the block
    holding its left end, an int in +-1, ..., +-n.  A list never equals a
    slot's tuple.
    """
    if x is None:
        return None
    if isinstance(x, tuple) and len(x) == 2:
        kind, val = x
        if kind == "block":
            for b in sigma.blocks:
                if b == val:
                    return ("block", b)
        elif kind == "edge" and isinstance(val, tuple) and len(val) == 2:
            i, j = val
            for b in sigma.blocks:
                if i in b:
                    k = b.index(i) + 1
                    if k < len(b) and b[k] == j:
                        return ("edge", b[k - 1:k + 1])
                    break
        elif kind == "int" and signed:
            ints = range(-sigma.n, sigma.n + 1)
            if val != 0 and val in ints:
                return ("int", ints[ints.index(val)])
    raise ValidationError(f"{x!r} is not a slot of the partition")


def varphi_b(m: MarkedPair, check: bool = True) -> BPair:
    """Union marked blocks first-with-last; remember the middle as an edge or block.

    The pairs are those of the type-B inverse, so a held mark stays whole and
    the innermost pair is (A, A) for the middle of an odd count, or the two
    middle marks of an even count.
    """
    require(m, "nc_nn", check)
    marked = set(m.marked)
    pairs = _pairs("nc_b", m)
    blocks = [b for b in m.sigma.blocks if b not in marked]
    blocks += [a1 if a1 == a2 else tuple(sorted(a1 + a2)) for a1, a2 in pairs]
    sigma = SetPartition(m.sigma.n, tuple(sorted(blocks)))
    if not pairs:
        return BPair(sigma, None)
    a1, a2 = pairs[-1]
    return BPair(sigma, ("block", a1) if a1 == a2 else ("edge", (a1[-1], a2[0])))


def varphi_b_inverse(bp: BPair, check: bool = True) -> MarkedPair:
    """Cut each edge (u, v) with u <= s and t <= v, and mark the two pieces.

    (s, t) is the edge slot, or (min - 1, max + 1) around a block slot, which
    is marked too.  Edges of one block are disjoint intervals, so at most one
    of them spans (s, t): bisecting the block at s finds it.
    """
    sigma = bp.sigma
    require(sigma, "nc_a", check)
    x = _slot(sigma, bp.x, signed=False) if check else bp.x
    if x is None:
        return MarkedPair(sigma, ())
    kind, val = x
    s, t = val if kind == "edge" else (val[0] - 1, val[-1] + 1)
    kept, cut = [], []
    for b in sigma.blocks:
        k = bisect_right(b, s)
        if 0 < k < len(b) and b[k] >= t:
            cut += (b[:k], b[k:])
        else:
            kept.append(b)
    marked = sorted(cut + [val] if kind == "block" else cut, key=lambda b: b[-1])
    return MarkedPair(SetPartition(sigma.n, tuple(sorted(kept + cut))), tuple(marked))


def psi_b(p: SignedPartition, check: bool = True) -> BPair:
    return varphi_b(phi_nc_b(p, check=check), check=False)


def psi_b_inverse(bp: BPair, check: bool = True) -> SignedPartition:
    return phi_nc_b_inverse(varphi_b_inverse(bp, check=check), check=False)


def varphi_d(t: MarkedTriple, check: bool = True) -> DPair:
    """The B encoding of the pair; a nonzero sign e turns its slot into the
    integer e * max for a block, or e * a for an edge (a, b)."""
    require(t, "nc_nn_pm", check)
    bp = varphi_b(t.pair, check=False)
    if t.epsilon == 0:
        return DPair(bp.sigma, bp.x)
    kind, val = bp.x
    return DPair(bp.sigma, ("int", t.epsilon * (val[-1] if kind == "block" else val[0])))


def varphi_d_inverse(dp: DPair, check: bool = True) -> MarkedTriple:
    """An integer slot +-j stands for j's block when j is its maximum, else
    for the edge from j to its successor; decode that B slot, then sign it."""
    sigma = dp.sigma
    require(sigma, "nc_a", check)
    x, eps = (_slot(sigma, dp.x, signed=True) if check else dp.x), 0
    if x is not None and x[0] == "int":
        j, eps = abs(x[1]), (1 if x[1] > 0 else -1)
        blk = sigma.block_containing(j)
        x = ("block", blk) if blk[-1] == j else ("edge", (j, blk[blk.index(j) + 1]))
    m = varphi_b_inverse(BPair(sigma, x), check=False)
    return MarkedTriple(m.sigma, m.marked, eps)


def psi_d(p: SignedPartition, check: bool = True) -> DPair:
    return varphi_d(phi_nc_d(p, check=check), check=False)


def psi_d_inverse(dp: DPair, check: bool = True) -> SignedPartition:
    return phi_nc_d_inverse(varphi_d_inverse(dp, check=check), check=False)


def b_pairs(n: int) -> Iterator[BPair]:
    """All (noncrossing partition, x) pairs, each sigma's slots in the order of slots."""
    for sigma in noncrossing_partitions(n):
        for x in slots(sigma):
            yield BPair(sigma, x)


def d_pairs(n: int) -> Iterator[DPair]:
    """All pairs over noncrossing partitions of [n-1], including integer slots:
    the image of the type-D noncrossing family of rank n."""
    _check_rank(n, "nc_d")
    for sigma in noncrossing_partitions(n - 1):
        for x in slots(sigma, signed=True):
            yield DPair(sigma, x)


# ---------------------------------------------------------------------------
# kappa: triples over [n-1] as restricted marked pairs over [n]


def is_restricted_pair(m: MarkedPair) -> bool:
    """Over [n] with n >= 1, a marked block containing n must have at least two elements."""
    return validate_marked(m, "nc_nn") and m.sigma.n >= 1 and (m.sigma.n,) not in m.marked


def restricted_pairs(n: int) -> Iterator[MarkedPair]:
    """The restricted pairs over [n]: the image under kappa of the triples of rank n."""
    _check_rank(n, "nc_nn_pm")
    return (m for m in marked_members("nc_nn", n) if (n,) not in m.marked)


def kappa(t: MarkedTriple, check: bool = True) -> MarkedPair:
    require(t, "nc_nn_pm", check)
    n = t.sigma.n + 1
    if t.epsilon == 0:
        sigma = SetPartition(n, tuple(sorted(t.sigma.blocks + ((n,),))))
        return MarkedPair(sigma, t.marked)
    last = t.marked[-1]
    grown = last + (n,)
    # grown keeps the minimum of last, and its maximum n keeps it the last mark
    sigma = SetPartition(n, tuple(grown if b == last else b for b in t.sigma.blocks))
    marked = t.marked[:-1] if t.epsilon == -1 else t.marked[:-1] + (grown,)
    return MarkedPair(sigma, marked)


def kappa_inverse(m: MarkedPair, check: bool = True) -> MarkedTriple:
    if check and not is_restricted_pair(m):
        raise ValidationError("not a restricted marked noncrossing pair")
    n = m.sigma.n
    top = m.sigma.block_containing(n)
    if top == (n,):
        sigma = SetPartition(n - 1, tuple(b for b in m.sigma.blocks if b != top))
        return MarkedTriple(sigma, m.marked, 0)
    # shrunk keeps the minimum of top, and stays the last mark: a mark ending above it would nest under top
    shrunk = top[:-1]
    sigma = SetPartition(n - 1, tuple(shrunk if b == top else b for b in m.sigma.blocks))
    marked = tuple(b for b in m.marked if b != top) + (shrunk,)
    return MarkedTriple(sigma, marked, 1 if top in m.marked else -1)


# ---------------------------------------------------------------------------
# Lattice paths


@dataclass(frozen=True)
class LatticePath:
    """A word over {N, E} with equally many of each letter.  The dataclass
    constructor trusts the word; ``make`` checks it for the JSON reader."""

    steps: str

    @classmethod
    def make(cls, steps: str) -> "LatticePath":
        if not isinstance(steps, str):
            raise ValidationError("steps must be a string of N and E")
        if set(steps) - {"N", "E"}:
            raise ValidationError("steps must be N or E")
        if steps.count("N") != steps.count("E"):
            raise ValidationError("need equally many N and E steps")
        return cls(steps)

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    def points(self) -> list[tuple[int, int]]:
        x = y = 0
        pts = [(0, 0)]
        for s in self.steps:
            x, y = (x + 1, y) if s == "E" else (x, y + 1)
            pts.append((x, y))
        return pts


def is_dyck(path: LatticePath) -> bool:
    return all(y >= x for x, y in path.points())


def in_lp_bar(path: LatticePath) -> bool:
    """Paths that avoid visiting both (n-1, n-1) and (n, n-1)."""
    pts = set(path.points())
    n = path.n
    return not ((n - 1, n - 1) in pts and (n, n - 1) in pts)


def lattice_paths(n: int) -> Iterator[LatticePath]:
    _check_n(n)
    for positions in itertools.combinations(range(2 * n), n):
        word = ["E"] * (2 * n)
        for i in positions:
            word[i] = "N"
        yield LatticePath("".join(word))


def nc_to_dyck(p: SetPartition, check: bool = True) -> LatticePath:
    """Two steps per element: NN at a non-singleton minimum, EE at a maximum,
    NE at a singleton, EN in the middle of a block."""
    require(p, "nc_a", check)
    steps = ["EN"] * (p.n + 1)
    for b in p.blocks:
        if len(b) == 1:
            steps[b[0]] = "NE"
        else:
            steps[b[0]], steps[b[-1]] = "NN", "EE"
    return LatticePath("".join(steps[1:]))


def dyck_to_nc(path: LatticePath) -> SetPartition:
    if not is_dyck(path):
        raise ValidationError("not a Dyck path")
    n = path.n
    stack: list[list[int]] = []
    done: list[Block] = []
    for i in range(1, n + 1):
        pair = path.steps[2 * i - 2: 2 * i]
        if pair == "NE":
            done.append((i,))
        elif pair == "NN":
            stack.append([i])
        elif pair == "EN":
            if not stack:
                raise InternalInvariantError("middle step with no open block")
            stack[-1].append(i)
        else:
            if not stack:
                raise InternalInvariantError("closing step with no open block")
            blk = stack.pop()
            blk.append(i)
            done.append(tuple(blk))
    if stack:
        raise InternalInvariantError("unclosed blocks remain")
    return SetPartition(n, tuple(sorted(done)))


def g_map(m: MarkedPair, check: bool = True) -> LatticePath:
    """Reflect the subpath spanned by each marked block across the diagonal."""
    require(m, "nc_nn", check)
    steps = list(nc_to_dyck(m.sigma, check=False).steps)
    flip = {"N": "E", "E": "N"}
    for b in m.marked:
        for r in range(2 * b[0] - 2, 2 * b[-1]):
            steps[r] = flip[steps[r]]
    return LatticePath("".join(steps))


def g_map_inverse(path: LatticePath) -> MarkedPair:
    """Reflect each maximal below-diagonal excursion back, then read off its block."""
    pts = path.points()
    steps = list(path.steps)
    flip = {"N": "E", "E": "N"}
    windows = []
    start = 0
    for t in range(1, len(pts)):
        x, y = pts[t]
        if x == y:
            if pts[start + 1][0] > pts[start][0]:  # first step east: below the diagonal
                windows.append((start, t))
            start = t
    for a, b in windows:
        for r in range(a, b):
            steps[r] = flip[steps[r]]
    sigma = dyck_to_nc(LatticePath("".join(steps)))
    marked = []
    for a, b in windows:
        blk = sigma.block_containing(a // 2 + 1)
        if blk[0] != a // 2 + 1 or blk[-1] != b // 2:
            raise InternalInvariantError("excursion does not span a block")
        marked.append(blk)
    # the excursions are disjoint and found left to right, so their blocks come sorted by maximum
    return MarkedPair(sigma, tuple(marked))


# ---------------------------------------------------------------------------
# Catalan tableaux on shifted Ferrers diagrams


@dataclass(frozen=True)
class ShiftedTableau:
    """A 0/1-filling of a shifted Ferrers diagram of border length n.

    south and east split [n] by the border steps.  Cell (i, j) with i > 0
    exists when i < j; row -i is the added row whose diagonal sits in column
    i, with cells (-i, j) for east labels j >= i.  ones lists filled cells.

    The dataclass constructor trusts that south and east are ascending int
    tuples that split [n], and that ones is a frozenset of int cells of the
    diagram; ``make`` is the checked, canonicalising constructor the JSON
    reader uses.  Label lookups bisect the ascending tuples.
    """

    n: int
    south: tuple[int, ...]
    east: tuple[int, ...]
    ones: frozenset[tuple[int, int]]

    @classmethod
    def make(cls, south, east, ones) -> "ShiftedTableau":
        """Check and canonicalise: every label must be an integer and every
        cell of ones a pair of integers (operator.index, so True is stored as
        1), the labels must split 1..n, and each cell of ones must be a cell
        of the diagram."""
        try:
            south = tuple(sorted(map(operator.index, south)))
            east = tuple(sorted(map(operator.index, east)))
            ones = frozenset((operator.index(r), operator.index(c)) for r, c in ones)
        except (TypeError, ValueError):  # ValueError: a cell that unpacks to other than two values
            raise ValidationError("tableau labels must be integers and cells pairs of integers") from None
        n = len(south) + len(east)
        if sorted(south + east) != list(range(1, n + 1)):
            raise ValidationError("south and east labels must split 1..n")
        t = cls(n, south, east, ones)
        for r, c in t.ones:
            if not t.cell_exists(r, c):
                raise ValidationError(f"cell ({r},{c}) is not in the diagram")
        return t

    def cell_exists(self, r: int, c: int) -> bool:
        east = self.east
        if not _holds(east, c):
            return False
        if r < 0:
            return c >= -r and _holds(east, -r)
        return c > r and _holds(self.south, r)

    def rows(self) -> list[int]:
        """Row labels from top to bottom."""
        return [-e for e in sorted(self.east, reverse=True)] + list(self.south)

    def columns(self) -> list[int]:
        """Column labels from left to right."""
        return sorted(self.east, reverse=True)


def _holds(labels: tuple[int, ...], x: int) -> bool:
    """x is one of the ascending labels."""
    i = bisect_left(labels, x)
    return i < len(labels) and labels[i] == x


def f_map(m: MarkedPair, check: bool = True) -> ShiftedTableau:
    """South steps at minima of unmarked blocks; marked blocks fill added rows."""
    require(m, "nc_nn", check)
    n = m.sigma.n
    marked = set(m.marked)
    south = tuple(b[0] for b in m.sigma.blocks if b not in marked)
    east = tuple(sorted(set(range(1, n + 1)) - set(south)))
    ones = set()
    for b in m.sigma.blocks:
        i = b[0]
        if b in marked:
            ones.add((-i, i))
            ones.update((-i, j) for j in b[1:])
        else:
            ones.update((i, j) for j in b[1:])
    return ShiftedTableau(n, south, east, frozenset(ones))


def f_map_inverse(t: ShiftedTableau, check: bool = True) -> MarkedPair:
    if check and not tableau_validate(t, "CT_B"):
        raise ValidationError("not a valid Catalan tableau")
    joins: dict[int, int] = {}
    diag_marked = set()
    for r, c in t.ones:
        i = abs(r)
        if r < 0 and c == i:
            diag_marked.add(i)
        else:
            if c in joins:
                raise ValidationError("a column joins two blocks")
            joins[c] = i
    # each join points from a column c to a smaller row i, so i's block is settled when c is reached
    least: dict[int, int] = {}  # element -> the least element of its block
    blocks: dict[int, list[int]] = {}
    for v in range(1, t.n + 1):
        least[v] = least.get(joins[v], joins[v]) if v in joins else v
        blocks.setdefault(least[v], []).append(v)
    # each element joins a block of a smaller one, so the blocks come ascending and ordered by minimum;
    # nonnested blocks ordered by minimum are ordered by maximum too
    sigma = SetPartition(t.n, tuple(map(tuple, blocks.values())))
    return MarkedPair(sigma, tuple(b for b in sigma.blocks if b[0] in diag_marked))


def tableau_validate(t: ShiftedTableau, kind: str) -> bool:
    """Check the permutation-tableau conditions, plus one 1 per column for the
    Catalan kinds and the empty-corner condition for the D kind.

    A 0 with a 1 to its left must have no 1 above it, and may not sit on
    the diagonal of an added row; every column needs a 1.  One row-major
    pass over the cells, with a "1 to the left" flag for the current row and
    a count of 1s per column: O(cells) after sorting the n labels.  The
    cells of a row are a prefix of the columns (descending east labels):
    south row r holds the east labels greater than r, added row -i those
    that are at least i, so each row's length is one bisection of the
    ascending east labels.  Only cells of the diagram are read, so stray
    entries of t.ones are ignored.
    """
    if kind not in ("PT_B", "CT_B", "CT_D"):
        raise ValidationError(f"unknown tableau kind {kind!r}")
    east = t.east
    cols = t.columns()
    filled = t.ones
    ones_in_col = dict.fromkeys(cols, 0)
    row_len = 0  # ends as the length of the bottom row
    for r in t.rows():
        one_left = False
        row_len = len(east) - (bisect_left(east, -r) if r < 0 else bisect_right(east, r))
        for c in cols[:row_len]:
            if (r, c) in filled:
                one_left = True
                ones_in_col[c] += 1
            elif one_left and (r == -c or ones_in_col[c]):
                return False  # a diagonal 0, or a 0 with 1s to its left and above
    if kind == "PT_B":
        if not all(ones_in_col.values()):
            return False
    elif any(k != 1 for k in ones_in_col.values()):
        return False
    if kind == "CT_D" and row_len and (-cols[0], cols[0]) in filled:
        return False
    return True


def catalan_tableaux(n: int, kind: str = "CT_B") -> Iterator[ShiftedTableau]:
    """All valid Catalan tableaux of border length n, by direct search."""
    _check_n(n)
    for r in range(n + 1):
        for south in itertools.combinations(range(1, n + 1), r):
            east = tuple(sorted(set(range(1, n + 1)) - set(south)))
            shell = ShiftedTableau(n, south, east, frozenset())
            per_column = [[(rr, c) for rr in shell.rows() if shell.cell_exists(rr, c)] for c in shell.columns()]
            for choice in itertools.product(*per_column):
                t = ShiftedTableau(n, south, east, frozenset(choice))
                if tableau_validate(t, kind):
                    yield t
