"""Encodings of the signed noncrossing families into simpler objects.

psi_b sends type-B noncrossing partitions to pairs (partition, x) where x is
nothing, an edge or a block; psi_d adds signed integers as a fourth kind.
Marked pairs also encode as lattice paths (reflecting the subpaths of marked
blocks below the diagonal) and as 0/1-fillings of shifted Ferrers diagrams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .core import (
    Block,
    Edge,
    InternalInvariantError,
    SetPartition,
    ValidationError,
    edges,
    noncrossing_partitions,
    nonnested_blocks,
)
from .interpret import phi_nc_b, phi_nc_b_inverse, phi_nc_d, phi_nc_d_inverse
from .models import MarkedPair, MarkedTriple, is_member, validate_marked
from .signed import SignedPartition

# x slot of a pair encoding: None, ("edge", (i, j)), ("block", blk) or ("int", k)
XSlot = tuple | None


@dataclass(frozen=True)
class BPair:
    sigma: SetPartition
    x: XSlot

    def __post_init__(self):
        _check_xslot(self.sigma, self.x, allow_int=False)


@dataclass(frozen=True)
class DPair:
    sigma: SetPartition
    x: XSlot

    def __post_init__(self):
        _check_xslot(self.sigma, self.x, allow_int=True)


def _check_xslot(sigma: SetPartition, x: XSlot, allow_int: bool) -> None:
    if x is None:
        return
    kind, val = x
    if kind == "edge":
        if tuple(val) not in edges(sigma):
            raise ValidationError(f"{val} is not an edge of the partition")
    elif kind == "block":
        if tuple(val) not in sigma.blocks:
            raise ValidationError(f"{val} is not a block of the partition")
    elif kind == "int" and allow_int:
        if not (1 <= abs(val) <= sigma.n):
            raise ValidationError(f"integer slot {val} out of range")
    else:
        raise ValidationError(f"bad x slot {x!r}")


def _merge_first_last(m: MarkedPair) -> SetPartition:
    x = m.marked
    merged = {b: b for b in m.sigma.blocks}
    for i in range(len(x) // 2):
        merged[x[i]] = None
        merged[x[-1 - i]] = None
    blocks = [b for b, keep in merged.items() if keep is not None]
    blocks += [tuple(sorted(x[i] + x[-1 - i])) for i in range(len(x) // 2)]
    return SetPartition.from_blocks(blocks, m.sigma.n)


def varphi_b(m: MarkedPair, check: bool = True) -> BPair:
    """Union marked blocks first-with-last; remember the middle as an edge or block."""
    if check and not validate_marked(m, "nc_nn"):
        raise ValidationError("not a marked noncrossing pair with nonnested marks")
    x = m.marked
    k = len(x)
    sigma = _merge_first_last(m)
    if k == 0:
        slot: XSlot = None
    elif k % 2 == 0:
        slot = ("edge", (x[k // 2 - 1][-1], x[k // 2][0]))
    else:
        slot = ("block", x[k // 2])
    return BPair(sigma, slot)


def _cut_edges(sigma: SetPartition, cut: set[Edge]) -> SetPartition:
    blocks = []
    for b in sigma.blocks:
        run = [b[0]]
        for u, v in zip(b, b[1:]):
            if (u, v) in cut:
                blocks.append(tuple(run))
                run = [v]
            else:
                run.append(v)
        blocks.append(tuple(run))
    return SetPartition.from_blocks(blocks, sigma.n)


def _unmerge(sigma: SetPartition, spanning: set[Edge], seeds: Iterable[Block]) -> MarkedPair:
    cut_sigma = _cut_edges(sigma, spanning)
    endpoints = {e for pair in spanning for e in pair}
    marked = set(seeds)
    for b in cut_sigma.blocks:
        if endpoints & set(b):
            marked.add(b)
    return MarkedPair.make(cut_sigma, marked)


def varphi_b_inverse(bp: BPair, check: bool = True) -> MarkedPair:
    sigma = bp.sigma
    if check and not is_member(sigma, "nc_a"):
        raise ValidationError("the partition must be noncrossing")
    if bp.x is None:
        return MarkedPair.make(sigma, ())
    kind, val = bp.x
    if kind == "edge":
        a, b = val
        spanning = {(i, j) for i, j in edges(sigma) if i <= a < b <= j}
        return _unmerge(sigma, spanning, ())
    lo, hi = val[0], val[-1]
    spanning = {(i, j) for i, j in edges(sigma) if i < lo and hi < j}
    return _unmerge(sigma, spanning, (tuple(val),))


def psi_b(p: SignedPartition, check: bool = True) -> BPair:
    return varphi_b(phi_nc_b(p, check=check), check=False)


def psi_b_inverse(bp: BPair, check: bool = True) -> SignedPartition:
    return phi_nc_b_inverse(varphi_b_inverse(bp, check=check), check=False)


def varphi_d(t: MarkedTriple, check: bool = True) -> DPair:
    """Like the B encoding, but a nonzero sign goes to a signed integer slot."""
    if check and not validate_marked(t, "nc_nn_pm"):
        raise ValidationError("not a marked noncrossing triple with nonnested marks")
    if t.epsilon == 0:
        bp = varphi_b(t.pair, check=False)
        return DPair(bp.sigma, bp.x)
    x = t.marked
    mid = x[(len(x) + 1) // 2 - 1]
    return DPair(_merge_first_last(t.pair), ("int", t.epsilon * mid[-1]))


def varphi_d_inverse(dp: DPair, check: bool = True) -> MarkedTriple:
    sigma = dp.sigma
    if check and not is_member(sigma, "nc_a"):
        raise ValidationError("the partition must be noncrossing")
    if dp.x is None or dp.x[0] in ("edge", "block"):
        m = varphi_b_inverse(BPair(sigma, dp.x), check=False)
        return MarkedTriple(m.sigma, m.marked, 0)
    val = dp.x[1]
    j = abs(val)
    blk = sigma.block_containing(j)
    cut = {(i, l) for i, l in edges(sigma) if i < blk[0] and blk[-1] < l}
    if blk[-1] == j:
        seeds = [blk]
    else:
        lo_piece = tuple(v for v in blk if v <= j)
        hi_piece = tuple(v for v in blk if v > j)
        seeds = [lo_piece, hi_piece]
        cut.add((lo_piece[-1], hi_piece[0]))
    m = _unmerge(sigma, cut, seeds)
    return MarkedTriple(m.sigma, m.marked, 1 if val > 0 else -1)


def psi_d(p: SignedPartition, check: bool = True) -> DPair:
    return varphi_d(phi_nc_d(p, check=check), check=False)


def psi_d_inverse(dp: DPair, check: bool = True) -> SignedPartition:
    return phi_nc_d_inverse(varphi_d_inverse(dp, check=check), check=False)


def b_pairs(n: int) -> Iterator[BPair]:
    """All (noncrossing partition, x) pairs with x nothing, an edge or a block."""
    for sigma in noncrossing_partitions(n):
        yield BPair(sigma, None)
        for e in edges(sigma):
            yield BPair(sigma, ("edge", e))
        for b in sigma.blocks:
            yield BPair(sigma, ("block", b))


def d_pairs(n: int) -> Iterator[DPair]:
    """All pairs over noncrossing partitions of [n-1], including integer slots."""
    for sigma in noncrossing_partitions(n - 1):
        yield DPair(sigma, None)
        for e in edges(sigma):
            yield DPair(sigma, ("edge", e))
        for b in sigma.blocks:
            yield DPair(sigma, ("block", b))
        for v in range(1, n):
            yield DPair(sigma, ("int", v))
            yield DPair(sigma, ("int", -v))


# ---------------------------------------------------------------------------
# kappa: triples over [n-1] as restricted marked pairs over [n]


def is_restricted_pair(m: MarkedPair) -> bool:
    """A marked block containing the top element must have at least two elements."""
    n = m.sigma.n
    return validate_marked(m, "nc_nn") and (n,) not in m.marked


def kappa(t: MarkedTriple, check: bool = True) -> MarkedPair:
    if check and not validate_marked(t, "nc_nn_pm"):
        raise ValidationError("not a marked noncrossing triple with nonnested marks")
    n = t.sigma.n + 1
    if t.epsilon == 0:
        sigma = SetPartition(n, tuple(sorted(t.sigma.blocks + ((n,),))))
        return MarkedPair(sigma, t.marked)
    last = t.marked[-1]
    grown = last + (n,)
    blocks = tuple(sorted(grown if b == last else b for b in t.sigma.blocks))
    sigma = SetPartition(n, blocks)
    marked = tuple(grown if b == last else b for b in t.marked)
    if t.epsilon == -1:
        marked = marked[:-1]
    return MarkedPair.make(sigma, marked)


def kappa_inverse(m: MarkedPair, check: bool = True) -> MarkedTriple:
    if check and not is_restricted_pair(m):
        raise ValidationError("not a restricted marked noncrossing pair")
    n = m.sigma.n
    top = m.sigma.block_containing(n)
    if top == (n,):
        sigma = SetPartition(n - 1, tuple(b for b in m.sigma.blocks if b != top))
        return MarkedTriple(sigma, m.marked, 0)
    shrunk = top[:-1]
    sigma = SetPartition(n - 1, tuple(sorted(shrunk if b == top else b for b in m.sigma.blocks)))
    if top in m.marked:
        marked = tuple(shrunk if b == top else b for b in m.marked)
        return MarkedTriple.make(sigma, marked, 1)
    return MarkedTriple.make(sigma, m.marked + (shrunk,), -1)


# ---------------------------------------------------------------------------
# Lattice paths


@dataclass(frozen=True)
class LatticePath:
    """A word over {N, E} with equally many of each letter."""

    steps: str

    def __post_init__(self):
        if set(self.steps) - {"N", "E"}:
            raise ValidationError("steps must be N or E")
        if self.steps.count("N") != self.steps.count("E"):
            raise ValidationError("need equally many N and E steps")

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
    for positions in itertools.combinations(range(2 * n), n):
        word = ["E"] * (2 * n)
        for i in positions:
            word[i] = "N"
        yield LatticePath("".join(word))


def nc_to_dyck(p: SetPartition, check: bool = True) -> LatticePath:
    """Two steps per element: NN at a non-singleton minimum, EE at a maximum,
    NE at a singleton, EN in the middle of a block."""
    if check and not is_member(p, "nc_a"):
        raise ValidationError("not a noncrossing partition")
    steps = []
    for i in range(1, p.n + 1):
        b = p.block_containing(i)
        if len(b) == 1:
            steps.append("NE")
        elif i == b[0]:
            steps.append("NN")
        elif i == b[-1]:
            steps.append("EE")
        else:
            steps.append("EN")
    return LatticePath("".join(steps))


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
    if check and not validate_marked(m, "nc_nn"):
        raise ValidationError("not a marked noncrossing pair with nonnested marks")
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
    return MarkedPair.make(sigma, marked)


# ---------------------------------------------------------------------------
# Catalan tableaux on shifted Ferrers diagrams


@dataclass(frozen=True)
class ShiftedTableau:
    """A 0/1-filling of a shifted Ferrers diagram of border length n.

    south and east split [n] by the border steps.  Cell (i, j) with i > 0
    exists when i < j; row -i is the added row whose diagonal sits in column
    i, with cells (-i, j) for east labels j >= i.  ones lists filled cells.
    """

    n: int
    south: tuple[int, ...]
    east: tuple[int, ...]
    ones: frozenset[tuple[int, int]]

    @classmethod
    def make(cls, south, east, ones, n: int | None = None) -> "ShiftedTableau":
        south = tuple(sorted(south))
        east = tuple(sorted(east))
        if n is None:
            n = len(south) + len(east)
        if sorted(south + east) != list(range(1, n + 1)):
            raise ValidationError("south and east labels must split 1..n")
        t = cls(n, south, east, frozenset((int(r), int(c)) for r, c in ones))
        for r, c in t.ones:
            if not t.cell_exists(r, c):
                raise ValidationError(f"cell ({r},{c}) is not in the diagram")
        return t

    @cached_property
    def _labels(self) -> tuple[frozenset[int], frozenset[int]]:
        # the south and east labels as sets, built once per tableau
        return frozenset(self.south), frozenset(self.east)

    def cell_exists(self, r: int, c: int) -> bool:
        south, east = self._labels
        if c not in east:
            return False
        if r < 0:
            return -r in east and c >= -r
        return r in south and c > r

    def rows(self) -> list[int]:
        """Row labels from top to bottom."""
        return [-e for e in sorted(self.east, reverse=True)] + list(self.south)

    def columns(self) -> list[int]:
        """Column labels from left to right."""
        return sorted(self.east, reverse=True)

    def row_cells(self, r: int) -> list[int]:
        return [c for c in self.columns() if self.cell_exists(r, c)]


def f_map(m: MarkedPair, check: bool = True) -> ShiftedTableau:
    """South steps at minima of unmarked blocks; marked blocks fill added rows."""
    if check and not validate_marked(m, "nc_nn"):
        raise ValidationError("not a marked noncrossing pair with nonnested marks")
    n = m.sigma.n
    marked = set(m.marked)
    south = [b[0] for b in m.sigma.blocks if b not in marked]
    east = sorted(set(range(1, n + 1)) - set(south))
    ones = set()
    for b in m.sigma.blocks:
        i = b[0]
        if b in marked:
            ones.add((-i, i))
            ones.update((-i, j) for j in b[1:])
        else:
            ones.update((i, j) for j in b[1:])
    return ShiftedTableau.make(south, east, ones, n)


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
    parent = {i: i for i in range(1, t.n + 1)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c, i in joins.items():
        parent[find(c)] = find(i)
    blocks: dict[int, list[int]] = {}
    for v in range(1, t.n + 1):
        blocks.setdefault(find(v), []).append(v)
    sigma = SetPartition.from_blocks(blocks.values(), t.n)
    marked = [b for b in sigma.blocks if b[0] in diag_marked]
    return MarkedPair.make(sigma, marked)


def tableau_validate(t: ShiftedTableau, kind: str) -> bool:
    """Check the permutation-tableau conditions, plus one 1 per column for the
    Catalan kinds and the empty-corner condition for the D kind.

    A 0 with a 1 to its left must have no 1 above it, and may not sit on
    the diagonal of an added row; every column needs a 1.  One row-major
    pass over the cells, with a "1 to the left" flag for the current row and
    a count of 1s per column: O(cells) after sorting the n labels.  Only
    cells of the diagram are read, so stray entries of t.ones are ignored.
    """
    if kind not in ("PT_B", "CT_B", "CT_D"):
        raise ValidationError(f"unknown tableau kind {kind!r}")
    rows = t.rows()
    cols = t.columns()
    filled = t.ones
    ones_in_col = dict.fromkeys(cols, 0)
    row_len = 0  # ends as the length of the bottom row
    for r in rows:
        one_left = False
        row_len = 0
        for c in cols:
            if not t.cell_exists(r, c):
                break  # the cells of a row are a prefix of the columns
            row_len += 1
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
    for r in range(n + 1):
        for south in itertools.combinations(range(1, n + 1), r):
            east = tuple(sorted(set(range(1, n + 1)) - set(south)))
            shell = ShiftedTableau.make(south, east, ())
            cols = shell.columns()
            per_column = []
            for c in cols:
                per_column.append([(rr, c) for rr in shell.rows() if shell.cell_exists(rr, c)])
            if any(not cells for cells in per_column):
                continue
            for choice in itertools.product(*per_column):
                t = ShiftedTableau.make(south, east, choice)
                if tableau_validate(t, kind):
                    yield t
