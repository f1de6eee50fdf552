"""Type-preserving machinery on noncrossing partitions.

rho rebuilds the unique nonnesting partition with the same block maxima and
sizes.  xi is an involution exchanging nonnested and nonaligned blocks,
defined through the prefix / connected / tail decompositions.  iota reorders
the components spanned by nonnested blocks.  Composing these with the
signed-partition interpretations gives type-preserving bijections between
noncrossing and nonnesting partitions of types B, C and D.

xi and rearrange (which iota runs) build their image in one pass over an
ownership array, owner[x] being the index of the block holding x: the labels
go out in image order and the blocks are read off by first appearance.  The
route through the decompositions stays as the reference, xi_by_decomposition.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .core import (
    EMPTY,
    Block,
    InternalInvariantError,
    SetPartition,
    ValidationError,
    _owners,
    _read_off,
    nonaligned_blocks,
    nonnested_blocks,
    nonnesting_partitions,
    slice_partition,
    special_blocks,
)
from . import interpret
# is_member is not called here; perfbench/selftest.py checks that its tracer rebinds this import.
from .models import SIGNED_FAMILIES, MarkedPair, MarkedTriple, held_marks, is_member, require  # noqa: F401
from .signed import SignedPartition


# ---------------------------------------------------------------------------
# rho: profile-preserving bijection onto nonnesting partitions


def _profile(p: SetPartition) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((b[-1], len(b)) for b in p.blocks))


def _build_from_profile(profile, nonnesting: bool) -> SetPartition:
    """Scan n..1 and attach each non-maximum to an unfinished block.

    Attaching to the unfinished block with the largest (smallest) current
    minimum is forced when no two arcs may nest (cross), so the result is the
    unique partition of the requested kind with the given maxima and sizes.
    The unfinished blocks sit in a deque by current minimum, so a new one
    enters at the left end and the chosen one leaves from either end; each is
    grown from its maximum downwards and reversed when complete.  A block is
    complete at its minimum, so the blocks complete in descending order of
    minimum, and reversing that order gives the canonical form.
    """
    if not profile:
        return EMPTY
    n = profile[-1][0]
    need = {mx: size for mx, size in profile}
    if len(need) != len(profile):
        raise InternalInvariantError("block maxima must be distinct")
    open_blocks: deque[list[int]] = deque()  # ascending by current minimum, each block descending
    done: list[Block] = []
    for p in range(n, 0, -1):
        if p in need:
            if need[p] == 1:
                done.append((p,))
            else:
                open_blocks.appendleft([p])
        else:
            if not open_blocks:
                raise InternalInvariantError(f"no block can absorb {p}")
            blk = open_blocks.pop() if nonnesting else open_blocks.popleft()
            blk.append(p)
            if len(blk) == need[blk[0]]:
                done.append(tuple(reversed(blk)))
            else:
                open_blocks.appendleft(blk)
    if open_blocks:
        raise InternalInvariantError("unfinished blocks remain")
    return SetPartition(n, tuple(reversed(done)))


def rho(p: SetPartition, check: bool = True) -> SetPartition:
    """The unique nonnesting partition with the same block maxima and sizes."""
    require(p, "nc_a", check)
    return _build_from_profile(_profile(p), nonnesting=True)


def rho_inverse(p: SetPartition, check: bool = True) -> SetPartition:
    """The unique noncrossing partition with the same block maxima and sizes."""
    require(p, "nn_a", check)
    return _build_from_profile(_profile(p), nonnesting=False)


_rho_index: dict[int, dict[tuple, SetPartition]] = {}


def rho_by_search(p: SetPartition) -> SetPartition:
    """Reference route: look the profile up in an index of all nonnesting partitions."""
    idx = _rho_index.get(p.n)
    if idx is None:
        idx = {_profile(q): q for q in nonnesting_partitions(p.n)}
        _rho_index[p.n] = idx
    return idx[_profile(p)]


def xi_by_decomposition(p: SetPartition) -> SetPartition:
    """Reference route: xi assembled from the prefix / connected / tail decompositions."""
    n = p.n
    # the singletons {k+1}, ..., {n} are the last blocks of the canonical form
    k, j = n, len(p.blocks)
    while k >= 1 and p.blocks[j - 1] == (k,):
        k, j = k - 1, j - 1
    if k == 0:
        return p
    core = SetPartition(k, p.blocks[:j])

    firsts: list[tuple[SetPartition, SetPartition]] = []  # (connected_i, tail_i)
    cur = core
    while cur.n:
        d = decompose(cur, 1)
        firsts.append((d.connected_part, d.tail))
        cur = d.prefix

    seconds: list[tuple[SetPartition, SetPartition]] = []  # (connected_i, prefix_i)
    cur = core
    while cur.n:
        d = decompose(cur, 2)
        seconds.append((d.connected_part, d.prefix))
        cur = d.tail

    if firsts[0][0] != seconds[0][0]:
        raise InternalInvariantError("the two decompositions must share their first connected part")
    r, s = len(firsts), len(seconds)
    if r != len(nonnested_blocks(core)) or s != len(nonaligned_blocks(core)):
        raise InternalInvariantError("decomposition depth must match the special block counts")

    rest = EMPTY
    for i in range(r - 1, 0, -1):
        conn, tail = firsts[i]
        rest = uplus(tail, star(conn, rest))
    nested = star(firsts[0][0], rest)

    out = EMPTY
    for i in range(s - 1, 0, -1):
        conn, prefix = seconds[i]
        out = uplus(out, star(conn, prefix))
    out = uplus(out, nested)

    # out partitions [k], so the trailing singletons follow its blocks
    result = SetPartition(n, out.blocks + p.blocks[j:])
    if Counter(map(len, result.blocks)) != Counter(map(len, p.blocks)):
        raise InternalInvariantError("block type must be preserved")
    return result


def _rho_bar(m: MarkedPair, check: bool, inverse: bool) -> MarkedPair:
    """Apply rho (or its inverse); the image blocks with the maxima of the marked blocks are marked."""
    require(m, "nn_na" if inverse else "nc_na", check)
    image = (rho_inverse if inverse else rho)(m.sigma, check=False)
    by_max = {b[-1]: b for b in image.blocks}
    if by_max.keys() != {b[-1] for b in m.sigma.blocks}:
        raise InternalInvariantError("block maxima must be preserved")
    return MarkedPair(image, tuple(by_max[b[-1]] for b in m.marked))


def rho_bar(m: MarkedPair, check: bool = True) -> MarkedPair:
    return _rho_bar(m, check, inverse=False)


def rho_bar_inverse(m: MarkedPair, check: bool = True) -> MarkedPair:
    return _rho_bar(m, check, inverse=True)


# ---------------------------------------------------------------------------
# The concatenation algebra


def uplus(a: SetPartition, b: SetPartition) -> SetPartition:
    """Concatenate, shifting the second partition past the first.

    Canonical without a sort: every shifted block of b has its minimum above
    a.n, so it follows every block of a, and the shift keeps b's order.
    """
    d = a.n
    shifted = tuple([tuple([x + d for x in blk]) for blk in b.blocks])
    return SetPartition(a.n + b.n, a.blocks + shifted)


def is_connected(p: SetPartition) -> bool:
    """1 and n lie in the same block (false for the empty partition).

    The block holding 1 is the first block of the canonical form.
    """
    return p.n >= 1 and p.blocks[0][-1] == p.n


def star(a: SetPartition, b: SetPartition) -> SetPartition:
    """Concatenate and attach one new final element to the connected part's block.

    Canonical without a sort: the output of uplus is canonical, and the new
    element joins the block that ends at a.n, the first block as a is
    connected, leaving every minimum as it was.  With a empty the new element
    is a singleton after every block of b.
    """
    top = a.n + b.n + 1
    if a.n == 0:
        return SetPartition(top, b.blocks + ((top,),))
    if not is_connected(a):
        raise ValidationError("the first argument must be connected or empty")
    u = uplus(a, b)
    return SetPartition(top, (u.blocks[0] + (top,),) + u.blocks[1:])


@dataclass(frozen=True)
class NcDecomposition:
    prefix: SetPartition
    connected_part: SetPartition
    tail: SetPartition


def decompose(p: SetPartition, variant: int) -> NcDecomposition:
    """Split off the last component: p = prefix (+) (connected * tail).

    When {n} is its own block the split degenerates; variant 1 keeps the rest
    as the prefix, variant 2 as the tail.
    """
    if p.n < 1:
        raise ValidationError("cannot decompose the empty partition")
    if variant not in (1, 2):
        raise ValidationError("variant must be 1 or 2")
    n = p.n
    top_block = next(b for b in p.blocks if b[-1] == n)
    if top_block == (n,):
        inner = slice_partition(p, 1, n - 1)
        out = NcDecomposition(inner, EMPTY, EMPTY) if variant == 1 else NcDecomposition(EMPTY, EMPTY, inner)
    else:
        lo, second = top_block[0], top_block[-2]
        out = NcDecomposition(
            slice_partition(p, 1, lo - 1),
            slice_partition(p, lo, second),
            slice_partition(p, second + 1, n - 1),
        )
    if uplus(out.prefix, star(out.connected_part, out.tail)) != p:
        raise InternalInvariantError("decomposition does not reassemble")
    return out


# ---------------------------------------------------------------------------
# xi: the involution exchanging nonnested and nonaligned blocks


def _read_image(labels: list[int], count: int) -> tuple[Block, ...]:
    """The canonical blocks of the partition of [len(labels)] that puts x in block labels[x - 1]."""
    return _read_off([-1, *labels], count, range(1, len(labels) + 1), labels)


def xi(p: SetPartition, check: bool = True) -> SetPartition:
    """The involution exchanging nonnested and nonaligned blocks, built in one pass.

    Unrolling the two decompositions of xi_by_decomposition gives the order
    in which the block labels owner[x] of the core (p without its trailing
    singletons) appear in the image.  Let T be the block of the core's top
    element k.  First come the pieces of the region under T's last arc,
    deepest first.  Each piece is read off the region's largest element b
    and its block A: [b] when A is a singleton, and the region loses b;
    otherwise A without b, then the region's part left of A, then b, and the
    region shrinks to the part under A's last arc.  Then comes T without k.
    Then, walking left from min(T) over the nonnested blocks N, the part
    under N's last arc followed by N without its maximum.  Last come one new
    maximum per N, innermost first, and k.
    """
    require(p, "nc_a", check)
    return _xi_special(p)[0]


def _xi_special(p: SetPartition) -> tuple[SetPartition, tuple[Block, ...], tuple[Block, ...]]:
    """xi(p), with p's nonnested and nonaligned blocks, each sorted by maximum.

    The trailing singletons carry no edge, are both nonnested and nonaligned,
    and their maxima pass the core's, so p's special blocks are the core's
    followed by the t trailing singletons.  Both lists are therefore read off
    p, whose scans may already be cached, and the walk's depths are checked
    against their lengths less t.
    """
    n = p.n
    # the singletons {k+1}, ..., {n} are the last blocks of the canonical form
    k, j = n, len(p.blocks)
    while k >= 1 and p.blocks[j - 1] == (k,):
        k, j = k - 1, j - 1
    if k == 0:
        return p, p.blocks, p.blocks
    blocks = p.blocks[:j]
    owner = _owners(blocks, k + 1)
    top = blocks[owner[k]]

    pieces: list[list[int]] = []
    lo, b = top[-2] + 1, k - 1
    while b >= lo:
        blk = blocks[owner[b]]
        if len(blk) == 1:
            pieces.append([owner[b]])
        else:
            pieces.append(owner[blk[0]:blk[-2] + 1] + owner[lo:blk[0]] + [owner[b]])
            lo = blk[-2] + 1
        b -= 1
    labels = [x for piece in reversed(pieces) for x in piece]
    labels += owner[top[0]:top[-2] + 1]

    maxima = [owner[k]]
    b = top[0] - 1
    while b >= 1:
        blk = blocks[owner[b]]
        if len(blk) > 1:
            labels += owner[blk[-2] + 1:b]
            labels += owner[blk[0]:blk[-2] + 1]
        maxima.append(owner[b])
        b = blk[0] - 1
    labels += reversed(maxima)

    nonnested, nonaligned = nonnested_blocks(p), nonaligned_blocks(p)
    t = len(p.blocks) - j
    if len(maxima) != len(nonnested) - t or len(pieces) + 1 != len(nonaligned) - t:
        raise InternalInvariantError("decomposition depth must match the special block counts")
    # the image partitions [k], so the trailing singletons follow its blocks
    result = SetPartition(n, _read_image(labels, j) + p.blocks[j:])
    if sorted(map(len, result.blocks)) != sorted(map(len, p.blocks)):
        raise InternalInvariantError("block type must be preserved")
    return result, nonnested, nonaligned


def _xi_bar(m: MarkedPair, check: bool, inverse: bool) -> MarkedPair:
    """xi on the partition; marks move from the nonnested blocks to the same
    positions among the nonaligned ones, or back for the inverse.  Both lists
    of special blocks are sorted by maximum, so the marks stay sorted."""
    require(m, "nc_na" if inverse else "nc_nn", check)
    image, nonnested, nonaligned = _xi_special(m.sigma)
    src, dst = (nonaligned, "nonnested") if inverse else (nonnested, "nonaligned")
    position = {b: i for i, b in enumerate(src)}
    moved = special_blocks(image, dst)
    return MarkedPair(image, tuple(moved[position[b]] for b in m.marked))


def xi_bar(m: MarkedPair, check: bool = True) -> MarkedPair:
    return _xi_bar(m, check, inverse=False)


def xi_bar_inverse(m: MarkedPair, check: bool = True) -> MarkedPair:
    return _xi_bar(m, check, inverse=True)


# ---------------------------------------------------------------------------
# Rearranging the components spanned by nonnested blocks


def rearrange(m: MarkedPair, perm: tuple[int, ...], check: bool = True) -> MarkedPair:
    """Permute the marked components by perm (1-based), fixing unmarked ones.

    The image's block labels are the owner ranges of the components in their
    new order; its marks are the images of the marked components' outer blocks.
    """
    require(m, "nc_nn", check)
    sigma = m.sigma
    spans = nonnested_blocks(sigma)
    lo = 1
    for b in spans:
        if b[0] != lo:
            raise InternalInvariantError("nonnested block spans must tile the ground set")
        lo = b[-1] + 1
    if lo != sigma.n + 1:
        raise InternalInvariantError("nonnested block spans must tile the ground set")
    marked = set(m.marked)
    marked_idx = [i for i, b in enumerate(spans) if b in marked]
    if sorted(perm) != list(range(1, len(marked_idx) + 1)):
        raise ValidationError("perm must be a permutation of the marked components")
    order = list(range(len(spans)))
    for t, i in enumerate(marked_idx):
        order[i] = marked_idx[perm[t] - 1]
    owner = _owners(sigma.blocks, sigma.n + 1)
    labels: list[int] = []
    ends = []  # ends[i]: the image's element closing the component at position i
    for i in order:
        labels += owner[spans[i][0]:spans[i][-1] + 1]
        ends.append(len(labels))
    out = SetPartition(sigma.n, _read_image(labels, len(sigma.blocks)))
    by_max = {b[-1]: b for b in out.blocks}
    return MarkedPair(out, tuple(by_max[ends[i]] for i in marked_idx))


def _on_pair(f, m: MarkedPair | MarkedTriple) -> MarkedPair | MarkedTriple:
    """Apply a marked-pair map to m, or to the pair of a triple keeping its sign."""
    if isinstance(m, MarkedTriple):
        out = f(m.pair)
        return MarkedTriple(out.sigma, out.marked, m.epsilon)
    return f(m)


def _iota(family: str, m: MarkedPair | MarkedTriple, check: bool, inverse: bool = False) -> MarkedPair | MarkedTriple:
    """Move the marked components that family's inverse holds to the front, the rest keeping their order.

    The permutation is the identity when no component is overtaken or none
    moves (a == 0 or w == 0); then m is returned as it is, without running
    rearrange.
    """
    require(m, SIGNED_FAMILIES[family].marked, check)
    held = held_marks(family, m)
    s, h = held.start, held.stop - held.start
    # components a+1..a+w go first, then 1..a: the held ones, or for the inverse the s they overtook
    a, w = (h, s) if inverse else (s, h)
    if not a or not w:
        return m
    perm = (*range(a + 1, a + w + 1), *range(1, a + 1), *range(a + w + 1, len(m.marked) + 1))
    return _on_pair(lambda pair: rearrange(pair, perm, check=False), m)


def iota_b(m: MarkedPair, check: bool = True) -> MarkedPair:
    """Move the middle marked component to the front when their count is odd."""
    return _iota("nc_b", m, check)


def iota_b_inverse(m: MarkedPair, check: bool = True) -> MarkedPair:
    return _iota("nc_b", m, check, inverse=True)


def iota_d(t: MarkedTriple, check: bool = True) -> MarkedTriple:
    """Bring the component(s) that will absorb the top element to the front."""
    return _iota("nc_d", t, check)


def iota_d_inverse(t: MarkedTriple, check: bool = True) -> MarkedTriple:
    return _iota("nc_d", t, check, inverse=True)


# ---------------------------------------------------------------------------
# Composed type-preserving bijections

# type letter -> (noncrossing family, nonnesting family).  A chain runs phi, iota where the
# two families hold their marks in different places, xi_bar, rho_bar and the nonnesting inverse.
# The phi maps are looked up on interpret at each call, so a rebinding of them is seen.
CHAINS = {"B": ("nc_b", "nn_b"), "C": ("nc_b", "nn_c"), "D": ("nc_d", "nn_d")}


def _chain(family: str) -> tuple[str, str, bool]:
    """The chain's two families, and whether it runs iota."""
    if family.upper() not in CHAINS:
        raise ValidationError(f"unknown family {family!r}")
    nc, nn = CHAINS[family.upper()]
    return nc, nn, SIGNED_FAMILIES[nc].held != SIGNED_FAMILIES[nn].held


def nc_to_nn(family: str, p: SignedPartition, check: bool = True) -> SignedPartition:
    """Type-preserving bijection from the noncrossing to the nonnesting family."""
    nc, nn, moves = _chain(family)
    m = getattr(interpret, f"phi_{nc}")(p, check=check)
    if moves:
        m = _iota(nc, m, check=False)
    m = _on_pair(lambda pair: rho_bar(xi_bar(pair, check=False), check=False), m)
    return getattr(interpret, f"phi_{nn}_inverse")(m, check=False)


def nn_to_nc(family: str, p: SignedPartition, check: bool = True) -> SignedPartition:
    nc, nn, moves = _chain(family)
    m = getattr(interpret, f"phi_{nn}")(p, check=check)
    m = _on_pair(lambda pair: xi_bar_inverse(rho_bar_inverse(pair, check=False), check=False), m)
    if moves:
        m = _iota(nc, m, check=False, inverse=True)
    return getattr(interpret, f"phi_{nc}_inverse")(m, check=False)
