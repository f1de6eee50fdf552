"""Bijections between the signed families and marked type-A objects.

The five signed families are one construction (Reiner 1997; Athanasiadis-
Reiner 2004) that varies in three choices, one row per family in
models.SIGNED_FAMILIES: the total order whose standard representation avoids
the pattern (D families are decided through the bijection itself), the class
of marked pairs or triples, and whether the held marks sit in the middle or
first of the marks sorted by maximum.

The forward map keeps the positive parts of the blocks and marks those that
lost negative elements; for D it also drops n and records the sign of the
block absorbing n, or 0 when that block is {n} or the zero block.  The
inverse holds one mark when their number k is odd, or 2 - k mod 2 marks,
which absorb n, under a nonzero sign, and pairs the rest first-with-last.
"""

from __future__ import annotations

from .core import Block, SetPartition
from .models import (
    MARKED_TRIPLE_CLASSES, SIGNED_FAMILIES, MarkedPair, MarkedTriple, domain_error, member_triple, require,
)
from .signed import SignedPartition, _from_pairs


def _positive_parts(p: SignedPartition, top: int) -> tuple[SetPartition, list[Block]]:
    """Parts of the blocks inside [1, top); mark those properly contained in their block."""
    blocks: list[Block] = []
    marked: list[Block] = []
    for b in p.blocks:
        pos = tuple(x for x in b if 0 < x < top)
        if pos:
            blocks.append(pos)
            if len(pos) < len(b):
                marked.append(pos)
    return SetPartition.from_blocks(blocks, top - 1), marked


def _epsilon_of_top_block(bn: Block, n: int) -> int:
    """Sign rule for the block {a_1..a_r, -b_1..-b_s, n} containing n."""
    pos = [x for x in bn if 0 < x < n]
    neg = [-x for x in bn if x < 0]
    if not neg:
        return 1
    if pos and max(pos) < max(neg):
        return 1
    return -1


def _forward(family: str, p: SignedPartition, check: bool) -> MarkedPair | MarkedTriple:
    spec = SIGNED_FAMILIES[family]
    if check and spec.order == "bijection":
        # the type-D membership test computes the forward image on the way
        triple = member_triple(p, family)
        if triple is None:
            raise domain_error(family)
        return triple
    require(p, family, check)
    n = p.n
    if spec.marked not in MARKED_TRIPLE_CLASSES:
        return MarkedPair.make(*_positive_parts(p, n + 1))
    bn = p.block_containing(n)
    eps = 0 if bn == (n,) or p.zero_block() is not None else _epsilon_of_top_block(bn, n)
    return MarkedTriple.make(*_positive_parts(p, n), eps)


def held_marks(family: str, m: MarkedPair | MarkedTriple) -> slice:
    """The slice of m.marked (sorted by maximum) that the family's inverse holds, by the module docstring's rule."""
    k = len(m.marked)
    h = 2 - k % 2 if isinstance(m, MarkedTriple) and m.epsilon else k % 2
    s = (k - h) // 2 if SIGNED_FAMILIES[family].held == "middle" else 0
    return slice(s, s + h)


def _pairs(family: str, m: MarkedPair | MarkedTriple) -> list[tuple[Block, Block]]:
    """The pairs (A, A') whose blocks A u -A' and their mirrors make up the image.

    Under a nonzero sign e the held marks H give (H_1 + (e n,), H_2 or ()).
    Otherwise a held mark A gives (A, A), the zero block, which takes +-n
    along for a triple; a triple without held marks gets ((n,), ()).
    """
    top = (m.sigma.n + 1,) if isinstance(m, MarkedTriple) else ()
    eps = m.epsilon if top else 0
    at = held_marks(family, m)
    held, rest = m.marked[at], m.marked[:at.start] + m.marked[at.stop:]
    pairs = [(rest[i], rest[-1 - i]) for i in range(len(rest) // 2)]
    if eps:
        pairs.append((held[0] + (eps * top[0],), held[1] if len(held) == 2 else ()))
    elif held:
        pairs.append((held[0] + top, held[0] + top))
    elif top:
        pairs.append((top, ()))
    return pairs


def _inverse(family: str, m: MarkedPair | MarkedTriple, check: bool) -> SignedPartition:
    require(m, SIGNED_FAMILIES[family].marked, check)
    n = m.sigma.n + 1 if isinstance(m, MarkedTriple) else m.sigma.n
    return _from_pairs(m.sigma, m.marked, _pairs(family, m), n)


def _type_clause(family: str, m: MarkedPair | MarkedTriple) -> tuple[int, ...]:
    """Sizes of the image's nonzero mirror pairs that are not blocks of sigma."""
    return _type_multiset(len(a1) + len(a2) for a1, a2 in _pairs(family, m) if a1 != a2)


# ---------------------------------------------------------------------------
# Type B and C


def phi_nc_b(p: SignedPartition, check: bool = True) -> MarkedPair:
    return _forward("nc_b", p, check)


def phi_nc_b_inverse(m: MarkedPair, check: bool = True) -> SignedPartition:
    """Middle-unmatched convention: X_i pairs with X_{k+1-i}, odd middle -> zero block."""
    return _inverse("nc_b", m, check)


def phi_nn_b(p: SignedPartition, check: bool = True) -> MarkedPair:
    return _forward("nn_b", p, check)


def phi_nn_b_inverse(m: MarkedPair, check: bool = True) -> SignedPartition:
    """First-unmatched convention: an odd count makes the smallest-max block the zero block."""
    return _inverse("nn_b", m, check)


def phi_nn_c(p: SignedPartition, check: bool = True) -> MarkedPair:
    return _forward("nn_c", p, check)


def phi_nn_c_inverse(m: MarkedPair, check: bool = True) -> SignedPartition:
    """Middle-unmatched convention, like the type-B noncrossing inverse."""
    return _inverse("nn_c", m, check)


# ---------------------------------------------------------------------------
# Type D


def phi_nc_d(p: SignedPartition, check: bool = True) -> MarkedTriple:
    return _forward("nc_d", p, check)


def phi_nc_d_inverse(t: MarkedTriple, check: bool = True) -> SignedPartition:
    return _inverse("nc_d", t, check)


def phi_nn_d(p: SignedPartition, check: bool = True) -> MarkedTriple:
    return _forward("nn_d", p, check)


def phi_nn_d_inverse(t: MarkedTriple, check: bool = True) -> SignedPartition:
    """The low-max marked blocks absorb n; the remainder pairs first-with-last."""
    return _inverse("nn_d", t, check)


# ---------------------------------------------------------------------------
# Type clauses: the multiset T such that type(pi) = type(sigma minus X) + T


def _type_multiset(sizes) -> tuple[int, ...]:
    return tuple(sorted(sizes, reverse=True))


def unmarked_type(m: MarkedPair | MarkedTriple) -> tuple[int, ...]:
    marked = set(m.marked)
    return _type_multiset(len(b) for b in m.sigma.blocks if b not in marked)


def type_clause_b(m: MarkedPair) -> tuple[int, ...]:
    """T for the type-B noncrossing interpretation (middle block drops out when odd)."""
    return _type_clause("nc_b", m)


def type_clause_nn_b(m: MarkedPair) -> tuple[int, ...]:
    return _type_clause("nn_b", m)


def type_clause_nn_c(m: MarkedPair) -> tuple[int, ...]:
    return _type_clause("nn_c", m)


def type_clause_nc_d(t: MarkedTriple) -> tuple[int, ...]:
    return _type_clause("nc_d", t)


def type_clause_nn_d(t: MarkedTriple) -> tuple[int, ...]:
    return _type_clause("nn_d", t)
