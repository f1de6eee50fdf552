"""Membership, enumeration, and counting for the eight partition families.

Families are named nc_a, nn_a, pi_b, nc_b, nc_d, nn_b, nn_c, nn_d.  A signed
member of type B or C has a standard representation that avoids the pattern
in the family's total order (_ORDERS), which one O(n) scan of that order
decides; the D families are decided by the round trip through their marked
triples.  Signed families are enumerated through the inverse bijection of
their SIGNED_FAMILIES row; filtering is the oracle.

The unchecked reading of that bijection keeps the positive parts of the blocks
and marks those that lost negative elements; for D it drops n and records the
sign of the block absorbing n, or 0 when that block is {n} or the zero block.
Back, it holds one mark when their number k is odd, or 2 - k mod 2 marks,
which absorb n, under a nonzero sign, and pairs the rest first-with-last.
Both ways it trusts its input and builds each object in canonical form, with
no check.

Every checked map guards its input with require(x, domain, check), for a
family or a marked class, so each domain has one decision and one error text;
with check=False nothing is validated again.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (
    Block,
    SetPartition,
    ValidationError,
    _check_n,
    noncrossing_partitions,
    noncrossing_wrt,
    nonnesting_partitions,
    nonnesting_wrt,
    special_blocks,
    type_of,
)
from .signed import SignedPartition, _from_pairs, _pair_blocks, count_signed, enumerate_signed, signed_type

FAMILIES = ("nc_a", "nn_a", "pi_b", "nc_b", "nc_d", "nn_b", "nn_c", "nn_d")
UNSIGNED_FAMILIES = ("nc_a", "nn_a")

MARKED_CLASSES = ("nc_nn", "nc_na", "nn_na")
MARKED_TRIPLE_CLASSES = ("nc_nn_pm", "nc_na_pm", "nn_na_pm")


# The domains of least rank 1: the type-D families and the marked triples that
# encode them.  Every other domain has one empty object at n = 0.
_RANK_ONE = frozenset(("nc_d", "nn_d", *MARKED_TRIPLE_CLASSES))


def _check_rank(n: int, domain: str) -> None:
    _check_n(n, 1 if domain in _RANK_ONE else 0)


def order_nc_b(n: int) -> tuple[int, ...]:
    return (*range(1, n + 1), *range(-1, -n - 1, -1))


def order_nn_c(n: int) -> tuple[int, ...]:
    return (*range(1, n + 1), *range(-n, 0))


def order_nn_b(n: int) -> tuple[int, ...]:
    return (*range(1, n + 1), 0, *range(-n, 0))


_ORDERS = {"nc_b": order_nc_b, "nn_b": order_nn_b, "nn_c": order_nn_c}


@dataclass(frozen=True)
class SignedFamily:
    """The two choices that tell the signed families apart beyond their name.

    marked is the marked class in bijection with the family; held says
    whether the unpaired marks sit "middle" or "first".  The name carries the
    rest: nc_* families avoid crossings, nn_* families nestings, in the total
    order _ORDERS[name] for types B and C; a type-D family (marked in a
    triple class) is decided by the marked-triple round trip.
    """

    marked: str
    held: str


SIGNED_FAMILIES = {
    "nc_b": SignedFamily("nc_nn", "middle"),
    "nn_b": SignedFamily("nn_na", "first"),
    "nn_c": SignedFamily("nn_na", "middle"),
    "nc_d": SignedFamily("nc_nn_pm", "middle"),
    "nn_d": SignedFamily("nn_na_pm", "first"),
}


def _with_zero_element(p: SignedPartition) -> list[Block]:
    """Blocks of the partition of [+-n] u {0}: 0 joins the zero block or is a singleton."""
    z = p.zero_block()
    out = []
    for b in p.blocks:
        out.append(tuple(sorted(b + (0,))) if b == z else b)
    if z is None:
        out.append((0,))
    return out


def is_member(p, family: str) -> bool:
    """Exact membership in one of the eight families."""
    if family in UNSIGNED_FAMILIES:
        if not isinstance(p, SetPartition):
            raise ValidationError(f"family {family} needs an unsigned partition")
        # in its own order, so that the noncrossing scan leaves p's nonnested blocks behind
        return (noncrossing_wrt if family == "nc_a" else nonnesting_wrt)(p, range(1, p.n + 1))
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}")
    if not isinstance(p, SignedPartition):
        raise ValidationError(f"family {family} needs a signed partition")
    if family == "pi_b":
        return True
    if SIGNED_FAMILIES[family].marked in MARKED_TRIPLE_CLASSES:
        return member_triple(p, family) is not None
    order = _ORDERS[family](p.n)
    # 0 sits between the halves of the type-B nesting order and joins the zero block
    blocks = _with_zero_element(p) if 0 in order else p
    return (noncrossing_wrt if family.startswith("nc") else nonnesting_wrt)(blocks, order)


def member_triple(p, family: str) -> MarkedTriple | None:
    """The marked triple of p when p is a member of the type-D family, else None.

    Membership is decided as lying in the image of the marked-triple
    bijection: the forward reading must give a valid triple and its inverse
    must reproduce the input.  That round trip alone rejects a zero block
    that is exactly {n, -n} or misses +-n, and n = 0, where the reading
    fails.  The triple is the forward image, so a checked forward map reads
    it from here instead of computing it again.

    The inverse is not built whole.  Its blocks are those of its pairs
    (_pairs, made by signed._pair_blocks), and each unmarked block of sigma
    with its mirror.  The unmarked blocks of sigma are exactly p's blocks
    that are all positive and miss n, so the inverse and p always share
    those blocks and their mirrors.  The blocks of the inverse partition
    [+-n], so once every block of the pairs is a block of p, they and those
    shared blocks are all of p's blocks, and the inverse equals p.

    Merging the blocks of n and -n and testing the rest as a type-B partition
    does not characterize the D families: splitting the merged zero block
    back can wrap around the center the wrong way, and in the nonnesting
    case the merge also excludes genuine members.
    """
    if not isinstance(p, SignedPartition):
        raise ValidationError(f"family {family} needs a signed partition")
    try:
        triple = _read_marked(family, p)
    except ValidationError:
        return None
    if not validate_marked(triple, SIGNED_FAMILIES[family].marked):
        return None
    own = set(p.blocks)
    for a1, a2 in _pairs(family, triple):
        for b in _pair_blocks(a1, a2):
            if b not in own:
                return None
    return triple


@functools.lru_cache(maxsize=64)
def enumerate_family(family: str, n: int):
    """All members, sorted by canonical serialization.

    A signed family is built as the image of its marked class under the
    inverse bijection of its SIGNED_FAMILIES row.
    """
    _check_rank(n, family)
    if family == "nc_a":
        items = list(noncrossing_partitions(n))
    elif family == "nn_a":
        items = list(nonnesting_partitions(n))
    elif family == "pi_b":
        items = list(enumerate_signed(n))
    elif family in SIGNED_FAMILIES:
        items = [_read_signed(family, m) for m in marked_members(SIGNED_FAMILIES[family].marked, n)]
    else:
        raise ValidationError(f"unknown family {family!r}")
    return tuple(sorted(items, key=lambda p: p.blocks))


# ---------------------------------------------------------------------------
# Marked pairs and triples


@dataclass(frozen=True)
class MarkedPair:
    """A partition together with a set of its blocks, kept sorted by maximum.

    The dataclass constructor checks nothing, as the maps build pairs on hot
    paths: it trusts that the marks are distinct blocks of sigma, sorted by
    maximum.  ``make`` is the checked, canonicalising constructor the JSON
    readers use.
    """

    sigma: SetPartition
    marked: tuple[Block, ...]

    @classmethod
    def make(cls, sigma: SetPartition, marked: Iterable[Iterable[int]]) -> "MarkedPair":
        # each mark is kept as sigma's own block, so its elements are ints
        own = {b: b for b in sigma.blocks}
        ms = [own.get(tuple(sorted(b))) for b in marked]
        if None in ms or len(set(ms)) != len(ms):
            raise ValidationError("marked blocks must be distinct blocks of the partition")
        return cls(sigma, tuple(sorted(ms, key=lambda b: b[-1])))


@dataclass(frozen=True)
class MarkedTriple:
    """A marked pair with a sign.  Like ``MarkedPair``'s, the dataclass
    constructor checks nothing: it trusts the marks, and that epsilon is an
    int in {-1, 0, 1}.  ``make`` is the checked, canonicalising constructor
    the JSON readers use.
    """

    sigma: SetPartition
    marked: tuple[Block, ...]
    epsilon: int

    @classmethod
    def make(cls, sigma: SetPartition, marked, epsilon: int) -> "MarkedTriple":
        pair = MarkedPair.make(sigma, marked)
        if epsilon not in (-1, 0, 1):
            raise ValidationError("epsilon must be -1, 0 or 1")
        return cls(pair.sigma, pair.marked, int(epsilon))

    @property
    def pair(self) -> MarkedPair:
        return MarkedPair(self.sigma, self.marked)


def _class_parts(cls_name: str) -> tuple[str, str, bool]:
    base = cls_name[:-3] if cls_name.endswith("_pm") else cls_name
    if base not in MARKED_CLASSES:
        raise ValidationError(f"unknown marked class {cls_name!r}")
    family = "nc_a" if base.startswith("nc") else "nn_a"
    kind = "nonnested" if base.endswith("nn") else "nonaligned"
    return family, kind, cls_name.endswith("_pm")


def validate_marked(m, cls_name: str) -> bool:
    """Whether the (pair or triple) lies in the stated marked class."""
    family, kind, is_triple = _class_parts(cls_name)
    if is_triple != isinstance(m, MarkedTriple):
        return False
    if is_triple and (m.epsilon not in (-1, 0, 1) or not m.marked and m.epsilon != 0):
        return False
    return is_member(m.sigma, family) and set(m.marked) <= set(special_blocks(m.sigma, kind))


def domain_error(domain: str) -> ValidationError:
    """The one error for an input outside a family or a marked class, e.g.
    "not a type-B nonnesting partition" or "not a marked noncrossing pair with
    nonnested marks"."""
    pattern = "noncrossing" if domain.startswith("nc") else "nonnesting"
    if domain in SIGNED_FAMILIES:
        return ValidationError(f"not a type-{domain[-1].upper()} {pattern} partition")
    if domain in UNSIGNED_FAMILIES:
        return ValidationError(f"not a {pattern} partition")
    _, kind, is_triple = _class_parts(domain)
    return ValidationError(f"not a marked {pattern} {'triple' if is_triple else 'pair'} with {kind} marks")


def require(x, domain: str, check: bool = True) -> None:
    """With check set, raise domain_error(domain) unless x lies in the family or marked class."""
    if check and not (is_member(x, domain) if domain in FAMILIES else validate_marked(x, domain)):
        raise domain_error(domain)


def marked_pairs(n: int, cls_name: str) -> Iterator[MarkedPair]:
    """All marked pairs of the class, e.g. every (sigma, X) with X nonnested."""
    family, kind, is_triple = _class_parts(cls_name)
    if is_triple:
        raise ValidationError("use marked_triples for a triple class")
    source = noncrossing_partitions(n) if family == "nc_a" else nonnesting_partitions(n)
    for sigma in source:
        special = special_blocks(sigma, kind)
        for r in range(len(special) + 1):
            for marked in itertools.combinations(special, r):
                yield MarkedPair(sigma, marked)


def marked_triples(n: int, cls_name: str) -> Iterator[MarkedTriple]:
    family, kind, is_triple = _class_parts(cls_name)
    if not is_triple:
        raise ValidationError("use marked_pairs for a pair class")
    for pair in marked_pairs(n, cls_name[:-3]):
        eps_choices = (0,) if not pair.marked else (-1, 0, 1)
        for eps in eps_choices:
            yield MarkedTriple(pair.sigma, pair.marked, eps)


def marked_members(cls_name: str, n: int) -> Iterator[MarkedPair | MarkedTriple]:
    """The members of a marked class at rank n.  A marked triple over [n - 1]
    has rank n, like the type-D partitions it encodes."""
    _check_rank(n, cls_name)
    if cls_name in MARKED_TRIPLE_CLASSES:
        return marked_triples(n - 1, cls_name)
    return marked_pairs(n, cls_name)


def _positive_parts(p: SignedPartition, top: int) -> tuple[SetPartition, tuple[Block, ...]]:
    """Parts of the blocks inside [1, top); mark those properly contained in their block.

    Built in canonical form without a check: a block is ascending, so its
    part is the slice from its first positive element, less top when top is
    its last, and a block ending below 1 has none.  The parts are sorted by
    first element, the marks by maximum.
    """
    _check_n(top - 1)
    parts: list[Block] = []
    marked: list[Block] = []
    for b in p.blocks:
        if b[-1] < 0:
            continue
        pos = b if b[0] > 0 else b[bisect_left(b, 1):]
        if pos[-1] == top:
            pos = pos[:-1]
            if not pos:
                continue
        parts.append(pos)
        if len(pos) < len(b):
            marked.append(pos)
    parts.sort()
    marked.sort(key=lambda b: b[-1])
    return SetPartition(top - 1, tuple(parts)), tuple(marked)


def _epsilon_of_top_block(bn: Block, n: int) -> int:
    """Sign rule for the block {a_1..a_r, -b_1..-b_s, n} containing n."""
    pos = [x for x in bn if 0 < x < n]
    neg = [-x for x in bn if x < 0]
    if not neg:
        return 1
    if pos and max(pos) < max(neg):
        return 1
    return -1


def _read_marked(family: str, p: SignedPartition) -> MarkedPair | MarkedTriple:
    """The forward reading of p, trusting that p is a member of the family."""
    n = p.n
    if SIGNED_FAMILIES[family].marked not in MARKED_TRIPLE_CLASSES:
        return MarkedPair(*_positive_parts(p, n + 1))
    bn = p.block_containing(n)
    eps = 0 if bn == (n,) or p.zero_block() is not None else _epsilon_of_top_block(bn, n)
    return MarkedTriple(*_positive_parts(p, n), eps)


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


def _read_signed(family: str, m: MarkedPair | MarkedTriple) -> SignedPartition:
    """The inverse reading of m, trusting that m lies in the family's marked class."""
    n = m.sigma.n + 1 if isinstance(m, MarkedTriple) else m.sigma.n
    return _from_pairs(m.sigma, m.marked, _pairs(family, m), n)


# ---------------------------------------------------------------------------
# Counting formulas


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ValidationError(f"{a} is not divisible by {b}")
    return q


def count_family(family: str, n: int) -> int:
    """Closed-form cardinality of a family."""
    _check_rank(n, family)
    if family in ("nc_a", "nn_a"):
        return catalan(n)
    if family == "pi_b":
        return count_signed(n)
    if family in ("nc_b", "nn_b", "nn_c"):
        return math.comb(2 * n, n)
    if family in ("nc_d", "nn_d"):
        return _exact_div((3 * n - 2) * math.comb(2 * n - 2, n - 1), n)
    raise ValidationError(f"unknown family {family!r}")


def _normalize_type(lam: Iterable[int]) -> tuple[int, ...]:
    t = tuple(sorted(lam, reverse=True))
    if any(x < 1 for x in t):
        raise ValidationError("type parts must be positive integers")
    return t


def _m_lambda(lam: tuple[int, ...]) -> int:
    out = 1
    for _, grp in itertools.groupby(lam):
        out *= math.factorial(len(list(grp)))
    return out


# The noncrossing family whose members are counted by block-size type, per type letter.
TYPE_FAMILIES = {"A": "nc_a", "B": "nc_b", "D": "nc_d"}


def _type_family(family: str) -> str:
    fam = TYPE_FAMILIES.get(family.upper())
    if fam is None:
        raise ValidationError(f"unknown type family {family!r}")
    return fam


def count_by_type(family: str, n: int, lam: Iterable[int]) -> int:
    """Number of noncrossing partitions of the family with block-size type lam."""
    _check_rank(n, _type_family(family))
    lam = _normalize_type(lam)
    total, ell = sum(lam), len(lam)
    m = _m_lambda(lam)
    fam = family.upper()
    if fam == "A":
        if total != n:
            raise ValidationError("type A requires the parts to sum to n")
        if not lam:
            return 1  # the empty partition, at n = 0
        return _exact_div(math.perm(n, ell - 1), m)
    if fam == "B":
        if total > n:
            raise ValidationError("type B requires the parts to sum to at most n")
        return _exact_div(math.perm(n, ell), m)
    if total > n:
        raise ValidationError("type D requires the parts to sum to at most n")
    if total == n - 1:
        return 0
    if total == n:
        m1 = sum(1 for x in lam if x == 1)
        return _exact_div((m1 + 2 * (n - ell)) * math.perm(n - 1, ell - 1), m)
    return _exact_div(math.perm(n - 1, ell), m)


@functools.lru_cache(maxsize=64)
def type_census(family: str, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Counts of members by block-size type, from one full enumeration."""
    fam = _type_family(family)
    type_fn = type_of if fam in UNSIGNED_FAMILIES else signed_type
    return tuple(sorted(Counter(type_fn(p) for p in enumerate_family(fam, n)).items()))


def exhaustive_count_by_type(family: str, n: int, lam: Iterable[int]) -> int:
    """Brute-force analogue of count_by_type, by full enumeration."""
    lam = _normalize_type(lam)
    return dict(type_census(family, n)).get(lam, 0)
