"""Membership, enumeration, and counting for the eight partition families.

Families are named nc_a, nn_a, pi_b, nc_b, nc_d, nn_b, nn_c, nn_d.  Signed
memberships read the family's row of SIGNED_FAMILIES: the standard
representation must avoid the pattern in the family's total order, and the D
families are decided through their marked-triple bijection.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (
    Block,
    SetPartition,
    ValidationError,
    noncrossing_partitions,
    noncrossing_wrt,
    nonnesting_partitions,
    nonnesting_wrt,
    nonaligned_blocks,
    nonnested_blocks,
    type_of,
)
from .signed import SignedPartition, count_signed, enumerate_signed, signed_type, zero_block_size

FAMILIES = ("nc_a", "nn_a", "pi_b", "nc_b", "nc_d", "nn_b", "nn_c", "nn_d")
UNSIGNED_FAMILIES = ("nc_a", "nn_a")

MARKED_CLASSES = ("nc_nn", "nc_na", "nn_na")
MARKED_TRIPLE_CLASSES = ("nc_nn_pm", "nc_na_pm", "nn_na_pm")


def order_nc_b(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1)) + tuple(-i for i in range(1, n + 1))


def order_nn_c(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1)) + tuple(-i for i in range(n, 0, -1))


def order_nn_b(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1)) + (0,) + tuple(-i for i in range(n, 0, -1))


_ORDERS = {"nc_b": order_nc_b, "nn_b": order_nn_b, "nn_c": order_nn_c}


@dataclass(frozen=True)
class SignedFamily:
    """The three choices that tell the signed families apart.

    order names the membership order (a key of _ORDERS), or is "bijection"
    when membership is decided through the marked-triple map; pattern is
    "crossing" or "nesting"; marked is the marked class in bijection with the
    family; held says whether the unpaired marks sit "middle" or "first".
    """

    order: str
    pattern: str
    marked: str
    held: str


SIGNED_FAMILIES = {
    "nc_b": SignedFamily("nc_b", "crossing", "nc_nn", "middle"),
    "nn_b": SignedFamily("nn_b", "nesting", "nn_na", "first"),
    "nn_c": SignedFamily("nn_c", "nesting", "nn_na", "middle"),
    "nc_d": SignedFamily("bijection", "crossing", "nc_nn_pm", "middle"),
    "nn_d": SignedFamily("bijection", "nesting", "nn_na_pm", "first"),
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


def d_reduce(p: SignedPartition) -> SignedPartition | None:
    """Merge the blocks containing n and -n and drop both elements.

    Returns None when the merge does not leave a valid signed partition
    (for example when it would create a second zero block).
    """
    n = p.n
    bn = p.block_containing(n)
    bm = p.block_containing(-n)
    merged = tuple(sorted((set(bn) | set(bm)) - {n, -n}))
    rest = [b for b in p.blocks if b != bn and b != bm]
    if merged:
        rest.append(merged)
    try:
        return SignedPartition.from_blocks(rest, n - 1)
    except ValidationError:
        return None


def is_member(p, family: str) -> bool:
    """Exact membership in one of the eight families."""
    if family in UNSIGNED_FAMILIES:
        if not isinstance(p, SetPartition):
            raise ValidationError(f"family {family} needs an unsigned partition")
        if family == "nc_a":
            return noncrossing_wrt(p, tuple(range(1, p.n + 1)))
        return nonnesting_wrt(p, tuple(range(1, p.n + 1)))
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}")
    if not isinstance(p, SignedPartition):
        raise ValidationError(f"family {family} needs a signed partition")
    if family == "pi_b":
        return True
    spec = SIGNED_FAMILIES[family]
    if spec.order == "bijection":
        return _is_member_d(p, family)
    order = _ORDERS[spec.order](p.n)
    # 0 sits between the halves of the type-B nesting order and joins the zero block
    blocks = _with_zero_element(p) if 0 in order else p
    return (noncrossing_wrt if spec.pattern == "crossing" else nonnesting_wrt)(blocks, order)


def _is_member_d(p: SignedPartition, family: str) -> bool:
    """Type-D membership, decided as lying in the image of the marked-triple
    bijection: the forward reading must give a valid triple and its inverse
    must reproduce the input.

    The zero-block condition plus the top-element reduction do not
    characterize the D families: splitting the merged zero block back can
    wrap around the center the wrong way, and in the nonnesting case the
    reduction also excludes genuine members.
    """
    # interpret builds its maps on this module, so it is imported at call time
    from . import interpret

    n = p.n
    z = p.zero_block()
    if z is not None and not {n, -n} < set(z):
        return False
    try:
        triple = interpret._forward(family, p, check=False)
    except ValidationError:
        return False
    if not validate_marked(triple, SIGNED_FAMILIES[family].marked):
        return False
    return interpret._inverse(family, triple, check=False) == p


def _canonical_key(p) -> tuple:
    return p.blocks


@functools.lru_cache(maxsize=64)
def enumerate_family(family: str, n: int, constructive: bool = False):
    """All members, sorted by canonical serialization.

    For nc_b, constructive=True builds members through the marked-pair
    bijection instead of filtering all signed partitions.
    """
    _check_n(n, _LEAST_N.get(family, 0))
    if family == "nc_a":
        items = list(noncrossing_partitions(n))
    elif family == "nn_a":
        items = list(nonnesting_partitions(n))
    elif family == "pi_b":
        items = list(enumerate_signed(n))
    elif family == "nc_b" and constructive:
        # interpret builds its maps on this module, so it is imported at call time
        from .interpret import phi_nc_b_inverse

        items = [
            phi_nc_b_inverse(m, check=False)
            for m in marked_pairs(n, "nc_nn")
        ]
    elif family in FAMILIES:
        items = [p for p in enumerate_signed(n) if is_member(p, family)]
    else:
        raise ValidationError(f"unknown family {family!r}")
    return tuple(sorted(items, key=_canonical_key))


# ---------------------------------------------------------------------------
# Marked pairs and triples


@dataclass(frozen=True)
class MarkedPair:
    """A partition together with a set of its blocks, kept sorted by maximum."""

    sigma: SetPartition
    marked: tuple[Block, ...]

    @classmethod
    def make(cls, sigma: SetPartition, marked: Iterable[Iterable[int]]) -> "MarkedPair":
        ms = tuple(sorted((tuple(sorted(b)) for b in marked), key=lambda b: b[-1]))
        if len(set(ms)) != len(ms) or not set(ms) <= set(sigma.blocks):
            raise ValidationError("marked blocks must be distinct blocks of the partition")
        return cls(sigma, ms)


@dataclass(frozen=True)
class MarkedTriple:
    sigma: SetPartition
    marked: tuple[Block, ...]
    epsilon: int

    @classmethod
    def make(cls, sigma: SetPartition, marked, epsilon: int) -> "MarkedTriple":
        pair = MarkedPair.make(sigma, marked)
        if epsilon not in (-1, 0, 1):
            raise ValidationError("epsilon must be -1, 0 or 1")
        return cls(pair.sigma, pair.marked, epsilon)

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
    if is_triple and m.epsilon not in (-1, 0, 1):
        return False
    if is_triple and not m.marked and m.epsilon != 0:
        return False
    if not is_member(m.sigma, family):
        return False
    special = nonnested_blocks(m.sigma) if kind == "nonnested" else nonaligned_blocks(m.sigma)
    return set(m.marked) <= set(special)


def marked_pairs(n: int, cls_name: str) -> Iterator[MarkedPair]:
    """All marked pairs of the class, e.g. every (sigma, X) with X nonnested."""
    family, kind, is_triple = _class_parts(cls_name)
    if is_triple:
        raise ValidationError("use marked_triples for a triple class")
    source = noncrossing_partitions(n) if family == "nc_a" else nonnesting_partitions(n)
    for sigma in source:
        special = nonnested_blocks(sigma) if kind == "nonnested" else nonaligned_blocks(sigma)
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


# ---------------------------------------------------------------------------
# Counting formulas


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ValidationError(f"{a} is not divisible by {b}")
    return q


# The least n of each family's domain; elsewhere n = 0 gives the one empty object.
_LEAST_N = {"nc_d": 1, "nn_d": 1}


def _check_n(n: int, least: int = 0) -> None:
    if n < least:
        raise ValidationError(f"n must be >= {least}")


def count_family(family: str, n: int) -> int:
    """Closed-form cardinality of a family."""
    _check_n(n, _LEAST_N.get(family, 0))
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


def count_by_type(family: str, n: int, lam: Iterable[int]) -> int:
    """Number of noncrossing partitions of the family with block-size type lam."""
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
    if fam == "D":
        _check_n(n, 1)
        if total > n:
            raise ValidationError("type D requires the parts to sum to at most n")
        if total == n - 1:
            return 0
        if total == n:
            m1 = sum(1 for x in lam if x == 1)
            return _exact_div((m1 + 2 * (n - ell)) * math.perm(n - 1, ell - 1), m)
        return _exact_div(math.perm(n - 1, ell), m)
    raise ValidationError(f"unknown type family {family!r}")


@functools.lru_cache(maxsize=64)
def type_census(family: str, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Counts of members by block-size type, from one full enumeration."""
    fam = family.upper()
    counts: dict[tuple[int, ...], int] = {}
    if fam == "A":
        for p in noncrossing_partitions(n):
            t = type_of(p)
            counts[t] = counts.get(t, 0) + 1
    else:
        fam_name = {"B": "nc_b", "D": "nc_d"}[fam]
        for p in enumerate_family(fam_name, n):
            t = signed_type(p)
            counts[t] = counts.get(t, 0) + 1
    return tuple(sorted(counts.items()))


def exhaustive_count_by_type(family: str, n: int, lam: Iterable[int]) -> int:
    """Brute-force analogue of count_by_type, by full enumeration."""
    lam = _normalize_type(lam)
    return dict(type_census(family, n)).get(lam, 0)
