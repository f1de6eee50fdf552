"""Bijections between the signed families and marked type-A objects.

The five signed families are one construction (Reiner 1997; Athanasiadis-
Reiner 2004) that varies in two choices, one row per family in
models.SIGNED_FAMILIES: the class of marked pairs or triples, and whether the
held marks sit in the middle or first of the marks sorted by maximum.  A
type-B or type-C member avoids its pattern in the family's own total order; a
type-D member is one that the marked-triple round trip reproduces.

The unchecked reading both ways is models', whose membership and enumeration
use it; this module adds the domain checks, the public maps and the type
read-off image_type.
"""

from __future__ import annotations

from .models import (
    MARKED_TRIPLE_CLASSES, SIGNED_FAMILIES, MarkedPair, MarkedTriple, _pairs, _read_marked, _read_signed, domain_error,
    member_triple, require,
)
from .signed import SignedPartition


def _forward(family: str, p: SignedPartition, check: bool) -> MarkedPair | MarkedTriple:
    if check and SIGNED_FAMILIES[family].marked in MARKED_TRIPLE_CLASSES:
        # the type-D membership test computes the forward image on the way
        triple = member_triple(p, family)
        if triple is None:
            raise domain_error(family)
        return triple
    require(p, family, check)
    return _read_marked(family, p)


def _inverse(family: str, m: MarkedPair | MarkedTriple, check: bool) -> SignedPartition:
    require(m, SIGNED_FAMILIES[family].marked, check)
    return _read_signed(family, m)


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
# The type clause: type(pi) = type(sigma minus X) + T


def image_type(family: str, m: MarkedPair | MarkedTriple) -> tuple[int, ...]:
    """The signed type of m's image under the family's inverse, trusting m.

    The unmarked blocks of sigma keep their sizes, and T holds |A| + |A'|
    for each pair (A, A') of the image that is not a zero block (A != A').
    """
    marked = set(m.marked)
    sizes = [len(b) for b in m.sigma.blocks if b not in marked]
    sizes += [len(a1) + len(a2) for a1, a2 in _pairs(family, m) if a1 != a2]
    return tuple(sorted(sizes, reverse=True))
