"""Exhaustive desk-scale verification, declared as one registry of checks.

Every check is one entry of ``CHECKS``: its suite, its name, the least n it
sweeps, its declared bound, and a predicate on a single n.  ``run_check``
sweeps an entry over n = lo..min(bound, max_n), so running with max_n below
the bound shrinks the sweep and a larger max_n never widens it.  An entry
whose bound is None is a fixed-order check: it runs once, at n = lo,
whatever max_n is.  The sweep stops at the first n whose predicate is false
or raises, and the check's ``detail`` names that n as ``n=<k>``, followed by
the exception's type and text when one was raised.

The bijection checks sweep rows of the map table (coxcat.maps): a row's
forward map must send its source onto its target at rank n, its inverse must
undo it, and its statistic must hold; a check may add conditions of its own.

A suite is the entries that share a suite name, and ``SUITES`` lists those
names in registry order.  Checks are pure and independent, so
``run_suites(jobs=N)`` runs each check as one task on N processes; the
report is sorted by suite and name either way.  The process pool is
imported only when N > 1, so importing this module, as every ``coxcat``
command does, loads neither ``concurrent.futures`` nor ``multiprocessing``.
The acceptance gate (tests/test_acceptance.py) runs every entry at its full
bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from . import encode, maps, models, series, typemaps
from .core import (
    ValidationError,
    _check_n,
    edges,
    nonaligned_blocks,
    nonnested_blocks,
    noncrossing_partitions,
    noncrossing_wrt,
    nonnesting_partitions,
    nonnesting_wrt,
    partitions,
    pattern_free,
    type_of,
)
from .models import enumerate_family
from .signed import (
    count_signed,
    decompose_triple,
    compose_triple,
    enumerate_signed,
    signed_type,
    triples,
    zero_block_size,
)

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Entry:
    """A declared check: ``holds(n)`` for n = lo..bound, or once at n = lo when bound is None."""

    suite: str
    name: str
    lo: int
    bound: int | None
    holds: Callable[[int], bool]

    def sweep(self, max_n: int) -> range:
        top = self.lo if self.bound is None else min(self.bound, max_n)
        return range(self.lo, top + 1)


CHECKS: list[Entry] = []


def _declare(suite: str, name: str, lo: int, bound: int | None):
    def register(holds):
        CHECKS.append(Entry(suite, name, lo, bound, holds))
        return holds

    return register


def run_check(entry: Entry, max_n: int) -> Check:
    """Sweep one entry; an exception raised by the code under check fails the check, it is not bad input."""
    for n in entry.sweep(max_n):
        try:
            ok = entry.holds(n)
        except Exception as e:
            return Check(entry.suite, entry.name, False, f"n={n}: {type(e).__name__}: {e}")
        if not ok:
            return Check(entry.suite, entry.name, False, f"n={n}")
    return Check(entry.suite, entry.name, True)


def _sweep(name: str, n: int, also=lambda x, y: True, known: dict | None = None) -> dict | None:
    """The map table's row ``name`` at rank n: its forward map sends the source
    one to one onto the target, its inverse undoes it, and its statistic and
    ``also`` hold.  Returns the images keyed by their sources, or None.
    ``known`` holds the domains already listed at rank n and gains the others."""
    row = maps.MAP[name]
    known = {} if known is None else known
    for d in (row.source, row.target):
        if d not in known:
            known[d] = list(maps.DOMAINS[d][1](n))
    sources = known[row.source]
    image = {}
    for x in sources:
        y = row.forward(x, check=False)
        if row.inverse(y, check=False) != x or not row.keeps(x, y) or not also(x, y):
            return None
        image[x] = y
    return image if len(image) == len(sources) and set(image.values()) == set(known[row.target]) else None


def _count(items) -> int:
    return sum(1 for _ in items)


# ---------------------------------------------------------------------------
# core


@_declare("core", "pairwise arc definition agrees with both scans", 0, 10)
def _pairwise_arcs(n):
    order = tuple(range(1, n + 1))
    agrees = n > 7 or all(
        # range(1, n + 1) takes the scan's block-by-block path for a partition in its own order
        pattern_free(p, order, "crossing") == noncrossing_wrt(p, order) == noncrossing_wrt(p, range(1, n + 1))
        and pattern_free(p, order, "nesting") == nonnesting_wrt(p, order)
        for p in partitions(n)
    )
    return (
        agrees
        and all(pattern_free(p, order, "crossing") for p in noncrossing_partitions(n))
        and all(pattern_free(p, order, "nesting") for p in nonnesting_partitions(n))
    )


@_declare("core", "type sums to n and blocks + edges = n", 0, 9)
def _type_sums(n):
    return all(sum(type_of(p)) == n and len(p.blocks) + len(edges(p)) == n for p in partitions(n))


@_declare("core", "nonnested and nonaligned blocks are nonempty", 1, 8)
def _special_blocks_exist(n):
    return all(nonnested_blocks(p) and nonaligned_blocks(p) for p in partitions(n))


@_declare("core", "nonaligned iff the block maximum is in the top run", 1, 9)
def _nonaligned_top_run(n):
    for p in noncrossing_partitions(n):
        na = set(nonaligned_blocks(p))
        from_top = sorted(p.blocks, key=lambda b: b[-1], reverse=True)
        if any((b in na) != (b[-1] == n - i) for i, b in enumerate(from_top)):
            return False
    return True


# ---------------------------------------------------------------------------
# signed


@_declare("signed", "triple decomposition round-trips and parity marks the zero block", 1, 6)
def _triple_decomposition(n):
    for p in enumerate_family("pi_b", n):
        d = decompose_triple(p)
        if compose_triple(d.alpha, d.beta, list(d.gamma)) != p:
            return False
        if (len(d.beta) % 2 == 1) != (p.zero_block() is not None) or len(d.gamma0) != (len(d.beta) + 1) // 2:
            return False
    return True


@_declare("signed", "compose then decompose is the identity on triples", 1, 6)
def _compose_decompose(n):
    for sigma, marked, matching in triples(n):
        d = decompose_triple(compose_triple(sigma, marked, matching))
        if d.alpha != sigma or set(d.beta) != set(marked):
            return False
        if {frozenset(pr) for pr in d.gamma} != {frozenset(pr) for pr in matching}:
            return False
    return True


@_declare("signed", "enumeration is duplicate-free and matches the counting formula", 1, 7)
def _signed_enumeration(n):
    ps = list(enumerate_signed(n))
    if not len(set(ps)) == len(ps) == count_signed(n):
        return False
    return all(sum(signed_type(p)) + zero_block_size(p) // 2 == n for p in ps)


# ---------------------------------------------------------------------------
# models


@_declare("models", "noncrossing and nonnesting counts are Catalan", 1, 12)
def _catalan_counts(n):
    return _count(noncrossing_partitions(n)) == CATALAN[n] == _count(nonnesting_partitions(n))


@_declare("models", "bijective enumerations agree with filtering signed partitions", 1, 6)
def _enumeration_by_filter(n):
    # Filter by what the family's phi row accepts with check=True: with
    # check=False the B/C forward maps (and the two D ones) compute the same
    # image, so only the check tells a row wired to a sibling's map apart.
    # Pi_B(n) comes sorted like every family, so what it accepts needs no sort.
    signed = enumerate_family("pi_b", n)
    return all(
        enumerate_family(fam, n) == tuple(p for p in signed if _accepts(maps.MAP[f"phi_{fam}"].forward, p))
        for fam in models.SIGNED_FAMILIES
    )


def _accepts(forward, p) -> bool:
    try:
        forward(p, check=True)
    except ValidationError:
        return False
    return True


@_declare("models", "family cardinalities match the closed formulas", 1, 6)
def _family_counts(n):
    return all(len(enumerate_family(fam, n)) == models.count_family(fam, n) for fam in models.SIGNED_FAMILIES)


@_declare("models", "type-counting formulas match exhaustive counts and sum to the family size", 1, 6)
def _type_counts(n):
    for fam, size in (("A", CATALAN[n]), ("B", math.comb(2 * n, n)), ("D", models.count_family("nc_d", n))):
        total = 0
        for lam in _all_types(fam, n):
            c = models.count_by_type(fam, n, lam)
            if c != models.exhaustive_count_by_type(fam, n, lam):
                return False
            # no type-D member has parts summing to n - 1
            if fam == "D" and sum(lam) == n - 1 and c:
                return False
            total += c
        if total != size:
            return False
    return True


@_declare("models", "type counts by number of parts are the Narayana numbers of types B and D", 1, 12)
def _narayana_counts(n):
    # exhaustive_count_by_type stays the oracle of count_by_type itself, at the bound of the check above
    for fam in ("B", "D") if n >= 2 else ("B",):
        by_parts = Counter()
        for lam in _all_types(fam, n):
            by_parts[len(lam)] += models.count_by_type(fam, n, lam)
        if any(by_parts[ell] != _narayana(fam, n, ell) for ell in range(n + 1)):
            return False
    return True


def _narayana(fam: str, n: int, ell: int) -> int:
    """Members of NC_B(n) (Reiner 1997) or NC_D(n), n >= 2 (Athanasiadis-Reiner 2004) with ell nonzero block pairs."""
    if fam == "B":
        return math.comb(n, ell) ** 2
    if ell == 0:
        return 1
    # C(n-1, ell-1) C(n-1, ell) / (n - 1) is the Narayana number N(n - 1, ell), an integer
    return math.comb(n, ell) ** 2 - n * models._exact_div(math.comb(n - 1, ell - 1) * math.comb(n - 1, ell), n - 1)


def _all_types(fam: str, n: int):
    if fam == "A":
        yield from _int_partitions(n)
        return
    for total in range(n + 1):
        yield from _int_partitions(total)


def _int_partitions(total: int, mx: int | None = None):
    if total == 0:
        yield ()
        return
    mx = total if mx is None else mx
    for first in range(min(total, mx), 0, -1):
        for rest in _int_partitions(total - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# interpret


def _family_bijective(fam, n):
    image = _sweep(f"phi_{fam}", n)
    if image is None:
        return False
    # all four (epsilon = 0?, k mod 2) branches of a type-D clause occur from n = 3 on
    if models.SIGNED_FAMILIES[fam].marked not in models.MARKED_TRIPLE_CLASSES or n < 3:
        return True
    return len({(t.epsilon == 0, len(t.marked) % 2) for t in image.values()}) == 4


for _fam in models.SIGNED_FAMILIES:
    _declare("interpret", f"{_fam}: bijective with type clause", 1, 6)(functools.partial(_family_bijective, _fam))


@_declare("interpret", "zero blocks sit at the middle (B) or first (NN-B) mark", 1, 6)
def _zero_block_marks(n):
    for fam, spec in models.SIGNED_FAMILIES.items():
        if spec.marked in models.MARKED_TRIPLE_CLASSES:
            continue
        fwd = maps.MAP[f"phi_{fam}"].forward
        for p in enumerate_family(fam, n):
            m, z = fwd(p, check=False), p.zero_block()
            if (len(m.marked) % 2 == 1) != (z is not None):
                return False
            if z is not None:
                held = m.marked[len(m.marked) // 2 if spec.held == "middle" else 0]
                if tuple(sorted(held + tuple(-x for x in held))) != z:
                    return False
    return True


# ---------------------------------------------------------------------------
# typemaps


@_declare("typemaps", "xi is a type-preserving involution swapping the two statistics", 0, 9)
def _xi_involution(n):
    def swaps(p, q):
        nn_p, na_p = len(nonnested_blocks(p)), len(nonaligned_blocks(p))
        swapped = len(nonnested_blocks(q)) == na_p and len(nonaligned_blocks(q)) == nn_p
        return swapped and q == typemaps.xi_by_decomposition(p)

    return _sweep("xi", n, swaps) is not None


@_declare("typemaps", "special block sizes correspond elementwise under xi", 0, 9)
def _xi_block_sizes(n):
    for p in noncrossing_partitions(n):
        q = typemaps.xi(p, check=False)
        if maps._sizes(nonnested_blocks(p)) != maps._sizes(nonaligned_blocks(q)):
            return False
        if maps._sizes(nonaligned_blocks(p)) != maps._sizes(nonnested_blocks(q)):
            return False
    return True


@_declare("typemaps", "joint statistic distribution is swap-symmetric", 0, 10)
def _joint_symmetry(n):
    dist = series.nn_na_polynomial(n)
    return dist == {(b, a): v for (a, b), v in dist.items()}


@_declare("typemaps", "rho is a profile-preserving bijection onto nonnesting partitions", 0, 9)
def _rho_bijection(n):
    return _sweep("rho", n, lambda p, q: q == typemaps.rho_by_search(p)) is not None


@_declare("typemaps", "marked-pair maps are bijections on their classes", 1, 6)
def _marked_pair_maps(n):
    known = {}
    if any(_sweep(name, n, known=known) is None for name in ("rho_bar", "xi_bar", "iota_b")):
        return False
    # the triples over [n] have rank n + 1
    return _sweep("iota_d", n + 1) is not None


@_declare("typemaps", "composed maps are type-preserving bijections", 1, 6)
def _composed_maps(n):
    return all(_sweep(f"nc_to_nn_{letter.lower()}", n) is not None for letter in typemaps.CHAINS)


# ---------------------------------------------------------------------------
# series: the first three checks are identities at the fixed order 12


@_declare("series", "the square-root series squares back exactly", 12, None)
def _sqrt_squares(order):
    s = series.sqrt_one_minus_4z(order)
    sq = (s * s).scalar_coefficients()
    return sq[0] == 1 and sq[1] == -4 and all(v == 0 for v in sq[2:])


@_declare("series", "component identities hold", 12, None)
def _component_identities(order):
    c = series.series_c(order)
    one = series.Series.constant(1, order)
    if (c * (one - series.series_b(order))).coeffs != one.coeffs:
        return False
    a_at_1 = tuple(sum(p.values()) for p in series.series_a(order).coeffs)
    return a_at_1 == c.scalar_coefficients()


@_declare("series", "factored and closed joint series agree to order 12", 12, None)
def _factored_is_closed(order):
    return series.series_f_factored(order).coeffs == series.series_f_closed(order).coeffs


@_declare("series", "joint series matches enumeration", 0, 10)
def _series_by_enumeration(n):
    want = series.nn_na_polynomial(n)
    return series.series_f_closed(n).coeffs[n] == want == series.series_f_factored(n).coeffs[n]


@_declare("series", "coefficients are swap-symmetric and specialize to Catalan", 0, 12)
def _closed_symmetric_catalan(n):
    p = series.series_f_closed(n).coeffs[n]
    return p == {(j, i): v for (i, j), v in p.items()} and sum(p.values()) == CATALAN[n]


# ---------------------------------------------------------------------------
# encode


@_declare("encode", "pair encoding of the B family is bijective with its type clause", 1, 9)
def _b_pair_encoding(n):
    # The inverse lands in NC_B, psi_b undoes it, and it hits C(2n, n) distinct
    # members, which is |NC_B(n)|: so it is a bijection, with psi_b its inverse.
    row = maps.MAP["psi_b"]
    members = set()
    pairs = 0
    for bp in maps.DOMAINS[row.target][1](n):
        p = row.inverse(bp, check=False)
        if not models.is_member(p, row.source) or row.forward(p, check=False) != bp or not row.keeps(p, bp):
            return False
        members.add(p)
        pairs += 1
    return pairs == len(members) == math.comb(2 * n, n)


@_declare("encode", "pair encoding of the D family is bijective with its type clause", 2, 6)
def _d_pair_encoding(n):
    image = _sweep("psi_d", n)
    return image is not None and len(image) == (3 * n - 2) * CATALAN[n - 1]


@_declare("encode", "pair-set cardinalities match the closed formulas", 1, 8)
def _pair_set_counts(n):
    # the B pairs are counted against C(2n, n) by the B pair-encoding check
    return n < 2 or _count(encode.d_pairs(n)) == (3 * n - 2) * CATALAN[n - 1]


@_declare("encode", "kappa is a bijection onto the restricted pairs", 1, 6)
def _kappa_bijection(n):
    return _sweep("kappa", n) is not None


@_declare("encode", "the Dyck-path correspondence is bijective", 0, 6)
def _dyck_bijection(n):
    return _sweep("nc_to_dyck", n) is not None


@_declare("encode", "path reflection is bijective and restricts to the avoiding paths", 1, 6)
def _path_reflection(n):
    image = _sweep("g_map", n)
    if image is None:
        return False
    lbar = {q for q in encode.lattice_paths(n) if encode.in_lp_bar(q)}
    if len(lbar) != math.comb(2 * n, n) - math.comb(2 * n - 2, n - 1):
        return False
    return {q for m, q in image.items() if encode.is_restricted_pair(m)} == lbar


@_declare("encode", "tableau filling is bijective and restricts to the D tableaux", 1, 6)
def _tableau_filling(n):
    # The images are all of CT_B(n), which holds CT_D(n), and the row's statistic makes
    # an image a D tableau exactly when its pair is restricted: those fill all of CT_D(n).
    return _sweep("f_map", n) is not None


# ---------------------------------------------------------------------------


SUITES = tuple(dict.fromkeys(e.suite for e in CHECKS))


def run_suites(max_n: int = 6, names: list[str] | None = None, jobs: int = 1) -> list[Check]:
    names = list(SUITES) if not names else names
    for name in names:
        if name not in SUITES:
            raise ValidationError(f"unknown suite {name!r}")
    max_n = _check_n(max_n, 1, "max_n")
    jobs = _check_n(jobs, 1, "jobs")
    entries = [e for e in CHECKS if e.suite in names]
    if jobs > 1:
        # imported here, so that no serial run and no other command loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            checks = list(pool.map(run_check, entries, itertools.repeat(max_n)))
    else:
        checks = [run_check(e, max_n) for e in entries]
    return sorted(checks, key=lambda c: (c.suite, c.name))
