"""Exhaustive desk-scale verification suites.

Each suite returns a list of named checks with pass/fail results.  A check
carries its own instance-size bound; running with max_n below the bound
shrinks the sweep, running with a larger max_n never widens it.  Suites are
pure and independent, so they may be sharded across processes.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import encode, interpret, models, series, typemaps
from .core import (
    SetPartition,
    edges,
    nonaligned_blocks,
    nonnested_blocks,
    noncrossing_partitions,
    noncrossing_wrt,
    nonnesting_partitions,
    partitions,
    pattern_free,
    type_of,
)
from .models import enumerate_family, marked_pairs, marked_triples
from .signed import (
    count_signed,
    decompose_triple,
    compose_triple,
    enumerate_signed,
    maximal_matchings,
    signed_type,
    zero_block_size,
)

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _check(suite, name, ok, detail=""):
    return Check(suite, name, bool(ok), detail if not ok else "")


def _cap(bound: int, max_n: int) -> int:
    return min(bound, max_n)


# ---------------------------------------------------------------------------


def suite_core(max_n: int) -> list[Check]:
    out = []
    ok = True
    for n in range(_cap(7, max_n) + 1):
        for p in partitions(n):
            order = tuple(range(1, n + 1))
            if pattern_free(p, order, "crossing") != noncrossing_wrt(p, order):
                ok = False
    for n in range(_cap(10, max_n) + 1):
        for p in noncrossing_partitions(n):
            order = tuple(range(1, n + 1))
            if not pattern_free(p, order, "crossing"):
                ok = False
    out.append(_check("core", "crossing quadruple condition agrees with the arc test", ok))

    ok = True
    for n in range(_cap(9, max_n) + 1):
        for p in partitions(n):
            if sum(type_of(p)) != n or len(p.blocks) + len(edges(p)) != n:
                ok = False
    out.append(_check("core", "type sums to n and blocks + edges = n", ok))

    ok = True
    for n in range(1, _cap(8, max_n) + 1):
        for p in partitions(n):
            if not nonnested_blocks(p) or not nonaligned_blocks(p):
                ok = False
    out.append(_check("core", "nonnested and nonaligned blocks are nonempty", ok))

    ok = True
    for n in range(1, _cap(9, max_n) + 1):
        for p in noncrossing_partitions(n):
            blocks = sorted(p.blocks, key=lambda b: b[-1])
            k = len(blocks)
            na = set(nonaligned_blocks(p))
            for i in range(k):
                in_top_run = blocks[k - 1 - i][-1] == n - i
                if (blocks[k - 1 - i] in na) != in_top_run:
                    ok = False
    out.append(_check("core", "nonaligned iff the block maximum is in the top run", ok))
    return out


def suite_signed(max_n: int) -> list[Check]:
    out = []
    ok = True
    for n in range(1, _cap(6, max_n) + 1):
        for p in enumerate_signed(n):
            d = decompose_triple(p)
            pairs = [pr for pr in d.gamma]
            if compose_triple(d.alpha, d.beta, pairs) != p:
                ok = False
            if (len(d.beta) % 2 == 1) != (p.zero_block() is not None):
                ok = False
            if len(d.gamma0) != (len(d.beta) + 1) // 2:
                ok = False
    out.append(_check("signed", "triple decomposition round-trips and parity marks the zero block", ok))

    ok = True
    for n in range(1, _cap(6, max_n) + 1):
        for sigma in partitions(n):
            bs = sigma.blocks
            for r in range(len(bs) + 1):
                for marked in itertools.combinations(bs, r):
                    for matching in maximal_matchings(marked):
                        p = compose_triple(sigma, marked, matching)
                        d = decompose_triple(p)
                        if d.alpha != sigma or set(d.beta) != set(marked):
                            ok = False
                        if {frozenset(pr) for pr in d.gamma} != {frozenset(pr) for pr in matching}:
                            ok = False
    out.append(_check("signed", "compose then decompose is the identity on triples", ok))

    ok = True
    for n in range(1, _cap(7, max_n) + 1):
        seen = set()
        count = 0
        for p in enumerate_signed(n):
            if p in seen:
                ok = False
            seen.add(p)
            count += 1
            if sum(signed_type(p)) + zero_block_size(p) // 2 != n:
                ok = False
        if count != count_signed(n):
            ok = False
    out.append(_check("signed", "enumeration is duplicate-free and matches the counting formula", ok))
    return out


def suite_models(max_n: int) -> list[Check]:
    out = []
    ok = True
    for n in range(1, _cap(12, max_n) + 1):
        if sum(1 for _ in noncrossing_partitions(n)) != CATALAN[n]:
            ok = False
        if n <= 10 and sum(1 for _ in nonnesting_partitions(n)) != CATALAN[n]:
            ok = False
    out.append(_check("models", "noncrossing and nonnesting counts are Catalan", ok))

    ok = True
    for n in range(1, _cap(6, max_n) + 1):
        signed = list(enumerate_signed(n))
        for fam in models.SIGNED_FAMILIES:
            filtered = sorted((p for p in signed if models.is_member(p, fam)), key=lambda p: p.blocks)
            if enumerate_family(fam, n) != tuple(filtered):
                ok = False
    out.append(_check("models", "bijective enumerations agree with filtering signed partitions", ok))

    ok = True
    for n in range(1, _cap(6, max_n) + 1):
        for fam in ("nc_b", "nn_b", "nn_c", "nc_d", "nn_d"):
            if len(enumerate_family(fam, n)) != models.count_family(fam, n):
                ok = False
    out.append(_check("models", "family cardinalities match the closed formulas", ok))

    ok = True
    for n in range(1, _cap(6, max_n) + 1):
        for fam in ("A", "B", "D"):
            total = 0
            for lam in _all_types(fam, n):
                c = models.count_by_type(fam, n, lam)
                if c != models.exhaustive_count_by_type(fam, n, lam):
                    ok = False
                total += c
            expected = {
                "A": CATALAN[n],
                "B": math.comb(2 * n, n),
                "D": models.count_family("nc_d", n),
            }[fam]
            if total != expected:
                ok = False
    out.append(_check("models", "type-counting formulas match exhaustive counts and sum to the family size", ok))
    return out


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


def suite_interpret(max_n: int) -> list[Check]:
    out = []
    zero_ok = True
    for fam, spec in models.SIGNED_FAMILIES.items():
        fwd, inv = getattr(interpret, f"phi_{fam}"), getattr(interpret, f"phi_{fam}_inverse")
        is_d = spec.marked in models.MARKED_TRIPLE_CLASSES
        ok = True
        branch_seen = set()
        for n in range(1, _cap(6, max_n) + 1):
            members = enumerate_family(fam, n)
            domain = list(models.marked_domain(fam, n))
            imgs = []
            for p in members:
                m = fwd(p, check=False)
                if not models.validate_marked(m, spec.marked):
                    ok = False
                if inv(m, check=False) != p:
                    ok = False
                want = tuple(sorted(interpret.unmarked_type(m) + interpret._type_clause(fam, m), reverse=True))
                if signed_type(p) != want:
                    ok = False
                imgs.append(m)
                if is_d:
                    branch_seen.add((m.epsilon == 0, len(m.marked) % 2))
                    continue
                z = p.zero_block()
                if (len(m.marked) % 2 == 1) != (z is not None):
                    zero_ok = False
                elif z is not None:
                    held = m.marked[len(m.marked) // 2 if spec.held == "middle" else 0]
                    if tuple(sorted(held + tuple(-x for x in held))) != z:
                        zero_ok = False
            if len(set(imgs)) != len(members) or set(imgs) != set(domain):
                ok = False
        if is_d and len(branch_seen) < 4:
            ok = False
        out.append(_check("interpret", f"{fam}: bijective with type clause", ok))
    out.append(_check("interpret", "zero blocks sit at the middle (B) or first (NN-B) mark", zero_ok))
    return out


def suite_typemaps(max_n: int) -> list[Check]:
    out = []
    ok = True
    for n in range(_cap(9, max_n) + 1):
        for p in noncrossing_partitions(n):
            q = typemaps.xi(p, check=False)
            if typemaps.xi(q, check=False) != p or type_of(q) != type_of(p):
                ok = False
            if len(nonnested_blocks(q)) != len(nonaligned_blocks(p)):
                ok = False
            if len(nonaligned_blocks(q)) != len(nonnested_blocks(p)):
                ok = False
    out.append(_check("typemaps", "xi is a type-preserving involution swapping the two statistics", ok))

    ok = True
    for n in range(_cap(8, max_n) + 1):
        for p in noncrossing_partitions(n):
            q = typemaps.xi(p, check=False)
            nn_p = nonnested_blocks(p)
            na_p = nonaligned_blocks(p)
            nn_q = nonnested_blocks(q)
            na_q = nonaligned_blocks(q)
            if [len(b) for b in nn_p] != [len(b) for b in na_q]:
                ok = False
            if [len(b) for b in na_p] != [len(b) for b in nn_q]:
                ok = False
    out.append(_check("typemaps", "special block sizes correspond elementwise under xi", ok))

    ok = True
    for n in range(_cap(10, max_n) + 1):
        dist: dict[tuple[int, int], int] = {}
        for p in noncrossing_partitions(n):
            k = (len(nonnested_blocks(p)), len(nonaligned_blocks(p)))
            dist[k] = dist.get(k, 0) + 1
        if dist != {(b, a): v for (a, b), v in dist.items()}:
            ok = False
    out.append(_check("typemaps", "joint statistic distribution is swap-symmetric", ok))

    ok = True
    for n in range(_cap(9, max_n) + 1):
        imgs = set()
        nns = set(nonnesting_partitions(n))
        for p in noncrossing_partitions(n):
            q = typemaps.rho(p, check=False)
            if q != typemaps.rho_by_search(p) or typemaps.rho_inverse(q, check=False) != p:
                ok = False
            prof = sorted((b[-1], len(b)) for b in p.blocks)
            if prof != sorted((b[-1], len(b)) for b in q.blocks):
                ok = False
            imgs.add(q)
        if imgs != nns:
            ok = False
    out.append(_check("typemaps", "rho is a profile-preserving bijection onto nonnesting partitions", ok))

    ok = True
    for n in range(1, _cap(6, max_n) + 1):
        na_pairs = list(marked_pairs(n, "nc_na"))
        imgs = set()
        for m in na_pairs:
            q = typemaps.rho_bar(m, check=False)
            if not models.validate_marked(q, "nn_na"):
                ok = False
            if typemaps.rho_bar_inverse(q, check=False) != m:
                ok = False
            imgs.add(q)
        if imgs != set(marked_pairs(n, "nn_na")):
            ok = False
        nn_pairs = list(marked_pairs(n, "nc_nn"))
        imgs = set()
        for m in nn_pairs:
            q = typemaps.xi_bar(m, check=False)
            if not models.validate_marked(q, "nc_na"):
                ok = False
            if typemaps.xi_bar_inverse(q, check=False) != m:
                ok = False
            if sorted(len(b) for b in m.marked) != sorted(len(b) for b in q.marked):
                ok = False
            imgs.add(q)
        if imgs != set(marked_pairs(n, "nc_na")):
            ok = False
        imgs = set()
        for m in nn_pairs:
            q = typemaps.iota_b(m, check=False)
            if typemaps.iota_b_inverse(q, check=False) != m:
                ok = False
            if len(m.marked) % 2 == 0 and q != m:
                ok = False
            imgs.add(q)
        if imgs != set(nn_pairs):
            ok = False
        triples = list(marked_triples(n, "nc_nn_pm"))
        imgs = set()
        for t in triples:
            q = typemaps.iota_d(t, check=False)
            if typemaps.iota_d_inverse(q, check=False) != t:
                ok = False
            if t.epsilon == 0 and typemaps.iota_b(t.pair, check=False) != q.pair:
                ok = False
            imgs.add(q)
        if imgs != set(triples):
            ok = False
    out.append(_check("typemaps", "marked-pair maps are bijections on their classes", ok))

    ok = True
    for fam, bound in (("B", 6), ("C", 6), ("D", 5)):
        src_fam = "nc_d" if fam == "D" else "nc_b"
        dst_fam = {"B": "nn_b", "C": "nn_c", "D": "nn_d"}[fam]
        lo = 2 if fam == "D" else 1
        for n in range(lo, _cap(bound, max_n) + 1):
            imgs = set()
            target = set(enumerate_family(dst_fam, n))
            for p in enumerate_family(src_fam, n):
                q = typemaps.nc_to_nn(fam, p)
                if q not in target or signed_type(q) != signed_type(p):
                    ok = False
                if zero_block_size(q) != zero_block_size(p):
                    ok = False
                if typemaps.nn_to_nc(fam, q) != p:
                    ok = False
                imgs.add(q)
            if imgs != target:
                ok = False
    out.append(_check("typemaps", "composed maps are type-preserving bijections", ok))
    return out


def suite_series(max_n: int) -> list[Check]:
    out = []
    order = 12
    s = series.sqrt_one_minus_4z(order)
    sq = (s * s).scalar_coefficients()
    ok = sq[0] == 1 and sq[1] == -4 and all(v == 0 for v in sq[2:])
    out.append(_check("series", "the square-root series squares back exactly", ok))

    c = series.series_c(order)
    b = series.series_b(order)
    one = series.Series.constant(1, order)
    ok = (c * (one - b)).coeffs == one.coeffs
    a = series.series_a(order)
    a_at_1 = tuple(sum(p.values(), Fraction(0)) for p in a.coeffs)
    ok = ok and a_at_1 == c.scalar_coefficients()
    out.append(_check("series", "component identities hold", ok))

    ok = series.series_f_factored(order).coeffs == series.series_f_closed(order).coeffs
    out.append(_check("series", "factored and closed joint series agree to order 12", ok))

    rep = series.cross_check(_cap(10, max_n))
    out.append(_check("series", "joint series matches enumeration", rep.ok))

    f = series.series_f_closed(_cap(10, max_n))
    ok = all(p == {(j, i): v for (i, j), v in p.items()} for p in f.coeffs)
    cats = tuple(int(sum(p.values(), Fraction(0))) for p in f.coeffs)
    ok = ok and cats == CATALAN[: len(cats)]
    out.append(_check("series", "coefficients are swap-symmetric and specialize to Catalan", ok))
    return out


def suite_encode(max_n: int) -> list[Check]:
    out = []
    ok = True
    for n in range(1, _cap(5, max_n) + 1):
        members = enumerate_family("nc_b", n)
        imgs = set()
        for p in members:
            bp = encode.psi_b(p, check=False)
            if encode.psi_b_inverse(bp, check=False) != p:
                ok = False
            z = p.zero_block()
            sig = type_of(bp.sigma)
            if bp.x is not None and bp.x[0] == "block":
                want = tuple(sorted((len(b) for b in bp.sigma.blocks if b != bp.x[1]), reverse=True))
            else:
                want = sig
            if signed_type(p) != want:
                ok = False
            imgs.add(bp)
        if imgs != set(encode.b_pairs(n)):
            ok = False
        if len(imgs) != math.comb(2 * n, n):
            ok = False
    out.append(_check("encode", "pair encoding of the B family is bijective with its type clause", ok))

    ok = True
    for n in range(2, _cap(5, max_n) + 1):
        members = enumerate_family("nc_d", n)
        imgs = set()
        for p in members:
            dp = encode.psi_d(p, check=False)
            if encode.psi_d_inverse(dp, check=False) != p:
                ok = False
            sizes = [len(b) for b in dp.sigma.blocks]
            if dp.x is None or dp.x[0] == "edge":
                want = tuple(sorted(sizes + [1], reverse=True))
            elif dp.x[0] == "block":
                want = tuple(sorted((len(b) for b in dp.sigma.blocks if b != dp.x[1]), reverse=True))
            else:
                blk = dp.sigma.block_containing(abs(dp.x[1]))
                rest = [len(b) for b in dp.sigma.blocks if b != blk]
                want = tuple(sorted(rest + [len(blk) + 1], reverse=True))
            if signed_type(p) != want:
                ok = False
            imgs.add(dp)
        if imgs != set(encode.d_pairs(n)):
            ok = False
        if len(imgs) != (3 * n - 2) * CATALAN[n - 1]:
            ok = False
    out.append(_check("encode", "pair encoding of the D family is bijective with its type clause", ok))

    ok = True
    for n in range(1, _cap(8, max_n) + 1):
        if (n + 1) * CATALAN[n] != math.comb(2 * n, n):
            ok = False
        if n >= 2:
            dcount = sum(1 for _ in encode.d_pairs(n))
            if dcount != (3 * n - 2) * CATALAN[n - 1]:
                ok = False
    out.append(_check("encode", "pair-set cardinalities match the closed formulas", ok))

    ok = True
    for n in range(1, _cap(6, max_n) + 1):
        triples = list(marked_triples(n - 1, "nc_nn_pm"))
        imgs = set()
        for t in triples:
            k = encode.kappa(t, check=False)
            if not encode.is_restricted_pair(k) or encode.kappa_inverse(k, check=False) != t:
                ok = False
            imgs.add(k)
        restricted = {m for m in marked_pairs(n, "nc_nn") if encode.is_restricted_pair(m)}
        if imgs != restricted:
            ok = False
    out.append(_check("encode", "kappa is a bijection onto the restricted pairs", ok))

    ok = True
    for n in range(_cap(6, max_n) + 1):
        imgs = set()
        for p in noncrossing_partitions(n):
            d = encode.nc_to_dyck(p, check=False)
            if encode.dyck_to_nc(d) != p:
                ok = False
            imgs.add(d)
        if imgs != {q for q in encode.lattice_paths(n) if encode.is_dyck(q)}:
            ok = False
    out.append(_check("encode", "the Dyck-path correspondence is bijective", ok))

    ok = True
    for n in range(1, _cap(6, max_n) + 1):
        pairs = list(marked_pairs(n, "nc_nn"))
        imgs = set()
        rimgs = set()
        for m in pairs:
            g = encode.g_map(m, check=False)
            if encode.g_map_inverse(g) != m:
                ok = False
            imgs.add(g)
            if encode.is_restricted_pair(m):
                rimgs.add(g)
        if imgs != set(encode.lattice_paths(n)):
            ok = False
        lbar = {q for q in encode.lattice_paths(n) if encode.in_lp_bar(q)}
        if rimgs != lbar or len(lbar) != math.comb(2 * n, n) - math.comb(2 * n - 2, n - 1):
            ok = False
    out.append(_check("encode", "path reflection is bijective and restricts to the avoiding paths", ok))

    ok = True
    for n in range(1, _cap(6, max_n) + 1):
        pairs = list(marked_pairs(n, "nc_nn"))
        imgs = set()
        rimgs = set()
        for m in pairs:
            t = encode.f_map(m, check=False)
            if not encode.tableau_validate(t, "CT_B"):
                ok = False
            if encode.f_map_inverse(t, check=False) != m:
                ok = False
            if encode.tableau_validate(t, "CT_D") != ((n,) not in m.marked):
                ok = False
            imgs.add(t)
            if encode.is_restricted_pair(m):
                rimgs.add(t)
        if imgs != set(encode.catalan_tableaux(n, "CT_B")):
            ok = False
        if rimgs != set(encode.catalan_tableaux(n, "CT_D")):
            ok = False
    out.append(_check("encode", "tableau filling is bijective and restricts to the D tableaux", ok))
    return out


SUITES = {
    "core": suite_core,
    "signed": suite_signed,
    "models": suite_models,
    "interpret": suite_interpret,
    "typemaps": suite_typemaps,
    "series": suite_series,
    "encode": suite_encode,
}


def _run_one(args: tuple[str, int]) -> list[Check]:
    name, max_n = args
    return SUITES[name](max_n)


def run_suites(max_n: int = 6, names: list[str] | None = None, jobs: int = 1) -> list[Check]:
    names = list(SUITES) if not names else names
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
    tasks = [(name, max_n) for name in names]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]
    checks = [c for group in results for c in group]
    return sorted(checks, key=lambda c: (c.suite, c.name))
