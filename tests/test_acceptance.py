"""Acceptance gate: every criterion at its stated instance bound.

Each test prints one line; run with `pytest tests/test_acceptance.py -s`
to see the report.  All equalities are exact.
"""

import itertools
import math
from fractions import Fraction

from coxcat import encode, interpret, models, series, typemaps
from coxcat.core import (
    SetPartition,
    edges,
    nonaligned_blocks,
    nonnested_blocks,
    noncrossing_partitions,
    nonnesting_partitions,
    pattern_free,
    type_of,
)
from coxcat.models import (
    MarkedPair,
    MarkedTriple,
    count_by_type,
    enumerate_family,
    exhaustive_count_by_type,
    is_member,
    marked_pairs,
    marked_triples,
    validate_marked,
)
from coxcat.signed import (
    SignedPartition,
    compose_triple,
    count_signed,
    decompose_triple,
    enumerate_signed,
    signed_type,
    zero_block_size,
)

sp = SetPartition.from_blocks
sgn = SignedPartition.from_blocks

CATALAN10 = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def report(idx, ok, text):
    print(f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_catalan_counts():
    ok = True
    for n in range(1, 11):
        ok &= sum(1 for _ in noncrossing_partitions(n)) == CATALAN10[n - 1]
        ok &= sum(1 for _ in nonnesting_partitions(n)) == CATALAN10[n - 1]
    report(1, ok, "noncrossing and nonnesting counts are Catalan for n <= 10")


def test_criterion_02_signed_partition_count():
    ok = count_signed(1) == 2 and count_signed(2) == 6 and count_signed(6) == 4088
    for n in range(1, 8):
        ok &= sum(1 for _ in enumerate_signed(n)) == count_signed(n)
    report(2, ok, "signed-partition enumeration matches the Stirling/involution formula for n <= 7")


def test_criterion_03_type_b_counts():
    ok = True
    for n in range(1, 7):
        target = math.comb(2 * n, n)
        ok &= len(enumerate_family("nc_b", n)) == target
        ok &= len(enumerate_family("nn_b", n)) == target
        ok &= len(enumerate_family("nn_c", n)) == target
    for n in range(1, 10):
        target = math.comb(2 * n, n)
        members = set()
        for bp in encode.b_pairs(n):
            p = encode.psi_b_inverse(bp, check=False)
            ok &= is_member(p, "nc_b")
            members.add(p)
        ok &= len(members) == target
    report(3, ok, "type-B family counts are central binomials (bijective enumeration n <= 6, pair bijection n <= 9)")


def test_criterion_04_type_d_counts():
    ok = True
    expected = {2: 4, 3: 14, 4: 50, 5: 182, 6: 672}
    for n in range(2, 7):
        formula = (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n
        ok &= formula == expected[n]
        ok &= len(enumerate_family("nc_d", n)) == formula
        ok &= len(enumerate_family("nn_d", n)) == formula
    report(4, ok, "type-D noncrossing and nonnesting counts match the formula for n <= 6")


def _bijective(domain, codomain, fwd, inv):
    images = set()
    for x in domain:
        y = fwd(x)
        if inv(y) != x:
            return False
        images.add(y)
    return images == set(codomain)


def test_criterion_05_bijectivity():
    ok = True
    for n in range(1, 7):
        ok &= _bijective(
            enumerate_family("nc_b", n), marked_pairs(n, "nc_nn"),
            lambda p: interpret.phi_nc_b(p, check=False), lambda m: interpret.phi_nc_b_inverse(m, check=False),
        )
        ok &= _bijective(
            enumerate_family("nn_b", n), marked_pairs(n, "nn_na"),
            lambda p: interpret.phi_nn_b(p, check=False), lambda m: interpret.phi_nn_b_inverse(m, check=False),
        )
        ok &= _bijective(
            enumerate_family("nn_c", n), marked_pairs(n, "nn_na"),
            lambda p: interpret.phi_nn_c(p, check=False), lambda m: interpret.phi_nn_c_inverse(m, check=False),
        )
        ok &= _bijective(
            noncrossing_partitions(n), nonnesting_partitions(n),
            lambda p: typemaps.rho(p, check=False), lambda q: typemaps.rho_inverse(q, check=False),
        )
        ok &= _bijective(
            marked_pairs(n, "nc_na"), marked_pairs(n, "nn_na"),
            lambda m: typemaps.rho_bar(m, check=False), lambda m: typemaps.rho_bar_inverse(m, check=False),
        )
        ok &= _bijective(
            marked_pairs(n, "nc_nn"), marked_pairs(n, "nc_na"),
            lambda m: typemaps.xi_bar(m, check=False), lambda m: typemaps.xi_bar_inverse(m, check=False),
        )
        ok &= _bijective(
            marked_pairs(n, "nc_nn"), marked_pairs(n, "nc_nn"),
            lambda m: typemaps.iota_b(m, check=False), lambda m: typemaps.iota_b_inverse(m, check=False),
        )
        ok &= _bijective(
            marked_triples(n, "nc_nn_pm"), marked_triples(n, "nc_nn_pm"),
            lambda t: typemaps.iota_d(t, check=False), lambda t: typemaps.iota_d_inverse(t, check=False),
        )
        ok &= _bijective(
            enumerate_family("nc_b", n), encode.b_pairs(n),
            lambda p: encode.psi_b(p, check=False), lambda bp: encode.psi_b_inverse(bp, check=False),
        )
        ok &= _bijective(
            marked_triples(n - 1, "nc_nn_pm"),
            (m for m in marked_pairs(n, "nc_nn") if encode.is_restricted_pair(m)),
            lambda t: encode.kappa(t, check=False), lambda m: encode.kappa_inverse(m, check=False),
        )
        ok &= _bijective(
            noncrossing_partitions(n),
            (p for p in encode.lattice_paths(n) if encode.is_dyck(p)),
            lambda s: encode.nc_to_dyck(s, check=False), encode.dyck_to_nc,
        )
        ok &= _bijective(
            marked_pairs(n, "nc_nn"), encode.lattice_paths(n),
            lambda m: encode.g_map(m, check=False), encode.g_map_inverse,
        )
        ok &= _bijective(
            marked_pairs(n, "nc_nn"), encode.catalan_tableaux(n, "CT_B"),
            lambda m: encode.f_map(m, check=False), lambda t: encode.f_map_inverse(t, check=False),
        )
    for n in range(2, 6):
        ok &= _bijective(
            enumerate_family("nc_d", n), marked_triples(n - 1, "nc_nn_pm"),
            lambda p: interpret.phi_nc_d(p, check=False), lambda t: interpret.phi_nc_d_inverse(t, check=False),
        )
        ok &= _bijective(
            enumerate_family("nn_d", n), marked_triples(n - 1, "nn_na_pm"),
            lambda p: interpret.phi_nn_d(p, check=False), lambda t: interpret.phi_nn_d_inverse(t, check=False),
        )
        ok &= _bijective(
            enumerate_family("nc_d", n), encode.d_pairs(n),
            lambda p: encode.psi_d(p, check=False), lambda dp: encode.psi_d_inverse(dp, check=False),
        )
    report(5, ok, "all sixteen maps pass round-trip and exact-image tests (n <= 6; D domains n <= 5)")


def test_criterion_06_type_preservation():
    ok = True
    clause = {
        "nc_b": (interpret.phi_nc_b, interpret.type_clause_b),
        "nn_b": (interpret.phi_nn_b, interpret.type_clause_nn_b),
        "nn_c": (interpret.phi_nn_c, interpret.type_clause_nn_c),
        "nc_d": (interpret.phi_nc_d, interpret.type_clause_nc_d),
        "nn_d": (interpret.phi_nn_d, interpret.type_clause_nn_d),
    }
    d_branches = set()
    for fam, (fwd, cl) in clause.items():
        for n in range(1, 7):
            for p in enumerate_family(fam, n):
                m = fwd(p, check=False)
                want = tuple(sorted(interpret.unmarked_type(m) + cl(m), reverse=True))
                ok &= signed_type(p) == want
                if fam in ("nc_d", "nn_d"):
                    d_branches.add((fam, m.epsilon == 0, len(m.marked) % 2))
    ok &= len(d_branches) == 8  # all four branch shapes for both D families
    for n in range(1, 7):
        for p in enumerate_family("nc_b", n):
            bp = encode.psi_b(p, check=False)
            if bp.x is not None and bp.x[0] == "block":
                want = tuple(sorted((len(b) for b in bp.sigma.blocks if b != bp.x[1]), reverse=True))
            else:
                want = type_of(bp.sigma)
            ok &= signed_type(p) == want
    for n in range(2, 7):
        for p in enumerate_family("nc_d", n):
            dp = encode.psi_d(p, check=False)
            if dp.x is None or dp.x[0] == "edge":
                want = tuple(sorted(list(type_of(dp.sigma)) + [1], reverse=True))
            elif dp.x[0] == "block":
                want = tuple(sorted((len(b) for b in dp.sigma.blocks if b != dp.x[1]), reverse=True))
            else:
                blk = dp.sigma.block_containing(abs(dp.x[1]))
                rest = [len(b) for b in dp.sigma.blocks if b != blk]
                want = tuple(sorted(rest + [len(blk) + 1], reverse=True))
            ok &= signed_type(p) == want
    for fam, src in (("B", "nc_b"), ("C", "nc_b"), ("D", "nc_d")):
        for n in range(1, 7):
            for p in enumerate_family(src, n):
                q = typemaps.nc_to_nn(fam, p)
                ok &= signed_type(q) == signed_type(p)
    report(6, ok, "every type clause and composed-map type preservation holds for n <= 6")


def test_criterion_07_involution_statistics():
    ok = True
    for n in range(10):
        for p in noncrossing_partitions(n):
            q = typemaps.xi(p, check=False)
            ok &= typemaps.xi(q, check=False) == p
            ok &= type_of(q) == type_of(p)
            nn_p, na_p = nonnested_blocks(p), nonaligned_blocks(p)
            nn_q, na_q = nonnested_blocks(q), nonaligned_blocks(q)
            ok &= len(nn_q) == len(na_p) and len(na_q) == len(nn_p)
            ok &= [len(b) for b in nn_p] == [len(b) for b in na_q]
            ok &= [len(b) for b in na_p] == [len(b) for b in nn_q]
    for n in range(11):
        dist = {}
        for p in noncrossing_partitions(n):
            key = (len(nonnested_blocks(p)), len(nonaligned_blocks(p)))
            dist[key] = dist.get(key, 0) + 1
        ok &= dist == {(b, a): v for (a, b), v in dist.items()}
    report(7, ok, "xi is a type-preserving involution (n <= 9) with swap-symmetric joint statistics (n <= 10)")


def test_criterion_08_generating_functions():
    ok = series.series_f_factored(12).coeffs == series.series_f_closed(12).coeffs
    rep = series.cross_check(10)
    ok &= rep.ok
    f = series.series_f_closed(12)
    cats = [int(sum(p.values(), Fraction(0))) for p in f.coeffs]
    ok &= cats == [1] + CATALAN10 + [58786, 208012]
    report(8, ok, "closed form matches enumeration (n <= 10), agrees with the factored form to order 12, Catalan at x=y=1")


def test_criterion_09_count_by_type():
    from coxcat.verify import _all_types

    ok = True
    for n in range(1, 7):
        for fam in ("A", "B", "D"):
            total = 0
            for lam in _all_types(fam, n):
                c = count_by_type(fam, n, lam)
                ok &= c == exhaustive_count_by_type(fam, n, lam)
                total += c
                if fam == "D" and sum(lam) == n - 1:
                    ok &= c == 0
            expected = {
                "A": CATALAN10[n - 1],
                "B": math.comb(2 * n, n),
                "D": models.count_family("nc_d", n),
            }[fam]
            ok &= total == expected
    branch_full = count_by_type("D", 4, (2, 2))       # parts summing to n
    branch_small = count_by_type("D", 4, (2,))         # parts summing to <= n - 2
    ok &= branch_full == exhaustive_count_by_type("D", 4, (2, 2)) and branch_full > 0
    ok &= branch_small == exhaustive_count_by_type("D", 4, (2,)) and branch_small > 0
    report(9, ok, "closed-form type counts match exhaustive counts for all shapes, n <= 6")


def test_criterion_10_pinned_worked_examples():
    ok = True
    fig2 = sp([[1, 4, 10], [2, 3], [5, 6, 7, 9], [8]])
    ok &= edges(fig2) == ((1, 4), (2, 3), (4, 10), (5, 6), (6, 7), (7, 9))

    standrep = sp([[1, 3, 8], [2], [4, 5, 6], [7], [9, 10]])
    order = (4, 3, 8, 1, 5, 2, 6, 7, 10, 9)
    ok &= pattern_free(standrep, order, "crossing") and not pattern_free(standrep, order, "nesting")

    ok &= {(8,), (1, 4, 10)} <= set(nonaligned_blocks(fig2))
    ok &= validate_marked(MarkedPair.make(fig2, [(8,), (1, 4, 10)]), "nc_na")
    ok &= not validate_marked(MarkedTriple.make(fig2, (), 1), "nc_na_pm")

    example = sgn([[1, -3, 6], [-1, 3, -6], [2, 4, -2, -4], [5, 8], [-5, -8], [7], [-7]])
    ok &= example.zero_block() == (-4, -2, 2, 4)
    d = decompose_triple(example)
    ok &= d.alpha == sp([[1, 6], [2, 4], [3], [5, 8], [7]])
    ok &= set(d.beta) == {(1, 6), (2, 4), (3,)}
    ok &= d.gamma == (((3,), (1, 6)),)
    ok &= set(d.gamma0) == {((3,), (1, 6)), ((0,), (2, 4))}
    ok &= compose_triple(d.alpha, d.beta, d.gamma) == example

    fig4 = sgn([[1, 4, 5, -10], [-1, -4, -5, 10], [2, 3], [-2, -3], [7, 9, -7, -9], [6], [-6], [8], [-8]])
    ok &= is_member(fig4, "nc_b")
    m4 = interpret.phi_nc_b(fig4)
    ok &= m4.sigma == sp([[1, 4, 5], [2, 3], [6], [7, 9], [8], [10]])
    ok &= set(m4.marked) == {(1, 4, 5), (7, 9), (10,)}

    fig5 = sgn([[1, 2, -8], [-1, -2, 8], [-3, -5, 6, 7, 10], [3, 5, -6, -7, -10], [4], [-4], [9], [-9]])
    ok &= is_member(fig5, "nc_d")
    t5 = interpret.phi_nc_d(fig5)
    ok &= t5.sigma == sp([[1, 2], [3, 5], [4], [6, 7], [8], [9]])
    ok &= set(t5.marked) == {(1, 2), (3, 5), (6, 7), (8,)} and t5.epsilon == -1

    fig6 = sgn([[1, 3, 7, -7, -3, -1], [2, 4], [-2, -4], [5, 9, -10, -6], [-5, -9, 10, 6], [8], [-8]])
    m6 = interpret.phi_nn_b(fig6)
    ok &= m6.sigma == sp([[1, 3, 7], [2, 4], [5, 9], [6, 10], [8]])
    ok &= set(m6.marked) == {(1, 3, 7), (5, 9), (6, 10)}
    ok &= interpret.phi_nn_b_inverse(m6) == fig6

    fig7 = sgn([[1, 3, 7, -10, -6], [-1, -3, -7, 10, 6], [2, 4], [-2, -4], [5, 9, -9, -5], [8], [-8]])
    m7 = interpret.phi_nn_c(fig7)
    ok &= (m7.sigma, m7.marked) == (m6.sigma, m6.marked)
    ok &= interpret.phi_nn_c_inverse(m7) == fig7 and fig6 != fig7

    fig8 = sgn([[1, 4, 7, -3, -6, 10], [-1, -4, -7, 3, 6, -10], [2], [-2], [5, 9, -8], [-5, -9, 8]])
    t8 = interpret.phi_nn_d(fig8)
    ok &= t8.sigma == sp([[1, 4, 7], [2], [3, 6], [5, 9], [8]])
    ok &= t8.marked == ((3, 6), (1, 4, 7), (8,), (5, 9)) and t8.epsilon == -1
    ok &= interpret.phi_nn_d_inverse(t8) == fig8

    ok &= typemaps.rho(fig2) == sp([[1, 3], [2, 4, 6, 9], [5, 7, 10], [8]])
    rb = typemaps.rho_bar(MarkedPair.make(fig2, [(8,), (1, 4, 10)]))
    ok &= set(rb.marked) == {(8,), (5, 7, 10)}
    for n in range(1, 7):
        for m in marked_pairs(n, "nc_na"):
            out = typemaps.rho_bar(m, check=False)
            ok &= [b[-1] for b in m.marked] == [b[-1] for b in out.marked]
        for m in marked_pairs(n, "nc_nn"):
            if len(m.marked) % 2 == 0:
                ok &= typemaps.iota_b(m, check=False) == m
            out = typemaps.xi_bar(m, check=False)
            ok &= [len(b) for b in m.marked] == [len(b) for b in out.marked]

    vb = encode.varphi_b(
        MarkedPair.make(
            sp([[1, 2], [3], [4, 7], [5, 6], [8, 9, 10], [11]]),
            [(1, 2), (3,), (4, 7), (8, 9, 10), (11,)],
        )
    )
    ok &= vb.sigma == sp([[1, 2, 11], [3, 8, 9, 10], [4, 7], [5, 6]]) and vb.x == ("block", (4, 7))

    fig8sigma = sp([[1, 4, 5], [2, 3], [6], [7, 9], [8], [10]])
    ok &= encode.nc_to_dyck(fig8sigma).steps == "NNNNEEENEENENNNEEENE"
    gpath = encode.g_map(MarkedPair.make(fig8sigma, [(1, 4, 5), (6,), (10,)]))
    ok &= gpath.steps == "EEEENNNENNENNNNEEEEN"
    ok &= {(4, 0), (5, 3), (6, 5), (10, 9)} <= set(gpath.points())

    t10 = encode.f_map(MarkedPair.make(sp([[1, 2], [3], [4, 7, 9], [5, 6], [8], [10]]), [(1, 2), (4, 7, 9)]))
    ok &= t10.south == (3, 5, 8, 10) and t10.east == (1, 2, 4, 6, 7, 9)
    ok &= t10.ones == frozenset({(-1, 1), (-1, 2), (-4, 4), (-4, 7), (-4, 9), (5, 6)})
    ok &= encode.tableau_validate(t10, "CT_B")

    report(10, ok, "all pinned worked examples reproduce bit-exactly")
