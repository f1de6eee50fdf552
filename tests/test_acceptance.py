"""Acceptance gate: every registered check at its full declared bound,
the literal counts that are independent data, and the pinned worked examples.

Each test prints one line; run with `pytest tests/test_acceptance.py -s`
to see the report.  All equalities are exact.
"""

from fractions import Fraction

import pytest

from coxcat import encode, interpret, series, typemaps, verify
from coxcat.core import SetPartition, edges, nonaligned_blocks, pattern_free
from coxcat.models import (
    MarkedPair,
    MarkedTriple,
    count_by_type,
    count_family,
    exhaustive_count_by_type,
    is_member,
    validate_marked,
)
from coxcat.signed import SignedPartition, compose_triple, count_signed, decompose_triple

sp = SetPartition.from_blocks
sgn = SignedPartition.from_blocks

CATALAN10 = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def report(idx, ok, text):
    print(f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.mark.parametrize("entry", verify.CHECKS, ids=lambda e: f"{e.suite}: {e.name}")
def test_registered_check(entry):
    full = entry.lo if entry.bound is None else entry.bound
    c = verify.run_check(entry, full)
    report(f"{c.suite}: {c.name}", c.ok, f"n = {entry.lo}..{full} {c.detail}".rstrip())


def test_criterion_02_signed_partition_count():
    ok = count_signed(1) == 2 and count_signed(2) == 6 and count_signed(6) == 4088
    report(2, ok, "signed-partition counts are pinned at n = 1, 2, 6")


def test_criterion_04_type_d_counts():
    expected = {2: 4, 3: 14, 4: 50, 5: 182, 6: 672}
    ok = all(count_family(fam, n) == c for n, c in expected.items() for fam in ("nc_d", "nn_d"))
    report(4, ok, "type-D noncrossing and nonnesting counts are pinned for n <= 6")


def test_criterion_08_generating_functions():
    ok = series.series_f_factored(12).coeffs == series.series_f_closed(12).coeffs
    rep = series.cross_check(10)
    ok &= rep.ok
    f = series.series_f_closed(12)
    cats = [int(sum(p.values(), Fraction(0))) for p in f.coeffs]
    ok &= cats == [1] + CATALAN10 + [58786, 208012]
    report(8, ok, "closed form matches enumeration (n <= 10), agrees with the factored form to order 12, Catalan at x=y=1")


def test_criterion_09_count_by_type():
    branch_full = count_by_type("D", 4, (2, 2))       # parts summing to n
    branch_small = count_by_type("D", 4, (2,))         # parts summing to <= n - 2
    ok = branch_full == exhaustive_count_by_type("D", 4, (2, 2)) and branch_full > 0
    ok &= branch_small == exhaustive_count_by_type("D", 4, (2,)) and branch_small > 0
    report(9, ok, "both nonzero type-D count branches are pinned at n = 4")


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
