import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from coxcat.core import SetPartition, ValidationError, noncrossing_partitions, nonnested_blocks
from coxcat.encode import (
    BPair,
    DPair,
    LatticePath,
    ShiftedTableau,
    b_pairs,
    catalan_tableaux,
    d_pairs,
    dyck_to_nc,
    f_map,
    f_map_inverse,
    g_map,
    g_map_inverse,
    in_lp_bar,
    is_dyck,
    is_restricted_pair,
    kappa,
    kappa_inverse,
    lattice_paths,
    nc_to_dyck,
    psi_b,
    psi_b_inverse,
    psi_d,
    psi_d_inverse,
    tableau_validate,
    varphi_b,
    varphi_b_inverse,
    varphi_d,
    varphi_d_inverse,
)
from coxcat.interpret import phi_nc_b_inverse, phi_nc_d_inverse
from coxcat.models import MarkedPair, MarkedTriple, enumerate_family, marked_pairs, marked_triples
from coxcat.signed import SignedPartition

sp = SetPartition.from_blocks
sgn = SignedPartition.from_blocks


def test_varphi_b_worked_example():
    m = MarkedPair.make(
        sp([[1, 2], [3], [4, 7], [5, 6], [8, 9, 10], [11]]),
        [(1, 2), (3,), (4, 7), (8, 9, 10), (11,)],
    )
    bp = varphi_b(m)
    assert bp.sigma == sp([[1, 2, 11], [3, 8, 9, 10], [4, 7], [5, 6]])
    assert bp.x == ("block", (4, 7))
    assert varphi_b_inverse(bp) == m


def test_varphi_b_empty_marks():
    m = MarkedPair.make(sp([[1, 2], [3]]), [])
    bp = varphi_b(m)
    assert bp.x is None and bp.sigma == m.sigma
    assert varphi_b_inverse(bp) == m


def test_bpair_validates_slot():
    with pytest.raises(ValidationError):
        BPair(sp([[1, 2]]), ("edge", (1, 3)))
    with pytest.raises(ValidationError):
        BPair(sp([[1, 2]]), ("block", (1,)))
    with pytest.raises(ValidationError):
        BPair(sp([[1, 2]]), ("int", 1))
    DPair(sp([[1, 2]]), ("int", -2))
    with pytest.raises(ValidationError):
        DPair(sp([[1, 2]]), ("int", 3))


def test_psi_b_examples():
    pi = sgn([[1, -1]])
    bp = psi_b(pi)
    assert bp.sigma == sp([[1]]) and bp.x == ("block", (1,))
    assert psi_b_inverse(bp) == pi
    plain = sgn([[1, 2], [-1, -2], [3], [-3]])
    assert psi_b(plain).x is None


def test_psi_d_fig5_slot():
    fig5 = sgn([[1, 2, -8], [-1, -2, 8], [-3, -5, 6, 7, 10], [3, 5, -6, -7, -10], [4], [-4], [9], [-9]])
    dp = psi_d(fig5)
    assert dp.sigma == sp([[1, 2, 8], [3, 5, 6, 7], [4], [9]])
    assert dp.x == ("int", -5)
    assert psi_d_inverse(dp) == fig5


def test_d_pair_counts():
    assert sum(1 for _ in d_pairs(3)) == 14
    for n in range(1, 7):
        assert sum(1 for _ in b_pairs(n)) == math.comb(2 * n, n)


def test_kappa_branches():
    base = sp([[1], [2]])
    t1 = MarkedTriple.make(base, [(1,)], 1)
    k1 = kappa(t1)
    assert k1.sigma == sp([[1, 3], [2]]) and k1.marked == ((1, 3),)
    t2 = MarkedTriple.make(base, [(1,)], -1)
    k2 = kappa(t2)
    assert k2.sigma == sp([[1, 3], [2]]) and k2.marked == ()
    t0 = MarkedTriple.make(base, [], 0)
    k0 = kappa(t0)
    assert k0.sigma == sp([[1], [2], [3]]) and k0.marked == ()
    for t, k in ((t1, k1), (t2, k2), (t0, k0)):
        assert kappa_inverse(k) == t


def test_kappa_exhaustive():
    for n in range(1, 6):
        restricted = {m for m in marked_pairs(n, "nc_nn") if is_restricted_pair(m)}
        images = set()
        for t in marked_triples(n - 1, "nc_nn_pm"):
            k = kappa(t, check=False)
            assert kappa_inverse(k, check=False) == t
            images.add(k)
        assert images == restricted


def test_dyck_examples():
    assert nc_to_dyck(sp([[1, 2]])).steps == "NNEE"
    assert nc_to_dyck(sp([[1]])).steps == "NE"
    fig = sp([[1, 4, 5], [2, 3], [6], [7, 9], [8], [10]])
    path = nc_to_dyck(fig)
    assert path.steps == "NNNNEEENEENENNNEEENE"
    assert dyck_to_nc(path) == fig
    with pytest.raises(ValidationError):
        dyck_to_nc(LatticePath("EN"))


def test_lattice_path_validation():
    with pytest.raises(ValidationError):
        LatticePath("NEX")
    with pytest.raises(ValidationError):
        LatticePath("NNE")
    assert LatticePath("NE").n == 1
    assert is_dyck(LatticePath("NENE"))
    assert not is_dyck(LatticePath("ENNE"))


def test_g_map_fig8():
    m = MarkedPair.make(sp([[1, 4, 5], [2, 3], [6], [7, 9], [8], [10]]), [(1, 4, 5), (6,), (10,)])
    path = g_map(m)
    assert path.steps == "EEEENNNENNENNNNEEEEN"
    pts = set(path.points())
    assert {(4, 0), (5, 3), (6, 5), (10, 9)} <= pts
    assert g_map_inverse(path) == m
    assert g_map(MarkedPair.make(sp([[1]]), [(1,)])).steps == "EN"
    plain = MarkedPair.make(sp([[1, 2], [3]]), [])
    assert g_map(plain).steps == nc_to_dyck(plain.sigma).steps


def test_lp_bar_count():
    for n in range(1, 6):
        count = sum(1 for p in lattice_paths(n) if in_lp_bar(p))
        assert count == math.comb(2 * n, n) - math.comb(2 * n - 2, n - 1)


def test_f_map_fig10():
    m = MarkedPair.make(sp([[1, 2], [3], [4, 7, 9], [5, 6], [8], [10]]), [(1, 2), (4, 7, 9)])
    t = f_map(m)
    assert t.south == (3, 5, 8, 10)
    assert t.east == (1, 2, 4, 6, 7, 9)
    assert t.ones == frozenset({(-1, 1), (-1, 2), (-4, 4), (-4, 7), (-4, 9), (5, 6)})
    assert tableau_validate(t, "CT_B")
    assert f_map_inverse(t) == m


def test_f_map_unmarked_reduces_to_plain_tableau():
    m = MarkedPair.make(sp([[1, 3], [2]]), [])
    t = f_map(m)
    assert all(r > 0 for r, _ in t.ones)


def test_tableau_validate_kinds():
    single = f_map(MarkedPair.make(sp([[1]]), [(1,)]))
    assert tableau_validate(single, "CT_B")
    assert not tableau_validate(single, "CT_D")
    empty_col = ShiftedTableau.make([2], [1], [])
    assert not tableau_validate(empty_col, "PT_B")
    with pytest.raises(ValidationError):
        tableau_validate(single, "CT_Q")
    with pytest.raises(ValidationError):
        ShiftedTableau.make([1], [2], [(1, 2)])  # cell (1,2) exists, (2,1) does not
        ShiftedTableau.make([1], [2], [(2, 1)])


def test_tableau_structure_validation():
    with pytest.raises(ValidationError):
        ShiftedTableau.make([1, 2], [2], [])
    with pytest.raises(ValidationError):
        ShiftedTableau.make([1], [2], [(-2, 1)])


def test_ct_d_iff_top_not_marked():
    for n in range(1, 6):
        for m in marked_pairs(n, "nc_nn"):
            t = f_map(m, check=False)
            assert tableau_validate(t, "CT_D") == ((n,) not in m.marked)


def test_catalan_tableaux_counts():
    for n in range(1, 6):
        assert sum(1 for _ in catalan_tableaux(n, "CT_B")) == math.comb(2 * n, n)


# ---------------------------------------------------------------------------
# Reference oracle: the cell-by-cell rescan that the one-pass
# tableau_validate replaced, with its own cell test.


def _cell_exists_reference(t, r, c):
    if c not in set(t.east):
        return False
    if r < 0:
        return -r in t.east and c >= -r
    return r in t.south and c > r


def _tableau_validate_reference(t, kind):
    rows = t.rows()
    cols = t.columns()
    filled = t.ones
    for c in cols:
        col_cells = [(r, c) for r in rows if _cell_exists_reference(t, r, c)]
        count = sum(1 for cell in col_cells if cell in filled)
        if count < 1:
            return False
        if kind in ("CT_B", "CT_D") and count != 1:
            return False
    for ri, r in enumerate(rows):
        for ci, c in enumerate(cols):
            if not _cell_exists_reference(t, r, c) or (r, c) in filled:
                continue
            one_left = any(
                (r, c2) in filled for c2 in cols[:ci] if _cell_exists_reference(t, r, c2)
            )
            if not one_left:
                continue
            if r < 0 and c == -r:
                return False
            one_above = any(
                (r2, c) in filled for r2 in rows[:ri] if _cell_exists_reference(t, r2, c)
            )
            if one_above:
                return False
    if kind == "CT_D" and cols:
        bottom = rows[-1]
        if any(_cell_exists_reference(t, bottom, c) for c in cols) and (-cols[0], cols[0]) in filled:
            return False
    return True


def test_tableau_validate_matches_reference_on_every_filling():
    cases = 0
    for n in range(5):
        for r in range(n + 1):
            for south in itertools.combinations(range(1, n + 1), r):
                east = sorted(set(range(1, n + 1)) - set(south))
                shell = ShiftedTableau.make(south, east, ())
                cells = [(rr, c) for rr in shell.rows() for c in shell.row_cells(rr)]
                for rr in shell.rows():  # the one-pass scan reads each row as a prefix of the columns
                    assert shell.row_cells(rr) == shell.columns()[: len(shell.row_cells(rr))]
                for bits in itertools.product((False, True), repeat=len(cells)):
                    ones = frozenset(cell for cell, on in zip(cells, bits) if on)
                    t = ShiftedTableau.make(south, east, ones, n)
                    # entries outside the diagram are ignored, as before
                    stray = ShiftedTableau(n, t.south, t.east, ones | {(0, 0), (n + 1, n + 2)})
                    for kind in ("PT_B", "CT_B", "CT_D"):
                        want = _tableau_validate_reference(t, kind)
                        assert tableau_validate(t, kind) == want
                        assert tableau_validate(stray, kind) == want
                        cases += 1
    assert cases == 3 * 2449  # every filling of every shape with n <= 4, three kinds


# ---------------------------------------------------------------------------
# Large-n round trips on random noncrossing partitions


@st.composite
def large_noncrossing(draw, lo=20, hi=60):
    """A noncrossing partition of [n], n in [lo, hi]: a shuffled word of n N's
    and n + 1 E's, rotated to a Dyck path (cycle lemma) and read by dyck_to_nc."""
    n = draw(st.integers(min_value=lo, max_value=hi))
    steps = draw(st.permutations("N" * n + "E" * (n + 1)))
    height = low = start = 0
    for i, s in enumerate(steps):
        height += 1 if s == "N" else -1
        if height < low:
            low, start = height, i + 1
    rotated = steps[start:] + steps[:start]
    return dyck_to_nc(LatticePath("".join(rotated[:-1])))


@st.composite
def large_marked_pairs(draw):
    sigma = draw(large_noncrossing())
    special = nonnested_blocks(sigma)
    keep = draw(st.lists(st.booleans(), min_size=len(special), max_size=len(special)))
    return MarkedPair.make(sigma, [b for b, k in zip(special, keep) if k])


@st.composite
def large_marked_triples(draw):
    m = draw(large_marked_pairs())
    epsilon = draw(st.sampled_from((-1, 0, 1))) if m.marked else 0
    return MarkedTriple.make(m.sigma, m.marked, epsilon)


@settings(max_examples=60, deadline=None)
@given(large_marked_pairs())
def test_large_marked_pair_roundtrips(m):
    t = f_map(m, check=True)
    assert tableau_validate(t, "CT_B")
    assert f_map_inverse(t, check=True) == m
    assert g_map_inverse(g_map(m, check=True)) == m
    p = phi_nc_b_inverse(m, check=True)
    assert psi_b_inverse(psi_b(p, check=True), check=True) == p


@settings(max_examples=60, deadline=None)
@given(large_marked_triples())
def test_large_marked_triple_roundtrips(t):
    assert kappa_inverse(kappa(t, check=True), check=True) == t
    p = phi_nc_d_inverse(t, check=True)
    assert psi_d_inverse(psi_d(p, check=True), check=True) == p
