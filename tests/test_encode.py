import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CROSSING, FIG4_SIGMA, FIG5, NESTED_MARK, NESTED_TRIPLE, random_member, raises_guard_text
from coxcat import encode
from coxcat.core import SetPartition, ValidationError, edges, noncrossing_partitions
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
    is_dyck,
    kappa,
    kappa_inverse,
    nc_to_dyck,
    psi_b,
    psi_b_inverse,
    psi_d,
    psi_d_inverse,
    slots,
    tableau_validate,
    varphi_b,
    varphi_b_inverse,
    varphi_d,
    varphi_d_inverse,
)
from coxcat.jsonio import b_pair_from_obj, b_pair_to_obj, d_pair_from_obj, d_pair_to_obj
from coxcat.models import MarkedPair, MarkedTriple, _pairs, count_family, marked_members
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
    """make, and the checked inverses on a hand-built pair, reject a stray slot with one text."""
    sigma = sp([[1, 2]])
    bad = [
        (BPair, ("edge", (1, 3))),  # not an edge
        (BPair, ("block", (1,))),  # not a block
        (BPair, ("int", 1)),  # an integer slot in a B pair
        (BPair, ("edge",)),
        (BPair, ("edge", 5)),
        (BPair, "edge"),
        (BPair, ("block", 3)),
        (BPair, ("edge", [1, 2])),  # unhashable, so never a slot
        (DPair, ("int", 3)),  # out of range
        (DPair, ("int", 0)),
    ]
    inverse = {BPair: psi_b_inverse, DPair: psi_d_inverse}
    for cls, x in bad:
        text = f"^{re.escape(repr(x))} is not a slot of the partition$"
        with pytest.raises(ValidationError, match=text):
            cls.make(sigma, x)
        with pytest.raises(ValidationError, match=text):
            inverse[cls](cls(sigma, x), check=True)
    DPair.make(sigma, ("int", -2))
    # a value equal to a slot is stored as that slot, so its elements are ints
    for pair, want, to_obj, from_obj in [
        (DPair.make(sigma, ("int", True)), "('int', 1)", d_pair_to_obj, d_pair_from_obj),
        (BPair.make(sigma, ("block", (1.0, 2.0))), "('block', (1, 2))", b_pair_to_obj, b_pair_from_obj),
    ]:
        assert repr(pair.x) == want
        assert from_obj(json.loads(json.dumps(to_obj(pair)))) == pair
    obj = {"n": 2, "blocks": [[1, 2]]}
    with pytest.raises(ValidationError, match=r'^bad x slot \{"int": true\}$'):
        d_pair_from_obj({"sigma": obj, "x": {"int": True}})
    with pytest.raises(ValidationError, match=r"^block must be a list of integers, got \[1\.0, 2\.0\]$"):
        b_pair_from_obj({"sigma": obj, "x": {"block": [1.0, 2.0]}})


def test_pair_enumerations_list_each_sigmas_slots_once(monkeypatch):
    listed = []
    monkeypatch.setattr(encode, "slots", lambda sigma, signed=False: listed.append(sigma) or slots(sigma, signed))
    for pairs, sigmas in ((b_pairs(4), noncrossing_partitions(4)), (d_pairs(4), noncrossing_partitions(3))):
        listed.clear()
        assert list(pairs) and listed == list(sigmas)


# odd-typed values: wrong lengths, lists, floats, bools and strings; the few equal to a slot, as
# ("int", True) equals ("int", 1), must come back as that slot
ODD_SLOTS = [
    ("edge",), ("edge", 5), "edge", ("block", 3), ("edge", [1, 2]), ("block", [1, 2]), ("edge", (1, 2, 3)),
    ("int", True), ("int", 1.0), ("int", -2.0), ("int", 1.5), ("int", "1"), ("block", (1.0, 2.0)),
    ("edge", (1.0, 2)), [None], ("edge", (1, 2), 3),
]


NO_SLOT = object()


def _slot_by_listing(sigma, x, signed):
    """The slot of sigma equal to x by search in the listing of every slot, or NO_SLOT."""
    out = slots(sigma, signed)
    return out[out.index(x)] if x in out else NO_SLOT


def test_slot_decides_the_one_slot_the_listing_finds():
    for n in range(8):
        for sigma in noncrossing_partitions(n):
            near = [("edge", (b[i], b[j])) for b in sigma.blocks for i in range(len(b)) for j in range(i + 2, len(b))]
            near += [("edge", (j, i)) for i, j in edges(sigma)]
            near += [("edge", (b[-1], c[0])) for b, c in zip(sigma.blocks, sigma.blocks[1:])]
            near += [("edge", (0, 1)), ("edge", (n, n + 1))]
            near += [("block", b[:-1]) for b in sigma.blocks if len(b) > 1]
            near += [("block", b + (n + 1,)) for b in sigma.blocks]
            near += [("int", 0), ("int", n + 1), ("int", -n - 1)]
            for signed in (False, True):
                for x in slots(sigma, signed) + near + ODD_SLOTS:
                    want = _slot_by_listing(sigma, x, signed)
                    try:
                        got = encode._slot(sigma, x, signed)
                    except ValidationError as e:
                        got = NO_SLOT
                        assert str(e) == f"{x!r} is not a slot of the partition"
                    assert repr(got) == repr(want)


def test_slots_order_and_counts():
    assert slots(sp([[1, 3], [2]]), signed=True) == [
        None,
        ("edge", (1, 3)),
        ("block", (1, 3)),
        ("block", (2,)),
        ("int", 1),
        ("int", -1),
        ("int", 2),
        ("int", -2),
        ("int", 3),
        ("int", -3),
    ]
    for n in range(8):
        for sigma in noncrossing_partitions(n):
            assert len(slots(sigma)) == n + 1
            assert len(slots(sigma, signed=True)) == 3 * (n + 1) - 2  # the D rank is n + 1


def test_psi_b_examples():
    pi = sgn([[1, -1]])
    bp = psi_b(pi)
    assert bp.sigma == sp([[1]]) and bp.x == ("block", (1,))
    assert psi_b_inverse(bp) == pi
    plain = sgn([[1, 2], [-1, -2], [3], [-3]])
    assert psi_b(plain).x is None


def test_psi_d_fig5_slot():
    dp = psi_d(FIG5)
    assert dp.sigma == sp([[1, 2, 8], [3, 5, 6, 7], [4], [9]])
    assert dp.x == ("int", -5)
    assert psi_d_inverse(dp) == FIG5


def _unmerge(sigma, spanning, seeds):
    """Cut the spanning edges, then mark the seeds and every piece that holds
    an end of a cut edge."""
    blocks = []
    for b in sigma.blocks:
        run = [b[0]]
        for u, v in zip(b, b[1:]):
            if (u, v) in spanning:
                blocks.append(tuple(run))
                run = [v]
            else:
                run.append(v)
        blocks.append(tuple(run))
    cut_sigma = sp(blocks, sigma.n)
    endpoints = {e for pair in spanning for e in pair}
    marked = set(seeds) | {b for b in cut_sigma.blocks if endpoints & set(b)}
    return MarkedPair.make(cut_sigma, marked)


def _varphi_b_inverse_oracle(bp):
    """The B decoding by its edge list: cut every edge around the slot."""
    if bp.x is None:
        return MarkedPair.make(bp.sigma, ())
    kind, val = bp.x
    if kind == "edge":
        a, b = val
        return _unmerge(bp.sigma, {(i, j) for i, j in edges(bp.sigma) if i <= a < b <= j}, ())
    spanning = {(i, j) for i, j in edges(bp.sigma) if i < val[0] and val[-1] < j}
    return _unmerge(bp.sigma, spanning, (val,))


def test_varphi_b_inverse_matches_its_oracle():
    for n in range(9):
        for bp in b_pairs(n):
            assert varphi_b_inverse(bp) == _varphi_b_inverse_oracle(bp)


def _varphi_d_oracle(t):
    """The D encoding with its own merge: unite the marks that the type-B
    inverse pairs, then name the innermost pair by a block, an edge or, under
    a nonzero sign, the signed maximum of its first block."""
    pairs = _pairs("nc_b", t.pair)
    blocks = [b for b in t.sigma.blocks if b not in t.marked] + [tuple(sorted(set(a + b))) for a, b in pairs]
    sigma = sp(blocks, t.sigma.n)
    if not pairs:
        return DPair(sigma, None)
    a1, a2 = pairs[-1]
    if t.epsilon:
        return DPair(sigma, ("int", t.epsilon * a1[-1]))
    return DPair(sigma, ("block", a1) if a1 == a2 else ("edge", (a1[-1], a2[0])))


def _varphi_d_inverse_oracle(dp):
    """The D decoding with its own cut for an integer slot +-j: the edges
    around j's block, and inside it after j unless j is its maximum."""
    if dp.x is None or dp.x[0] != "int":
        m = varphi_b_inverse(BPair(dp.sigma, dp.x))
        return MarkedTriple(m.sigma, m.marked, 0)
    j = abs(dp.x[1])
    blk = dp.sigma.block_containing(j)
    cut = {(i, l) for i, l in edges(dp.sigma) if i < blk[0] and blk[-1] < l}
    seeds = [blk]
    if blk[-1] != j:
        seeds = [tuple(v for v in blk if v <= j), tuple(v for v in blk if v > j)]
        cut.add((seeds[0][-1], seeds[1][0]))
    m = _unmerge(dp.sigma, cut, seeds)
    return MarkedTriple(m.sigma, m.marked, 1 if dp.x[1] > 0 else -1)


def test_varphi_d_matches_its_oracles():
    for n in range(1, 8):
        for t in marked_members("nc_nn_pm", n):
            assert varphi_d(t) == _varphi_d_oracle(t)
        for dp in d_pairs(n):
            assert varphi_d_inverse(dp) == _varphi_d_inverse_oracle(dp)


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


def test_dyck_examples():
    assert nc_to_dyck(sp([[1, 2]])).steps == "NNEE"
    assert nc_to_dyck(sp([[1]])).steps == "NE"
    path = nc_to_dyck(FIG4_SIGMA)
    assert path.steps == "NNNNEEENEENENNNEEENE"
    assert dyck_to_nc(path) == FIG4_SIGMA
    with pytest.raises(ValidationError):
        dyck_to_nc(LatticePath("EN"))


def test_lattice_path_validation():
    with pytest.raises(ValidationError):
        LatticePath.make("NEX")
    with pytest.raises(ValidationError):
        LatticePath.make("NNE")
    assert LatticePath("NE").n == 1
    assert is_dyck(LatticePath("NENE"))
    assert not is_dyck(LatticePath("ENNE"))


def test_g_map_fig8():
    m = MarkedPair.make(FIG4_SIGMA, [(1, 4, 5), (6,), (10,)])
    path = g_map(m)
    assert path.steps == "EEEENNNENNENNNNEEEEN"
    pts = set(path.points())
    assert {(4, 0), (5, 3), (6, 5), (10, 9)} <= pts
    assert g_map_inverse(path) == m
    assert g_map(MarkedPair.make(sp([[1]]), [(1,)])).steps == "EN"
    plain = MarkedPair.make(sp([[1, 2], [3]]), [])
    assert g_map(plain).steps == nc_to_dyck(plain.sigma).steps


def test_f_map_fig10():
    m = MarkedPair.make(sp([[1, 2], [3], [4, 7, 9], [5, 6], [8], [10]]), [(1, 2), (4, 7, 9)])
    t = f_map(m)
    assert t.south == (3, 5, 8, 10)
    assert t.east == (1, 2, 4, 6, 7, 9)
    assert t.ones == frozenset({(-1, 1), (-1, 2), (-4, 4), (-4, 7), (-4, 9), (5, 6)})
    assert tableau_validate(t, "CT_B")
    assert f_map_inverse(t) == m


def test_f_map_inverse_rejects_a_column_joining_two_blocks():
    with pytest.raises(ValidationError, match="^a column joins two blocks$"):
        f_map_inverse(ShiftedTableau.make([1, 2], [3], [(1, 3), (2, 3)]), check=False)


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
    assert ShiftedTableau.make([1], [2], [(1, 2)]).ones == {(1, 2)}  # cell (1,2) exists, (2,1) does not
    with pytest.raises(ValidationError, match=r"^cell \(2,1\) is not in the diagram$"):
        ShiftedTableau.make([1], [2], [(2, 1)])


def test_tableau_structure_validation():
    with pytest.raises(ValidationError):
        ShiftedTableau.make([1, 2], [2], [])
    with pytest.raises(ValidationError):
        ShiftedTableau.make([1], [2], [(-2, 1)])


def test_tableau_make_takes_integers_only():
    for south, east, ones in (([1.0], [2], [(1, 2)]), ([1], [2], [(1.5, 2)]), ([1], ["2"], []), ([1], [2], [(1, 2, 3)])):
        with pytest.raises(ValidationError, match="^tableau labels must be integers and cells pairs of integers$"):
            ShiftedTableau.make(south, east, ones)
    t = ShiftedTableau.make([True], [2], [(True, 2)])  # a bool is stored as its int
    assert t == ShiftedTableau(2, (1,), (2,), frozenset({(1, 2)}))
    assert {type(x) for x in (*t.south, *t.east, *itertools.chain(*t.ones))} == {int}


def test_catalan_tableaux_counts():
    for n in range(1, 7):
        assert sum(1 for _ in catalan_tableaux(n, "CT_B")) == math.comb(2 * n, n)
        # f_map sends the restricted pairs, which kappa counts as the type-D family, onto CT_D
        assert sum(1 for _ in catalan_tableaux(n, "CT_D")) == count_family("nc_d", n)


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
                cells = []
                for rr in shell.rows():  # the one-pass scan reads each row as a prefix of the columns
                    row = [c for c in shell.columns() if shell.cell_exists(rr, c)]
                    assert row == shell.columns()[: len(row)]
                    cells += [(rr, c) for c in row]
                for bits in itertools.product((False, True), repeat=len(cells)):
                    ones = frozenset(cell for cell, on in zip(cells, bits) if on)
                    t = ShiftedTableau.make(south, east, ones)
                    # entries outside the diagram are ignored, as before
                    stray = ShiftedTableau(n, t.south, t.east, ones | {(0, 0), (n + 1, n + 2)})
                    for kind in ("PT_B", "CT_B", "CT_D"):
                        want = _tableau_validate_reference(t, kind)
                        assert tableau_validate(t, kind) == want
                        assert tableau_validate(stray, kind) == want
                        cases += 1
    assert cases == 3 * 2449  # every filling of every shape with n <= 4, three kinds


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=20, max_value=40), st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_tableau_validate_matches_reference_at_large_n(n, seed, data):
    # long rows, whose length comes from bisection: an f_map image, and the same with one cell toggled
    t = f_map(random_member(random.Random(seed), "nc_nn", n))
    cells = [(r, c) for r in t.rows() for c in t.columns() if _cell_exists_reference(t, r, c)]
    tableaux = [t]
    if cells:
        cell = data.draw(st.sampled_from(cells), label="toggled cell")
        tableaux.append(ShiftedTableau(t.n, t.south, t.east, t.ones ^ {cell}))
    for u in tableaux:
        for kind in ("PT_B", "CT_B", "CT_D"):
            assert tableau_validate(u, kind) == _tableau_validate_reference(u, kind)


# varphi_b and varphi_d are not rows of the map table, so test_maps.py::test_domain_guard does not reach them
GUARDS = [
    pytest.param(varphi_b, NESTED_MARK, "not a marked noncrossing pair with nonnested marks", id="varphi_b"),
    pytest.param(varphi_b_inverse, BPair(CROSSING, None), "not a noncrossing partition", id="varphi_b_inverse"),
    pytest.param(varphi_d, NESTED_TRIPLE, "not a marked noncrossing triple with nonnested marks", id="varphi_d"),
    pytest.param(varphi_d_inverse, DPair(CROSSING, ("int", 2)), "not a noncrossing partition", id="varphi_d_inverse"),
]


@pytest.mark.parametrize("fn,arg,message", GUARDS)
def test_domain_guard_text(fn, arg, message):
    raises_guard_text(fn, arg, message)
