from conftest import FIG4, FIG4_SIGMA, FIG5
from coxcat.core import SetPartition
from coxcat.interpret import (
    image_type,
    phi_nc_b,
    phi_nc_b_inverse,
    phi_nc_d,
    phi_nc_d_inverse,
    phi_nn_b,
    phi_nn_b_inverse,
    phi_nn_c,
    phi_nn_c_inverse,
    phi_nn_d,
    phi_nn_d_inverse,
)
from coxcat.models import MarkedPair
from coxcat.signed import SignedPartition, signed_type

sp = SetPartition.from_blocks
sgn = SignedPartition.from_blocks

FIG6 = sgn([[1, 3, 7, -7, -3, -1], [2, 4], [-2, -4], [5, 9, -10, -6], [-5, -9, 10, 6], [8], [-8]])
FIG7 = sgn([[1, 3, 7, -10, -6], [-1, -3, -7, 10, 6], [2, 4], [-2, -4], [5, 9, -9, -5], [8], [-8]])
FIG8 = sgn([[1, 4, 7, -3, -6, 10], [-1, -4, -7, 3, 6, -10], [2], [-2], [5, 9, -8], [-5, -9, 8]])


def test_phi_nc_b_fig4():
    m = phi_nc_b(FIG4)
    assert m.sigma == FIG4_SIGMA
    assert set(m.marked) == {(1, 4, 5), (7, 9), (10,)}
    assert phi_nc_b_inverse(m) == FIG4
    assert signed_type(FIG4) == image_type("nc_b", m)


def test_phi_nc_b_trivial_and_forced_zero():
    p = sgn([[1, 2], [-1, -2], [3], [-3]])
    m = phi_nc_b(p)
    assert m.marked == ()
    assert phi_nc_b_inverse(m) == p
    forced = phi_nc_b_inverse(MarkedPair.make(sp([[1]]), [(1,)]))
    assert forced == sgn([[1, -1]])


def test_phi_nc_d_fig5():
    t = phi_nc_d(FIG5)
    assert t.sigma == sp([[1, 2], [3, 5], [4], [6, 7], [8], [9]])
    assert set(t.marked) == {(1, 2), (3, 5), (6, 7), (8,)}
    assert t.epsilon == -1
    assert phi_nc_d_inverse(t) == FIG5
    assert signed_type(FIG5) == image_type("nc_d", t)


def test_phi_nc_d_small_branches():
    p = sgn([[1, 2], [-1, -2], [3], [-3]])
    t = phi_nc_d(p)
    assert (t.sigma, t.marked, t.epsilon) == (sp([[1, 2]]), (), 0)
    assert phi_nc_d_inverse(t) == p
    q = sgn([[1, 3], [-1, -3], [2], [-2]])
    t = phi_nc_d(q)
    assert (t.sigma, set(t.marked), t.epsilon) == (sp([[1], [2]]), {(1,)}, 1)
    assert phi_nc_d_inverse(t) == q


def test_phi_nn_b_fig6():
    m = phi_nn_b(FIG6)
    assert m.sigma == sp([[1, 3, 7], [2, 4], [5, 9], [6, 10], [8]])
    assert set(m.marked) == {(1, 3, 7), (5, 9), (6, 10)}
    back = phi_nn_b_inverse(m)
    assert back == FIG6
    assert back.zero_block() == (-7, -3, -1, 1, 3, 7)
    assert signed_type(FIG6) == image_type("nn_b", m)


def test_phi_nn_c_fig7_differs_from_b():
    m = phi_nn_c(FIG7)
    m6 = phi_nn_b(FIG6)
    assert (m.sigma, m.marked) == (m6.sigma, m6.marked)
    assert phi_nn_c_inverse(m) == FIG7
    assert FIG6 != FIG7
    assert phi_nn_c_inverse(m).zero_block() == (-9, -5, 5, 9)
    assert signed_type(FIG7) == image_type("nn_c", m)


def test_phi_nn_c_empty_marks():
    p = sgn([[1, 2], [-1, -2], [3], [-3]])
    m = phi_nn_c(p)
    assert m.marked == ()
    assert phi_nn_c_inverse(m) == p


def test_phi_nn_d_fig8():
    t = phi_nn_d(FIG8)
    assert t.sigma == sp([[1, 4, 7], [2], [3, 6], [5, 9], [8]])
    assert t.marked == ((3, 6), (1, 4, 7), (8,), (5, 9))
    assert t.epsilon == -1
    assert phi_nn_d_inverse(t) == FIG8
    assert signed_type(FIG8) == image_type("nn_d", t)


def test_phi_nn_d_trivial():
    p = sgn([[3], [-3], [1, 2], [-1, -2]])
    t = phi_nn_d(p)
    assert (t.sigma, t.marked, t.epsilon) == (sp([[1, 2]]), (), 0)
    assert phi_nn_d_inverse(t) == p
