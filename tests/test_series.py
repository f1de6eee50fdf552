from fractions import Fraction

import pytest

from coxcat.core import ValidationError
from coxcat.series import (
    Series,
    cross_check,
    nn_na_polynomial,
    poly_str,
    series,
    series_b,
    series_c,
)

F = Fraction


def test_c_and_b_coefficients():
    assert series_c(5).scalar_coefficients() == tuple(map(F, (1, 1, 2, 5, 14, 42)))
    assert series_b(5).scalar_coefficients() == tuple(map(F, (0, 1, 1, 2, 5, 14)))


def test_f_low_order_coefficients():
    f = series("F", 2)
    assert f.coeffs[0] == {(0, 0): F(1)}
    assert f.coeffs[1] == {(1, 1): F(1)}
    assert f.coeffs[2] == {(1, 1): F(1), (2, 2): F(1)}


def test_cross_check_small():
    rep = cross_check(6)
    assert rep.ok
    assert rep.entries[2].expected == {(1, 1): F(1), (2, 2): F(1)}


def test_nn_na_polynomial_n3():
    assert nn_na_polynomial(3) == {
        (1, 1): F(1),
        (2, 2): F(1),
        (2, 1): F(1),
        (1, 2): F(1),
        (3, 3): F(1),
    }


def test_series_errors_and_dispatch():
    with pytest.raises(ValidationError):
        series("Q", 4)
    with pytest.raises(ValidationError):
        series("C", -1)
    with pytest.raises(ValidationError):
        Series.monomial(1, 1, 0, 1, 4).inverse()
    with pytest.raises(ValidationError):
        Series.constant(1, 4).shift_down()


@pytest.mark.parametrize("call, text", [
    (lambda: series("C", 2.5), "order must be an integer"),
    (lambda: series("C", "3"), "order must be an integer"),
    (lambda: cross_check(2.5), "n_max must be an integer"),
    (lambda: cross_check("3"), "n_max must be an integer"),
], ids=['series("C", 2.5)', 'series("C", "3")', "cross_check(2.5)", 'cross_check("3")'])
def test_non_integer_orders_are_rejected(call, text):
    with pytest.raises(ValidationError, match=f"^{text}$"):
        call()


def test_poly_str():
    assert poly_str({}) == "0"
    assert poly_str({(1, 1): F(1), (2, 2): F(1)}) == "xy + x^2y^2"
    assert poly_str({(0, 0): F(3)}) == "3"
