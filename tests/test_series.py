from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


ONE5, ONE3 = Series.constant(1, 5), Series.constant(1, 3)


@pytest.mark.parametrize("call, text", [
    (lambda: Series.monomial(1, 0, 0, -2, 3), "degrees must be >= 0"),
    (lambda: Series.monomial(1, -1, 0, 1, 3), "degrees must be >= 0"),
    (lambda: Series.monomial(1, 0, -1, 1, 3), "degrees must be >= 0"),
    (lambda: Series.constant(1, -1), "order must be >= 0"),
    (lambda: Series.monomial(1, 0, 0, 0, -1), "order must be >= 0"),
    (lambda: ONE3.truncate(-2), "order must be >= 0"),
    (lambda: Series(3, ({},)), "a series of order k needs k \\+ 1 coefficients, k >= 0"),
    (lambda: ONE5 + ONE3, "series orders differ"),
    (lambda: ONE5 - ONE3, "series orders differ"),
    (lambda: ONE5 * ONE3, "series orders differ"),
    (lambda: ONE5.divide(ONE3), "series orders differ"),
    (lambda: ONE3.divide(Series.monomial(1, 1, 0, 0, 3)), "division needs a nonzero scalar constant term"),
    (lambda: Series.monomial(1, 0.5, 0, 0, 3), "degrees must be integers"),
    (lambda: Series.monomial(1, "a", 0, 0, 3), "degrees must be integers"),
    (lambda: Series.monomial(1, 0, 0, 1.0, 3), "degrees must be integers"),
    (lambda: Series.constant("x", 3), "scalars must be integers or fractions"),
    (lambda: Series.constant(0.1, 2), "scalars must be integers or fractions"),
    (lambda: Series.monomial(0.5, 1, 0, 0, 3), "scalars must be integers or fractions"),
    (lambda: ONE3.scale(0.5), "scalars must be integers or fractions"),
    (lambda: ONE3 + 1, "operands must be series"),
    (lambda: ONE3 - 1, "operands must be series"),
    (lambda: ONE3 * 2, "operands must be series"),
    (lambda: ONE3.divide(F(1, 2)), "operands must be series"),
], ids=["monomial z^-2", "monomial x^-1", "monomial y^-1", "constant order -1", "monomial order -1",
        "truncate(-2)", "3 coefficients short", "add", "sub", "mul", "divide", "divide by x",
        "monomial x^0.5", 'monomial x^"a"', "monomial z^1.0", 'constant "x"', "constant 0.1", "monomial 0.5x",
        "scale(0.5)", "add 1", "sub 1", "mul 2", "divide by 1/2"])
def test_malformed_shapes_are_rejected(call, text):
    with pytest.raises(ValidationError, match=f"^{text}$"):
        call()


def _values(s):
    return [v for p in s.coeffs for v in p.values()]


@pytest.mark.parametrize("which", "CBAF")
def test_integer_series_are_computed_in_ints(which):
    assert all(type(v) is int for v in _values(series(which, 20)))


def test_a_non_integral_inverse_is_exact():
    inv = Series.constant(3, 4).inverse()
    assert inv.coeffs[0] == {(0, 0): F(1, 3)}
    assert not any(isinstance(v, float) for v in _values(inv))


def _int_series(order, head=None):
    poly = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-5, 5), max_size=3)
    first = poly if head is None else head.map(lambda c: {(0, 0): c})
    return st.tuples(first, st.lists(poly, min_size=order, max_size=order)).map(
        lambda t: Series(order, tuple({k: v for k, v in p.items() if v} for p in (t[0], *t[1]))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(lambda k: st.tuples(_int_series(k), _int_series(k, st.sampled_from([1, -1, 2, -2, 3])))))
def test_divide_undoes_multiplication(ab):
    a, b = ab
    q = a.divide(b)
    assert (q * b).coeffs == a.coeffs
    if b.coeffs[0][(0, 0)] in (1, -1):
        assert all(type(v) is int for v in _values(q))
