"""Exact truncated power series in z with polynomial coefficients in x, y.

A polynomial is a sparse map from (x-degree, y-degree) to a coefficient.
Coefficients are exact and never floats: an int wherever the value is
integral, a Fraction only where it is not.  Every operation reads an
integral Fraction back as an int, and a quotient is taken by long division
with an exact division at each step, so an integer series is computed in
int arithmetic from start to end.

The generating function counting noncrossing partitions by their numbers of
nonnested and nonaligned blocks is built along two independent routes:
composing the component series, and expanding the closed radical form
directly.  The closed route divides by (2 - x(1-s)) (2 - y(1-s)) and by
1 - xyz rather than multiplying by their inverses: the first has constant
term 4, so its inverse has dyadic coefficients, while the quotient is an
integer series that long division reaches in ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import InternalInvariantError, ValidationError, _check_n, noncrossing_partitions, nonaligned_blocks, nonnested_blocks

Poly = dict[tuple[int, int], int | Fraction]

DEFAULT_ORDER = 12


def _exact(c) -> int | Fraction:
    """c as an exact scalar: an int when it is integral, else a Fraction."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def _quotient(v: int | Fraction, c: int | Fraction) -> int | Fraction:
    """v / c exactly: an int when c divides v, else a Fraction."""
    if type(v) is int and type(c) is int:
        q, r = divmod(v, c)
        if not r:
            return q
    return _exact(Fraction(v, c))


def _pclean(p: Poly) -> Poly:
    """p without its zero terms, each integral Fraction read back as an int."""
    return {k: v.numerator if type(v) is Fraction and v.denominator == 1 else v for k, v in p.items() if v}


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return _pclean(out)


def _pmuladd(out: Poly, a: Poly, b: Poly) -> None:
    """Add a * b to out in place; the caller cleans out once it is complete."""
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + v1 * v2


def _pscale(a: Poly, c: int | Fraction) -> Poly:
    return _pclean({k: v * c for k, v in a.items()})


def _pconst(c: int | Fraction) -> Poly:
    return {(0, 0): c} if c else {}


def _scalar(c) -> int | Fraction:
    """c as an exact scalar; ValidationError unless it is an int or a Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise ValidationError("scalars must be integers or fractions")
    return _exact(c)


def _same_order(a: "Series", b: "Series") -> None:
    if not isinstance(b, Series):
        raise ValidationError("operands must be series")
    if a.order != b.order:
        raise ValidationError("series orders differ")


@dataclass(frozen=True)
class Series:
    """A series in z truncated at a fixed order, one polynomial per degree."""

    order: int
    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        if type(self.order) is not int or self.order < 0 or len(self.coeffs) != self.order + 1:
            raise ValidationError("a series of order k needs k + 1 coefficients, k >= 0")

    @classmethod
    def constant(cls, c, order: int) -> "Series":
        order = _check_n(order, 0, "order")
        return cls(order, (_pconst(_scalar(c)),) + tuple({} for _ in range(order)))

    @classmethod
    def monomial(cls, c, xdeg: int, ydeg: int, zdeg: int, order: int) -> "Series":
        order = _check_n(order, 0, "order")
        if not all(isinstance(d, int) for d in (xdeg, ydeg, zdeg)):
            raise ValidationError("degrees must be integers")
        if min(xdeg, ydeg, zdeg) < 0:
            raise ValidationError("degrees must be >= 0")
        coeffs = [dict() for _ in range(order + 1)]
        c = _scalar(c)
        if zdeg <= order and c:
            coeffs[zdeg] = {(xdeg, ydeg): c}
        return cls(order, tuple(coeffs))

    def __add__(self, other: "Series") -> "Series":
        _same_order(self, other)
        return Series(self.order, tuple(_padd(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        _same_order(self, other)
        return self + other.scale(-1)

    def __mul__(self, other: "Series") -> "Series":
        _same_order(self, other)
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(self.order + 1):
            acc: Poly = {}
            for i in range(k + 1):
                if a[i] and b[k - i]:
                    _pmuladd(acc, a[i], b[k - i])
            out.append(_pclean(acc))
        return Series(self.order, tuple(out))

    def scale(self, c) -> "Series":
        c = _scalar(c)
        return Series(self.order, tuple(_pscale(p, c) for p in self.coeffs))

    def divide(self, other: "Series") -> "Series":
        """The series q with q * other = self, by long division in z.

        q_k = (a_k - sum of b_i q_(k-i) over i >= 1) / b_0, each division
        exact, so an integral quotient is computed in ints.
        """
        return self._divide(other, "division")

    def inverse(self) -> "Series":
        return Series.constant(1, self.order)._divide(self, "inversion")

    def _divide(self, other: "Series", what: str) -> "Series":
        _same_order(self, other)
        head = other.coeffs[0]
        if set(head) - {(0, 0)} or not head.get((0, 0)):
            raise ValidationError(f"{what} needs a nonzero scalar constant term")
        b0 = head[(0, 0)]
        minus_b = [_pscale(p, -1) for p in other.coeffs]
        q: list[Poly] = []
        for k, a in enumerate(self.coeffs):
            acc = dict(a)
            for i in range(1, k + 1):
                if minus_b[i] and q[k - i]:
                    _pmuladd(acc, minus_b[i], q[k - i])
            q.append({m: _quotient(v, b0) for m, v in acc.items() if v})
        return Series(self.order, tuple(q))

    def shift_down(self) -> "Series":
        """Divide by z; the constant term must vanish."""
        if self.coeffs[0]:
            raise ValidationError("cannot divide by z: nonzero constant term")
        return Series(self.order, self.coeffs[1:] + ({},))

    def scalar_coefficients(self) -> tuple[int | Fraction, ...]:
        out = []
        for p in self.coeffs:
            if set(p) - {(0, 0)}:
                raise ValidationError("series is not scalar")
            out.append(p.get((0, 0), 0))
        return tuple(out)

    def truncate(self, order: int) -> "Series":
        order = _check_n(order, 0, "order")
        if order > self.order:
            raise ValidationError("cannot extend a truncated series")
        return Series(order, self.coeffs[: order + 1])


def sqrt_one_minus_4z(order: int) -> Series:
    """The square root of 1 - 4z with constant term 1, by the quadratic recurrence."""
    c = [1]
    for k in range(1, order + 1):
        rhs = (-4 if k == 1 else 0) - sum(c[i] * c[k - i] for i in range(1, k))
        c.append(_quotient(rhs, 2 * c[0]))
    return Series(order, tuple(_pconst(v) for v in c))


def series_c(order: int) -> Series:
    """Counts of noncrossing partitions: (1 - sqrt(1-4z)) / (2z)."""
    s = sqrt_one_minus_4z(order + 1)
    one = Series.constant(1, order + 1)
    return (one - s).shift_down().divide(Series.constant(2, order + 1)).truncate(order)


def series_b(order: int) -> Series:
    """Counts of connected noncrossing partitions: 1 - 1/C."""
    c = series_c(order)
    return Series.constant(1, order) - c.inverse()


def series_a(order: int, var: str = "x") -> Series:
    """Partitions weighted by their nonnested block count: 1 / (1 - x B)."""
    xdeg, ydeg = (1, 0) if var == "x" else (0, 1)
    xb = Series.monomial(1, xdeg, ydeg, 0, order) * series_b(order)
    return (Series.constant(1, order) - xb).inverse()


def _assert_polynomial(f: Series) -> Series:
    for p in f.coeffs:
        for v in p.values():
            if v.denominator != 1:
                raise InternalInvariantError("coefficients did not normalize to integer polynomials")
    return f


def series_f_factored(order: int) -> Series:
    """Joint distribution series from the component factorization."""
    one = Series.constant(1, order)
    xyz = Series.monomial(1, 1, 1, 1, order)
    g = xyz * series_a(order, "x") * series_a(order, "y") * series_b(order)
    return _assert_polynomial((one + g) * (one - xyz).inverse())


def series_f_closed(order: int) -> Series:
    """Joint distribution series from the closed radical form.

    With s = sqrt(1-4z), the inner term is 2xyz(1-s) divided by
    (2 - x(1-s)) (2 - y(1-s)); dividing by 1 - xyz completes the series.
    """
    one = Series.constant(1, order)
    s = sqrt_one_minus_4z(order)
    t = one - s
    dx = Series.constant(2, order) - Series.monomial(1, 1, 0, 0, order) * t
    dy = Series.constant(2, order) - Series.monomial(1, 0, 1, 0, order) * t
    g = (Series.monomial(2, 1, 1, 1, order) * t).divide(dx * dy)
    xyz = Series.monomial(1, 1, 1, 1, order)
    return _assert_polynomial((one + g).divide(one - xyz))


def series(which: str, order: int = DEFAULT_ORDER) -> Series:
    """One of the named series: C, B, A (in x) or F."""
    order = _check_n(order, 0, "order")
    key = which.upper()
    if key == "C":
        return series_c(order)
    if key == "B":
        return series_b(order)
    if key == "A":
        return series_a(order)
    if key == "F":
        return series_f_closed(order)
    raise ValidationError(f"unknown series {which!r}")


def nn_na_polynomial(n: int) -> Poly:
    """Sum of x^(nonnested count) y^(nonaligned count) over noncrossing partitions of [n]."""
    out: Poly = {}
    for p in noncrossing_partitions(n):
        k = (len(nonnested_blocks(p)), len(nonaligned_blocks(p)))
        out[k] = out.get(k, 0) + 1
    return out


@dataclass(frozen=True)
class CrossCheckEntry:
    n: int
    ok: bool
    expected: Poly
    got: Poly


@dataclass(frozen=True)
class CrossCheckReport:
    entries: tuple[CrossCheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def cross_check(n_max: int) -> CrossCheckReport:
    """Compare both series routes against direct enumeration, degree by degree."""
    n_max = _check_n(n_max, 1, "n_max")
    closed = series_f_closed(n_max)
    factored = series_f_factored(n_max)
    entries = []
    for n in range(n_max + 1):
        expected = _pclean(nn_na_polynomial(n))
        got = _pclean(closed.coeffs[n])
        ok = expected == got and _pclean(factored.coeffs[n]) == got
        entries.append(CrossCheckEntry(n, ok, expected, got))
    return CrossCheckReport(tuple(entries))


def poly_str(p: Poly) -> str:
    if not p:
        return "0"
    terms = []
    for (i, j) in sorted(p, key=lambda k: (k[0] + k[1], k)):
        c = p[(i, j)]
        body = ("x" if i == 1 else f"x^{i}" if i else "") + ("y" if j == 1 else f"y^{j}" if j else "")
        if not body:
            terms.append(str(c))
        elif c == 1:
            terms.append(body)
        else:
            terms.append(f"{c}*{body}")
    return " + ".join(terms)
