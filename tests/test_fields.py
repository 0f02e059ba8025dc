import operator
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from conchoidal.fields import (
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    fraction_sqrt,
    gaussian_sqrt,
    im_part,
    integer_parts,
    positively_oriented,
    re_part,
    sqrt_in_field,
    to_scalar,
)
from gaussian_oracle import GaussianRational as OracleGaussian

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)
# a Q(i) operand as its real and imaginary parts, often real or zero
parts = st.tuples(rationals, st.one_of(st.just(Fraction(0)), rationals))
# the other operand: a Gaussian rational (as parts), an int or a Fraction
others = st.one_of(parts, st.integers(-30, 30), rationals)
BINARY = [operator.add, operator.sub, operator.mul, operator.truediv, operator.eq]


def test_basic_arithmetic():
    i = GaussianRational(0, 1)
    assert i * i == -1
    assert (GaussianRational(1, 1)) ** 2 == GaussianRational(0, 2)
    assert (GaussianRational(2, 1)) * (GaussianRational(2, -1)) == 5
    assert GaussianRational(3, 4).norm() == 25


def test_division_and_zero():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0, 0)
    assert not GaussianRational(0, 0)
    assert GaussianRational(1, 0) == Fraction(1)


@given(gaussians)
def test_conjugation_involution(q):
    assert q.conjugate().conjugate() == q
    n = q.norm()
    assert n >= 0
    assert (n == 0) == (not q)


@given(gaussians, gaussians)
def test_norm_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert (a - b) + b == a
    if c:
        assert (a / c) * c == a


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(2)) is None
    assert fraction_sqrt(Fraction(-1)) is None
    assert fraction_sqrt(Fraction(0)) == 0


@given(gaussians)
def test_gaussian_sqrt_roundtrip(q):
    s = q * q
    r = gaussian_sqrt(s)
    assert r is not None
    assert r * r == s


def test_gaussian_sqrt_nonsquares():
    assert gaussian_sqrt(GaussianRational(2, 0)) is None   # 2 is not a Q(i) square
    assert gaussian_sqrt(GaussianRational(0, 2)) == GaussianRational(1, 1)
    assert gaussian_sqrt(GaussianRational(-5, 12)) == GaussianRational(2, 3)


def test_sqrt_in_field_respects_field():
    assert sqrt_in_field(Fraction(-4), FIELD_Q) is None
    assert sqrt_in_field(Fraction(-4), FIELD_QI) == GaussianRational(0, 2)


def test_sign_orientation():
    assert positively_oriented(Fraction(3))
    assert not positively_oriented(Fraction(-3))
    assert positively_oriented(GaussianRational(0, 1))
    assert not positively_oriented(GaussianRational(0, -1))


def test_to_scalar_field_checks():
    assert to_scalar(2, FIELD_Q) == Fraction(2)
    assert to_scalar(Fraction(1, 2), FIELD_QI) == GaussianRational(Fraction(1, 2))
    with pytest.raises(ValueError):
        to_scalar(GaussianRational(0, 1), FIELD_Q)


def _same(new, old):
    """new (a GaussianRational or a plain value) equals the oracle's old."""
    if isinstance(old, OracleGaussian):
        assert isinstance(new, GaussianRational)
        assert (new.re, new.im) == (old.re, old.im)
        assert new._d > 0 and gcd(new._a, new._b, new._d) == 1   # normal form
    else:
        assert new == old and type(new) is type(old)


def _both(value):
    if isinstance(value, tuple):
        return GaussianRational(*value), OracleGaussian(*value)
    return value, value


@given(parts, others, st.sampled_from(BINARY), st.booleans())
def test_agrees_with_the_fraction_pair_oracle(x, y, op, swap):
    x_new, x_old = _both(x)
    y_new, y_old = _both(y)
    if swap:
        x_new, y_new, x_old, y_old = y_new, x_new, y_old, x_old
    if op is operator.truediv and not y_old:
        with pytest.raises(ZeroDivisionError):
            op(x_new, y_new)
        return
    _same(op(x_new, y_new), op(x_old, y_old))


@given(parts, st.integers(0, 6))
def test_unary_operations_agree_with_the_oracle(x, n):
    new, old = _both(x)
    _same(new, old)
    _same(-new, -old)
    _same(new ** n, old ** n)
    _same(new.conjugate(), old.conjugate())
    _same(new.norm(), old.norm())
    assert hash(new) == hash(old)
    assert bool(new) == bool(old)
    assert repr(new) == repr(old)
    for k in (2, Fraction(1, 2)):   # same numerators, another denominator
        assert (new == new * k) == (old == old * k)
    if not x[1]:
        assert hash(new) == hash(x[0]) and new == x[0]


def test_normal_form_fields():
    # equal values have equal fields, however they were reached
    z = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert (z._a, z._b, z._d) == (1, 1, 2)
    assert (z * z)._d == 2 and (z * z).im == Fraction(1, 2)
    w = GaussianRational(Fraction(2, 4), Fraction(-3, 6)) * 2
    assert (w._a, w._b, w._d) == (1, -1, 1)
    zero = z - z
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    assert z != z * 2 and z * 2 == GaussianRational(1, 1)
    with pytest.raises(AttributeError):   # re and im are read-only views
        z.re = Fraction(1)


def _integer_parts_oracle(values):
    # the common denominator from the re and im Fraction views: the lcm of
    # their denominators, and each view times it
    L = 1
    for c in values:
        L = lcm(L, re_part(c).denominator, im_part(c).denominator)
    return [tuple(part(c).numerator * (L // part(c).denominator) for part in (re_part, im_part))
            for c in values], L


@given(st.lists(st.one_of(st.integers(-30, 30), rationals, gaussians,
                          st.builds(GaussianRational, st.fractions(max_denominator=10 ** 6),
                                    st.fractions(max_denominator=10 ** 6))),
                max_size=8))
@example([])
def test_integer_parts_match_the_fraction_views(values):
    pairs, L = integer_parts(values)
    assert (pairs, L) == _integer_parts_oracle(values)
    assert type(L) is int and L >= 1
    assert all(type(x) is int for pair in pairs for x in pair)
    for (re, im), c in zip(pairs, values):
        assert GaussianRational(Fraction(re, L), Fraction(im, L)) == c


def test_integer_parts_examples():
    assert integer_parts([]) == ([], 1)
    assert integer_parts([Fraction(1, 6), GaussianRational(Fraction(1, 4), Fraction(1, 9)), 3]) == (
        [(6, 0), (9, 4), (108, 0)], 36)
