"""Exact scalars for the two supported coefficient fields, Q and Q(i).

Q is served directly by :class:`fractions.Fraction` (arbitrary precision,
gcd-normalized, positive denominator).  Q(i) is :class:`GaussianRational`,
one Gaussian integer a + b*i over one denominator d, kept as three Python
ints in the normal form d > 0, gcd(a, b, d) = 1.  Every value has exactly
one such triple, so equal values have equal fields: equality and hashing
never reduce anything, and each operation is a few int products followed by
one three-argument gcd.  Its arithmetic mixes freely with Fraction and int
on either side; ``re`` and ``im`` are Fraction views for callers.

A polynomial (``multipoly.MultiPoly``) stores numerators over one
denominator: ints over Q, and over Q(i) the GaussianRational coefficients
over 1.  Its field enters only through the helpers here (``numerators``,
``common_denominator``, ``lowest_terms``, ``numerator_scalar`` and
``numerator_inverse``), and ``integer_parts`` is the one conversion of a
list of scalars onto a common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, List, Optional, Tuple, Union

FIELD_Q = "Q"
FIELD_QI = "Qi"

Rational = Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


class GaussianRational:
    """An element (a + b*i)/d of Q(i), stored as three ints in normal form:
    d > 0 and gcd(a, b, d) = 1.

    The normal form is unique, so two values are equal exactly when their
    fields are, and equality never builds a Fraction.  Each operation is
    integer arithmetic followed by one three-argument gcd.  ``re`` and
    ``im`` are read-only Fraction views of a/d and b/d.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        p, q, r, s = re.numerator, re.denominator, im.numerator, im.denominator
        # over lcm(q, s) the value is already in normal form: a prime power
        # that divides the lcm fully divides q or s, and so misses p or r
        g = gcd(q, s)
        self._a, self._b, self._d = p * (s // g), r * (q // g), q // g * s

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        d = self._d
        if d == f:
            return _make(self._a + c, self._b + e, d)
        return _make(self._a * f + c * d, self._b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        d = self._d
        if d == f:
            return _make(self._a - c, self._b - e, d)
        return _make(self._a * f - c * d, self._b * f - e * d, d * f)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        d = self._d
        return _make(c * d - self._a * f, e * d - self._b * f, d * f)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        a, b = self._a, self._b
        return _make(a * c - b * e, a * e + b * c, self._d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(self._a, self._b, self._d, *o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self._a, self._b, self._d)

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        # (a + b*i)^n over d^n, by squaring Gaussian integers
        a, b, ra, rb = self._a, self._b, 1, 0
        k = n
        while k:
            if k & 1:
                ra, rb = ra * a - rb * b, ra * b + rb * a
            a, b = a * a - b * b, 2 * a * b
            k >>= 1
        return _make(ra, rb, self._d ** n)

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._d == o[2]

    def __hash__(self):
        # Matches hash(Fraction) when the value is real, so that equal
        # scalars hash equally across the two representations.
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def conjugate(self) -> "GaussianRational":
        return _raw(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """re**2 + im**2, a nonnegative rational, zero iff self is zero."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)


_new = object.__new__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d, already in normal form."""
    z = _new(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, brought to normal form."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _raw(a, b, d)


def _quotient(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussianRational:
    """((a + b*i)/d) / ((c + e*i)/f) = f(a + b*i)(c - e*i) / (d(c^2 + e^2))."""
    n = c * c + e * e
    if n == 0:
        raise ZeroDivisionError("division by zero in Q(i)")
    return _make((a * c + b * e) * f, (b * c - a * e) * f, d * n)


def _parts(x) -> Optional[Tuple[int, int, int]]:
    """Any operand of Q(i) arithmetic as its normal form (a, b, d), or None."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


Scalar = Union[Fraction, GaussianRational]


def integer_parts(values: Iterable) -> Tuple[List[Tuple[int, int]], int]:
    """(pairs, L) for L the lcm of the denominators of the values (ints,
    Fractions or GaussianRationals; 1 for none) and pairs their (re, im)
    parts times L, as ints.  This is the one place where coefficients go
    onto a common denominator.  It reads each normal form (a, b, d), whose
    d is the lcm of the denominators of a/d and b/d since gcd(a, b, d) = 1,
    so it builds no Fraction."""
    parts = [_parts(c) for c in values]
    L = lcm(*(d for _, _, d in parts))
    return [(a * (L // d), b * (L // d)) for a, b, d in parts], L


def numerators(values: Iterable, field: str) -> Tuple[list, int]:
    """(nums, L): the values as numerators over one L > 0.  Over Q, ints over
    the lcm of the denominators (integer_parts), so gcd(L, nums) = 1; over
    Q(i), the values as GaussianRationals over 1."""
    if field != FIELD_Q:
        return [to_scalar(c, field) for c in values], 1
    pairs, L = integer_parts(values)
    if any(b for _, b in pairs):
        raise ValueError("a value with a nonzero imaginary part does not lie in Q")
    return [a for a, _ in pairs], L


def common_denominator(d1: int, d2: int) -> Tuple[int, int, int]:
    """(L, L // d1, L // d2) for L = lcm(d1, d2)."""
    L = lcm(d1, d2)
    return L, L // d1, L // d2


def lowest_terms(nums: dict, den: int) -> Tuple[dict, int]:
    """The numerators and denominator divided by their gcd, so that the gcd
    is 1; a Q(i) form, over 1, is already in lowest terms."""
    g = gcd(den, *nums.values()) if den != 1 else 1
    if g == 1:
        return nums, den
    return {e: n // g for e, n in nums.items()}, den // g


def numerator_scalar(n, den: int) -> Scalar:
    """The value n / den of a numerator over its denominator."""
    return Fraction(n, den) if type(n) is int else n


def numerator_inverse(n) -> Tuple[object, int]:
    """(m, L) with m / L = 1 / n, L > 0, m a numerator of n's field."""
    if type(n) is not int:
        return 1 / n, 1
    return (1, n) if n > 0 else (-1, -n)


def to_gaussian(x) -> Optional[GaussianRational]:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (Fraction, int)):
        return GaussianRational(x)
    return None


def to_scalar(x, field: str) -> Scalar:
    """Coerce an int/Fraction/GaussianRational into the given field."""
    if field == FIELD_Q:
        if isinstance(x, GaussianRational):
            if x._b:
                raise ValueError(f"{x!r} does not lie in Q")
            return x.re
        return _frac(x)
    if field == FIELD_QI:
        g = to_gaussian(x)
        if g is None:
            raise TypeError(f"cannot interpret {x!r} as an element of Q(i)")
        return g
    raise ValueError(f"unknown field tag {field!r}")


def join_fields(f1: str, f2: str) -> str:
    return FIELD_QI if FIELD_QI in (f1, f2) else FIELD_Q


def conj(x: Scalar) -> Scalar:
    if isinstance(x, GaussianRational):
        return x.conjugate()
    return x


def re_part(x: Scalar) -> Fraction:
    return x.re if isinstance(x, GaussianRational) else _frac(x)


def im_part(x: Scalar) -> Fraction:
    return x.im if isinstance(x, GaussianRational) else Fraction(0)


def as_fraction(x: Scalar) -> Optional[Fraction]:
    """The value as a Fraction if it is real, else None."""
    if isinstance(x, GaussianRational):
        return None if x._b else x.re
    return _frac(x)


def fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root of a rational, or None."""
    q = _frac(q)
    if q < 0:
        return None
    pn, pd = isqrt(q.numerator), isqrt(q.denominator)
    if pn * pn != q.numerator or pd * pd != q.denominator:
        return None
    return Fraction(pn, pd)


def gaussian_sqrt(c: GaussianRational) -> Optional[GaussianRational]:
    """A square root of c in Q(i), or None if c is not a square there."""
    if c.im == 0:
        r = fraction_sqrt(c.re)
        if r is not None:
            return GaussianRational(r)
        r = fraction_sqrt(-c.re)
        if r is not None:
            return GaussianRational(0, r)
        return None
    n = fraction_sqrt(c.norm())
    if n is None:
        return None
    u2 = (c.re + n) / 2
    u = fraction_sqrt(u2)
    if u is None or u == 0:
        return None
    v = c.im / (2 * u)
    cand = GaussianRational(u, v)
    return cand if cand * cand == c else None


def sqrt_in_field(x: Scalar, field: str) -> Optional[Scalar]:
    """A square root of x within the given field, or None."""
    if field == FIELD_Q:
        f = as_fraction(x)
        return None if f is None else fraction_sqrt(f)
    g = to_gaussian(x)
    return None if g is None else gaussian_sqrt(g)


def positively_oriented(x: Scalar) -> bool:
    """Sign convention for square roots: positive real part, ties broken
    by positive imaginary part."""
    r = re_part(x)
    if r != 0:
        return r > 0
    return im_part(x) > 0
