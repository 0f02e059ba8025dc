"""Exact scalars for the two supported coefficient fields, Q and Q(i).

Q is served directly by :class:`fractions.Fraction` (arbitrary precision,
gcd-normalized, positive denominator).  Q(i) gets a small immutable class
whose arithmetic mixes freely with Fraction and int.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional, Union

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
    """An element re + im*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    def __add__(self, other):
        other = to_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = to_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = to_gaussian(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = to_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = to_gaussian(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = to_gaussian(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (Fraction, int)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # Matches hash(Fraction) when the value is real, so that equal
        # scalars hash equally across the two representations.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """re**2 + im**2, a nonnegative rational, zero iff self is zero."""
        return self.re * self.re + self.im * self.im


Scalar = Union[Fraction, GaussianRational]

IMAG_UNIT = GaussianRational(0, 1)


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
            if x.im != 0:
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
        return x.re if x.im == 0 else None
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
