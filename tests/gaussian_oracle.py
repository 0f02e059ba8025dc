"""The Fraction-pair Gaussian rational that ``fields.GaussianRational``
replaced, kept as the tests' independent oracle: each value is two
``Fraction``s, re + im*i, and every operation is Fraction arithmetic."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


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


def to_gaussian(x) -> Optional[GaussianRational]:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (Fraction, int)):
        return GaussianRational(x)
    return None
