"""The scalar-coefficient polynomial that ``MultiPoly`` replaced, kept as
the tests' independent oracle: a {exponent: Fraction or GaussianRational}
dict per polynomial, with the ring operations, scalar ``*`` and ``/``,
``monic`` by field division, and the per-term ``with_vars``, ``promote``,
``derivative`` and ``coefficients_in``.  MultiPoly stores integer
numerators over one denominator instead; its ``terms`` view must equal
``FractionPoly.terms`` value for value and type for type."""

from fractions import Fraction
from operator import add
from typing import Dict, List, Sequence, Tuple

from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational, Scalar, join_fields, to_scalar
from conchoidal.multipoly import MultiPoly, merge_vars


def _grlex_key(exp: Tuple[int, ...]):
    return (sum(exp), exp)


class FractionPoly:
    """A polynomial as a dict of nonzero field scalars."""

    __slots__ = ("vars", "field", "terms")

    def __init__(self, vars: Tuple[str, ...], field: str, terms: Dict[Tuple[int, ...], Scalar]):
        self.vars = tuple(vars)
        self.field = field
        self.terms = terms

    @classmethod
    def of(cls, p: MultiPoly) -> "FractionPoly":
        return cls(p.vars, p.field, dict(p.terms))

    @classmethod
    def constant(cls, value, vars: Sequence[str], field: str) -> "FractionPoly":
        c = to_scalar(value, field)
        return cls(tuple(vars), field, {(0,) * len(vars): c} if c else {})

    def lc(self) -> Scalar:
        return self.terms[max(self.terms, key=_grlex_key)]

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = FractionPoly.constant(other, self.vars, self.field)
        a, b = _aligned(self, other)
        terms = dict(a.terms)
        _add_into(terms, b.terms)
        return FractionPoly(a.vars, a.field, terms)

    def __neg__(self):
        return FractionPoly(self.vars, self.field, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = FractionPoly.constant(other, self.vars, self.field)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            if not other:
                return FractionPoly(self.vars, self.field, {})
            field = join_fields(self.field, FIELD_QI if isinstance(other, GaussianRational) else FIELD_Q)
            c0 = to_scalar(other, field)
            return FractionPoly(self.vars, field, {e: to_scalar(c, field) * c0 for e, c in self.terms.items()})
        a, b = _aligned(self, other)
        return FractionPoly(a.vars, a.field, _mul_terms(a.terms, b.terms))

    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        field = join_fields(self.field, FIELD_QI if isinstance(other, GaussianRational) else FIELD_Q)
        c0 = to_scalar(other, field)
        return FractionPoly(self.vars, field, {e: to_scalar(c, field) / c0 for e, c in self.terms.items()})

    def monic(self) -> "FractionPoly":
        """Divide by the graded-lex leading coefficient."""
        if not self.terms:
            return self
        return self / self.lc()

    # -- per-term maps ---------------------------------------------------------

    def derivative(self, var: str) -> "FractionPoly":
        i = self.vars.index(var)
        terms: Dict[Tuple[int, ...], Scalar] = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = c * exp[i]
        return FractionPoly(self.vars, self.field, terms)

    def with_vars(self, newvars: Sequence[str]) -> "FractionPoly":
        """Re-embed into another variable tuple; all used variables must survive."""
        newvars = tuple(newvars)
        pos = {v: i for i, v in enumerate(newvars)}
        n = len(newvars)
        terms: Dict[Tuple[int, ...], Scalar] = {}
        for exp, c in self.terms.items():
            new = [0] * n
            for v, e in zip(self.vars, exp):
                if e:
                    if v not in pos:
                        raise ValueError(f"variable {v} in use cannot be dropped")
                    new[pos[v]] = e
            terms[tuple(new)] = c
        return FractionPoly(newvars, self.field, terms)

    def promote(self, field: str) -> "FractionPoly":
        if field == self.field:
            return self
        return FractionPoly(self.vars, field, {e: to_scalar(c, field) for e, c in self.terms.items()})

    def coefficients_in(self, var: str) -> List["FractionPoly"]:
        """Coefficient list (ascending) of the polynomial viewed in ``var``."""
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        d = max((e[i] for e in self.terms), default=-1)
        coeffs = [dict() for _ in range(d + 1)] if d >= 0 else [dict()]
        for exp, c in self.terms.items():
            rexp = tuple(e for j, e in enumerate(exp) if j != i)
            coeffs[exp[i]][rexp] = c
        return [FractionPoly(rest, self.field, t) for t in coeffs]


def _add_into(terms: Dict[Tuple[int, ...], Scalar], other: Dict[Tuple[int, ...], Scalar]) -> None:
    """terms += other, in place, dropping the sums that cancel."""
    for exp, c in other.items():
        s = terms.get(exp)
        if s is None:
            terms[exp] = c
        else:
            s = s + c
            if s:
                terms[exp] = s
            else:
                del terms[exp]


def _mul_terms(a: Dict[Tuple[int, ...], Scalar], b: Dict[Tuple[int, ...], Scalar]
               ) -> Dict[Tuple[int, ...], Scalar]:
    """The product of two term dicts over the same variables and field."""
    terms: Dict[Tuple[int, ...], Scalar] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(map(add, e1, e2))
            c = c1 * c2
            s = terms.get(exp)
            if s is None:
                if c:
                    terms[exp] = c
            else:
                s = s + c
                if s:
                    terms[exp] = s
                else:
                    del terms[exp]
    return terms


def _aligned(a: FractionPoly, b: FractionPoly) -> Tuple[FractionPoly, FractionPoly]:
    field = join_fields(a.field, b.field)
    if a.vars != b.vars:
        vars_out = merge_vars(a.vars, b.vars)
        a = a.with_vars(vars_out)
        b = b.with_vars(vars_out)
    return a.promote(field), b.promote(field)
