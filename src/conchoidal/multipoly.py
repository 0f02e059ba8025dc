"""Sparse multivariate polynomials over Q and Q(i).

MultiPoly is the universal carrier of curve equations: a map from exponent
vectors to nonzero scalars, tagged with an ordered variable tuple and a
coefficient field.  The monomial order everywhere is graded lexicographic
(total degree first, earlier variables heavier), which fixes leading
coefficients, canonical "monic" forms and the serialization order.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NotHomogeneousError
from .fields import (
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    Scalar,
    integer_parts,
    join_fields,
    conj as scalar_conj,
    to_scalar,
)

# Canonical ranking used when two polynomials over different variable sets
# meet in an arithmetic operation.  Unknown names sort after these,
# alphabetically.
_VAR_RANK = {"x": 0, "y": 1, "z": 2, "t": 3, "s": 4, "u": 5, "v": 6, "w": 7}


def _var_key(name: str):
    if name in _VAR_RANK:
        return (0, _VAR_RANK[name], name)
    return (1, 0, name)


def merge_vars(a: Sequence[str], b: Sequence[str]) -> Tuple[str, ...]:
    return tuple(sorted(set(a) | set(b), key=_var_key))


def _grlex_key(exp: Tuple[int, ...]):
    return (sum(exp), exp)


class MultiPoly:
    """Immutable sparse polynomial.  Do not mutate ``terms`` after creation."""

    __slots__ = ("vars", "field", "terms", "_hash")

    def __init__(self, vars: Tuple[str, ...], field: str, terms: Dict[Tuple[int, ...], Scalar]):
        self.vars = tuple(vars)
        self.field = field
        self.terms = terms
        self._hash = None

    # -- construction -------------------------------------------------

    @classmethod
    def make(cls, vars: Sequence[str], field: str, raw_terms) -> "MultiPoly":
        """Build from any (exponent tuple -> coefficient) mapping/items,
        coercing coefficients into the field and dropping zeros."""
        n = len(vars)
        terms: Dict[Tuple[int, ...], Scalar] = {}
        items = raw_terms.items() if isinstance(raw_terms, dict) else raw_terms
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != n:
                raise ValueError(f"exponent vector {exp} does not match variables {vars}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = to_scalar(coeff, field)
            if not c:
                continue
            if exp in terms:
                c = terms[exp] + c
                if c:
                    terms[exp] = c
                else:
                    del terms[exp]
            else:
                terms[exp] = c
        return cls(tuple(vars), field, terms)

    @classmethod
    def zero(cls, vars: Sequence[str], field: str = FIELD_Q) -> "MultiPoly":
        return cls(tuple(vars), field, {})

    @classmethod
    def constant(cls, value, vars: Sequence[str], field: str = FIELD_Q) -> "MultiPoly":
        return cls.make(vars, field, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str], field: str = FIELD_Q) -> "MultiPoly":
        exp = [0] * len(vars)
        exp[list(vars).index(name)] = 1
        return cls.make(vars, field, {tuple(exp): 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def uses_var(self, var: str) -> bool:
        if var not in self.vars:
            return False
        i = self.vars.index(var)
        return any(e[i] for e in self.terms)

    def sole_var(self) -> Optional[str]:
        """The one variable a univariate polynomial uses: None for a
        constant, ValueError when two or more are in use."""
        used = [v for v in self.vars if self.uses_var(v)]
        if len(used) > 1:
            raise ValueError(f"polynomial uses {len(used)} variables {tuple(used)}, expected one")
        return used[0] if used else None

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        zero_exp = (0,) * len(self.vars)
        return self.terms.get(zero_exp, to_scalar(0, self.field))

    def leading(self) -> Tuple[Tuple[int, ...], Scalar]:
        """Graded-lex leading (exponent, coefficient)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def lc(self) -> Scalar:
        return self.leading()[1]

    def sorted_terms(self) -> List[Tuple[Tuple[int, ...], Scalar]]:
        """Terms in descending graded-lex order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    # -- equality / hashing ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = _aligned(self, other)
        return a.terms == b.terms

    def __hash__(self):
        if self._hash is None:
            used = self._used_vars()
            items = frozenset(
                (tuple(e for v, e in zip(self.vars, exp) if v in used), c)
                for exp, c in self.terms.items()
            )
            self._hash = hash((tuple(v for v in self.vars if v in used), items))
        return self._hash

    def _used_vars(self):
        used = set()
        for exp in self.terms:
            for v, e in zip(self.vars, exp):
                if e:
                    used.add(v)
        return used

    def __repr__(self):
        from .grammar import poly_to_text

        return f"MultiPoly({poly_to_text(self)!r}, vars={self.vars}, field={self.field})"

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.constant(other, self.vars, self.field)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = _aligned(self, other)
        terms = dict(a.terms)
        _add_into(terms, b.terms)
        return MultiPoly(a.vars, a.field, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, self.field, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.constant(other, self.vars, self.field)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            if not other:
                return MultiPoly.zero(self.vars, self.field)
            field = join_fields(self.field, FIELD_QI if isinstance(other, GaussianRational) else FIELD_Q)
            c0 = to_scalar(other, field)
            return MultiPoly(self.vars, field, {e: to_scalar(c, field) * c0 for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = _aligned(self, other)
        return MultiPoly(a.vars, a.field, _mul_terms(a.terms, b.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            if not other:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            field = join_fields(self.field, FIELD_QI if isinstance(other, GaussianRational) else FIELD_Q)
            c0 = to_scalar(other, field)
            return MultiPoly(self.vars, field, {e: to_scalar(c, field) / c0 for e, c in self.terms.items()})
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.constant(1, self.vars, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- normalization ----------------------------------------------------

    def monic(self) -> "MultiPoly":
        """Canonical form: divide by the graded-lex leading coefficient."""
        if not self.terms:
            return self
        return self / self.lc()

    def proportional_to(self, other: "MultiPoly") -> bool:
        """Equality up to a nonzero scalar."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.monic() == other.monic()

    # -- structure ---------------------------------------------------------

    def homogeneous_part(self, k: int) -> "MultiPoly":
        return MultiPoly(self.vars, self.field, {e: c for e, c in self.terms.items() if sum(e) == k})

    def min_degree(self) -> int:
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def derivative(self, var: str) -> "MultiPoly":
        i = self.vars.index(var)
        terms: Dict[Tuple[int, ...], Scalar] = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = c * exp[i]
        return MultiPoly(self.vars, self.field, terms)

    def conj(self) -> "MultiPoly":
        return MultiPoly(self.vars, self.field, {e: scalar_conj(c) for e, c in self.terms.items()})

    # -- variables ----------------------------------------------------------

    def with_vars(self, newvars: Sequence[str]) -> "MultiPoly":
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
        return MultiPoly(newvars, self.field, terms)

    def promote(self, field: str) -> "MultiPoly":
        if field == self.field:
            return self
        return MultiPoly(self.vars, field, {e: to_scalar(c, field) for e, c in self.terms.items()})

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, mapping: Dict[str, "MultiPoly | Scalar | int"]) -> "MultiPoly":
        """Simultaneously replace variables by polynomials or scalars.

        Unreplaced variables map to themselves; the result lives over the
        union of the surviving variables and those of the images.
        """
        field = self.field
        images: Dict[str, MultiPoly] = {}
        vars_out: Tuple[str, ...] = ()
        for v in self.vars:
            img = mapping.get(v)
            if img is None:
                img = MultiPoly.variable(v, (v,), self.field)
            elif not isinstance(img, MultiPoly):
                img = MultiPoly.constant(img, (), FIELD_QI if isinstance(img, GaussianRational) else FIELD_Q)
            images[v] = img
            field = join_fields(field, img.field)
            vars_out = merge_vars(vars_out, img.vars)
        unit = (0,) * len(vars_out)
        # Cache powers of each image, as term dicts, to keep repeated
        # substitution cheap; every term is added into the one result dict.
        powers: List[List[Dict[Tuple[int, ...], Scalar]]] = [
            [{unit: to_scalar(1, field)}, images[v].with_vars(vars_out).promote(field).terms]
            for v in self.vars]
        terms: Dict[Tuple[int, ...], Scalar] = {}
        for exp, c in self.terms.items():
            term = {unit: to_scalar(c, field)}
            for cache, e in zip(powers, exp):
                if e:
                    while len(cache) <= e:
                        cache.append(_mul_terms(cache[-1], cache[1]))
                    term = _mul_terms(term, cache[e])
            _add_into(terms, term)
        return MultiPoly(vars_out, field, terms)

    def evaluate(self, point: Dict[str, Scalar]) -> Scalar:
        """Full evaluation; every used variable must be assigned."""
        field = self.field
        for val in point.values():
            if isinstance(val, GaussianRational):
                field = FIELD_QI
        total = to_scalar(0, field)
        vals = []
        for v in self.vars:
            if v in point:
                vals.append(to_scalar(point[v], field))
            else:
                vals.append(None)
        maxdeg = [self.degree_in(v) if vals[i] is not None else 0 for i, v in enumerate(self.vars)]
        pows = []
        for val, md in zip(vals, maxdeg):
            if val is None:
                pows.append(None)
                continue
            table = [to_scalar(1, field)]
            for _ in range(md):
                table.append(table[-1] * val)
            pows.append(table)
        for exp, c in self.terms.items():
            term = to_scalar(c, field)
            for i, e in enumerate(exp):
                if e:
                    if pows[i] is None:
                        raise ValueError(f"variable {self.vars[i]} not assigned")
                    term = term * pows[i][e]
            total = total + term
        return total

    def partial_eval(self, point: Dict[str, Scalar]) -> "MultiPoly":
        """Substitute scalars for some variables, keeping the rest symbolic."""
        return self.substitute({v: MultiPoly.constant(val, (), scalar_field_of(val))
                                for v, val in point.items()})

    def dehomogenize(self, var: str) -> "MultiPoly":
        return self.partial_eval({var: Fraction(1)})

    def homogenize(self, var: str, degree: Optional[int] = None) -> "MultiPoly":
        """Multiply each term by var**(degree - total) to reach the degree."""
        if var in self.vars and self.uses_var(var):
            raise ValueError(f"polynomial already uses {var}")
        if degree is None:
            degree = self.total_degree()
        if degree < self.total_degree():
            raise ValueError("target degree below total degree")
        vars_out = merge_vars(self.vars, (var,))
        i = vars_out.index(var)
        pos = {v: vars_out.index(v) for v in self.vars}
        terms: Dict[Tuple[int, ...], Scalar] = {}
        for exp, c in self.terms.items():
            new = [0] * len(vars_out)
            for v, e in zip(self.vars, exp):
                new[pos[v]] = e
            new[i] = degree - sum(exp)
            terms[tuple(new)] = c
        return MultiPoly(vars_out, self.field, terms)

    # -- univariate views -----------------------------------------------------

    def coefficients_in(self, var: str) -> List["MultiPoly"]:
        """Coefficient list (ascending) of the polynomial viewed in ``var``,
        entries over the remaining variables."""
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        d = self.degree_in(var)
        coeffs = [dict() for _ in range(d + 1)] if d >= 0 else [dict()]
        for exp, c in self.terms.items():
            rexp = tuple(e for j, e in enumerate(exp) if j != i)
            coeffs[exp[i]][rexp] = c
        return [MultiPoly(rest, self.field, t) for t in coeffs]


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


def scalar_field_of(val) -> str:
    return FIELD_QI if isinstance(val, GaussianRational) else FIELD_Q


def _aligned(a: MultiPoly, b: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    field = join_fields(a.field, b.field)
    if a.vars != b.vars:
        vars_out = merge_vars(a.vars, b.vars)
        a = a.with_vars(vars_out)
        b = b.with_vars(vars_out)
    if a.field != field:
        a = a.promote(field)
    if b.field != field:
        b = b.promote(field)
    return a, b


# -- exact division -------------------------------------------------------


def poly_exact_div(f: MultiPoly, g: MultiPoly) -> Optional[MultiPoly]:
    """Quotient q with f = q*g exactly, or None when g does not divide f.

    A miss is usually certified with no division: ``modular.line_multiplicity``
    bounds the multiplicity of g in f by their images on one line modulo a
    prime (the proof is in ``gcd.multiplicity_of_factor``), so a bound of 0
    means that g does not divide f.  Otherwise ``divide_out`` decides.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f, g = _aligned(f, g)
    if f.is_zero():
        return f
    from .modular import line_multiplicity   # modular imports this module
    if line_multiplicity(f, g) == 0:
        return None
    k, q = divide_out(f, g, 1)
    return q if k else None


def divide_out(f: MultiPoly, g: MultiPoly, bound: Optional[int]) -> Tuple[int, MultiPoly]:
    """(k, f / g**k) for the largest k <= bound with g**k | f, with no bound
    for None; f and g aligned, f nonzero, g nonconstant when unbounded.

    Integers over Q.  f is scaled once to F = L_f*f and g to G = L_g*g/c,
    with L the lcm of the denominators (``fields.integer_parts``) and c the
    integer content of L_g*g, so F and G lie in Z[x] and G is primitive.
    Then g**k divides f iff G divides F k times, each quotient in Z[x]: if
    an integer F' = H*G with H in Q[x], write H = c(H)*H0 with H0
    primitive; G*H0 is primitive by Gauss's lemma, so c(H) is the content
    of F', an integer.  Graded-lex reduction by one divisor finds the terms
    of an exact quotient in descending order, so each step of an exact
    division is an integer division, and a nonzero r % lc(G) proves that G
    does not divide F'.
    The k-th quotient is rebuilt once: f / g**k = F_k * (L_g/c)**k / L_f,
    one ``Fraction`` per term.  Over Q(i) the coefficients stay
    ``GaussianRational``, integers over one denominator, and each step is
    the field division.

    Division.  Graded-lex reduction, the remainder kept in one dict with a
    lazy max-heap of its exponents (Johnson 1974): q costs |q|*|g|.
    """
    integral = f.field == FIELD_Q
    if integral:
        (fp, f_den), (gp, g_den) = integer_parts(f.terms.values()), integer_parts(g.terms.values())
        content = gcd(*(a for a, _ in gp))
        F = {e: a for e, (a, _) in zip(f.terms, fp)}
        G = {e: a // content for e, (a, _) in zip(g.terms, gp)}
    else:
        F, G = f.terms, g.terms
    k = 0
    while bound is None or k < bound:
        q = _heap_quotient(F, G, integral)
        if q is None:
            break
        F, k = q, k + 1
    if not k:
        return 0, f
    if integral:
        scale = Fraction(g_den, content) ** k / f_den
        num, den = scale.numerator, scale.denominator
        F = {e: Fraction(c * num, den) for e, c in F.items()}
    else:
        F = {e: to_scalar(c, f.field) for e, c in F.items()}
    return k, MultiPoly(f.vars, f.field, F)


def _heap_quotient(f: Dict[Tuple[int, ...], Scalar], g: Dict[Tuple[int, ...], Scalar],
                   integral: bool) -> Optional[Dict[Tuple[int, ...], Scalar]]:
    """The exact quotient of two term dicts, or None; with ``integral`` every
    quotient step must be an exact integer division."""
    g_exp = max(g, key=_grlex_key)
    g_c = g[g_exp]
    g_rest = [(e, c) for e, c in g.items() if e != g_exp]
    rem = dict(f)
    heap = sorted(map(_heap_entry, rem))   # a sorted list is a heap
    q_terms: Dict[Tuple[int, ...], Scalar] = {}
    while heap:
        r_exp = heappop(heap)[1]
        r_c = rem.pop(r_exp, None)
        if r_c is None:
            continue   # cancelled, or pushed twice
        diff = tuple([a - b for a, b in zip(r_exp, g_exp)])
        if any(d < 0 for d in diff):
            return None
        if not integral:
            c = r_c / g_c
        elif r_c % g_c:
            return None
        else:
            c = r_c // g_c
        q_terms[diff] = c
        for e, gc in g_rest:
            exp = tuple([a + b for a, b in zip(diff, e)])
            t, old = c * gc, rem.pop(exp, None)
            if old is None:
                rem[exp] = -t
                heappush(heap, _heap_entry(exp))
            elif old != t:
                rem[exp] = old - t
    return q_terms


def _heap_entry(exp: Tuple[int, ...]):   # pops in descending graded-lex order
    return (-sum(exp), tuple([-e for e in exp])), exp


# -- homogeneous decomposition ---------------------------------------------


def homogeneous_decompose(f: MultiPoly, var: str = "z") -> List[MultiPoly]:
    """Split a homogeneous F(x,y,z) of degree d as sum F_h(x,y) * z**(d-h),
    returning [F_d, ..., F_0] over the remaining variables."""
    if not f.is_homogeneous():
        raise NotHomogeneousError(f"polynomial is not homogeneous")
    d = f.total_degree()
    if d < 0:
        return []
    i = f.vars.index(var)
    rest = tuple(v for v in f.vars if v != var)
    parts = [dict() for _ in range(d + 1)]
    for exp, c in f.terms.items():
        h = d - exp[i]
        rexp = tuple(e for j, e in enumerate(exp) if j != i)
        parts[h][rexp] = c
    return [MultiPoly(rest, f.field, parts[d - k]) for k in range(d + 1)]
