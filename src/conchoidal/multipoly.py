"""Sparse multivariate polynomials over Q and Q(i).

MultiPoly is the universal carrier of curve equations: a map from exponent
vectors to nonzero coefficients, tagged with an ordered variable tuple and a
coefficient field.  The monomial order everywhere is graded lexicographic
(total degree first, earlier variables heavier), which fixes leading
coefficients, canonical "monic" forms and the serialization order.

The stored form is one set of numerators {exponent: n} over one
denominator L > 0, in lowest terms.  Over Q each n is an int and
gcd(L, every n) = 1; over Q(i) each n is the coefficient itself, a
GaussianRational (already one Gaussian integer over one denominator), and
L = 1.  So each value has exactly one form, and ``==`` compares one dict and
one int.  Every operation reads and writes that form with one body for both
fields; the field enters only through the numerator helpers of ``fields``.
``terms`` is a read-only {exponent: Fraction or GaussianRational} view,
built on first read and cached, and ``integer_parts()`` gives integer
(re, im) parts over one denominator for either field.
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
    common_denominator,
    integer_parts,
    join_fields,
    lowest_terms,
    numerator,
    numerator_inverse,
    numerator_scalar,
    numerators,
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
    """Immutable sparse polynomial: numerators ``_num`` over the denominator
    ``_den`` in lowest terms (see the module docstring).  ``terms`` is a
    read-only view of the coefficients; do not mutate it."""

    __slots__ = ("vars", "field", "_num", "_den", "_terms", "_hash")

    def __init__(self, vars: Tuple[str, ...], field: str, terms: Dict[Tuple[int, ...], Scalar]):
        """From {exponent: coefficient}, exponents of the length of vars;
        zero coefficients are dropped."""
        nums, den = numerators(terms.values(), field)
        self.vars, self.field, self._terms, self._hash = tuple(vars), field, None, None
        self._num, self._den = {e: n for e, n in zip(terms, nums) if n}, den

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
            terms[exp] = terms[exp] + c if exp in terms else c
        return cls(tuple(vars), field, terms)       # drops the zeros

    @classmethod
    def from_numerators(cls, vars: Sequence[str], field: str, num: dict, den: int) -> "MultiPoly":
        """The nonzero numerators num (ints over Q) over den > 0."""
        return _reduced(tuple(vars), field, num, den)

    @classmethod
    def zero(cls, vars: Sequence[str], field: str = FIELD_Q) -> "MultiPoly":
        return _form(tuple(vars), field, {})

    @classmethod
    def constant(cls, value, vars: Sequence[str], field: str = FIELD_Q) -> "MultiPoly":
        n, den = numerator(value, field)
        return _form(tuple(vars), field, {(0,) * len(vars): n} if n else {}, den)

    @classmethod
    def variable(cls, name: str, vars: Sequence[str], field: str = FIELD_Q) -> "MultiPoly":
        i = tuple(vars).index(name)
        exp = (0,) * i + (1,) + (0,) * (len(vars) - 1 - i)
        return _form(tuple(vars), field, {exp: numerator(1, field)[0]})

    # -- the stored form -----------------------------------------------

    @property
    def terms(self) -> Dict[Tuple[int, ...], Scalar]:
        """{exponent: coefficient}, a read-only view built on first read."""
        if self._terms is None:
            den = self._den
            self._terms = {e: numerator_scalar(n, den) for e, n in self._num.items()}
        return self._terms

    def integer_parts(self) -> Tuple[Dict[Tuple[int, ...], Tuple[int, int]], int]:
        """({exponent: (re, im)}, L): the coefficients as integer real and
        imaginary parts over one denominator L > 0, for either field."""
        if self.field == FIELD_Q:                 # the numerators themselves
            return {e: (n, 0) for e, n in self._num.items()}, self._den
        pairs, L = integer_parts(self._num.values())
        return dict(zip(self._num, pairs)), L

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(sum(e) for e in self._num)

    def degree_in(self, var: str) -> int:
        if not self._num:
            return -1
        i = self.vars.index(var)
        return max(e[i] for e in self._num)

    def uses_var(self, var: str) -> bool:
        if var not in self.vars:
            return False
        i = self.vars.index(var)
        return any(e[i] for e in self._num)

    def sole_var(self) -> Optional[str]:
        """The one variable a univariate polynomial uses: None for a
        constant, ValueError when two or more are in use."""
        used = [v for v in self.vars if self.uses_var(v)]
        if len(used) > 1:
            raise ValueError(f"polynomial uses {len(used)} variables {tuple(used)}, expected one")
        return used[0] if used else None

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._num}
        return len(degrees) <= 1

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._num)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        zero_exp = (0,) * len(self.vars)
        return self.terms.get(zero_exp, to_scalar(0, self.field))

    def leading(self) -> Tuple[Tuple[int, ...], Scalar]:
        """Graded-lex leading (exponent, coefficient)."""
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self._num, key=_grlex_key)
        return exp, numerator_scalar(self._num[exp], self._den)

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
        return a._den == b._den and a._num == b._num

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
        for exp in self._num:
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
        den, sa, sb = common_denominator(a._den, b._den)
        num = _times(a._num, sa)
        _add_into(num, _times(b._num, sb))
        return _reduced(a.vars, a.field, num, den)

    __radd__ = __add__

    def __neg__(self):
        return _form(self.vars, self.field, {e: -n for e, n in self._num.items()}, self._den)

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
            a = self.promote(join_fields(self.field, scalar_field_of(other)))
            (c,), den = numerators((other,), a.field)
            return _reduced(a.vars, a.field, {e: n * c for e, n in a._num.items()}, a._den * den)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = _aligned(self, other)
        return _reduced(a.vars, a.field, _mul_terms(a._num, b._num), a._den * b._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            if not other:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return self * (Fraction(1) / other)
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
        """Canonical form: the numerators over the graded-lex leading one."""
        if not self._num:
            return self
        lead = self._num[max(self._num, key=_grlex_key)]
        if lead == self._den:
            return self
        inv, d = numerator_inverse(lead)
        return _reduced(self.vars, self.field, {e: n * inv for e, n in self._num.items()}, d)

    def proportional_to(self, other: "MultiPoly") -> bool:
        """Equality up to a nonzero scalar."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.monic() == other.monic()

    # -- structure ---------------------------------------------------------

    def homogeneous_part(self, k: int) -> "MultiPoly":
        return _reduced(self.vars, self.field,
                        {e: n for e, n in self._num.items() if sum(e) == k}, self._den)

    def min_degree(self) -> int:
        if not self._num:
            return -1
        return min(sum(e) for e in self._num)

    def derivative(self, var: str) -> "MultiPoly":
        i = self.vars.index(var)
        num = {}
        for exp, n in self._num.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            num[tuple(new)] = n * exp[i]
        return _reduced(self.vars, self.field, num, self._den)

    def conj(self) -> "MultiPoly":
        return _form(self.vars, self.field, {e: scalar_conj(n) for e, n in self._num.items()},
                     self._den)

    # -- variables ----------------------------------------------------------

    def with_vars(self, newvars: Sequence[str]) -> "MultiPoly":
        """Re-embed into another variable tuple; all used variables must survive."""
        newvars = tuple(newvars)
        if newvars == self.vars:
            return self
        pos = {v: i for i, v in enumerate(newvars)}
        n = len(newvars)
        num = {}
        for exp, c in self._num.items():
            new = [0] * n
            for v, e in zip(self.vars, exp):
                if e:
                    if v not in pos:
                        raise ValueError(f"variable {v} in use cannot be dropped")
                    new[pos[v]] = e
            num[tuple(new)] = c
        return _form(newvars, self.field, num, self._den)

    def promote(self, field: str) -> "MultiPoly":
        if field == self.field:
            return self
        return MultiPoly(self.vars, field, self.terms)

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, mapping: Dict[str, "MultiPoly | Scalar | int"]) -> "MultiPoly":
        """Simultaneously replace variables by polynomials or scalars.

        Unreplaced variables map to themselves; the result lives over the
        union of the surviving variables and those of the images.  With
        each image v as N_v / L_v and M_v the largest exponent of v, term
        n_e / L becomes n_e prod L_v**(M_v - e_v) N_v**e_v over L prod L_v**M_v.
        """
        field = self.field
        images: Dict[str, MultiPoly] = {}
        vars_out: Tuple[str, ...] = ()
        for v in self.vars:
            img = mapping.get(v)
            if img is None:
                img = MultiPoly.variable(v, (v,), self.field)
            elif not isinstance(img, MultiPoly):
                img = MultiPoly.constant(img, (), scalar_field_of(img))
            images[v] = img
            field = join_fields(field, img.field)
            vars_out = merge_vars(vars_out, img.vars)
        f = self.promote(field)
        unit = (0,) * len(vars_out)
        images = [images[v].with_vars(vars_out).promote(field) for v in self.vars]
        top = [max((e[k] for e in f._num), default=0) for k in range(len(self.vars))]
        den = f._den
        scales = []                    # (k, [L_k**(M_k - e) for e in 0..M_k]) for L_k > 1
        for k, (img, m) in enumerate(zip(images, top)):
            if img._den != 1:
                den *= img._den ** m
                scales.append((k, [img._den ** (m - e) for e in range(m + 1)]))
        # Cache the powers of each image numerator, as dicts, to keep
        # repeated substitution cheap; every term is added into one dict.
        powers = [[None, img._num] for img in images]
        num: Dict[Tuple[int, ...], object] = {}
        for exp, c in f._num.items():
            for k, row in scales:
                c = c * row[exp[k]]
            term = {unit: c}
            for cache, e in zip(powers, exp):
                if e:
                    while len(cache) <= e:
                        cache.append(_mul_terms(cache[-1], cache[1]))
                    term = _mul_terms(term, cache[e])
            _add_into(num, term)
        return _reduced(vars_out, field, num, den)

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
        num = {}
        for exp, c in self._num.items():
            new = [0] * len(vars_out)
            for v, e in zip(self.vars, exp):
                new[pos[v]] = e
            new[i] = degree - sum(exp)
            num[tuple(new)] = c
        return _form(vars_out, self.field, num, self._den)

    # -- univariate views -----------------------------------------------------

    def coefficients_in(self, var: str) -> List["MultiPoly"]:
        """Coefficient list (ascending) of the polynomial viewed in ``var``,
        entries over the remaining variables."""
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        d = self.degree_in(var)
        coeffs = [dict() for _ in range(d + 1)] if d >= 0 else [dict()]
        for exp, c in self._num.items():
            rexp = tuple(e for j, e in enumerate(exp) if j != i)
            coeffs[exp[i]][rexp] = c
        return [_reduced(rest, self.field, t, self._den) for t in coeffs]


_new = object.__new__


def _form(vars: Tuple[str, ...], field: str, num: dict, den: int = 1) -> MultiPoly:
    """The polynomial with the numerators num over den, in lowest terms."""
    p = _new(MultiPoly)
    p.vars, p.field, p._num, p._den, p._terms, p._hash = vars, field, num, den, None, None
    return p


def _reduced(vars: Tuple[str, ...], field: str, num: dict, den: int) -> MultiPoly:
    """As _form, for numerators and denominator not yet in lowest terms."""
    return _form(vars, field, *lowest_terms(num, den))


def _times(num: dict, s: int) -> dict:
    """A new dict of the numerators times s."""
    return {e: n * s for e, n in num.items()} if s != 1 else dict(num)


def _add_into(terms: dict, other: dict) -> None:
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


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two numerator dicts over the same variables and field."""
    terms = {}
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

    Integers over Q.  The stored forms give f = F/L_f and g = c*G/L_g,
    with F and G the numerators and c the integer content of g's, so F and
    G lie in Z[x] and G is primitive; no coefficient is converted.  Then
    g**k divides f iff G divides F k times, each quotient in Z[x]: if
    an integer F' = H*G with H in Q[x], write H = c(H)*H0 with H0
    primitive; G*H0 is primitive by Gauss's lemma, so c(H) is the content
    of F', an integer.  Graded-lex reduction by one divisor finds the terms
    of an exact quotient in descending order, so each step of an exact
    division is an integer division, and a nonzero r % lc(G) proves that G
    does not divide F'.  The k-th quotient is f / g**k =
    F_k * L_g**k / (L_f * c**k), brought to lowest terms.  Over Q(i) the
    numerators are the ``GaussianRational`` coefficients over 1, and each
    step is the field division.

    Division.  Graded-lex reduction, the remainder kept in one dict with a
    lazy max-heap of its exponents (Johnson 1974): q costs |q|*|g|.
    """
    integral = f.field == FIELD_Q
    F, G = f._num, g._num
    content = gcd(*G.values()) if integral else 1
    if content != 1:
        G = {e: n // content for e, n in G.items()}
    k = 0
    while bound is None or k < bound:
        q = _heap_quotient(F, G, integral)
        if q is None:
            break
        F, k = q, k + 1
    if not k:
        return 0, f
    return k, _reduced(f.vars, f.field, _times(F, g._den ** k), f._den * content ** k)


def _heap_quotient(f: dict, g: dict, integral: bool) -> Optional[dict]:
    """The exact quotient of two numerator dicts, or None; with ``integral`` every
    quotient step must be an exact integer division."""
    g_exp = max(g, key=_grlex_key)
    g_c = g[g_exp]
    g_rest = [(e, c) for e, c in g.items() if e != g_exp]
    rem = dict(f)
    heap = sorted(map(_heap_entry, rem))   # a sorted list is a heap
    q_terms = {}
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
    for exp, c in f._num.items():
        h = d - exp[i]
        rexp = tuple(e for j, e in enumerate(exp) if j != i)
        parts[h][rexp] = c
    return [_reduced(rest, f.field, parts[d - k], f._den) for k in range(d + 1)]
