"""Sparse multivariate and dense univariate polynomials over Q and Q(i).

MultiPoly is the universal carrier of curve equations: a map from exponent
vectors to nonzero scalars, tagged with an ordered variable tuple and a
coefficient field.  The monomial order everywhere is graded lexicographic
(total degree first, earlier variables heavier), which fixes leading
coefficients, canonical "monic" forms and the serialization order.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import NotHomogeneousError
from .fields import (
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    Scalar,
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
        for exp, c in b.terms.items():
            s = terms.get(exp)
            if s is None:
                terms[exp] = c
            else:
                s = s + c
                if s:
                    terms[exp] = s
                else:
                    del terms[exp]
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
        terms: Dict[Tuple[int, ...], Scalar] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                exp = tuple(i + j for i, j in zip(e1, e2))
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
        return MultiPoly(a.vars, a.field, terms)

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
        result = MultiPoly.zero(vars_out, field)
        one = MultiPoly.constant(1, vars_out, field)
        # Cache powers of each image to keep repeated substitution cheap.
        powers: Dict[str, List[MultiPoly]] = {v: [one] for v in self.vars}
        for exp, c in self.terms.items():
            term = one * c
            for v, e in zip(self.vars, exp):
                if not e:
                    continue
                cache = powers[v]
                while len(cache) <= e:
                    cache.append(cache[-1] * images[v].with_vars(vars_out).promote(field)
                                 if len(cache) == 1 else cache[-1] * cache[1])
                term = term * cache[e]
            result = result + term
        return result

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

    def as_unipoly(self, var: str) -> "UniPoly":
        """Dense view in ``var``; all other variables must be unused."""
        for v in self.vars:
            if v != var and self.uses_var(v):
                raise ValueError(f"polynomial still uses {v}")
        i = self.vars.index(var) if var in self.vars else None
        d = self.degree_in(var) if i is not None else 0
        coeffs = [to_scalar(0, self.field)] * (d + 1)
        for exp, c in self.terms.items():
            coeffs[exp[i] if i is not None else 0] = c
        return UniPoly(coeffs, self.field)


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

    Misses.  With p and s the first gcd prime of ``modular`` and its square
    root of -1, keep the variable in which g has the largest degree, set
    the others to fixed points and reduce modulo p (i -> s over Q(i)) to
    f_L and g_L in F_p[t].  Suppose no denominator is divisible by p and
    g_L is nonconstant.  Then f and g lie over the discrete valuation ring
    R = Z localized at p (Z[i] at (p, i - s)), and g is nonzero modulo p,
    so its content is a unit.  If f = q*g, Gauss's lemma over R puts q in
    R[x], so f_L = q_L*g_L: a nonzero remainder of f_L by g_L certifies
    that g does not divide f.  Otherwise (a p in a denominator, a constant
    or zero g_L, a zero remainder) the division decides.

    Division.  Graded-lex reduction, the remainder kept in one dict with a
    lazy max-heap of its exponents (Johnson 1974): q costs |q|*|g|.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f, g = _aligned(f, g)
    if f.is_zero():
        return f
    from .modular import line_image_misses   # modular imports this module
    if line_image_misses(f, g):
        return None
    g_exp, g_c = g.leading()
    g_rest = [(e, c) for e, c in g.terms.items() if e != g_exp]
    rem = dict(f.terms)
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
        c = q_terms[diff] = r_c / g_c
        for e, gc in g_rest:
            exp = tuple([a + b for a, b in zip(diff, e)])
            t, old = c * gc, rem.pop(exp, None)
            if old is None:
                rem[exp] = -t
                heappush(heap, _heap_entry(exp))
            elif old != t:
                rem[exp] = old - t
    return MultiPoly(f.vars, f.field, {e: to_scalar(c, f.field) for e, c in q_terms.items()})


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


# -- dense univariate polynomials ---------------------------------------------


class UniPoly:
    """Dense univariate polynomial: coefficient list, ascending degree."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs: Iterable[Scalar], field: str = FIELD_Q):
        cs = [to_scalar(c, field) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs
        self.field = field

    @classmethod
    def zero(cls, field: str = FIELD_Q) -> "UniPoly":
        return cls([], field)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def lc(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self):
        return f"UniPoly({self.coeffs!r})"

    def _join(self, other: "UniPoly") -> str:
        return join_fields(self.field, other.field)

    def __add__(self, other):
        field = self._join(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)], field)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.field)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return UniPoly([c * other for c in self.coeffs],
                           join_fields(self.field, scalar_field_of(other)))
        field = self._join(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(field)
        out = [to_scalar(0, field)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out, field)

    __rmul__ = __mul__

    def divmod(self, other: "UniPoly") -> Tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("univariate division by zero")
        field = self._join(other)
        rem = [to_scalar(c, field) for c in self.coeffs]
        q = [to_scalar(0, field)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlc = other.lc()
        dd = other.degree()
        while len(rem) - 1 >= dd and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            c = rem[-1] / dlc
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * b
            rem.pop()
        return UniPoly(q, field), UniPoly(rem, field)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.lc()
        return UniPoly([c / lead for c in self.coeffs], self.field)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def derivative(self) -> "UniPoly":
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:], self.field)

    def eval(self, x: Scalar) -> Scalar:
        total = to_scalar(0, join_fields(self.field, scalar_field_of(x)))
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def deflate_root(self, r: Scalar) -> Optional["UniPoly"]:
        """Divide by (t - r) if r is a root, else None."""
        q, rem = self.divmod(UniPoly([-r, 1], join_fields(self.field, scalar_field_of(r))))
        return q if rem.is_zero() else None

    def to_multipoly(self, var: str) -> MultiPoly:
        return MultiPoly.make((var,), self.field, {(i,): c for i, c in enumerate(self.coeffs)})
