"""The subresultant PRS gcd, kept as the tests' independent oracle for
``poly_gcd``.

Recursive over k[x][y][z]...: pick a main variable, split content and
primitive part (contents are gcds in fewer variables), and run the
subresultant remainder sequence on the primitive parts.  In one variable
it runs Euclid's algorithm over the coefficient field.  Exact and
deterministic, but its intermediate coefficients swell; the library uses
the modular gcd instead.
"""

from __future__ import annotations

from typing import List, Optional

from conchoidal.errors import InternalError
from conchoidal.multipoly import MultiPoly, poly_exact_div


def prs_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic-normalized gcd of two polynomials, not both zero."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    return _gcd(f, g).monic()


def _coeff_list(f: MultiPoly, var: str) -> List[MultiPoly]:
    return f.coefficients_in(var)


def _from_coeffs(coeffs: List[MultiPoly], var: str, vars, field) -> MultiPoly:
    out = MultiPoly.zero(vars, field)
    v = MultiPoly.variable(var, vars, field)
    for k in range(len(coeffs) - 1, -1, -1):
        out = out * v + coeffs[k].with_vars(vars).promote(field)
    return out


def _trim(coeffs: List[MultiPoly]) -> List[MultiPoly]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _pseudo_rem(a: List[MultiPoly], b: List[MultiPoly]) -> List[MultiPoly]:
    """Pseudo-remainder of coefficient lists in the main variable:
    lc(b)**(da-db+1) * a = q*b + r."""
    a = _trim(list(a))
    da, db = len(a) - 1, len(b) - 1
    lcb = b[-1]
    e = da - db + 1
    while a and len(a) - 1 >= db:
        lca = a[-1]
        shift = len(a) - 1 - db
        a = [c * lcb for c in a[:-1]]
        for i in range(db):
            a[shift + i] = a[shift + i] - lca * b[i]
        a = _trim(a)
        e -= 1
    if e > 0 and a:
        scale = lcb ** e
        a = [c * scale for c in a]
    return a


def _gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    if f.is_constant() or g.is_constant():
        return MultiPoly.constant(1, f.vars, f.field)
    combined = f + g  # aligns vars/field
    vars, field = combined.vars, combined.field
    f = f.with_vars(vars).promote(field)
    g = g.with_vars(vars).promote(field)
    active = [v for v in vars if f.uses_var(v) or g.uses_var(v)]
    if not active:
        return MultiPoly.constant(1, vars, field)
    var = active[-1]
    if len(active) == 1:
        return _field_euclid(f, g, var).monic()
    if not f.uses_var(var):
        # gcd divides every coefficient of g in var
        return _content(_coeff_list(g, var), f)
    if not g.uses_var(var):
        return _content(_coeff_list(f, var), g)

    fc = _coeff_list(f, var)
    gc = _coeff_list(g, var)
    cont_f = _content(fc)
    cont_g = _content(gc)
    pf = [_exact(c, cont_f) for c in fc]
    pg = [_exact(c, cont_g) for c in gc]
    cont = _gcd(cont_f, cont_g)

    a, b = (pf, pg) if len(pf) >= len(pg) else (pg, pf)
    one = MultiPoly.constant(1, cont.vars, cont.field)
    gcoef, h = one, one
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        r = _pseudo_rem(a, b)
        if not r:
            pp = _primitive(b)
            break
        if len(r) - 1 == 0:
            pp = [one]
            break
        divisor = gcoef * h ** delta
        a, b = b, [_exact(c, divisor) for c in r]
        gcoef = a[-1]
        if delta > 0:
            h = _exact_pow_quot(gcoef, delta, h)
        # delta == 0 leaves h unchanged
    rest_vars = tuple(v for v in vars if v != var)
    pp_poly = _from_coeffs([c.with_vars(rest_vars) for c in pp], var, vars, field)
    return cont.with_vars(vars) * pp_poly


def _field_euclid(a: MultiPoly, b: MultiPoly, var: str) -> MultiPoly:
    """The univariate base case: Euclid's algorithm over the coefficient
    field on a, b (same variables and field) that use only var."""
    x = MultiPoly.variable(var, a.vars, a.field)
    while not b.is_zero():
        db = b.degree_in(var)
        while not a.is_zero() and a.degree_in(var) >= db:
            a = a - b * x ** (a.degree_in(var) - db) * (a.lc() / b.lc())
        a, b = b, a
    return a


def _exact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    q = poly_exact_div(f, g)
    if q is None:
        raise InternalError("expected exact division in subresultant PRS")
    return q


def _exact_pow_quot(g: MultiPoly, delta: int, h: MultiPoly) -> MultiPoly:
    """h_new = g**delta / h**(delta-1), exact by the subresultant theory."""
    num = g ** delta
    if delta == 1:
        return num
    return _exact(num, h ** (delta - 1))


def _content(coeffs: List[MultiPoly], extra: Optional[MultiPoly] = None) -> MultiPoly:
    items = [c for c in coeffs if not c.is_zero()]
    if extra is not None and not extra.is_zero():
        items.append(extra)
    acc = items[0]
    for c in items[1:]:
        if acc.is_constant():
            break
        acc = _gcd(acc, c)
    return acc.monic()


def _primitive(coeffs: List[MultiPoly]) -> List[MultiPoly]:
    cont = _content(coeffs)
    return [_exact(c, cont) for c in coeffs]
