"""Root finding in Q and Q(i), formal square roots, binary form factorization.

A univariate polynomial is a MultiPoly that uses at most one variable; the
gcds, squarefree parts, multiplicities and divisions below are those of
``gcd`` and ``multipoly.poly_exact_div``.  Rational roots over Q come from
one algorithm, p-adic lifting (Loos 1983): the roots of the squarefree part
modulo a small prime are Newton-lifted, rationally reconstructed, and each
candidate's multiplicity is ``gcd.multiplicity_of_factor`` of t - r.  Over
Q(i) the unknown is split as t = u + i*v, the real/imaginary parts give a
bivariate rational system that is reduced to Q by a resultant and then
verified exactly.  The modular helpers (reduction mod p, the monic gcd mod
p, Horner evaluation, rational reconstruction and the prime search) live
in ``modular``, shared with the multivariate gcd.

``solve_zero_dim`` is the one solver for small polynomial systems in two
unknowns (pairwise resultants, then ``common_roots`` on the gcd of the
eliminants, then back-substitution); it reports whether the rational
points it returns are certified to be all the solutions.  The Q(i) root
finder and the circle-case questions in ``splitting`` and ``recognize``
all go through it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd as int_gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .errors import InternalError
from .fields import (
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    Scalar,
    as_fraction,
    fraction_sqrt,
    im_part,
    positively_oriented,
    re_part,
    sqrt_in_field,
    to_scalar,
)
from .gcd import multiplicity_of_factor, poly_gcd, squarefree_decompose_uni, squarefree_part
from .modular import horner_mod, int_poly_mod, next_prime, poly_gcd_mod_p, rat_reconstruct
from .multipoly import MultiPoly, poly_exact_div
from .resultant import sylvester_resultant

UV = ("u", "v")


def _deriv_int(coeffs: List[int]) -> List[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _int_content_strip(coeffs: List[int]) -> List[int]:
    g = 0
    for c in coeffs:
        g = int_gcd(g, abs(c))
    return [c // g for c in coeffs] if g > 1 else coeffs


def _roots_mod_p(coeffs: List[int], p: int) -> List[int]:
    cp = int_poly_mod(coeffs, p)
    return [r for r in range(p) if not horner_mod(cp, r, p)]


def _lift_root(coeffs: List[int], r: int, p: int, target: int) -> Tuple[int, int]:
    """Newton-lift a root r of f mod p with f'(r) a unit mod p to a root
    mod m = p**(2**j) >= target; returns (root, m)."""
    dcoeffs = _deriv_int(coeffs)
    modulus = p
    while modulus < target:
        modulus = modulus * modulus
        fr = horner_mod(coeffs, r, modulus)
        dr = horner_mod(dcoeffs, r, modulus)
        r = (r - fr * pow(dr, -1, modulus)) % modulus
    return r, modulus


def _lifted_roots(f: MultiPoly) -> List[Fraction]:
    """Candidate rational roots of f over Q in one variable with a nonzero
    constant term, by p-adic lifting (Loos 1983).  A root a/b in lowest
    terms of the primitive integer squarefree part w has |a| <= |w_0| and
    b <= |w_n|.  Modulo the first odd prime dividing neither w_n nor
    disc(w) it is a simple root, and its Newton lift to a modulus above
    2 |w_0 w_n| gives a/b back by rational reconstruction.  The caller
    discards the candidates that are not roots."""
    q = _dense(squarefree_part(f))
    den = lcm(*(c.denominator for c in q))
    w = _int_content_strip([int(c * den) for c in q])
    a0, an = abs(w[0]), abs(w[-1])
    p = 3
    while not an % p or len(poly_gcd_mod_p(int_poly_mod(w, p),
                                           int_poly_mod(_deriv_int(w), p), p)) > 1:
        p = next_prime(p)
    found: List[Fraction] = []
    for r in _roots_mod_p(w, p):
        cand = rat_reconstruct(*_lift_root(w, r, p, 2 * a0 * an + 1), a0, an)
        if cand is not None:
            found.append(cand)
    return found


def _dense(f: MultiPoly) -> List[Scalar]:
    """Ascending coefficients of f in its one variable f.vars[0]."""
    return [c.constant_value() for c in f.coefficients_in(f.vars[0])]


def _rational_roots_q(f: MultiPoly) -> List[Tuple[Fraction, int]]:
    t = MultiPoly.variable(f.vars[0], f.vars, f.field)
    k, f = multiplicity_of_factor(f, t)
    out = [(Fraction(0), k)] if k else []
    if f.is_constant():
        return out
    fracs = {e: as_fraction(c) for e, c in f.terms.items()}
    if None in fracs.values():
        raise ValueError("polynomial has non-rational coefficients")
    f = MultiPoly(f.vars, FIELD_Q, fracs)
    t = t.promote(FIELD_Q)
    for cand in _lifted_roots(f):
        mult, f = multiplicity_of_factor(f, t - cand)
        if mult:
            out.append((cand, mult))
    return sorted(out)


def _re_im_split(f: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """f(u + i v) = A(u,v) + i B(u,v) with A, B over Q."""
    s = MultiPoly.make(UV, FIELD_QI, {(1, 0): 1, (0, 1): GaussianRational(0, 1)})
    acc = f.substitute({f.vars[0]: s}).with_vars(UV)
    a_terms, b_terms = {}, {}
    for exp, c in acc.terms.items():
        r, m = re_part(c), im_part(c)
        if r:
            a_terms[exp] = r
        if m:
            b_terms[exp] = m
    return MultiPoly(UV, FIELD_Q, a_terms), MultiPoly(UV, FIELD_Q, b_terms)


def _rational_roots_qi(f: MultiPoly) -> List[Tuple[GaussianRational, int]]:
    t = MultiPoly.variable(f.vars[0], f.vars, FIELD_QI)
    k, f = multiplicity_of_factor(f, t)
    out = [(GaussianRational(0), k)] if k else []
    if f.total_degree() < 1:
        return _sorted_qi(out)
    if f.total_degree() == 1:
        c0, c1 = _dense(f)
        out.append((to_scalar(-c0 / c1, FIELD_QI), 1))
        return _sorted_qi(out)
    seen = set()

    def record(root: GaussianRational):
        key = (root.re, root.im)
        if key in seen:
            return
        mult, _ = multiplicity_of_factor(f, t - root)
        if mult:
            seen.add(key)
            out.append((root, mult))

    A, B = _re_im_split(f)
    fracs = {e: as_fraction(c) for e, c in f.terms.items()}
    if None not in fracs.values():
        # real roots directly; a nonreal root u + iv has w = v^2 > 0, and
        # A = A_w(u, v^2), B = v B_w(u, v^2) because A is even in v and B odd
        for r, m in _rational_roots_q(MultiPoly(f.vars, FIELD_Q, fracs)):
            out.append((GaussianRational(r), m))
        Aw = MultiPoly(UV, FIELD_Q, {(a, b // 2): c for (a, b), c in A.terms.items()})
        Bw = MultiPoly(UV, FIELD_Q, {(a, b // 2): c for (a, b), c in B.terms.items()})
        for u0, w0 in _rational_zeros_uv(Aw, Bw):
            if w0 <= 0:
                continue
            v0 = fraction_sqrt(w0)
            if v0 is None:
                continue
            record(GaussianRational(u0, v0))
            record(GaussianRational(u0, -v0))
        return _sorted_qi(out)

    for u0, v0 in _rational_zeros_uv(A, B):
        record(GaussianRational(u0, v0))
    return _sorted_qi(out)


def _rational_zeros_uv(A: MultiPoly, B: MultiPoly) -> List[Tuple[Fraction, Fraction]]:
    """Common rational zeros of two polynomials over Q in (u, v)."""
    solved = solve_zero_dim([A, B], FIELD_Q)
    if solved is None:
        raise InternalError("resultant of the zero-split parts vanished")
    return solved[0]


def _sorted_qi(items):
    return sorted(items, key=lambda rm: (re_part(rm[0]), im_part(rm[0])))


def rational_roots(f: MultiPoly, field: str = None) -> List[Tuple[Scalar, int]]:
    """All roots of f, a polynomial in one variable, lying in the active
    field, as (root, multiplicity).  ValueError for two or more variables."""
    if f.is_zero():
        raise ValueError("root finding on the zero polynomial")
    var = f.sole_var()
    if var is None:
        return []
    f = f.with_vars((var,))
    if field is None:
        field = f.field
    if field == FIELD_Q:
        return _rational_roots_q(f)
    return _rational_roots_qi(f.promote(FIELD_QI))


# -- zero-dimensional systems ----------------------------------------------


def common_roots(polys: Sequence[MultiPoly], field: str) -> Tuple[List[Scalar], bool]:
    """Common roots in the field of one or more nonzero polynomials in one
    variable, found on their gcd.  The flag is True when the root
    multiplicities add up to the gcd's degree, i.e. no common root over the
    algebraic closure was missed."""
    g: Optional[MultiPoly] = None
    for p in polys:
        g = p if g is None else poly_gcd(g, p)
        if g.is_constant():
            return [], True
    roots = rational_roots(g, field)
    return [r for r, _ in roots], sum(m for _, m in roots) == g.total_degree()


def solve_zero_dim(eqs: Sequence[MultiPoly], field: str
                   ) -> Optional[Tuple[List[Tuple[Scalar, Scalar]], bool]]:
    """Common solutions in the field of polynomials in (u, v), as
    (points, complete).  v is eliminated by pairwise resultants (vanishing
    ones skipped), u is solved on their gcd together with the v-free
    equations, and v by back-substitution.  complete is True when no
    solution over the algebraic closure was missed; a line u = u0 on which
    every equation vanishes gives the point (u0, 0) and clears it.  None
    when no nonzero eliminant exists (the solution set may be a curve)."""
    eqs = [e for e in eqs if not e.is_zero()]
    if any(e.is_constant() for e in eqs):
        return [], True
    upolys = [e for e in eqs if not e.uses_var("v")]
    for e1, e2 in combinations([e for e in eqs if e.uses_var("v")], 2):
        r = sylvester_resultant(e1, e2, "v")
        if r.is_zero():
            continue
        if r.is_constant():
            return [], True
        upolys.append(r)
    if not upolys:
        return None
    uroots, complete = common_roots(upolys, field)
    points: List[Tuple[Scalar, Scalar]] = []
    for u0 in uroots:
        restricted = [e.partial_eval({"u": u0}) for e in eqs]
        if any(e.is_constant() and not e.is_zero() for e in restricted):
            continue
        vpolys = [e for e in restricted if not e.is_zero()]
        if not vpolys:
            points.append((u0, to_scalar(0, field)))
            complete = False
            continue
        vroots, vcomplete = common_roots(vpolys, field)
        complete = complete and vcomplete
        points.extend((u0, v0) for v0 in vroots)
    return points, complete


# -- formal square roots -----------------------------------------------------


def formal_square_root(f: MultiPoly) -> Optional[MultiPoly]:
    """g with g*g == f exactly, or None.  Sign convention: the graded-lex
    leading coefficient of g has positive real part, ties broken by
    positive imaginary part."""
    if f.is_zero():
        raise ValueError("square root of the zero polynomial")
    lexp, lcoef = f.leading()
    if any(e % 2 for e in lexp):
        return None
    root_lc = sqrt_in_field(lcoef, f.field)
    if root_lc is None:
        return None
    half = tuple(e // 2 for e in lexp)
    g = MultiPoly.make(f.vars, f.field, {half: root_lc})
    lead2 = g * 2
    rem = f - g * g
    while rem.terms:
        rexp, rcoef = rem.leading()
        diff = tuple(a - b for a, b in zip(rexp, half))
        if any(d < 0 for d in diff):
            return None
        t = MultiPoly.make(f.vars, f.field, {diff: rcoef / (2 * root_lc)})
        rem = rem - lead2 * t - t * t
        g = g + t
        lead2 = lead2 + t * 2
    if not positively_oriented(g.lc()):
        g = -g
    return g


def square_root_up_to_scalar(f: MultiPoly) -> Optional[Tuple[Scalar, MultiPoly]]:
    """(c, g) with f = c * g**2 and g monic, or None when no such pair exists
    over the algebraic closure (the monic square root is field-rational
    whenever f is proportional to a square)."""
    if f.is_zero():
        return None
    c = f.lc()
    g = formal_square_root(f / c)
    if g is None:
        return None
    return c, g.monic()


# -- binary form factorization ------------------------------------------------


def _quartic_quadratic_split(p: MultiPoly) -> Optional[Tuple[MultiPoly, MultiPoly]]:
    """Split a monic quartic in one variable with no roots in the field into
    two monic quadratics over the field, if possible."""
    r0, r1, r2, r3, _ = _dense(p)
    field = p.field
    # (t^2 + a t + b)(t^2 + c t + e); eliminate down to a univariate in a.
    a_var = MultiPoly.variable("w", ("w",), field)
    one = MultiPoly.constant(1, ("w",), field)
    c_of_a = one * r3 - a_var
    s_of_a = one * r2 - a_var * c_of_a                      # b + e
    num_b = one * r1 - a_var * s_of_a                        # b*(c-a) = r1 - a*S
    den = c_of_a - a_var                                     # c - a
    # b = num_b/den, e = S - b; condition b*e = r0:
    # num_b*(S*den - num_b) = r0*den^2
    cond = num_b * (s_of_a * den - num_b) - one * r0 * den * den
    candidates = []
    if not cond.is_zero():
        candidates = [r for r, _ in rational_roots(cond, field)]
    # the symmetric case c == a needs separate handling
    half_r3 = to_scalar(r3, field) / 2
    candidates.append(half_r3)
    t = MultiPoly.variable(p.vars[0], p.vars, field)
    for a0 in candidates:
        c0 = r3 - a0
        if c0 != a0:
            S = r2 - a0 * c0
            b0 = (r1 - a0 * S) / (c0 - a0)
            e0 = S - b0
            if b0 * e0 == r0:
                return t * t + t * a0 + b0, t * t + t * c0 + e0
        else:
            # b + e = r2 - a0**2, a0*(b + e) = r1 must hold, b*e = r0
            S = r2 - a0 * a0
            if a0 * S != r1:
                continue
            # b, e roots of T^2 - S T + r0
            disc = S * S - 4 * r0
            root = sqrt_in_field(disc, field)
            if root is None:
                continue
            b0 = (S + root) / 2
            e0 = S - b0
            return t * t + t * a0 + b0, t * t + t * c0 + e0
    return None


def factor_binary_form(form: MultiPoly) -> Tuple[Scalar, List[Tuple[MultiPoly, int]]]:
    """Factor a homogeneous binary form in (x, y) into irreducible-over-the-
    field monic factors with multiplicities, times a unit.

    Complete through residual degree 4; a residual of degree >= 5 with no
    roots in the field is returned as a single block.
    """
    vars = form.vars
    if form.is_zero() or not form.is_homogeneous():
        raise ValueError("expected a nonzero homogeneous binary form")
    if len(vars) != 2:
        raise ValueError(f"binary form must be declared over two variables, got {vars}")
    xv, yv = vars
    field = form.field
    p = form.partial_eval({yv: Fraction(1)}).with_vars((xv,))
    factors: List[Tuple[MultiPoly, int]] = []
    y_mult = form.total_degree() - p.total_degree()
    if y_mult:
        factors.append((MultiPoly.variable(yv, vars, field), y_mult))
    for sq, mult in squarefree_decompose_uni(p):
        for piece in _factor_squarefree_uni(sq, field):
            factors.append((piece.homogenize(yv).with_vars(vars), mult))
    return p.lc(), factors


def _factor_squarefree_uni(p: MultiPoly, field: str) -> List[MultiPoly]:
    out: List[MultiPoly] = []
    t = MultiPoly.variable(p.vars[0], p.vars, field)
    for r, _ in rational_roots(p, field):
        out.append(t - r)
        p = poly_exact_div(p, t - r)
    if p.total_degree() == 0:
        return out
    if p.total_degree() == 4:
        split = _quartic_quadratic_split(p.monic())
        if split is not None:
            out.extend(split)
            return out
    # degree 1 is a root; 2 and 3 without roots are irreducible
    out.append(p.monic())
    return out
