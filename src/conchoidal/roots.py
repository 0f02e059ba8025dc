"""Root finding in Q and Q(i), formal square roots, binary form factorization.

A univariate polynomial is a MultiPoly that uses at most one variable; the
gcds, squarefree parts, multiplicities and divisions below are those of
``gcd`` and ``multipoly.poly_exact_div``.  Roots in Q and in Q(i) come from
one algorithm, p-adic lifting (Loos 1983) at a prime p = 1 (mod 4), where
both embeddings i -> +s and i -> -s of Q(i) exist (``_lifted_roots``);
each candidate is kept with its exact ``gcd.multiplicity_of_factor``.
Every residue (the lifting prime, the images i -> +-s, the Newton lift and
the recombination) comes from ``modular``, shared with the multivariate gcd.

``solve_zero_dim`` is the one solver for small polynomial systems in two
unknowns (pairwise resultants, then ``common_roots`` on the gcd of the
eliminants, then back-substitution); it reports whether the rational
points it returns are certified to be all the solutions.  The multiple-point
search of ``recognize`` goes through it, and so does the split of a
root-free quartic into two quadratics in ``factor_binary_form``;
``splitting`` needs only ``common_roots`` in one unknown.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import gcd as int_gcd
from typing import List, Optional, Sequence, Tuple

from .errors import InternalError
from .fields import (
    FIELD_Q,
    GaussianRational,
    Scalar,
    im_part,
    positively_oriented,
    re_part,
    sqrt_in_field,
    to_scalar,
)
from .gcd import multiplicity_of_factor, poly_gcd, squarefree_decompose_uni, squarefree_part
from .modular import (
    _scaled, embed, gaussian_primes, horner_mod, lift_root, recombine, squarefree_mod_p,
    symmetric_mod,
)
from .multipoly import MultiPoly, poly_exact_div
from .resultant import sylvester_resultant


def _split_prime(w: List[Tuple[int, int]], signs: Tuple[int, ...]) -> Tuple[int, int]:
    """The first prime p = 1 (mod 4) that does not divide N(w_n) and leaves
    every image of w (i -> sign*s) squarefree mod p, with its s.  A skipped
    prime divides N(w_n) or N(Res(w, w')), both nonzero as w is squarefree.
    Hadamard's bound on the Sylvester matrix gives N(Res(w, w')) <=
    |w|^(2n-2) |w'|^(2n), so the two have at most ``budget`` distinct prime
    factors between them, and running past it is a bug."""
    n = len(w) - 1
    norm = w[n][0] ** 2 + w[n][1] ** 2
    norm2 = sum(a * a + b * b for a, b in w)
    dnorm2 = sum(k * k * (a * a + b * b) for k, (a, b) in enumerate(w))
    budget = norm.bit_length() + (n - 1) * norm2.bit_length() + n * dnorm2.bit_length()
    for p, s in islice(gaussian_primes(1), budget + 1):
        if norm % p and all(squarefree_mod_p(embed(w, sign * s, p), p) for sign in signs):
            return p, s
    raise InternalError(f"no lifting prime among the first {budget + 1} primes p = 1 (mod 4)")


def _lifted_roots(f: MultiPoly, field: str) -> List[Scalar]:
    """Candidate roots in the field (Q or Q(i)) of f, over that field in one
    variable, by p-adic lifting (Loos 1983); the caller drops non-roots.

    No root is missed.  Scale the squarefree part of f to w in Z[i][t] of
    degree n.  A root rho in Q(i) of f is a root of w, and gamma = w_n rho
    is a root of the monic w_n^(n-1) w(t / w_n), so gamma lies in Z[i].  By
    Cauchy's bound, |Re gamma| and |Im gamma| are at most |gamma| <
    |w_n| + max_k<n |w_k| <= B, reading |a + bi| as |a| + |b| in B.  Lift
    s of ``_split_prime`` to s^2 = -1 modulo m = p**(2**j) > 2B, so that
    sigma: i -> s and tau: i -> -s are ring maps Z[i] -> Z/m.  As p does
    not divide N(w_n) = sigma(w_n) tau(w_n), sigma(w_n) is a unit and
    sigma(rho) = sigma(gamma) / sigma(w_n) is a root of sigma(w) mod m;
    modulo p it is a simple root, as sigma(w) is squarefree there, so by
    Hensel's lemma it is the Newton lift r+ of that root.  Likewise
    r- = tau(rho).  Then sigma(w_n) r+ = Re gamma + s Im gamma and
    tau(w_n) r- = Re gamma - s Im gamma (mod m): half their sum and their
    difference over 2s are Re gamma and Im gamma mod m > 2B, so their
    symmetric residues are the integers themselves, and the pair (r+, r-)
    yields rho.  Over Q, w lies in Z[t], one image serves, and Im gamma = 0."""
    q = squarefree_part(f)
    n = q.total_degree()
    scaled = _scaled(q, [0])
    g = int_gcd(*(x for ab in scaled.values() for x in ab))
    w = [tuple(x // g for x in scaled.get((k,), (0, 0))) for k in range(n + 1)]
    bound = abs(w[n][0]) + abs(w[n][1]) + max(abs(a) + abs(b) for a, b in w[:n])
    signs = (1,) if field == FIELD_Q else (1, -1)
    p, s = _split_prime(w, signs)
    m = p
    while m <= 2 * bound:
        m *= m
    s = lift_root([1, 0, 1], s, p, m)
    gammas = []      # sigma(gamma) = sigma(w_n) r+, then tau(gamma) = tau(w_n) r-
    for sign in signs:
        image = embed(w, sign * s, m)
        gammas.append([image[n] * lift_root(image, r, p, m) % m
                       for r in range(p) if not horner_mod(image, r, p)])
    pairs = ([(x, 0) for x in gammas[0]] if field == FIELD_Q
             else [recombine(x, y, s, m) for x in gammas[0] for y in gammas[1]])
    pairs = [(symmetric_mod(re, m), symmetric_mod(im, m)) for re, im in pairs]
    lead = GaussianRational(*w[n])
    return [to_scalar(GaussianRational(re, im) / lead, field)
            for re, im in pairs if abs(re) <= bound and abs(im) <= bound]


def _dense(f: MultiPoly) -> List[Scalar]:
    """Ascending coefficients of f in its one variable f.vars[0]."""
    return [c.constant_value() for c in f.coefficients_in(f.vars[0])]


def rational_roots(f: MultiPoly, field: str = None) -> List[Tuple[Scalar, int]]:
    """All roots of f, a polynomial in one variable, lying in the field (by
    default that of f), as (root, multiplicity), sorted by real then
    imaginary part.  ValueError for two or more variables, or for f with
    non-real coefficients and the field Q."""
    if f.is_zero():
        raise ValueError("root finding on the zero polynomial")
    var = f.sole_var()
    if var is None:
        return []
    field = field or f.field
    f = f.with_vars((var,)).promote(field)
    t = MultiPoly.variable(var, (var,), field)
    k, f = multiplicity_of_factor(f, t)
    out = [(to_scalar(0, field), k)] if k else []
    if not f.is_constant():
        for cand in _lifted_roots(f, field):
            mult, f = multiplicity_of_factor(f, t - cand)
            if mult:
                out.append((cand, mult))
    return sorted(out, key=lambda rm: (re_part(rm[0]), im_part(rm[0])))


# -- zero-dimensional systems ----------------------------------------------


def common_roots(polys: Sequence[MultiPoly]) -> Tuple[List[Scalar], bool]:
    """Common roots in their field of one or more nonzero polynomials in one
    variable, found on their gcd.  The flag is True when the root
    multiplicities add up to the gcd's degree, i.e. no common root over the
    algebraic closure was missed."""
    g: Optional[MultiPoly] = None
    for p in polys:
        g = p if g is None else poly_gcd(g, p)
        if g.is_constant():
            return [], True
    roots = rational_roots(g)
    return [r for r, _ in roots], sum(m for _, m in roots) == g.total_degree()


def solve_zero_dim(eqs: Sequence[MultiPoly]
                   ) -> Optional[Tuple[List[Tuple[Scalar, Scalar]], bool]]:
    """Common solutions in their field of polynomials in (u, v), as
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
    uroots, complete = common_roots(upolys)
    points: List[Tuple[Scalar, Scalar]] = []
    for u0 in uroots:
        restricted = [e.partial_eval({"u": u0}) for e in eqs]
        if any(e.is_constant() and not e.is_zero() for e in restricted):
            continue
        vpolys = [e for e in restricted if not e.is_zero()]
        if not vpolys:
            points.append((u0, to_scalar(0, eqs[0].field)))
            complete = False
            continue
        vroots, vcomplete = common_roots(vpolys)
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
    two monic quadratics over the field, if possible.

    With c = r3 - a and e = r2 - b - a*c, (t^2 + a t + b)(t^2 + c t + e)
    matches p in t^3 and t^2; its t and t^0 coefficients give two equations
    in (u, v) = (a, b), solved by ``solve_zero_dim``.  The system is
    zero-dimensional: each solution over the algebraic closure makes
    t^2 + a t + b a monic divisor of p, of which there are at most six,
    while a zero resultant in v would mean a common factor of positive
    v-degree and a curve of solutions.  So the eliminant is nonzero (for
    any r0; here r0 != 0, as 0 is not a root) and None is a bug.  A
    squarefree root-free p has at most one split: the root pairs of two
    splits would share exactly one root, fixed by every automorphism and
    so in the field.  The points are thus (a, b) and (c, e), sorted; the
    first a is taken, and the larger b when a = c."""
    r0, r1, r2, r3, _ = _dense(p)
    u = MultiPoly.variable("u", ("u", "v"), p.field)
    v = MultiPoly.variable("v", ("u", "v"), p.field)
    e = r2 - v - u * (r3 - u)
    solved = solve_zero_dim([u * e + v * (r3 - u) - r1, v * e - r0])
    if solved is None:
        raise InternalError("the quartic split system has no nonzero eliminant")
    points = solved[0]
    if not points:
        return None
    a0, b0 = [pt for pt in points if pt[0] == points[0][0]][-1]
    t = MultiPoly.variable(p.vars[0], p.vars, p.field)
    return t * t + t * a0 + b0, t * t + t * (r3 - a0) + (r2 - b0 - a0 * (r3 - a0))


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
    p = form.partial_eval({yv: Fraction(1)}).with_vars((xv,))
    factors: List[Tuple[MultiPoly, int]] = []
    y_mult = form.total_degree() - p.total_degree()
    if y_mult:
        factors.append((MultiPoly.variable(yv, vars, form.field), y_mult))
    for sq, mult in squarefree_decompose_uni(p):
        for piece in _factor_squarefree_uni(sq):
            factors.append((piece.homogenize(yv).with_vars(vars), mult))
    return p.lc(), factors


def _factor_squarefree_uni(p: MultiPoly) -> List[MultiPoly]:
    out: List[MultiPoly] = []
    t = MultiPoly.variable(p.vars[0], p.vars, p.field)
    for r, _ in rational_roots(p):
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
