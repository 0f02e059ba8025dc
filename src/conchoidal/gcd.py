"""Polynomial gcd and squarefree machinery, in any number of variables.

The univariate work of the engine (rational roots, binary forms, the
circle-case conditions) runs on MultiPolys in one variable through the same
functions: ``poly_gcd``, ``squarefree_part``, ``multiplicity_of_factor``,
and ``squarefree_decompose_uni`` (Yun's algorithm on ``poly_gcd`` and
``multipoly.poly_exact_div``).  ``derivative_gcd``, the gcd of f and all
its partials, is the one repeated-factor detector: ``squarefree_part`` and
``is_squarefree`` read it, and so does the double-component search of
``recognize``.

``poly_gcd`` runs Brown's dense modular algorithm (``modular.modular_gcd``)
on inputs over Q and Q(i) in any variables, homogeneous or not, and
returns the gcd made monic.  A modular image only proposes an answer; two
certificates make it exact.

Degree 0.  Let G be the true gcd, scaled into Z[x] or Z[i][x], and let p
(with an embedding of Z[i] for Q(i)) keep the lex-leading coefficients of
both inputs.  G divides both, so its lex-leading coefficient divides
theirs and survives modulo p too; the image of G then divides both
images with its lex-leading monomial intact, so the modular gcd has a
lex-leading monomial at least that of G.  The same holds at every
evaluation point that keeps gamma, the gcd of the leading coefficients.
An image of degree 0 therefore certifies a constant gcd, with no
division.  This is the common case: coprime pairs, such as a squarefree
curve and a partial derivative, end after one image.

Division.  A nonconstant candidate G' is rebuilt from the images that
share the least lex-leading monomial seen, by CRT and rational
reconstruction, once two successive reconstructions agree.  If G' divides
both inputs exactly, it divides G; and its lex-leading monomial, that of
every image used, is at least G's.  So G' and G differ by a scalar.
Otherwise more primes are taken.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .modular import line_multiplicity, modular_gcd
from .multipoly import MultiPoly, _aligned, divide_out, poly_exact_div


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic-normalized gcd of maximal degree; exact-divides both inputs."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero polynomials")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    return modular_gcd(f, g).monic()


def derivative_gcd(f: MultiPoly) -> MultiPoly:
    """gcd of f and its partial derivatives, stopping at the first constant
    gcd: a factor free of one variable is caught by the derivative in
    another."""
    g = f
    for v in f.vars:
        if not f.uses_var(v):
            continue
        g = poly_gcd(g, f.derivative(v))
        if g.is_constant():
            break
    return g


def squarefree_part(f: MultiPoly) -> MultiPoly:
    """f divided by gcd(f, all partial derivatives): each irreducible factor
    retained once (char 0)."""
    if f.is_zero():
        raise ValueError("squarefree part of zero")
    if f.is_constant():
        return MultiPoly.constant(1, f.vars, f.field)
    return poly_exact_div(f, derivative_gcd(f)).monic()


def is_squarefree(f: MultiPoly) -> bool:
    """True iff gcd(f, all partial derivatives) is constant (char 0)."""
    return derivative_gcd(f).is_constant()


def squarefree_decompose_uni(f: MultiPoly) -> List[Tuple[MultiPoly, int]]:
    """Yun's algorithm on f in at most one variable: monic f = prod a_i**i
    with a_i monic, squarefree and pairwise coprime; returns the
    nonconstant (a_i, i)."""
    var = f.sole_var()
    if var is None:
        return []
    f = f.monic()
    df = f.derivative(var)
    a = poly_gcd(f, df)
    b, c = poly_exact_div(f, a), poly_exact_div(df, a)
    out: List[Tuple[MultiPoly, int]] = []
    i = 1
    while not b.is_constant():
        d = c - b.derivative(var)
        a = poly_gcd(b, d)
        if not a.is_constant():
            out.append((a, i))
        b, c = poly_exact_div(b, a), poly_exact_div(d, a)
        i += 1
    return out


def multiplicity_of_factor(f: MultiPoly, p: MultiPoly, images: Optional[dict] = None
                           ) -> Tuple[int, MultiPoly]:
    """Largest k with p**k | f; returns (k, f / p**k), and f itself when k = 0.
    ``images`` keeps the line images of this f between calls with other p
    (``modular.line_multiplicity``).

    Bound.  Let f_L and p_L be the images of f and p on the line of
    ``modular.line_multiplicity``: every variable but one set to a fixed
    point, modulo the prime P (i -> s with s^2 = -1 over Q(i)).  Suppose P
    divides no denominator, p_L is nonconstant and f_L is nonzero.  Then f
    and p lie over the discrete valuation ring R = Z localized at P (Z[i]
    at (P, i - s)), and p is nonzero modulo P, so its content is a unit and
    p**k is primitive (Gauss's lemma).  If f = p**k * h, then h lies in
    R[x], and the ring map from R[x] to F_P[t] gives f_L = p_L**k * h_L.
    As f_L is nonzero, p_L**k divides it: k is at most k_L, the
    multiplicity of p_L in f_L.  So at most k_L exact divisions run, in
    one integer form (``multipoly.divide_out``), and k_L = 0 settles k = 0
    with none.  Without an image the divisions run until one misses.
    """
    if f.is_zero():
        raise ValueError("multiplicity of a factor in the zero polynomial")
    if p.is_constant():
        raise ValueError("multiplicity of a constant factor")
    a, b = _aligned(f, p)
    bound = line_multiplicity(a, b, images)
    if bound == 0:
        return 0, f
    k, q = divide_out(a, b, bound)
    return (k, q) if k else (0, f)
