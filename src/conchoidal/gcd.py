"""Multivariate polynomial gcd and squarefree machinery.

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

from typing import List, Tuple

from .modular import modular_gcd
from .multipoly import MultiPoly, UniPoly, poly_exact_div


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic-normalized gcd of maximal degree; exact-divides both inputs."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero polynomials")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    return modular_gcd(f, g).monic()


def squarefree_part(f: MultiPoly) -> MultiPoly:
    """f divided by gcd(f, all partial derivatives): each irreducible factor
    retained once (char 0)."""
    if f.is_zero():
        raise ValueError("squarefree part of zero")
    if f.is_constant():
        return MultiPoly.constant(1, f.vars, f.field)
    g = f
    for v in f.vars:
        if not f.uses_var(v):
            continue
        g = poly_gcd(g, f.derivative(v))
        if g.is_constant():
            break
    return poly_exact_div(f, g).monic()


def is_squarefree(f: MultiPoly) -> bool:
    for v in f.vars:
        if f.uses_var(v):
            return poly_gcd(f, f.derivative(v)).is_constant()
    return True


def squarefree_decompose_uni(u: UniPoly) -> List[Tuple[UniPoly, int]]:
    """Yun's algorithm: u (monic-normalized) = prod a_i**i with a_i squarefree
    and pairwise coprime; returns the nonconstant (a_i, i)."""
    u = u.monic()
    if u.degree() < 1:
        return []
    du = u.derivative()
    a = u.gcd(du)
    b = u.divmod(a)[0]
    c = du.divmod(a)[0]
    d = c - b.derivative()
    out: List[Tuple[UniPoly, int]] = []
    i = 1
    while b.degree() >= 1:
        a = b.gcd(d)
        if a.degree() >= 1:
            out.append((a, i))
        b = b.divmod(a)[0]
        c = d.divmod(a)[0]
        d = c - b.derivative()
        i += 1
    return out


def multiplicity_of_factor(f: MultiPoly, p: MultiPoly) -> Tuple[int, MultiPoly]:
    """Largest k with p**k | f; returns (k, f / p**k)."""
    if f.is_zero():
        raise ValueError("multiplicity of a factor in the zero polynomial")
    if p.is_constant():
        raise ValueError("multiplicity of a constant factor")
    k = 0
    while True:
        q = poly_exact_div(f, p)
        if q is None:
            return k, f
        f = q
        k += 1
