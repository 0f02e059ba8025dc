"""The Q(i) root finder that p-adic lifting at a split prime replaced, kept
as the tests' independent oracle: f(u + i v) = A(u, v) + i B(u, v) is
split into real and imaginary parts over Q and A = B = 0 is solved by
``solve_zero_dim`` (pairwise resultants, then roots over Q).  For f with
real coefficients the real roots come from the roots over Q, and a
nonreal root u + i v has w = v^2 > 0 with A = A_w(u, v^2) and
B = v B_w(u, v^2), as A is even in v and B odd."""

from __future__ import annotations

from typing import List, Tuple

from conchoidal.errors import InternalError
from conchoidal.fields import (
    FIELD_Q, FIELD_QI, GaussianRational, as_fraction, fraction_sqrt, im_part, re_part, to_scalar,
)
from conchoidal.gcd import multiplicity_of_factor
from conchoidal.multipoly import MultiPoly
from conchoidal.roots import rational_roots, solve_zero_dim

UV = ("u", "v")


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


def _rational_zeros_uv(A: MultiPoly, B: MultiPoly):
    """Common rational zeros of two polynomials over Q in (u, v)."""
    solved = solve_zero_dim([A, B])
    if solved is None:
        raise InternalError("resultant of the zero-split parts vanished")
    return solved[0]


def _sorted_qi(items):
    return sorted(items, key=lambda rm: (re_part(rm[0]), im_part(rm[0])))


def gaussian_roots(f: MultiPoly) -> List[Tuple[GaussianRational, int]]:
    """The roots in Q(i) of f, nonzero in one variable, with multiplicities."""
    var = f.sole_var()
    if var is None:
        return []
    f = f.with_vars((var,)).promote(FIELD_QI)
    t = MultiPoly.variable(var, f.vars, FIELD_QI)
    k, f = multiplicity_of_factor(f, t)
    out = [(GaussianRational(0), k)] if k else []
    if f.total_degree() < 1:
        return _sorted_qi(out)
    if f.total_degree() == 1:
        c0, c1 = (c.constant_value() for c in f.coefficients_in(var))
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
        for r, m in rational_roots(MultiPoly(f.vars, FIELD_Q, fracs), FIELD_Q):
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
