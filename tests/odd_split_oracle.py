"""The odd-degree splitting solver that ``splitting._finish`` replaced,
kept as the tests' independent oracle for ``split_test`` on curves of odd
degree: H1 is pinned on l2 and H2 on l1 for each sign of lambda, and for
delta = 3 the free coefficients in H1 = U1 + u*l2, H2 = U2 + v*l1 come
from the two-unknown polynomial system that ``roots.solve_zero_dim``
solves; for delta = 5 only the pinned pair (U1, U2) is tried."""

from __future__ import annotations

from typing import List

from conchoidal.curves import PlaneCurve
from conchoidal.fields import FIELD_QI, sqrt_in_field, to_scalar
from conchoidal.multipoly import MultiPoly, poly_exact_div
from conchoidal.roots import solve_zero_dim, square_root_up_to_scalar
from conchoidal.splitting import (
    SplitResult,
    SplitWitness,
    _branch_restrictions,
    _certified_irreducible,
    _restrict,
    _solve_form_with_restrictions,
    _split_line,
    cyclic_tangent_pair,
)


def odd_split_oracle(C: PlaneCurve, A) -> SplitResult:
    """``split_test`` on a squarefree curve C of odd degree, as the odd
    solver answered it, uncertified "irreducible" included."""
    G = C.equation.promote(FIELD_QI)
    result = _split_odd(C, G, A, C.degree)
    if result.verdict == "irreducible" and not _certified_irreducible(G, C.degree):
        return SplitResult("inconclusive", notes=result.notes + [
            "C is not certified absolutely irreducible; the criterion assumes it is"])
    return result


def _split_odd(C: PlaneCurve, G: MultiPoly, A, delta: int) -> SplitResult:
    l1, l2 = cyclic_tangent_pair(A)
    if delta == 1:
        return _split_line(G, A, l1, l2)
    if delta > 5:
        return SplitResult("inconclusive", notes=[f"odd delta={delta} beyond the solver"])
    m = (delta - 1) // 2
    p1, p2, g1, g2 = _branch_restrictions(G, A)
    e1 = _restrict(l2, p1)      # restriction of the other line
    e2 = _restrict(l1, p2)
    q1 = poly_exact_div(g1, e1)
    if q1 is None:
        return SplitResult("irreducible", notes=["g|l1 not divisible by l2|l1"])
    q2 = poly_exact_div(g2, e2)
    if q2 is None:
        return SplitResult("irreducible", notes=["g|l2 not divisible by l1|l2"])
    sq1 = square_root_up_to_scalar(q1)
    sq2 = square_root_up_to_scalar(q2)
    if sq1 is None or sq2 is None:
        return SplitResult("irreducible", notes=["pinned restriction is not a square"])
    c1, w1 = sq1
    c2, w2 = sq2
    # normalize H1|l2 = w2: scale*g2 = e2*(H1|l2)^2 gives scale = 1/c2,
    # then (H2|l1)^2 = -scale*c1 * w1^2
    scale = 1 / to_scalar(c2, FIELD_QI)
    rho = -to_scalar(c1, FIELD_QI) * scale
    lam = sqrt_in_field(rho, FIELD_QI)
    if lam is None:
        if delta == 3:
            return SplitResult("inconclusive",
                               notes=["branch scalar is not a square in Q(i); "
                                      "witness would need a quadratic extension"])
        return SplitResult("inconclusive", notes=["non-square branch scalar"])
    definitive = True
    U1 = _solve_form_with_restrictions(m, [(p2, w2)])
    for lam_sign in (lam, -lam):
        U2 = _solve_form_with_restrictions(m, [(p1, w1 * lam_sign)])
        if U1 is None or U2 is None:
            continue
        found, sure = _odd_solve(G, scale, l1, l2, U1, U2, m)
        definitive = definitive and sure
        if found is not None:
            H1, H2 = found
            witness = SplitWitness("odd", H1, H2, scale)
            if witness.identity_holds(C, A):
                return SplitResult("split", witness)
    if delta <= 5 and definitive:
        return SplitResult("irreducible")
    return SplitResult("inconclusive", notes=["odd-case search not definitive"])


def _odd_solve(G, scale, l1, l2, U1, U2, m):
    """Settle the free coefficients in H1 = U1 + u*l2, H2 = U2 + v*l1
    (m = 1) by a two-unknown polynomial system.  Returns (solution or None,
    search-was-definitive)."""
    uv = ("x", "y", "z", "u", "v")
    un = MultiPoly.variable("u", uv, FIELD_QI)
    vn = MultiPoly.variable("v", uv, FIELD_QI)
    if m != 1:
        H1, H2 = U1, U2
        lhs = G * scale - l1 * H1 * H1 + l2 * H2 * H2
        return ((H1, H2) if lhs.is_zero() else None), False
    H1 = U1.with_vars(uv) + l2.with_vars(uv) * un
    H2 = U2.with_vars(uv) + l1.with_vars(uv) * vn
    E = (G.with_vars(uv) * scale
         - l1.with_vars(uv) * H1 * H1
         + l2.with_vars(uv) * H2 * H2)
    eqs = _coefficient_system(E, ("u", "v"))
    sols, definitive = solve_zero_dim(eqs) or ([], False)
    for u0, v0 in sols:
        H1s = (U1 + l2 * u0).promote(FIELD_QI)
        H2s = (U2 + l1 * v0).promote(FIELD_QI)
        check = G * scale - l1 * H1s * H1s + l2 * H2s * H2s
        if check.is_zero():
            return (H1s, H2s), definitive
    return None, definitive


def _coefficient_system(E: MultiPoly, unknowns) -> List[MultiPoly]:
    """Group E by monomials in the non-unknown variables; each group gives a
    polynomial equation in the unknowns."""
    idx = [E.vars.index(u) for u in unknowns]
    rest_idx = [k for k in range(len(E.vars)) if k not in idx]
    groups = {}
    for exp, c in E.terms.items():
        key = tuple(exp[k] for k in rest_idx)
        uexp = tuple(exp[k] for k in idx)
        groups.setdefault(key, {})[uexp] = c
    return [MultiPoly.make(tuple(unknowns), E.field, terms) for terms in groups.values()]
