"""The conchoidal transform and its local/global analysis.

The transform of two curves is the Sylvester determinant of their
conchoid coefficient lists in the line parameter, homogeneous of degree
exactly 2*deg(B)*deg(C) whenever it is nonzero.  The membership oracle
specializes the same construction to a single affine point, eliminating
the line parameter by a scalar Sylvester resultant at nominal degrees (so
that specialization commutes with the resultant).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional, Tuple

from .curves import CURVE_VARS, Divisor, DivisorComponent, PlaneCurve, ProjPoint, Scene
from .errors import (
    DegenerateMembershipError,
    EliminationDegenerateError,
    IdenticallyZeroError,
)
from .fields import Scalar, to_scalar
from .gcd import multiplicity_of_factor, squarefree_part
from .multipoly import MultiPoly, poly_exact_div
from .resultant import (
    conchoid_coefficients, poly_matrix_det, resultant_nominal, sylvester_resultant,
)
from .roots import factor_binary_form


def conchoidal_transform(B: PlaneCurve, C: PlaneCurve) -> PlaneCurve:
    """The conchoid of B and C: homogeneous of degree exactly 2*d*delta,
    canonical-normalized.  Raises IdenticallyZeroError when the resultant
    vanishes identically (both curves are z-power multiples)."""
    d, delta = B.degree, C.degree
    det = poly_matrix_det(*conchoid_coefficients(B.equation, C.equation), 2 * d * delta)
    if det.is_zero():
        raise IdenticallyZeroError("conchoidal resultant is identically zero")
    return PlaneCurve(det)


@dataclass
class Membership:
    """Result of the membership oracle at one affine point."""

    value: Scalar
    f_degree_drop: bool
    g_degree_drop: bool

    @property
    def degenerate(self) -> bool:
        return self.f_degree_drop and self.g_degree_drop

    def vanishes(self) -> bool:
        if self.degenerate:
            raise DegenerateMembershipError(
                "both specializations dropped degree; the oracle value is void")
        return not self.value


def membership_value(B: PlaneCurve, C: PlaneCurve, Q: ProjPoint) -> Membership:
    """Resultant in the line parameter of F((1-u)a, (1-u)b, 1) and
    G(ua, ub, 1) at Q = [a:b:1]; zero iff Q lies on the conchoid, away from
    degenerate degree drops (flagged)."""
    if not Q.is_affine():
        raise ValueError("membership oracle requires an affine point")
    a, b = Q.affine_xy()
    d, delta = B.degree, C.degree
    f_vals = [p.evaluate({"x": a, "y": b}) for p in B.z_parts]     # [F_d(a,b), ..., F_0]
    g_vals = [p.evaluate({"x": a, "y": b}) for p in C.z_parts]
    # F((1-u)a, (1-u)b, 1) = sum_h F_h(a,b) (1-u)^h
    fc = [to_scalar(0, B.field)] * (d + 1)
    for h in range(d + 1):
        val = f_vals[d - h]
        if not val:
            continue
        for k in range(h + 1):
            fc[k] = fc[k] + val * comb(h, k) * (-1) ** k
    # G(ua, ub, 1) = sum_h G_h(a,b) u^h
    gc = [g_vals[delta - h] for h in range(delta + 1)]
    value = resultant_nominal(fc, gc)
    return Membership(value, not fc[d], not gc[delta])


# -- local analysis ------------------------------------------------------------


def _chart_equation(f: PlaneCurve, P: ProjPoint) -> MultiPoly:
    """Dehomogenized equation in an affine chart centered at P (coordinate
    swap first if P is at infinity), over the chart variables (x, y)."""
    eq = f.equation
    coords = P.canonical()
    x, y, z = (MultiPoly.variable(v, CURVE_VARS, eq.field) for v in CURVE_VARS)
    if P.is_affine():
        a, b = coords[0], coords[1]
        moved = eq.substitute({"x": x + z * a, "y": y + z * b})
        return moved.dehomogenize("z").with_vars(("x", "y"))
    if coords[1]:
        swapped = eq.substitute({"y": z, "z": y})
        newp = ProjPoint(coords[0], coords[2], coords[1])
    else:
        swapped = eq.substitute({"x": z, "z": x})
        newp = ProjPoint(coords[2], coords[1], coords[0])
    return _chart_equation(PlaneCurve(swapped), newp)


def multiplicity_at(f: PlaneCurve, P: ProjPoint) -> int:
    """Smallest total degree of a nonzero term after moving P to the origin;
    0 iff P does not lie on f."""
    chart = _chart_equation(f, P)
    return chart.min_degree()


def tangent_cone_at(f: PlaneCurve, P: ProjPoint) -> MultiPoly:
    """Lowest-degree homogeneous part of f in the chart centered at P."""
    chart = _chart_equation(f, P)
    m = chart.min_degree()
    if m == 0:
        raise ValueError("point does not lie on the curve")
    return chart.homogeneous_part(m)


def infinity_restriction(f: PlaneCurve) -> MultiPoly:
    """f(x, y, 0); zero iff z divides f."""
    return f.equation.partial_eval({"z": Fraction(0)}).with_vars(("x", "y"))


# -- divisor extraction ---------------------------------------------------------

def extract_known_components(R: PlaneCurve, scene: Scene, C: Optional[PlaneCurve] = None,
                             blocks: Optional[dict] = None) -> Divisor:
    """Repeatedly exact-divide R by the base curve, by z, by each
    irreducible-over-the-field factor block of the base's top form (the
    lines joining A to the points of B at infinity, conjugates kept as one
    block), and optionally by the input curve C.  The residual is the
    proper conchoid.  The line images of h are kept while h is unchanged,
    and R.equation, monic as every curve equation, is its own residual
    when nothing divides it.  ``blocks``, when given, keeps the factor
    blocks by (top form, field) across the calls of one question, whose
    bases share a top form (recognition's circles: x^2 + y^2).  The field
    is in the key: a Q form equals and hashes as its Q(i) promotion."""
    h = R.equation
    comps: List[DivisorComponent] = []
    images: dict = {}                 # line images of h

    def strip(factor: MultiPoly, kind: str) -> None:
        nonlocal h
        k, h_out = multiplicity_of_factor(h, factor, images)
        if k:
            h = h_out
            images.clear()
            comps.append(DivisorComponent(factor, k, kind))

    strip(scene.base_curve.equation, "base")
    strip(MultiPoly.variable("z", CURVE_VARS, h.field), "linf")
    top, blocks = scene.base_curve.top_form(), {} if blocks is None else blocks
    if (top, h.field) not in blocks:
        blocks[top, h.field] = factor_binary_form(top.promote(h.field))[1]
    for block, _ in blocks[top, h.field]:
        strip(block.with_vars(CURVE_VARS), "lineblock")
    if C is not None:
        strip(C.equation, "input")
    if h.is_constant():
        unit = h.constant_value()
    else:
        unit = h.lc()
        comps.append(DivisorComponent(h if h is R.equation else h.monic(), 1, "residual"))
    return Divisor(comps, unit)


# -- elimination cross-check -----------------------------------------------------


def elimination_crosscheck(B: PlaneCurve, C: PlaneCurve) -> MultiPoly:
    """Affine equation of the set-theoretic conchoid by eliminating x, y from
    (F(u-x, v-y, 1), x*v - y*u, G(x, y, 1)) with two pairwise Sylvester
    resultants, then taking the squarefree part and pruning extraneous
    axis factors detected by membership sampling.  Multiplicities are lost
    by construction; this exists as a cross-check, not as the transform."""
    uv = ("x", "y", "u", "v")
    field = (B.equation + C.equation).field
    xv = MultiPoly.variable("x", uv, field)
    yv = MultiPoly.variable("y", uv, field)
    un = MultiPoly.variable("u", uv, field)
    vn = MultiPoly.variable("v", uv, field)
    f1 = B.equation.substitute({"x": un - xv, "y": vn - yv, "z": Fraction(1)})
    f2 = xv * vn - yv * un
    f3 = C.equation.dehomogenize("z").with_vars(uv)
    r1 = sylvester_resultant(f1, f2, "y")
    r2 = sylvester_resultant(f3, f2, "y") if f3.uses_var("y") else f3
    if r1.is_zero() or r2.is_zero():
        raise EliminationDegenerateError("intermediate resultant vanished identically")
    if r1.is_constant() or r2.is_constant():
        raise EliminationDegenerateError("elimination lost the curve before the x step")
    if not r2.uses_var("x"):
        r = r2  # already free of both x and y
    elif not r1.uses_var("x"):
        r = r1
    else:
        r = sylvester_resultant(r1, r2, "x")
    if r.is_zero():
        raise EliminationDegenerateError("final resultant vanished identically")
    if r.is_constant():
        raise EliminationDegenerateError("elimination produced no curve")
    s = squarefree_part(r)
    s = _prune_axis_factors(s, B, C)
    out = s.substitute({"u": MultiPoly.variable("x", ("x", "y"), field),
                        "v": MultiPoly.variable("y", ("x", "y"), field)})
    return out.with_vars(("x", "y")).monic()


def _prune_axis_factors(s: MultiPoly, B: PlaneCurve, C: PlaneCurve) -> MultiPoly:
    rng = random.Random(20113)       # one fixed seed: the check is deterministic
    for axis, make_point in (("u", lambda t: (Fraction(0), t)),
                             ("v", lambda t: (t, Fraction(0)))):
        axis_poly = MultiPoly.variable(axis, s.vars, s.field)
        q = poly_exact_div(s, axis_poly)
        if q is None:
            continue
        keep = True
        for _ in range(25):          # membership samples per axis
            t = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            a, b = make_point(t)
            member = membership_value(B, C, ProjPoint(a, b, 1))
            if not member.degenerate and member.value:
                keep = False
                break
        if not keep:
            s = q
    return s


# -- numerical predictions ---------------------------------------------------------


def degree_genus_predict(d: int, g, delta: int, gamma) -> Tuple[int, Fraction]:
    """Degree 2*d*delta and genus d*gamma + delta*g + (d-1)(delta-1) of the
    conchoid of a smooth degree-d genus-g curve with a generic degree-delta
    genus-gamma curve."""
    if d < 1 or delta < 1:
        raise ValueError("degrees must be >= 1")
    g = Fraction(g)
    gamma = Fraction(gamma)
    if g != Fraction((d - 1) * (d - 2), 2):
        raise ValueError(f"genus {g} is inconsistent with a smooth curve of degree {d}")
    return 2 * d * delta, d * gamma + delta * g + (d - 1) * (delta - 1)
