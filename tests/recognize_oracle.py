"""The two forward verifiers that ``recognize._verified_candidate``
replaced, one per recognition mode, kept as the tests' independent oracle:
the complete mode accepts the double component of the proper part of D's
conchoid when its own conchoid is proportional to D, and the proper mode
also tries the components of D's split witness and accepts a candidate
when D divides the proper part of its conchoid."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from conchoidal.curves import PlaneCurve, Scene, recenter
from conchoidal.errors import ConchoidError
from conchoidal.multipoly import MultiPoly, poly_exact_div
from conchoidal.recognize import CircleSpec, _double_component
from conchoidal.splitting import split_test, witness_components
from conchoidal.transform import conchoidal_transform, extract_known_components


def _conchoid_double_component(B: PlaneCurve, scene: Scene, Dc: PlaneCurve
                               ) -> Optional[MultiPoly]:
    """The double component of the proper part of the conchoid of Dc with
    respect to B, or None."""
    resid = extract_known_components(conchoidal_transform(B, Dc), scene).residual()
    return None if resid is None else _double_component(resid)


def _forward(B: PlaneCurve, cand: MultiPoly) -> Optional[Tuple[PlaneCurve, PlaneCurve]]:
    """(candidate curve, its conchoid with respect to B), or None when the
    candidate is not a valid curve or its transform is degenerate."""
    try:
        cand_curve = PlaneCurve(cand)
        return cand_curve, conchoidal_transform(B, cand_curve)
    except (ConchoidError, ValueError):
        return None


def _verified_complete_candidate(D: PlaneCurve, A: Tuple[Fraction, Fraction],
                                 r2: Fraction) -> Optional[MultiPoly]:
    """Candidate source curve whose full conchoid reproduces D, or None."""
    Dc = recenter(D, A)
    B = CircleSpec((Fraction(0), Fraction(0)), r2).curve()
    cand = _conchoid_double_component(B, Scene(B), Dc)
    forward = None if cand is None else _forward(B, cand)
    if forward is None or not forward[1].equation.proportional_to(Dc.equation):
        return None
    return recenter(forward[0], (-A[0], -A[1])).equation


def _verified_proper_candidate(D: PlaneCurve, A: Tuple[Fraction, Fraction],
                               r2: Fraction) -> Optional[MultiPoly]:
    """Candidate source curves C, accepted when the proper conchoid of C
    contains D.  Two candidate generators: a multiplicity-2 non-exceptional
    component of the conchoid of D (D = a whole proper conchoid), and the
    sheet components of D's own splitting witness (D = a single component)."""
    Dc = recenter(D, A)
    origin = (Fraction(0), Fraction(0))
    B = CircleSpec(origin, r2).curve()
    scene = Scene(B)
    cand = _conchoid_double_component(B, scene, Dc)
    candidates: List[MultiPoly] = [] if cand is None else [cand]
    try:
        split = split_test(Dc, origin)
    except (ConchoidError, ValueError):
        split = None
    if split is not None and split.witness is not None:
        comps = witness_components(Dc, origin, r2, split.witness)
        if comps is not None:
            candidates.extend(c.equation for c in comps)
    for cand in candidates:
        forward = _forward(B, cand)
        if forward is None:
            continue
        proper = extract_known_components(forward[1], scene).residual()
        if proper is None or poly_exact_div(proper, Dc.equation) is None:
            continue
        return recenter(forward[0], (-A[0], -A[1])).equation
    return None
