"""Iterated conchoids and the two recognition procedures of the circle case.

Both recognizers run a pipeline of necessary checks (each recorded in the
report), enumerate finitely many candidate centers and squared radii, and
verify candidates by an exact forward conchoid computation.  In complete
mode a squared radius must first pass a certified necessary condition on
one line through the center (`_line_radius_filter`: a squarefree-degree
bound, one univariate gcd), which rejects most wrong radii without a
forward computation; a radius that passes is still verified, and that
verification stays the certificate of every "yes".  Only centers
in Q^2 and rational squared radii are searched (the proper mode reads its
center off a tangent line through a cyclic point, solved over Q(i)).  A
center with an irrational or non-real Q(i) coordinate, like any irrational
candidate, yields an "inconclusive" verdict, never a "no".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .curves import CURVE_VARS, Divisor, PlaneCurve, ProjPoint, Scene, recenter
from .errors import ConchoidError, DecompositionMismatchError
from .fields import FIELD_Q, FIELD_QI, GaussianRational, Scalar, as_fraction, to_scalar
from .gcd import is_squarefree, poly_gcd
from .grammar import poly_to_text, scalar_to_text
from .multipoly import MultiPoly, poly_exact_div
from .roots import common_roots, rational_roots, solve_zero_dim, square_root_up_to_scalar
from .splitting import ST, cyclic_line, split_test, witness_components
from .transform import (
    conchoidal_transform,
    extract_known_components,
    infinity_restriction,
    multiplicity_at,
)


@dataclass(frozen=True)
class CircleSpec:
    """A circle (x - a z)^2 + (y - b z)^2 = r2 * z^2 with r2 > 0."""

    center: Tuple[Fraction, Fraction]
    r2: Fraction

    def __post_init__(self):
        if Fraction(self.r2) <= 0:
            raise ValueError("squared radius must be positive")

    def curve(self) -> PlaneCurve:
        a, b = (Fraction(c) for c in self.center)
        r2 = Fraction(self.r2)
        x = MultiPoly.variable("x", CURVE_VARS, FIELD_Q)
        y = MultiPoly.variable("y", CURVE_VARS, FIELD_Q)
        z = MultiPoly.variable("z", CURVE_VARS, FIELD_Q)
        return PlaneCurve((x - z * a) ** 2 + (y - z * b) ** 2 - z * z * r2)


def iterated_conchoid(spec: CircleSpec, C: PlaneCurve, n: int) -> Divisor:
    """The n-iterated conchoid with respect to a circle centered at the
    origin, decomposed: at each level the base circle, the cyclic line
    block and the two-steps-back curve are extracted, and the residual is
    verified to be the conchoid of C with respect to the k-fold radius
    circle.  A mismatch (special C) raises DecompositionMismatchError."""
    if n < 1:
        raise ValueError("iteration count must be >= 1")
    if tuple(Fraction(c) for c in spec.center) != (Fraction(0), Fraction(0)):
        raise ValueError("iterated conchoids are defined for circles centered at the origin")
    base = spec.curve()
    scene = Scene(base)
    if n == 1:
        return extract_known_components(conchoidal_transform(base, C), scene, C)
    prevprev = C                                       # C_(k-2)
    prev = conchoidal_transform(base, C)               # C_(k-1)
    div: Optional[Divisor] = None
    for k in range(2, n + 1):
        T = conchoidal_transform(base, prev)
        div = extract_known_components(T, scene, C=prevprev)
        resid = div.residual()
        bk = CircleSpec((Fraction(0), Fraction(0)), Fraction(spec.r2) * k * k).curve()
        expected = conchoidal_transform(bk, C).equation
        if resid is None or not resid.proportional_to(expected):
            raise DecompositionMismatchError(
                f"level-{k} residual does not match the {k}-fold-radius conchoid")
        prevprev, prev = prev, PlaneCurve(resid)
    return div


# -- radius candidates ----------------------------------------------------------


def candidate_radii(D: PlaneCurve, A: Tuple[Scalar, Scalar],
                    probe_lines: Sequence[MultiPoly] = (),
                    ) -> Tuple[List[Fraction], List[str]]:
    """Squared-radius candidates from probe lines through A: intersect each
    probe with D, take rational intersection points, and emit both s/4 and
    s for every pairwise squared distance s (between points, and between
    points and A).  Returns (candidates, notes)."""
    a, b = (Fraction(as_fraction(to_scalar(c, FIELD_Q))) for c in A)
    notes: List[str] = []
    params = [
        ((a, b), (Fraction(0), Fraction(1))),   # vertical probe x = a
        ((a, b), (Fraction(1), Fraction(0))),   # horizontal probe y = b
    ]
    for line in probe_lines:
        embedded = line.with_vars(CURVE_VARS)
        if embedded.total_degree() != 1:
            notes.append(f"probe {poly_to_text(line)} is not a line; skipped")
            continue
        coef = {v: embedded.terms.get(tuple(1 if u == v else 0 for u in CURVE_VARS), Fraction(0))
                for v in CURVE_VARS}
        c1, c2, c3 = (as_fraction(to_scalar(coef[v], FIELD_Q)) for v in ("x", "y", "z"))
        if c1 * a + c2 * b + c3 != 0:
            notes.append(f"probe {poly_to_text(line)} does not pass through the center; skipped")
            continue
        params.append(((a, b), (-c2, c1)))
    candidates = set()
    for (px, py), (dx, dy) in params:
        xt = MultiPoly.make(("t",), FIELD_Q, {(0,): px, (1,): dx})
        yt = MultiPoly.make(("t",), FIELD_Q, {(0,): py, (1,): dy})
        restricted = D.equation.substitute({"x": xt, "y": yt, "z": Fraction(1)})
        if restricted.is_zero():
            notes.append("a probe line is contained in the curve; skipped")
            continue
        if restricted.is_constant():
            continue
        pts = []
        for r, _ in rational_roots(restricted, restricted.field):
            rr = as_fraction(r)
            if rr is None:
                continue
            pts.append((px + dx * rr, py + dy * rr))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                s = (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
                if s:
                    candidates.update((s / 4, s))
            s = (pts[i][0] - a) ** 2 + (pts[i][1] - b) ** 2
            if s:
                candidates.update((s / 4, s))
    return sorted(candidates), notes


# -- reports -----------------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Candidate:
    center: Tuple[Fraction, Fraction]
    r2: Fraction
    witness: MultiPoly


@dataclass
class RecognitionReport:
    verdict: str                                 # "yes" | "no" | "inconclusive"
    checks: List[CheckRecord] = dc_field(default_factory=list)
    candidates: List[Candidate] = dc_field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "candidates": [{"center": [scalar_to_text(c.center[0]), scalar_to_text(c.center[1])],
                            "r2": scalar_to_text(c.r2),
                            "witness": poly_to_text(c.witness)}
                           for c in self.candidates],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


# -- shared helpers -----------------------------------------------------------------


def _double_component(resid: MultiPoly) -> Optional[MultiPoly]:
    """A non-exceptional component of multiplicity exactly >= 2, detected by
    gcd with a partial derivative and confirmed by double exact division."""
    for var in ("x", "y"):
        deriv = resid.derivative(var)
        if deriv.is_zero():
            continue
        g = poly_gcd(resid, deriv)
        if g.is_constant():
            continue
        if poly_exact_div(poly_exact_div(resid, g), g) is not None:
            return g.monic()
        # g may carry extra repeated-factor content; retry against the
        # other derivative's gcd
        for var2 in ("x", "y"):
            if var2 == var:
                continue
            d2 = resid.derivative(var2)
            if d2.is_zero():
                continue
            g2 = poly_gcd(g, poly_gcd(resid, d2))
            if g2.is_constant():
                continue
            if poly_exact_div(poly_exact_div(resid, g2), g2) is not None:
                return g2.monic()
    return None


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


def _rational_multiple_points(D: PlaneCurve, min_mult: int
                              ) -> Tuple[List[Tuple[Fraction, Fraction]], bool]:
    """Affine rational points with multiplicity >= min_mult, solved from
    (d, d_x, d_y).  Second result: True when the elimination certifies there
    is no such point over the closure."""
    d = D.equation.dehomogenize("z").with_vars(("x", "y"))
    uv = MultiPoly(("u", "v"), d.field, d.terms)
    solved = solve_zero_dim([uv, uv.derivative("u"), uv.derivative("v")], d.field)
    candidates, definitive_no = solved or ([], False)
    points: List[Tuple[Fraction, Fraction]] = []
    for x0, y0 in candidates:
        x0f, y0f = as_fraction(x0), as_fraction(y0)
        if x0f is None or y0f is None:
            definitive_no = False
        elif multiplicity_at(D, ProjPoint.affine(x0f, y0f)) >= min_mult:
            points.append((x0f, y0f))
    if points:
        return points, True
    return points, definitive_no


# A rational unit vector, so that s in A + s*u is the distance from A.
_LINE_DIRECTION = (Fraction(3, 5), Fraction(4, 5))


def _line_radius_filter(D: PlaneCurve, A: Tuple[Scalar, Scalar], delta: int
                        ) -> Callable[[Scalar], bool]:
    """A necessary condition on r2 for `_verified_complete_candidate(D, A,
    r2)` to return a witness, read on one line through A.  Built once per
    center; delta = deg(D) / 4.

    Lemma.  Let A be any point with coordinates in Q(i), r2 != 0 and
    r^2 = r2, L the line A + s u (u the unit vector above), D_L(s) =
    D(A + s u, 1), and S(q) = C(A + q u, 1) for a curve C of degree delta.
    If D is proportional to the conchoid of C with respect to the circle
    (x - a)^2 + (y - b)^2 = r2 about A = (a, b), then for some c != 0
        D_L(s) = c * s^(2 delta) * S(s - r) * S(s + r).
    Proof.  Recentered at A, the conchoid is the Sylvester determinant
    Res_w(F((1 - w) P), G(w P)) at nominal degrees (2, delta), F the circle
    and G the recentered C, and evaluating at P commutes with the
    determinant.  At P = s u with s != 0, |u| = 1 makes F((1 - w) P) =
    s^2 (1 - w)^2 - r2 of exact degree 2 in w, with roots where w s = s - r
    and w s = s + r.  For such an f, Res(f, g) = lc(f)^delta * prod g(root)
    for any g of nominal degree delta, so Res = (s^2)^delta G((s - r) u)
    G((s + r) u) = s^(2 delta) S(s - r) S(s + r).  Both sides are
    polynomials in s, so they agree at s = 0 too; c is the ratio of D to
    the determinant.

    Consequences.  D_L = 0 exactly when L lies on C, and then every r2
    passes.  Otherwise k = deg S = (deg D_L - 2 delta)/2 is an integer >= 0,
    and P(t) = D_L(t - r) D_L(t + r) = c^2 (t - r)^(2 delta) (t + r)^(2 delta)
    S(t - 2r) S(t)^2 S(t + 2r) has degree 4 delta + 4k and at most 2 + 3k
    distinct roots, so deg gcd(P, P') >= 4 delta + k - 2.  P has its
    coefficients in the field of D and r2: writing D_L(t - y) = E(t, y^2) +
    y O(t, y^2), P = E(t, r2)^2 - r2 O(t, r2)^2.

    A witness needs the round trip: the conchoid of the candidate, of degree
    4 delta, proportional to D recentered; so a rejected r2 returns None or
    raises.  With D squarefree of degree 4 delta and r2 > 0 (all that
    candidate_radii emits) it cannot raise ValueError (the circle is valid,
    and no gcd, division or multiplicity sees a zero or constant operand),
    IdenticallyZeroError (by the lemma with D itself as the source, the
    first transform restricts to a nonzero polynomial on any line through
    A not contained in D) or DegreeBoundError (both coefficient lists are
    forms, so the determinant has exactly the degree passed).  Only
    InternalError, a broken invariant of the engine, is left: skipping r2
    changes no report."""
    ux, uy = _LINE_DIRECTION
    s = MultiPoly.variable("s", ("s",), D.field)
    DL = D.equation.substitute({"x": s * ux + A[0], "y": s * uy + A[1], "z": 1})
    if DL.is_zero():
        return lambda r2: True
    twice_k = DL.total_degree() - 2 * delta
    if twice_k < 0 or twice_k % 2:
        return lambda r2: False
    bound = 4 * delta + twice_k // 2 - 2
    t, y = (MultiPoly.variable(v, ("t", "y"), D.field) for v in ("t", "y"))
    shifted = DL.substitute({"s": t - y}).with_vars(("t", "y"))
    # E(t, w) and O(t, w), w standing for y^2
    E, O = (MultiPoly(("t", "w"), shifted.field, {(e[0], e[1] // 2): c for e, c
                                                   in shifted.terms.items() if e[1] % 2 == odd})
            for odd in (0, 1))

    def admits(r2: Scalar) -> bool:
        e, o = (part.partial_eval({"w": r2}).with_vars(("t",)) for part in (E, O))
        P = e * e - o * o * r2
        return poly_gcd(P, P.derivative("t")).total_degree() >= bound

    return admits


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


def recognize_complete(D: PlaneCurve) -> RecognitionReport:
    """Decide whether D is the complete conchoid of some curve with respect
    to some circle (center and radius recovered)."""
    report = RecognitionReport("no")
    deg = D.degree
    if not is_squarefree(D.equation):
        report.checks.append(CheckRecord("reduced", False, "input curve is not squarefree"))
        return report
    report.checks.append(CheckRecord("reduced", True))
    if deg % 4 != 0 or deg < 4:
        report.checks.append(CheckRecord("degree-multiple-of-4", False, f"degree {deg}"))
        return report
    delta = deg // 4
    report.checks.append(CheckRecord("degree-multiple-of-4", True, f"degree {deg}, delta {delta}"))

    ir = infinity_restriction(D)
    cyc = MultiPoly.make(("x", "y"), D.field, {(2, 0): 1, (0, 2): 1})
    # a zero ir leaves rest = 0, which has no square root up to a scalar
    rest = poly_exact_div(ir, cyc ** delta)
    got = None if rest is None else square_root_up_to_scalar(rest)
    ok = got is not None
    report.checks.append(CheckRecord(
        "infinity-splits", ok,
        f"restriction = const*(x^2+y^2)^{delta} * ({poly_to_text(got[1])})^2" if ok
        else "restriction to z=0 does not split as (x^2+y^2)^delta * square"))
    if not ok:
        return report

    points, definitive = _rational_multiple_points(D, 2 * delta)
    report.checks.append(CheckRecord(
        "high-multiplicity-point", bool(points),
        f"{len(points)} rational point(s) of multiplicity >= {2 * delta}" if points
        else "no rational point of sufficient multiplicity"))
    if not points:
        report.verdict = "no" if definitive else "inconclusive"
        return report

    any_radii = False
    for A in points:
        radii, _ = candidate_radii(D, A)
        if not radii:
            continue
        any_radii = True
        admits = _line_radius_filter(D, A, delta)
        for r2 in radii:
            if not admits(r2):
                continue
            witness = _verified_complete_candidate(D, A, r2)
            if witness is not None:
                report.checks.append(CheckRecord(
                    "witness-verification", True,
                    f"center ({A[0]}, {A[1]}), r2 = {r2}"))
                report.candidates.append(Candidate(A, r2, witness))
                report.verdict = "yes"
                return report
    report.checks.append(CheckRecord(
        "radius-candidates" if not any_radii else "witness-verification", False,
        "no rational radius candidate" if not any_radii
        else "no candidate passed the forward verification"))
    report.verdict = "inconclusive"
    return report


# -- proper-conchoid recognition ------------------------------------------------------


def _tangent_cyclic_lines(D: PlaneCurve) -> Tuple[List[GaussianRational], bool]:
    """Values c in Q(i) such that the line x + i y - c z (through the cyclic
    point [1:i:0]) is everywhere tangent to D, i.e. the restriction of D to
    the line is a perfect square up to scalar.

    With c symbolic, the monic square root of the restriction is computed
    coefficient by coefficient; clearing its a_0-power denominators turns
    the square-root remainder into polynomial conditions on c, whose common
    rational roots (plus the roots of the leading coefficient a_0, where
    the restriction degenerates) are the only possibilities.  Each
    candidate is then verified exactly.  Returns (values, definitive)."""
    G = D.equation.promote(FIELD_QI)
    stc = ST + ("c",)
    p = G.substitute(cyclic_line(MultiPoly.variable("c", ("c",), FIELD_QI), 1)).with_vars(stc)
    ti = p.vars.index("t")
    k0 = min(exp[ti] for exp in p.terms)       # forced contact at the cyclic point
    if k0:
        p = poly_exact_div(p, MultiPoly.make(stc, FIELD_QI, {(0, k0, 0): 1}))
    n = D.degree - k0                           # degree of the residual binary form
    a = _s_coefficients(p, n)                   # a[k] = coeff of s^(n-k) t^k in Q(i)[c]
    candidates: List[GaussianRational] = []
    definitive = True
    if n % 2 == 0 and n > 0:
        conds = _square_remainder_conditions(a, n)
        if conds is None:
            definitive = False
        else:
            roots, complete = common_roots(conds, FIELD_QI)
            definitive = definitive and complete
            candidates.extend(roots)
    # degenerate candidates: deeper contact at the cyclic point
    if not a[0].is_zero():
        roots0, complete0 = common_roots([a[0]], FIELD_QI)
        definitive = definitive and complete0
        candidates.extend(roots0)
    confirmed = []
    seen = set()
    for c0 in candidates:
        key = (c0.re, c0.im)
        if key in seen:
            continue
        seen.add(key)
        restricted = G.substitute(cyclic_line(c0, 1)).with_vars(ST)
        if restricted.is_zero():
            continue
        if square_root_up_to_scalar(restricted) is not None:
            confirmed.append(c0)
    return confirmed, definitive


def _s_coefficients(p: MultiPoly, n: int) -> List[MultiPoly]:
    """Coefficients a_k(c) of s^(n-k) t^k in a (s,t)-binary form over Q(i)[c]."""
    ti, ci = p.vars.index("t"), p.vars.index("c")
    buckets: List[list] = [[] for _ in range(n + 1)]
    for exp, coeff in p.terms.items():
        buckets[exp[ti]].append(((exp[ci],), coeff))
    return [MultiPoly.make(("c",), FIELD_QI, b) for b in buckets]


def _square_remainder_conditions(a: List[MultiPoly], n: int) -> Optional[List[MultiPoly]]:
    """Polynomial conditions on c for sum a_k s^(n-k) t^k to be proportional
    to a square.  Writing b_k = B_k / (2^(2k-1) a_0^k) for the monic square
    root coefficients, the B_k satisfy an integer recursion and the trailing
    n/2 matching conditions become polynomials in c."""
    m = n // 2
    a0 = a[0]
    if a0.is_zero():
        return None
    B: List[MultiPoly] = [MultiPoly.constant(1, ("c",), FIELD_QI)]
    for k in range(1, m + 1):
        acc = a[k] * 2 ** max(2 * k - 2, 0)
        for _ in range(k - 1):
            acc = acc * a0
        for j in range(1, k):
            acc = acc - B[j] * B[k - j]
        B.append(acc)
    conds = []
    for k in range(m + 1, n + 1):
        acc = a[k] * 2 ** (2 * k - 2)
        for _ in range(k - 1):
            acc = acc * a0
        lhs = MultiPoly.zero(("c",), FIELD_QI)
        for j in range(k - m, m + 1):
            if k - j <= m:
                lhs = lhs + B[j] * B[k - j]
        conds.append(acc - lhs)
    return [cnd for cnd in conds if not cnd.is_zero()] or None


def recognize_proper(D: PlaneCurve) -> RecognitionReport:
    """Decide whether D is (a component of) the proper conchoid of some
    curve with respect to some circle."""
    report = RecognitionReport("no")
    if D.degree < 2:
        report.checks.append(CheckRecord("degree", False, "trivial case degree 1 excluded"))
        return report
    report.checks.append(CheckRecord("degree", True, f"degree {D.degree}"))
    if not is_squarefree(D.equation):
        report.checks.append(CheckRecord("reduced", False, "input curve is not squarefree"))
        return report
    report.checks.append(CheckRecord("reduced", True))

    cvals, definitive = _tangent_cyclic_lines(D)
    report.checks.append(CheckRecord(
        "cyclic-tangent-lines", bool(cvals),
        f"{len(cvals)} everywhere-tangent line(s) through the cyclic points" if cvals
        else "no everywhere-tangent line through a cyclic point"))
    if not cvals:
        report.verdict = "no" if definitive else "inconclusive"
        return report

    any_radii = False
    for c0 in cvals:
        A = (c0.re, c0.im)   # intersection of the line with its conjugate
        radii, _ = candidate_radii(D, A)
        if radii:
            any_radii = True
        for r2 in radii:
            witness = _verified_proper_candidate(D, A, r2)
            if witness is not None:
                report.checks.append(CheckRecord(
                    "affine-intersection", True, f"center ({A[0]}, {A[1]})"))
                report.checks.append(CheckRecord(
                    "pattern-verification", True,
                    f"center ({A[0]}, {A[1]}), r2 = {r2}"))
                report.candidates.append(Candidate(A, r2, witness))
                report.verdict = "yes"
                return report
    if not any_radii:
        report.checks.append(CheckRecord("radius-candidates", False,
                                         "no rational radius candidate"))
    else:
        report.checks.append(CheckRecord("pattern-verification", False,
                                         "no candidate reproduced the iterated pattern"))
    report.verdict = "inconclusive"
    return report


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
