"""Reducibility of the proper conchoid with respect to a circle centered
at an affine point A.

An irreducible curve of degree delta has reducible proper conchoid iff its
equation admits a witness pair (H1, H2) of homogeneous forms with

    even delta:  scale * G = H1**2 - q * H2**2
    odd delta:   scale * G = l1 * H1**2 - l2 * H2**2

where l1, l2 are the lines joining A to the two cyclic points and
q = l1 * l2 is the homogenized squared distance to A.  Every line through
a cyclic point [1 : ±i : 0] is read through one parametrization,
``cyclic_line``, which ``recognize`` shares.  The solver pins H1 on the
lines of R, with (P, R) = (1, q) for even delta and (l1, l2) for odd
delta, by forcing the restriction of G to each branch line to be a square
up to scalar (one linear solve per pin).  One finisher, ``_finish``,
settles the rest for both parities: H1 = H1p + h*R, with h a common root
of the rank condition (``roots.common_roots``) when the free multiple of R
is one scalar (delta = 3 and 4) and h = 0 otherwise, and H2 read off a
square root up to scalar.  Complete through delta = 4 on the rational
branches; a witness that needs a square root outside Q(i) is reported,
not guessed.  Since the criterion is stated for an irreducible curve,
"irreducible" is answered only when C is certified absolutely irreducible
(a line, or a conic with a nonsingular matrix), and "inconclusive"
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Tuple

from .curves import CURVE_VARS, PlaneCurve
from .errors import (
    ConchoidError,
    CyclicTangentError,
    DegenerateConicError,
    InternalError,
    NotSquarefreeError,
)
from .fields import (
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    Scalar,
    im_part,
    sqrt_in_field,
    to_scalar,
)
from .gcd import is_squarefree, multiplicity_of_factor
from .linalg import solve_linear
from .multipoly import MultiPoly, poly_exact_div
from .resultant import det_scalar, sylvester_resultant
from .roots import common_roots, square_root_up_to_scalar

ST = ("s", "t")


def cyclic_tangent_pair(A: Tuple[Scalar, Scalar]) -> Tuple[MultiPoly, MultiPoly]:
    """The two lines through A = (a, b) and the cyclic points [1:i:0],
    [1:-i:0]: l1 = (x-az) + i(y-bz), l2 = (x-az) - i(y-bz).  Their product
    is the homogenized squared distance (x-az)^2 + (y-bz)^2, independent of
    any radius."""
    a, b = A
    i = GaussianRational(0, 1)
    x = MultiPoly.variable("x", CURVE_VARS, FIELD_QI)
    y = MultiPoly.variable("y", CURVE_VARS, FIELD_QI)
    z = MultiPoly.variable("z", CURVE_VARS, FIELD_QI)
    l1 = (x - z * a) + (y - z * b) * i
    l2 = (x - z * a) - (y - z * b) * i
    return l1, l2


def distance_form(A: Tuple[Scalar, Scalar]) -> MultiPoly:
    l1, l2 = cyclic_tangent_pair(A)
    return l1 * l2


def cyclic_line(c, sign: int):
    """The parametrization [t*c - sign*i*s : s : t], over ST, of the line
    x + sign*i*y = c*z through the cyclic point [1 : sign*i : 0]; c is a
    scalar or a polynomial.  With c = a + sign*i*b it is l1 = 0 (sign +1)
    or l2 = 0 (sign -1) for A = (a, b)."""
    s = MultiPoly.variable("s", ST, FIELD_QI)
    t = MultiPoly.variable("t", ST, FIELD_QI)
    return {"x": t * c - s * GaussianRational(0, sign), "y": s, "z": t}


def _restrict(H: MultiPoly, param) -> MultiPoly:
    return H.substitute(param).with_vars(ST)


@dataclass
class SplitWitness:
    parity: str                   # "even" | "odd"
    H1: MultiPoly
    H2: MultiPoly
    scale: Scalar

    @property
    def field_used(self) -> str:
        """Q when H1 and H2 have rational coefficients, Q(i) otherwise."""
        if any(im_part(c) for H in (self.H1, self.H2) for c in H.terms.values()):
            return FIELD_QI
        return FIELD_Q

    def identity_holds(self, C: PlaneCurve, A: Tuple[Scalar, Scalar]) -> bool:
        l1, l2 = cyclic_tangent_pair(A)
        lhs = C.equation * self.scale
        if self.parity == "even":
            rhs = self.H1 * self.H1 - l1 * l2 * self.H2 * self.H2
        else:
            rhs = l1 * self.H1 * self.H1 - l2 * self.H2 * self.H2
        return lhs == rhs


@dataclass
class SplitResult:
    verdict: str                  # "split" | "irreducible" | "inconclusive"
    witness: Optional[SplitWitness] = None
    notes: List[str] = dc_field(default_factory=list)

    @property
    def split(self) -> bool:
        return self.verdict == "split"


def _monomials(degree: int) -> List[Tuple[int, int, int]]:
    return [(i, j, degree - i - j)
            for i in range(degree, -1, -1)
            for j in range(degree - i, -1, -1)]


def _solve_form_with_restrictions(degree: int, targets) -> Optional[MultiPoly]:
    """A form H of the given degree with prescribed restrictions to branch
    lines: targets is a list of (parametrization, binary form in (s, t)).
    None when inconsistent."""
    monos = _monomials(degree)
    basis = [MultiPoly.make(CURVE_VARS, FIELD_QI, {m: 1}) for m in monos]
    rows: List[List[Scalar]] = []
    rhs: List[Scalar] = []
    st_monos = [(k, degree - k) for k in range(degree + 1)]
    for param, target in targets:
        restricted = [_restrict(bp, param) for bp in basis]
        for sm in st_monos:
            rows.append([r.terms.get(sm, Fraction(0)) for r in restricted])
            rhs.append(target.terms.get(sm, Fraction(0)))
    solved = solve_linear(rows, rhs)
    return None if solved is None else MultiPoly.make(CURVE_VARS, FIELD_QI, dict(zip(monos, solved)))


def _quadratic_matrix(Mq: MultiPoly) -> List[List[Scalar]]:
    """Symmetric 3x3 coefficient matrix of a quadratic form in x, y, z."""
    def c(exp):
        return to_scalar(Mq.terms.get(exp, Fraction(0)), FIELD_QI)

    half = Fraction(1, 2)
    return [
        [c((2, 0, 0)), c((1, 1, 0)) * half, c((1, 0, 1)) * half],
        [c((1, 1, 0)) * half, c((0, 2, 0)), c((0, 1, 1)) * half],
        [c((1, 0, 1)) * half, c((0, 1, 1)) * half, c((0, 0, 2))],
    ]


def split_test(C: PlaneCurve, A: Tuple[Scalar, Scalar]) -> SplitResult:
    """Decide reducibility of the proper conchoid of C with respect to any
    circle centered at the affine point A (the criterion only involves the
    cyclic tangent pair, never the radius)."""
    G = C.equation.promote(FIELD_QI)
    delta = C.degree
    if not is_squarefree(C.equation):
        raise NotSquarefreeError("split test requires a reduced (squarefree) curve")
    if delta % 2 == 0:
        result = _split_even(C, G, A, delta)
    else:
        result = _split_odd(C, G, A, delta)
    if result.verdict == "irreducible" and not _certified_irreducible(G, delta):
        return SplitResult("inconclusive", notes=result.notes + [
            "C is not certified absolutely irreducible; the criterion assumes it is"])
    return result


def _certified_irreducible(G: MultiPoly, delta: int) -> bool:
    """The cheapest certificates that C is absolutely irreducible: a line,
    or a conic with a nonsingular matrix."""
    return delta == 1 or (delta == 2 and bool(det_scalar(_quadratic_matrix(G))))


def _branch_restrictions(G: MultiPoly, A):
    """The parametrizations p1, p2 of l1 = 0 and l2 = 0, and the
    restrictions g1, g2 of G to them; raises when either vanishes."""
    a, b = A
    p1, p2 = (cyclic_line(to_scalar(a, FIELD_QI) + GaussianRational(0, sign) * b, sign)
              for sign in (1, -1))
    g1, g2 = _restrict(G, p1), _restrict(G, p2)
    if g1.is_zero() or g2.is_zero():
        raise CyclicTangentError("curve contains a cyclic tangent line; not irreducible")
    return p1, p2, g1, g2


def _split_even(C: PlaneCurve, G: MultiPoly, A, delta: int) -> SplitResult:
    m = delta // 2
    p1, p2, g1, g2 = _branch_restrictions(G, A)
    q = distance_form(A)
    sq1 = square_root_up_to_scalar(g1)
    if sq1 is None:
        return SplitResult("irreducible", notes=["restriction to l1 is not a square"])
    sq2 = square_root_up_to_scalar(g2)
    if sq2 is None:
        return SplitResult("irreducible", notes=["restriction to l2 is not a square"])
    c1, w1 = sq1
    c2, w2 = sq2
    scale = 1 / to_scalar(c1, FIELD_QI)
    lam = sqrt_in_field(to_scalar(c2, FIELD_QI) * scale, FIELD_QI)
    if lam is None:
        if delta == 2:
            # For conics a witness exists over the closure iff one exists
            # with both restriction scalars in the same square class, so a
            # non-square ratio settles irreducibility.
            return SplitResult("irreducible",
                               notes=["branch scalar ratio is not a square in Q(i)"])
        return SplitResult("inconclusive",
                           notes=["branch scalar ratio is not a square in Q(i); "
                                  "witness would need a quadratic extension"])
    pins = (_solve_form_with_restrictions(m, [(p1, w1), (p2, w2 * sign)]) for sign in (lam, -lam))
    return _finish(C, A, "even", G, scale, MultiPoly.constant(1, CURVE_VARS, FIELD_QI), q,
                   pins, f"search exhausted for delta={delta} > 4")


def _split_odd(C: PlaneCurve, G: MultiPoly, A, delta: int) -> SplitResult:
    l1, l2 = cyclic_tangent_pair(A)
    if delta == 1:
        return _split_line(G, A, l1, l2)
    m = (delta - 1) // 2
    p1, p2, g1, g2 = _branch_restrictions(G, A)
    q1 = poly_exact_div(g1, _restrict(l2, p1))      # over the other line's restriction
    if q1 is None:
        return SplitResult("irreducible", notes=["g|l1 not divisible by l2|l1"])
    q2 = poly_exact_div(g2, _restrict(l1, p2))
    if q2 is None:
        return SplitResult("irreducible", notes=["g|l2 not divisible by l1|l2"])
    sq1 = square_root_up_to_scalar(q1)
    sq2 = square_root_up_to_scalar(q2)
    if sq1 is None or sq2 is None:
        return SplitResult("irreducible", notes=["pinned restriction is not a square"])
    c1, w1 = sq1
    c2, w2 = sq2
    # normalize H1|l2 = w2: scale*g2 = (l1|l2)*(H1|l2)^2 gives scale = 1/c2,
    # then (H2|l1)^2 = -scale*c1 * w1^2 = lam^2 * w1^2
    scale = 1 / to_scalar(c2, FIELD_QI)
    lam = sqrt_in_field(-to_scalar(c1, FIELD_QI) * scale, FIELD_QI)
    if lam is None:
        if delta == 3:
            return SplitResult("inconclusive",
                               notes=["branch scalar is not a square in Q(i); "
                                      "witness would need a quadratic extension"])
        return SplitResult("inconclusive", notes=["non-square branch scalar"])
    result = _finish(C, A, "odd", G, scale, l1, l2, [_solve_form_with_restrictions(m, [(p2, w2)])],
                     "odd-case search not definitive")
    # H2 is fixed up to sign; report the one with H2|l1 = +lam*w1
    if result.witness is not None and _restrict(result.witness.H2, p1) != w1 * lam:
        result.witness.H2 = -result.witness.H2
    return result


def _finish(C: PlaneCurve, A, parity: str, G: MultiPoly, scale: Scalar,
            P: MultiPoly, R: MultiPoly, pins, exhausted: str) -> SplitResult:
    """Settle scale*G = P*H1**2 - R*H2**2, (P, R) = (1, q) for even delta
    and (l1, l2) for odd delta, from each pinned H1p in turn.

    The pins fix H1 on each line of R (l1 and l2 for even delta, l2 for
    odd delta), so H1 = H1p + h*R with h a form of degree m - deg R,
    m = deg H1.  As P*R = q for both parities,

        H2**2 = (P*H1**2 - scale*G)/R = -E0 + 2*h*P*H1p + h**2*q =: M(h),
        E0 = (scale*G - P*H1p**2)/R.

    When m = deg R (delta = 4 even, delta = 3 odd) h is one scalar and M(h)
    a quadratic form, a scalar times a square iff its matrix has rank <= 1,
    i.e. iff h is a common root of the 2x2 minors.  Rank 0 cannot occur:
    M(h) = 0 gives scale*G = P*H1**2 with deg H1 >= 1, and G is squarefree.
    So every common root, in Q(i) or not, gives a witness over the
    algebraic closure, and one outside Q(i) certifies "split".  For
    m < deg R, h = 0 is forced; for m > deg R only h = 0 is tried, and an
    empty search is "inconclusive" with the note given as exhausted."""
    q = P * R
    m = (G.total_degree() - P.total_degree()) // 2
    notes: List[str] = []
    for H1p in pins:
        E0 = None if H1p is None else poly_exact_div(G * scale - P * H1p * H1p, R)
        if E0 is None:
            continue
        PH = P * H1p * 2
        candidates, complete = [to_scalar(0, FIELD_QI)], True
        if m == R.total_degree():
            # the entries of the matrix of M(w) as polynomials in w
            mats = [_quadratic_matrix(M) for M in (-E0, PH, q)]
            ent = [[MultiPoly.make(("w",), FIELD_QI, [((k,), mats[k][i][j]) for k in range(3)])
                    for j in range(3)] for i in range(3)]
            minors = [ent[r1][c1] * ent[r2][c2] - ent[r1][c2] * ent[r2][c1]
                      for r1, r2 in combinations(range(3), 2) for c1, c2 in combinations(range(3), 2)]
            minors = [mnr for mnr in minors if not mnr.is_zero()]
            if minors:
                candidates, complete = common_roots(minors)
        for h0 in candidates:
            got = square_root_up_to_scalar(-E0 + PH * h0 + q * (h0 * h0))
            if got is None:
                continue
            c, l = got
            e = sqrt_in_field(c, FIELD_QI)
            if e is None:
                return SplitResult("split", None,
                                   notes + ["witness requires an algebraic extension of Q(i)"])
            witness = SplitWitness(parity, H1p + R * h0, l * e, scale)
            if not witness.identity_holds(C, A):
                raise InternalError("split witness failed verification")
            return SplitResult("split", witness, notes)
        if not complete:
            notes.append("rank condition has only irrational roots")
    if notes:
        return SplitResult("split", None, notes + ["witness exists only over an extension of Q(i)"])
    if m <= R.total_degree():
        return SplitResult("irreducible")
    return SplitResult("inconclusive", notes=[exhausted])


def _split_line(G: MultiPoly, A, l1, l2) -> SplitResult:
    """delta = 1: G = alpha*l1 + beta*l2 is solvable iff the line passes
    through A; the witness needs both alpha and -beta to be squares."""
    solved = _combination(G, [l1, l2])
    if solved is None:
        return SplitResult("irreducible", notes=["line does not pass through A"])
    alpha, beta = solved
    h1 = sqrt_in_field(to_scalar(alpha, FIELD_QI), FIELD_QI)
    h2 = sqrt_in_field(-to_scalar(beta, FIELD_QI), FIELD_QI)
    if h1 is None or h2 is None:
        return SplitResult("split", None,
                           notes=["witness requires an algebraic extension of Q(i)"])
    witness = SplitWitness(
        "odd",
        MultiPoly.constant(h1, CURVE_VARS, FIELD_QI),
        MultiPoly.constant(h2, CURVE_VARS, FIELD_QI),
        to_scalar(1, FIELD_QI),
    )
    return SplitResult("split", witness)


def _combination(G: MultiPoly, forms: List[MultiPoly]) -> Optional[List[Scalar]]:
    """Scalars alpha with G = sum alpha_k * forms[k], all forms of the degree
    of G, or None when there are none."""
    monos = _monomials(G.total_degree())
    rows = [[to_scalar(f.terms.get(m, 0), FIELD_QI) for f in forms] for m in monos]
    return solve_linear(rows, [to_scalar(G.terms.get(m, 0), FIELD_QI) for m in monos])


# -- the conic shortcut ---------------------------------------------------------


def conic_focus_split(C: PlaneCurve, A: Tuple[Scalar, Scalar]
                      ) -> Tuple[bool, MultiPoly]:
    """A conic has reducible conchoid iff A is one of its foci, i.e. iff its
    equation is proportional to l**2 - c*q for the polar line l of A.
    Returns (split?, polar line).  Raises on a degenerate conic."""
    if C.degree != 2:
        raise ValueError("focus test applies to conics only")
    G = C.equation.promote(FIELD_QI)
    S = _quadratic_matrix(G)
    if not det_scalar([row[:] for row in S]):
        raise DegenerateConicError("conic is degenerate")
    a, b = A
    pt = [to_scalar(a, FIELD_QI), to_scalar(b, FIELD_QI), to_scalar(1, FIELD_QI)]
    lcoef = [sum(S[i][j] * pt[j] for j in range(3)) for i in range(3)]
    polar = MultiPoly.make(CURVE_VARS, FIELD_QI,
                           {(1, 0, 0): lcoef[0], (0, 1, 0): lcoef[1], (0, 0, 1): lcoef[2]})
    return _combination(G, [polar * polar, distance_form(A)]) is not None, polar


# -- plane components of a split -------------------------------------------------


def witness_components(C: PlaneCurve, A: Tuple[Scalar, Scalar], r2,
                       witness: SplitWitness) -> Optional[Tuple[PlaneCurve, PlaneCurve]]:
    """The two plane components of the proper conchoid of a split curve,
    for a circle of rational radius r (r**2 = r2).  Each component is the
    elimination of the cone parameter from the witness sheet; None when r
    is irrational (components then live over an extension)."""
    field = FIELD_QI
    r = sqrt_in_field(to_scalar(Fraction(r2), field), field)
    if r is None or im_part(r):
        return None
    a, b = A
    vars3 = ("x", "y", "s")
    s = MultiPoly.variable("s", vars3, field)
    x = MultiPoly.variable("x", vars3, field)
    y = MultiPoly.variable("y", vars3, field)

    def on_line(H: MultiPoly) -> MultiPoly:
        # H at the point P = [a s + (s-r)(x-a) : b s + (s-r)(y-b) : s] of the
        # line through A and the conchoid point (x, y)
        return H.substitute({
            "x": s * a + (s - r) * (x - a),
            "y": s * b + (s - r) * (y - b),
            "z": s,
        }).with_vars(vars3)

    sheet1 = on_line(witness.H2)
    qa = ((x - a) ** 2 + (y - b) ** 2).with_vars(("x", "y"))
    constraint = s * s - qa.with_vars(vars3)
    comps = []
    strip = [witness.H2.dehomogenize("z").with_vars(("x", "y")),
             qa,                      # the cyclic line pair through A
             qa - r * r]              # the base circle itself
    if witness.parity == "even":
        sheet0 = on_line(witness.H1)
    else:
        # on_line(l1) = (s - r)*l1(x, y, 1): on l1(x, y, 1) = 0 the constraint's
        # roots are both s = 0, where the sheet vanishes, so l1 divides raw
        l1, _ = cyclic_tangent_pair(A)
        sheet0 = on_line(l1) * on_line(witness.H1)
        strip.append(l1.dehomogenize("z").with_vars(("x", "y")))
    for sign in (1, -1):
        w = sheet0 + sheet1 * (s - r) * s * sign
        raw = sylvester_resultant(w, constraint, "s").with_vars(("x", "y"))
        if raw.is_zero():
            return None
        comp = _strip_extraneous(raw, strip)
        try:
            comps.append(PlaneCurve(comp.homogenize("z", comp.total_degree())))
        except (ConchoidError, ValueError):
            return None
    return comps[0], comps[1]


def _strip_extraneous(raw: MultiPoly, strippers: List[MultiPoly]) -> MultiPoly:
    """Divide out degenerate-configuration factors (vanishing elimination
    leading coefficient, the cyclic pair, the base circle, and l1 for an odd
    witness), never past the last nonconstant part."""
    out = raw
    for factor in strippers:
        if factor.is_constant():
            continue
        k, rest = multiplicity_of_factor(out, factor)
        out = factor if k and rest.is_constant() else rest
    return out.monic()
