"""Reducibility of the proper conchoid with respect to a circle centered
at an affine point A.

An irreducible curve of degree delta has reducible proper conchoid iff its
equation admits a witness pair (H1, H2) of homogeneous forms with

    even delta:  scale * G = H1**2 - q * H2**2
    odd delta:   scale * G = l1 * H1**2 - l2 * H2**2

where l1, l2 are the lines joining A to the two cyclic points and
q = l1 * l2 is the homogenized squared distance to A.  Every line through
a cyclic point [1 : ±i : 0] is read through one parametrization,
``cyclic_line``, which ``recognize`` shares.  The solver pins H1
(resp. H2) by forcing the restriction of G to each branch line to be a
square up to scalar, then settles the few remaining coefficients by linear
steps, an eigen-line extraction, or the shared zero-dimensional solver
``roots.solve_zero_dim`` over Q(i) (``roots.common_roots`` for the
one-unknown rank condition).  Complete through delta = 4 on the
rational branches; a non-square branch scalar (witness outside Q(i)) is
reported, not guessed.  Since the criterion is stated for an irreducible
curve, "irreducible" is answered only when C is certified absolutely
irreducible (a line, or a conic with a nonsingular matrix), and
"inconclusive" otherwise.
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
from .roots import common_roots, solve_zero_dim, square_root_up_to_scalar

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


def _solve_form_with_restrictions(degree: int, targets) -> Optional[Tuple[MultiPoly, List[MultiPoly]]]:
    """A form H of the given degree with prescribed restrictions to branch
    lines: targets is a list of (parametrization, binary form in (s, t)).
    Returns (particular H, kernel basis) or None when inconsistent."""
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
    if solved is None:
        return None
    particular, null = solved
    H = MultiPoly.make(CURVE_VARS, FIELD_QI, dict(zip(monos, particular)))
    kernel = [MultiPoly.make(CURVE_VARS, FIELD_QI, dict(zip(monos, vec))) for vec in null]
    return H, kernel


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
    rho = to_scalar(c2, FIELD_QI) * scale
    lam = sqrt_in_field(rho, FIELD_QI)
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
    notes: List[str] = []
    saw_algebraic_candidate = False
    for lam_sign in (lam, -lam) if lam else (lam,):
        lifted = _solve_form_with_restrictions(m, [(p1, w1), (p2, w2 * lam_sign)])
        if lifted is None:
            continue
        H1p, kernel = lifted
        if m >= 2:
            outcome = _even_high(C, G, A, q, H1p, scale, m)
        else:
            outcome = _even_conic(G, q, H1p, scale)
        if outcome is None:
            continue
        status, witness, extra_notes = outcome
        notes.extend(extra_notes)
        if status == "witness":
            if not witness.identity_holds(C, A):
                raise InternalError("split witness failed verification")
            return SplitResult("split", witness, notes)
        if status == "split-no-witness":
            return SplitResult("split", None,
                               notes + ["witness requires an algebraic extension of Q(i)"])
        if status == "algebraic-candidate":
            saw_algebraic_candidate = True
    if saw_algebraic_candidate:
        return SplitResult("split", None,
                           notes + ["witness exists only over an extension of Q(i)"])
    if delta <= 4:
        return SplitResult("irreducible", notes=notes)
    return SplitResult("inconclusive",
                       notes=notes + [f"search exhausted for delta={delta} > 4"])


def _even_conic(G, q, H1, scale):
    """delta = 2: H1 is pinned uniquely; the residue must be c*q with c a
    square."""
    D = H1 * H1 - G * scale
    if D.is_zero():
        return None
    quot = poly_exact_div(D, q)
    if quot is None or not quot.is_constant():
        return None
    c = to_scalar(quot.constant_value(), FIELD_QI)
    e = sqrt_in_field(c, FIELD_QI)
    if e is None:
        return "split-no-witness", None, []
    H2 = MultiPoly.constant(e, CURVE_VARS, FIELD_QI)
    return "witness", SplitWitness("even", H1, H2, scale), []


def _even_high(C, G, A, q, H1p, scale, m):
    """delta = 4 (and best effort beyond): H1 = H1p + h*q with one scalar h;
    -(scale*G - H1^2)/q must become the square of a linear form."""
    base = G * scale - H1p * H1p
    E0 = poly_exact_div(base, q)
    if E0 is None:
        return None
    if m > 2:
        # search only the pinned solution h = 0
        res = _try_square_of_form(-E0)
        if res is None:
            return None
        return "witness", SplitWitness("even", H1p, res, scale), []
    # M(h) = -E0 + 2 h H1p + h^2 q; its matrix entries as polynomials in w
    mats = [_quadratic_matrix(M) for M in (-E0, H1p * 2, q)]
    entry_polys = [[MultiPoly.make(("w",), FIELD_QI, [((k,), mats[k][i][j]) for k in range(3)])
                    for j in range(3)] for i in range(3)]
    minors: List[MultiPoly] = []
    for r1, r2 in combinations(range(3), 2):
        for col1, col2 in combinations(range(3), 2):
            mnr = entry_polys[r1][col1] * entry_polys[r2][col2] - \
                entry_polys[r1][col2] * entry_polys[r2][col1]
            if not mnr.is_zero():
                minors.append(mnr)
    if not minors:
        candidates = [to_scalar(0, FIELD_QI)]
        algebraic_possible = False
    else:
        candidates, complete = common_roots(minors, FIELD_QI)
        algebraic_possible = not complete
    for h0 in candidates:
        M0 = -E0 + H1p * (h0 * 2) + q * (h0 * h0)
        got = square_root_up_to_scalar(M0)
        if got is None:
            continue
        c, l = got
        e = sqrt_in_field(c, FIELD_QI)
        H1 = H1p + q * h0
        if e is None:
            return "split-no-witness", None, []
        return "witness", SplitWitness("even", H1, l * e, scale), []
    if algebraic_possible:
        return "algebraic-candidate", None, ["rank condition has only irrational roots"]
    return None


def _try_square_of_form(M: MultiPoly) -> Optional[MultiPoly]:
    got = square_root_up_to_scalar(M)
    if got is None:
        return None
    c, g = got
    e = sqrt_in_field(to_scalar(c, FIELD_QI), FIELD_QI)
    if e is None:
        return None
    return g * e


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
    notes: List[str] = []
    definitive = True
    for lam_sign in (lam, -lam) if lam else (lam,):
        lift1 = _solve_form_with_restrictions(m, [(p2, w2)])
        lift2 = _solve_form_with_restrictions(m, [(p1, w1 * lam_sign)])
        if lift1 is None or lift2 is None:
            continue
        U1, _ = lift1
        U2, _ = lift2
        found, sure = _odd_solve(G, scale, l1, l2, U1, U2, m)
        definitive = definitive and sure
        if found is not None:
            H1, H2 = found
            witness = SplitWitness("odd", H1, H2, scale)
            if witness.identity_holds(C, A):
                return SplitResult("split", witness, notes)
    if delta <= 5 and definitive:
        return SplitResult("irreducible", notes=notes)
    return SplitResult("inconclusive", notes=notes + ["odd-case search not definitive"])


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
    solved = solve_linear(rows, [to_scalar(G.terms.get(m, 0), FIELD_QI) for m in monos])
    return None if solved is None else solved[0]


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
    sols, definitive = solve_zero_dim(eqs, FIELD_QI) or ([], False)
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

    if witness.parity == "even":
        sheet0 = on_line(witness.H1)
    else:
        l1, _ = cyclic_tangent_pair(A)
        sheet0 = on_line(l1) * on_line(witness.H1)
    sheet1 = on_line(witness.H2)
    qa = ((x - a) ** 2 + (y - b) ** 2).with_vars(("x", "y"))
    constraint = s * s - qa.with_vars(vars3)
    comps = []
    strip = [witness.H2.dehomogenize("z").with_vars(("x", "y")),
             qa,                      # the cyclic line pair through A
             qa - r * r]              # the base circle itself
    for sign in (1, -1):
        w = sheet0 + sheet1 * (s - r) * s * sign
        raw = sylvester_resultant(w, constraint, "s").with_vars(("x", "y"))
        if raw.is_zero():
            return None
        comp = _strip_extraneous(raw, strip)
        deg = comp.total_degree()
        comp_h = comp.homogenize("z", deg)
        try:
            comps.append(PlaneCurve(comp_h))
        except (ConchoidError, ValueError):
            return None
    return comps[0], comps[1]


def _strip_extraneous(raw: MultiPoly, strippers: List[MultiPoly]) -> MultiPoly:
    """Divide out degenerate-configuration factors (vanishing elimination
    leading coefficient, the cyclic pair, the base circle), never past the
    last nonconstant part."""
    out = raw
    for factor in strippers:
        if factor.is_constant():
            continue
        k, rest = multiplicity_of_factor(out, factor)
        out = factor if k and rest.is_constant() else rest
    return out.monic()
