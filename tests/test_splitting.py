import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conchoidal import (
    MultiPoly,
    PlaneCurve,
    Scene,
    conchoidal_transform,
    conic_focus_split,
    cyclic_tangent_pair,
    extract_known_components,
    parse_poly,
    split_test,
    witness_components,
)
from conchoidal.curves import recenter
from conchoidal.errors import (
    CyclicTangentError,
    DegenerateConicError,
    InternalError,
    NotSquarefreeError,
)
from conchoidal.curves import CURVE_VARS
from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational, sqrt_in_field
from conchoidal.gcd import is_squarefree
from conchoidal.grammar import poly_to_text, scalar_to_text
from conchoidal.multipoly import poly_exact_div
from conchoidal.roots import square_root_up_to_scalar
from conchoidal.splitting import (
    SplitWitness,
    _branch_restrictions,
    _monomials,
    _restrict,
    _solve_form_with_restrictions,
    cyclic_line,
    distance_form,
)
from helpers import random_form
from odd_split_oracle import odd_split_oracle

ORIGIN = (Fraction(0), Fraction(0))
PARABOLA = PlaneCurve.from_text("(y+z)^2-(x^2+y^2)")
ELLIPSE = PlaneCurve.from_text("1/25*x^2+1/9*y^2-z^2")
Q1 = parse_poly("x^4+(y^2-2*y*z)*x^2-2*y^3*z+y^2*z^2")
Q2 = parse_poly("x^4+(y^2-2*y*z-4*z^2)*x^2-2*y^3*z-3*y^2*z^2")


def test_cyclic_pair_origin():
    l1, l2 = cyclic_tangent_pair(ORIGIN)
    assert l1 == parse_poly("x+i*y", FIELD_QI)
    assert l2 == parse_poly("x-i*y", FIELD_QI)
    # each line contains its cyclic point
    i = GaussianRational(0, 1)
    assert l1.evaluate({"x": GaussianRational(1), "y": i, "z": GaussianRational(0)}) == 0
    assert l2.evaluate({"x": GaussianRational(1), "y": -i, "z": GaussianRational(0)}) == 0


def test_cyclic_pair_product_radius_free():
    A = (Fraction(1), Fraction(2))
    l1, l2 = cyclic_tangent_pair(A)
    assert l1 * l2 == parse_poly("(x-z)^2+(y-2*z)^2", FIELD_QI)
    assert l1 * l2 == distance_form(A)


@settings(max_examples=40, deadline=None)
@given(a=st.fractions(max_denominator=12), b=st.fractions(max_denominator=12),
       sign=st.sampled_from((1, -1)))
def test_cyclic_line_is_the_matching_tangent_line(a, b, sign):
    # l1 meets the cyclic point [1 : i : 0], l2 meets [1 : -i : 0]
    lines = dict(zip((1, -1), cyclic_tangent_pair((a, b))))
    param = cyclic_line(a + GaussianRational(0, sign) * b, sign)
    assert lines[sign].substitute(param).is_zero()
    assert not lines[-sign].substitute(param).is_zero()


def test_parabola_splits_into_the_two_quartics():
    res = split_test(PARABOLA, ORIGIN)
    assert res.verdict == "split"
    w = res.witness
    assert w is not None and w.parity == "even"
    assert w.identity_holds(PARABOLA, ORIGIN)
    comps = witness_components(PARABOLA, ORIGIN, Fraction(1), w)
    got = {c.equation for c in comps}
    assert got == {PlaneCurve(Q1).equation, PlaneCurve(Q2).equation}


def test_parabola_product_reconstructs_transform():
    res = split_test(PARABOLA, ORIGIN)
    comps = witness_components(PARABOLA, ORIGIN, Fraction(1), res.witness)
    circle = PlaneCurve.from_text("x^2+y^2-z^2")
    T = conchoidal_transform(circle, PARABOLA)
    div = extract_known_components(T, Scene(circle), None)
    product = comps[0].equation * comps[1].equation
    assert div.residual() is not None
    assert (div.residual()).proportional_to(product)


def test_ellipse_splits_exactly_at_foci():
    for A, expect in [((Fraction(4), Fraction(0)), True),
                      ((Fraction(-4), Fraction(0)), True),
                      ((Fraction(0), Fraction(0)), False),
                      ((Fraction(3), Fraction(0)), False),
                      ((Fraction(0), Fraction(3)), False),
                      ((Fraction(1), Fraction(1)), False)]:
        res = split_test(ELLIPSE, A)
        assert (res.verdict == "split") is expect, A
        fc, _ = conic_focus_split(ELLIPSE, A)
        assert fc is expect


def test_focus_polar_line_witness():
    res = split_test(ELLIPSE, (Fraction(4), Fraction(0)))
    _, polar = conic_focus_split(ELLIPSE, (Fraction(4), Fraction(0)))
    # H1 is the polar line of the focus, up to scalar
    assert res.witness.H1.proportional_to(polar)


def test_focus_agreement_random_conics():
    rng = random.Random(2024)
    done = 0
    while done < 20:
        conic, A = _random_conic_and_point(rng)
        try:
            fc, _ = conic_focus_split(conic, A)
        except DegenerateConicError:
            continue
        res = split_test(conic, A)
        assert res.verdict in ("split", "irreducible")
        assert (res.verdict == "split") is fc, (conic, A)
        done += 1


def _random_conic_and_point(rng):
    while True:
        coeffs = {
            (2, 0, 0): Fraction(rng.randint(-4, 4)),
            (0, 2, 0): Fraction(rng.randint(-4, 4)),
            (0, 0, 2): Fraction(rng.randint(-4, 4)),
            (1, 1, 0): Fraction(rng.randint(-3, 3)),
            (1, 0, 1): Fraction(rng.randint(-3, 3)),
            (0, 1, 1): Fraction(rng.randint(-3, 3)),
        }
        from conchoidal import MultiPoly

        eq = MultiPoly.make(("x", "y", "z"), "Q", coeffs)
        if eq.is_zero() or eq.total_degree() != 2:
            continue
        try:
            conic = PlaneCurve(eq)
        except ValueError:
            continue
        if not is_squarefree(conic.equation):
            continue
        A = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        return conic, A


def test_split_radius_independent_product_check():
    # the verdict only involves the cyclic pair; the decomposition with two
    # different radii must both reproduce scale*(comp1*comp2)
    for r2 in (Fraction(1), Fraction(4)):
        res = split_test(PARABOLA, ORIGIN)
        assert res.split
        comps = witness_components(PARABOLA, ORIGIN, r2, res.witness)
        circle = PlaneCurve.from_text(f"x^2+y^2-{r2}*z^2")
        T = conchoidal_transform(circle, PARABOLA)
        resid = extract_known_components(T, Scene(circle), None).residual()
        product = comps[0].equation * comps[1].equation
        assert resid.proportional_to(product)
        assert {c.degree for c in comps} == {4}   # both components of degree 2*delta


def test_line_cases():
    # a line through A splits (the doubled perpendicular), with the witness
    # possibly needing a field extension
    res = split_test(PlaneCurve.from_text("x"), ORIGIN)
    assert res.verdict == "split"
    res_y = split_test(PlaneCurve.from_text("y"), ORIGIN)
    assert res_y.verdict == "split"
    if res_y.witness is not None:
        assert res_y.witness.identity_holds(PlaneCurve.from_text("y"), ORIGIN)
    assert split_test(PlaneCurve.from_text("x-2*z"), ORIGIN).verdict == "irreducible"


def test_split_rejects_nonreduced():
    with pytest.raises(NotSquarefreeError):
        split_test(PlaneCurve.from_text("x^2"), ORIGIN)


def test_focus_examples():
    assert conic_focus_split(PARABOLA, ORIGIN)[0] is True
    circle4 = PlaneCurve.from_text("x^2+y^2-4*z^2")
    assert conic_focus_split(circle4, ORIGIN)[0] is True     # center = double focus
    assert conic_focus_split(circle4, (Fraction(1), Fraction(0)))[0] is False
    with pytest.raises(DegenerateConicError):
        conic_focus_split(PlaneCurve.from_text("x^2-y^2"), ORIGIN)
    with pytest.raises(ValueError):
        conic_focus_split(PlaneCurve.from_text("x^3-y^2*z"), ORIGIN)


def test_witness_soundness_whenever_returned():
    rng = random.Random(404)
    checked = 0
    while checked < 10:
        conic, A = _random_conic_and_point(rng)
        try:
            res = split_test(conic, A)
        except (DegenerateConicError, ValueError):
            continue
        if res.witness is not None:
            assert res.witness.identity_holds(conic, A)
            checked += 1
        elif res.verdict == "irreducible":
            checked += 1


def test_reducible_conic_is_never_irreducible():
    # a product of two lines over Q is not certified absolutely
    # irreducible: its matrix is singular
    rng = random.Random(77)
    x, y, z = (parse_poly(v) for v in "xyz")
    for _ in range(10):
        l1, l2 = (x * (rng.randint(-3, 3) or 1) + y * rng.randint(-3, 3) + z * rng.randint(-5, 5)
                  for _ in range(2))
        try:
            res = split_test(PlaneCurve(l1 * l2), ORIGIN)
        except (NotSquarefreeError, ValueError):   # repeated line, or a cyclic tangent
            continue
        assert res.verdict != "irreducible", (l1, l2)


def test_quartic_split_delta4():
    res = split_test(PlaneCurve(Q2), ORIGIN)
    assert res.verdict == "split"
    assert res.witness is not None
    assert res.witness.identity_holds(PlaneCurve(Q2), ORIGIN)


def test_sextic_split_with_a_non_square_scalar():
    # C = H1p^2 - 3 q Q^2 with H1p the pinned cubic of the solver: H2 would
    # be sqrt(3)*Q, so C splits over Q(i, sqrt(3)) and the answer is
    # "split" with the note that delta = 2 and 4 give in the same case
    H, q, Q = (parse_poly(text).promote(FIELD_QI).with_vars(CURVE_VARS) for text in
               ("x^3-x^2*y+2*x*y*z-y^2*z+3*z^3", "x^2+y^2", "x^2+x*y+2*y*z-z^2"))
    p1, p2, g1, g2 = _branch_restrictions(H * H - q * Q * Q * 3, ORIGIN)
    (c1, w1), (c2, w2) = square_root_up_to_scalar(g1), square_root_up_to_scalar(g2)
    lam = sqrt_in_field(c2 / c1, FIELD_QI)
    pinned = [_solve_form_with_restrictions(3, [(p1, w1), (p2, w2 * sign)]) for sign in (lam, -lam)]
    H1p = next(h for h in pinned if h is not None)
    res = split_test(PlaneCurve(H1p * H1p - q * Q * Q * 3), ORIGIN)
    assert res.verdict == "split" and res.witness is None
    assert res.notes == ["witness requires an algebraic extension of Q(i)"]


def _random_form_qi(rng, degree):
    re = random_form(rng, degree)
    im = random_form(rng, degree)
    return re.promote(FIELD_QI) + im.promote(FIELD_QI) * GaussianRational(0, 1)


def test_constructed_even_witnesses_are_found():
    # build G = H1^2 - q H2^2 from random real forms and require the solver
    # to certify the split
    rng = random.Random(606)
    found = {2: 0, 4: 0}
    while min(found.values()) < 4:
        delta = rng.choice((2, 4))
        m = delta // 2
        A = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        H1 = random_form(rng, m)
        H2 = random_form(rng, m - 1)
        if H1.is_zero() or H2.is_zero():
            continue
        G = H1 * H1 - distance_form(A) * H2 * H2
        if G.is_zero() or G.total_degree() != delta:
            continue
        try:
            C = PlaneCurve(G)
        except Exception:
            continue
        if not is_squarefree(C.equation):
            continue
        res = split_test(C, A)
        assert res.verdict == "split", (C, A)
        if res.witness is not None:
            assert res.witness.identity_holds(C, A)
        found[delta] += 1


def test_constructed_odd_witnesses_are_found():
    # G = l1 H1^2 + l2 conj(H1)^2 is a real curve with the odd witness
    # (H1, i conj(H1))
    rng = random.Random(707)
    done = 0
    while done < 4:
        A = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        l1, l2 = cyclic_tangent_pair(A)
        H1 = _random_form_qi(rng, 1)
        if H1.is_zero():
            continue
        G = l1 * H1 * H1 + l2 * H1.conj() * H1.conj()
        if G.is_zero() or G.total_degree() != 3:
            continue
        assert all(c.im == 0 for c in G.terms.values())   # really real
        try:
            C = PlaneCurve(G)
        except Exception:
            continue
        if not is_squarefree(C.equation):
            continue
        res = split_test(C, A)
        assert res.verdict == "split", (C, A)
        if res.witness is not None:
            assert res.witness.identity_holds(C, A)
        done += 1


def test_random_quartics_do_not_crash_and_witnesses_verify():
    rng = random.Random(808)
    tried = 0
    while tried < 8:
        G = random_form(rng, 4)
        try:
            C = PlaneCurve(G)
            res = split_test(C, (Fraction(0), Fraction(0)))
        except (NotSquarefreeError, ValueError):
            continue
        assert res.verdict in ("split", "irreducible", "inconclusive")
        if res.witness is not None:
            assert res.witness.identity_holds(C, (Fraction(0), Fraction(0)))
        tried += 1


def test_reducible_input_has_reducible_proper_conchoid():
    # proper conchoid of a product of generic lines = product of the
    # factors' proper conchoids, by additivity of the transform
    circle = PlaneCurve.from_text("x^2+y^2-z^2")
    scene = Scene(circle)
    l1 = PlaneCurve.from_text("x+2*y-5*z")
    l2 = PlaneCurve.from_text("2*x-y+4*z")
    C = PlaneCurve(l1.equation * l2.equation)
    whole = extract_known_components(conchoidal_transform(circle, C), scene).residual()
    part1 = extract_known_components(conchoidal_transform(circle, l1), scene).residual()
    part2 = extract_known_components(conchoidal_transform(circle, l2), scene).residual()
    assert whole.proportional_to(part1 * part2)


# -- odd degree ------------------------------------------------------------------


def _split_text(res):
    """The fields of a split answer as the CLI prints them."""
    w = res.witness
    fields = (res.verdict, res.notes)
    if w is None:
        return fields
    return fields + (w.parity, poly_to_text(w.H1), poly_to_text(w.H2), scalar_to_text(w.scale))


def _linear_forms(field, count):
    coeff = st.integers(-3, 3)
    scalar = coeff if field == FIELD_Q else st.builds(GaussianRational, coeff, coeff)
    return st.lists(st.tuples(scalar, scalar, scalar), min_size=count, max_size=count)


def _form(coeffs, degree):
    return MultiPoly.make(CURVE_VARS, FIELD_QI, dict(zip(_monomials(degree), coeffs)))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([FIELD_Q, FIELD_QI]),
       st.sampled_from(["witness", "real", "random"]),
       st.integers(-2, 2), st.integers(-2, 2))
def test_odd_split_agrees_with_the_oracle(data, field, family, a, b):
    # on constructed split cubics (l1 H1^2 - l2 H2^2, and the real
    # l1 H^2 + l2 conj(H)^2) and random cubics, the one finisher gives the
    # odd solver's verdict, notes, H1, H2 and scale
    A = (Fraction(a), Fraction(b))
    l1, l2 = cyclic_tangent_pair(A)
    if family == "random":
        G = _form(data.draw(st.lists(st.integers(-3, 3), min_size=10, max_size=10)), 3)
        if field == FIELD_QI:
            G = G + _form(data.draw(st.lists(st.integers(-3, 3), min_size=10, max_size=10)),
                          3) * GaussianRational(0, 1)
    else:
        # conj(H) makes the real family real only for H outside Q[x, y, z]
        forms_field = FIELD_QI if family == "real" else field
        H1, H2 = (_form(c, 1) for c in data.draw(_linear_forms(forms_field, 2)))
        G = (l1 * H1 * H1 - l2 * H2 * H2 if family == "witness"
             else l1 * H1 * H1 + l2 * H1.conj() * H1.conj())
    assume(G.total_degree() == 3 and is_squarefree(G))
    C = PlaneCurve(G)
    try:
        want = odd_split_oracle(C, A)
    except CyclicTangentError:
        with pytest.raises(CyclicTangentError):
            split_test(C, A)
        return
    got = split_test(C, A)
    assert _split_text(got) == _split_text(want)
    if got.witness is not None:
        assert (got.witness.H1, got.witness.H2) == (want.witness.H1, want.witness.H2)


@pytest.mark.parametrize("delta", [5, 7])
def test_odd_split_with_the_pinned_H1(delta):
    # C = l1 U1^2 - l2 H2^2 with U1 the form the solver pins from the branch
    # data of l1 H1^2 - l2 H2^2: H1 = U1 and h = 0, so the one finisher
    # reads H2 off M(0) and certifies the split
    rng = random.Random(1900 + delta)
    m = (delta - 1) // 2
    l1, l2 = cyclic_tangent_pair(ORIGIN)
    found = 0
    while found < 2:
        H1, H2 = (random_form(rng, m).promote(FIELD_QI) for _ in range(2))
        G = l1 * H1 * H1 - l2 * H2 * H2
        if G.total_degree() != delta or not is_squarefree(G):
            continue
        _, p2, _, g2 = _branch_restrictions(G, ORIGIN)
        _, w2 = square_root_up_to_scalar(poly_exact_div(g2, _restrict(l1, p2)))
        U1 = _solve_form_with_restrictions(m, [(p2, w2)])
        C = PlaneCurve(l1 * U1 * U1 - l2 * H2 * H2)
        res = split_test(C, ORIGIN)
        assert res.verdict == "split" and res.notes == []
        assert res.witness.parity == "odd" and res.witness.identity_holds(C, ORIGIN)
        found += 1


def test_failing_odd_witness_is_a_bug(monkeypatch):
    monkeypatch.setattr(SplitWitness, "identity_holds", lambda self, C, A: False)
    with pytest.raises(InternalError):
        split_test(PlaneCurve.from_text("x^3+2*x^2*z-3*x*y^2+x*z^2-2*y^2*z"), ORIGIN)


@pytest.mark.parametrize("A", [ORIGIN, (Fraction(1), Fraction(-1)), (Fraction(-2), Fraction(1))])
def test_odd_components_multiply_to_the_proper_conchoid(A):
    # the real cubics l1 H^2 + l2 conj(H)^2 split; for each radius the two
    # components multiply to the proper conchoid, recentred to A, with no
    # spare factor l1
    l1, l2 = cyclic_tangent_pair(A)
    for text in ("x+i*y+z", "(1+i)*x-y+2*z", "x-2*i*z", "2*x+i*y-z"):
        H = parse_poly(text, FIELD_QI)
        C = PlaneCurve(l1 * H * H + l2 * H.conj() * H.conj())
        witness = split_test(C, A).witness
        moved = recenter(C, A)
        for r2 in (Fraction(1), Fraction(4), Fraction(9, 4)):
            comps = witness_components(C, A, r2, witness)
            circle = PlaneCurve.from_text(f"x^2+y^2-{r2}*z^2")
            resid = extract_known_components(conchoidal_transform(circle, moved),
                                             Scene(circle), moved).residual()
            proper = recenter(PlaneCurve(resid), (-A[0], -A[1])).equation
            assert proper.proportional_to(comps[0].equation * comps[1].equation), (text, r2)
