"""Acceptance suite: every criterion runs at its stated (exact) tolerance
and prints one pass line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
from fractions import Fraction

from conchoidal import (
    CircleSpec,
    MultiPoly,
    PlaneCurve,
    ProjPoint,
    Scene,
    conchoidal_transform,
    conic_focus_split,
    degree_genus_predict,
    elimination_crosscheck,
    extract_known_components,
    infinity_restriction,
    iterated_conchoid,
    membership_value,
    multiplicity_at,
    parse_poly,
    recognize_complete,
    recognize_proper,
    split_test,
    squarefree_part,
    tangent_cone_at,
    witness_components,
)
from conchoidal.gcd import multiplicity_of_factor

from helpers import (
    avoiding_special_points,
    curve_through_A,
    random_compliant_base,
    random_curve,
)

CIRCLE = PlaneCurve.from_text("x^2+y^2-z^2")
ORIGIN2 = (Fraction(0), Fraction(0))
INTRO_QUARTIC_AFFINE = parse_poly("4*y^2+x^4+x^2*y^2-4*x^3-4*x*y^2+3*x^2")
PARABOLA = PlaneCurve.from_text("(y+z)^2-(x^2+y^2)")
Q1 = parse_poly("x^4+(y^2-2*y*z)*x^2-2*y^3*z+y^2*z^2")
Q2 = parse_poly("x^4+(y^2-2*y*z-4*z^2)*x^2-2*y^3*z-3*y^2*z^2")


def report(n, text):
    print(f"criterion {n:2d}: PASS - {text}")


def test_c01_intro_quartic():
    T = conchoidal_transform(CIRCLE, PlaneCurve.from_text("x-2*z"))
    affine = T.equation.dehomogenize("z").with_vars(("x", "y"))
    assert affine.proportional_to(INTRO_QUARTIC_AFFINE.with_vars(("x", "y")))
    report(1, "transform(circle, x-2z) is the irreducible quartic of the classical limacon")


def test_c02_golden_decompositions():
    scene = Scene(CIRCLE)
    lineL = PlaneCurve.from_text("x")
    T1 = conchoidal_transform(CIRCLE, lineL)
    assert T1.equation.proportional_to(parse_poly("x^2*(x^2+y^2-z^2)"))
    div1 = extract_known_components(T1, scene, lineL)
    got1 = {(c.label, c.mult) for c in div1.components}
    assert got1 == {("input", 2), ("base", 1)}          # the divisor 2L + B
    assert div1.reconstruct() == T1.equation

    linf = PlaneCurve.from_text("z")
    T2 = conchoidal_transform(CIRCLE, linf)
    assert T2.equation.proportional_to(parse_poly("z^2*(x^2+y^2)"))
    div2 = extract_known_components(T2, scene, linf)
    got2 = {(c.label, c.mult) for c in div2.components}
    assert got2 == {("linf", 2), ("lineblock", 1)}      # 2 Linf + L1 + L2
    block = div2.component_with_label("lineblock")
    assert block.poly == parse_poly("x^2+y^2")
    assert div2.reconstruct() == T2.equation
    report(2, "es1 decompositions: 2L + B and 2Linf + (L1 + L2), exact units")


def test_c03_elimination_discrepancy():
    got = elimination_crosscheck(CIRCLE, PlaneCurve.from_text("x"))
    expected = parse_poly("x*(x^2+y^2-1)").with_vars(("x", "y"))
    assert got.proportional_to(expected)
    # squarefree support agrees with criterion 2's curve, multiplicity lost
    full = conchoidal_transform(CIRCLE, PlaneCurve.from_text("x"))
    support = squarefree_part(full.equation.dehomogenize("z").with_vars(("x", "y")))
    assert got.proportional_to(support)
    assert not got.proportional_to(full.equation.dehomogenize("z").with_vars(("x", "y")))
    report(3, "elimination returns X(X^2+Y^2-1): multiplicity 2 lost vs the divisor")


def test_c04_closed_form_line_conchoid():
    rng = random.Random(4441)
    done = 0
    while done < 10:
        a, b, c = (Fraction(rng.randint(-5, 5)) for _ in range(3))
        if not (a or b):
            continue
        line = PlaneCurve(parse_poly("x") * a + parse_poly("y") * b + parse_poly("z") * c)
        G = random_curve(rng, rng.randint(1, 3))
        T = conchoidal_transform(line, G)
        # the identity is scale-free: substitute the raw line a x + b y + c z
        raw = parse_poly("x") * a + parse_poly("y") * b + parse_poly("z") * c
        expected = G.equation.substitute({
            "x": parse_poly("x") * raw,
            "y": parse_poly("y") * raw,
            "z": (parse_poly("x") * a + parse_poly("y") * b) * parse_poly("z"),
        })
        assert T.equation.proportional_to(expected)
        done += 1
    report(4, "closed form transform(ax+by+cz, G) = G(x*l, y*l, (ax+by)z) on 10 cases")


def test_c05_transform_algebraic_laws():
    rng = random.Random(5551)
    observed_lines = []
    for trial in range(20):
        d = rng.randint(1, 3)
        delta = rng.randint(1, 3)
        B = random_curve(rng, d)
        C = random_curve(rng, delta)
        T = conchoidal_transform(B, C)
        # item 1: degree exactly 2 d delta
        assert T.degree == 2 * d * delta
        # item 2: symmetry
        assert conchoidal_transform(C, B).equation == T.equation

    # item 3: additivity on products of low degrees
    for _ in range(6):
        B = random_curve(rng, rng.randint(1, 2))
        C1 = random_curve(rng, 1)
        C2 = random_curve(rng, rng.randint(1, 2))
        lhs = conchoidal_transform(B, PlaneCurve(C1.equation * C2.equation))
        rhs = conchoidal_transform(B, C1).equation * conchoidal_transform(B, C2).equation
        assert lhs.equation.proportional_to(rhs)

    # item 5: A in C with multiplicity nu forces F^nu
    for _ in range(6):
        d = rng.randint(1, 2)
        delta = rng.randint(2, 3)
        nu = rng.randint(1, delta - 1)
        B = random_curve(rng, d)
        C = curve_through_A(rng, delta, nu)
        assert multiplicity_at(C, ProjPoint(0, 0, 1)) == nu
        T = conchoidal_transform(B, C)
        power, _ = multiplicity_of_factor(T.equation, B.equation)
        assert power >= nu

    # item 4: common point on the line at infinity
    for _ in range(6):
        eta = rng.randint(1, 2)
        eps = rng.randint(1, eta)
        d = rng.randint(max(eta, 2), 3)
        delta = rng.randint(max(eps, 1), 3)
        B = _curve_through_P_infinity(rng, d, eta)
        C = _curve_through_P_infinity(rng, delta, eps)
        eta_a = multiplicity_at(B, ProjPoint(1, 0, 0))
        eps_a = multiplicity_at(C, ProjPoint(1, 0, 0))
        if eps_a > eta_a:
            B, C, eta_a, eps_a = C, B, eps_a, eta_a
            d, delta = delta, d
        T = conchoidal_transform(B, C)
        assert multiplicity_at(T, ProjPoint(1, 0, 0)) >= eps_a * delta + eta_a * d
        line_power, _ = multiplicity_of_factor(T.equation, parse_poly("y"))
        bound = eps_a * (eta_a - eps_a) + eps_a * (eps_a + 1) // 2
        assert line_power >= bound
        observed_lines.append((eps_a, eta_a, line_power, bound))
    for eps_a, eta_a, line_power, bound in observed_lines:
        # conjectured sharper bound eps*eta is observed, asserted only at
        # the proven value
        print(f"    line AP multiplicity: observed {line_power}, proven bound {bound}, "
              f"conjectured {eps_a * eta_a} (eps={eps_a}, eta={eta_a})")
    report(5, "degree/symmetry/additivity/origin and infinity bounds on random pairs")


def _curve_through_P_infinity(rng, degree, mult):
    """Degree-`degree` curve with multiplicity exactly `mult` at [1:0:0]."""
    vars = ("x", "y", "z")
    while True:
        terms = {}
        for i in range(degree + 1):
            for j in range(degree - i + 1):
                k = degree - i - j
                if j + k < mult:
                    continue
                if rng.random() < 0.7:
                    c = Fraction(rng.randint(-4, 4))
                    if c:
                        terms[(i, j, k)] = c
        if not terms:
            continue
        eq = MultiPoly.make(vars, "Q", terms)
        if eq.is_zero() or eq.total_degree() != degree:
            continue
        try:
            curve = PlaneCurve(eq)
        except ValueError:
            continue
        if curve.top_form().is_zero():
            continue
        if multiplicity_at(curve, ProjPoint(1, 0, 0)) == mult:
            return curve


def test_c06_local_data_at_center_and_infinity():
    rng = random.Random(6661)
    done = 0
    while done < 5:
        B = random_compliant_base(rng, 2)
        delta = rng.randint(1, 2)
        C = avoiding_special_points(rng, delta, B)
        from conchoidal.gcd import is_squarefree

        if not (is_squarefree(B.top_form()) and is_squarefree(C.top_form())):
            continue
        T = conchoidal_transform(B, C)
        assert multiplicity_at(T, ProjPoint(0, 0, 1)) == 2 * delta
        assert infinity_restriction(T).proportional_to(
            B.top_form() ** delta * C.top_form() ** 2)
        done += 1
    # tangent cone for a line input
    done = 0
    while done < 5:
        B = random_compliant_base(rng, 2)
        a, b, c = (Fraction(rng.randint(-4, 4)) for _ in range(3))
        if not (a or b) or not c:
            continue
        line = PlaneCurve(parse_poly("x") * a + parse_poly("y") * b + parse_poly("z") * c)
        if not line.equation.evaluate({"x": Fraction(0), "y": Fraction(0), "z": Fraction(1)}):
            continue
        T = conchoidal_transform(B, line)
        cone = tangent_cone_at(T, ProjPoint(0, 0, 1))
        expected = B.equation.substitute({
            "x": parse_poly("x") * c,
            "y": parse_poly("y") * c,
            "z": parse_poly("x") * a + parse_poly("y") * b,
        }).with_vars(("x", "y"))
        assert cone.proportional_to(expected)
        done += 1
    report(6, "multiplicity d*delta at A, tangent cone F(cx,cy,ax+by), infinity powers")


def test_c07_genus_formula():
    assert degree_genus_predict(2, 0, 1, 0) == (4, Fraction(0))
    assert degree_genus_predict(2, 0, 2, 0) == (8, Fraction(1))
    rng = random.Random(7771)
    checked = 0
    while checked < 10:
        d = rng.randint(1, 5)
        delta = rng.randint(1, 5)
        g = Fraction((d - 1) * (d - 2), 2)
        gamma = Fraction(rng.randint(0, 4))
        degree, genus = degree_genus_predict(d, g, delta, gamma)
        # independent direct arithmetic
        assert degree == 2 * d * delta
        assert genus == d * gamma + delta * g + (d - 1) * (delta - 1)
        checked += 1
    report(7, "degree 2*d*delta and genus d*gamma + delta*g + (d-1)(delta-1)")


def test_c08_parabola_splitting():
    res = split_test(PARABOLA, ORIGIN2)
    assert res.verdict == "split" and res.witness is not None
    assert res.witness.identity_holds(PARABOLA, ORIGIN2)
    comps = witness_components(PARABOLA, ORIGIN2, Fraction(1), res.witness)
    got = {c.equation for c in comps}
    assert got == {PlaneCurve(Q1).equation, PlaneCurve(Q2).equation}
    # product times exceptional factors reconstructs the transform
    T = conchoidal_transform(CIRCLE, PARABOLA)
    div = extract_known_components(T, Scene(CIRCLE), None)
    product = comps[0].equation * comps[1].equation
    recon = MultiPoly.constant(div.unit, ("x", "y", "z"))
    for comp in div.components:
        if comp.label != "residual":
            recon = recon * comp.poly ** comp.mult
    assert div.residual() is not None and div.residual().proportional_to(product)
    assert (recon * div.residual()).proportional_to(T.equation)
    report(8, "parabola splits into the two known quartics; product rebuilds the transform")


def test_c09_focus_criterion():
    rng = random.Random(9991)
    done = 0
    while done < 20:
        conic, A = _random_smooth_conic_and_point(rng)
        if conic is None:
            continue
        fc, _ = conic_focus_split(conic, A)
        st = split_test(conic, A)
        assert st.verdict in ("split", "irreducible")
        assert (st.verdict == "split") is fc
        done += 1
    ellipse = PlaneCurve.from_text("1/25*x^2+1/9*y^2-z^2")
    lattice = [(x, y) for x in (-4, 0, 4) for y in (-1, 0, 1)]
    assert len(lattice) == 9
    for (x, y) in lattice:
        A = (Fraction(x), Fraction(y))
        expected = (x, y) in ((4, 0), (-4, 0))
        assert (split_test(ellipse, A).verdict == "split") is expected
        assert conic_focus_split(ellipse, A)[0] is expected
    report(9, "split_test = conic_focus_split on 20 conics; ellipse splits only at foci")


def _random_smooth_conic_and_point(rng):
    from conchoidal.errors import DegenerateConicError
    from conchoidal.gcd import is_squarefree

    coeffs = {}
    for mono in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
        c = Fraction(rng.randint(-4, 4))
        if c:
            coeffs[mono] = c
    eq = MultiPoly.make(("x", "y", "z"), "Q", coeffs)
    if eq.is_zero() or eq.total_degree() != 2:
        return None, None
    try:
        conic = PlaneCurve(eq)
        if not is_squarefree(conic.equation):
            return None, None
        A = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        conic_focus_split(conic, A)     # raises on degenerate conics
        return conic, A
    except (ValueError, DegenerateConicError):
        return None, None


def test_c10_iterated_conchoid():
    C = PlaneCurve.from_text("x-3*z")
    div = iterated_conchoid(CircleSpec(ORIGIN2, Fraction(1)), C, 2)
    assert div.total_degree() == 16
    assert div.multiplicity("base") == 2
    assert div.multiplicity("lineblock") == 3          # L1 and L2, three times each
    assert div.multiplicity("input") == 2
    twice = CircleSpec(ORIGIN2, Fraction(4)).curve()
    assert div.residual().proportional_to(conchoidal_transform(twice, C).equation)
    report(10, "second conchoid of x-3z: degree 16, (B:2, L:3+3, C:2), residual = r=2 conchoid")


def test_c11_recognition_round_trip():
    quartic = PlaneCurve(INTRO_QUARTIC_AFFINE.with_vars(("x", "y")).homogenize("z", 4))
    rep = recognize_complete(quartic)
    assert rep.verdict == "yes"
    cand = rep.candidates[0]
    assert cand.center == (Fraction(0), Fraction(0))
    assert cand.r2 == Fraction(1)
    assert PlaneCurve(cand.witness).equation == parse_poly("x-2*z")

    rep2 = recognize_proper(PlaneCurve(Q2))
    assert rep2.verdict == "yes"
    assert rep2.candidates[0].center == (Fraction(0), Fraction(0))
    report(11, "complete recognition recovers (A=(0,0), r2=1, x-2z); proper says yes at origin")


def test_c12_membership_oracle_consistency():
    rng = random.Random(121212)
    pairs = 0
    total_points = 0
    while pairs < 5:
        B = random_curve(rng, rng.randint(1, 2))
        C = random_curve(rng, rng.randint(1, 2))
        T = conchoidal_transform(B, C)
        for _ in range(10):
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
            m = membership_value(B, C, ProjPoint.affine(a, b))
            if m.degenerate:
                continue
            tval = T.equation.evaluate({"x": a, "y": b, "z": Fraction(1)})
            assert (m.value == 0) == (tval == 0)
            total_points += 1
        pairs += 1
    assert total_points >= 45
    report(12, f"membership oracle vanishing matches the transform on {total_points} points")
