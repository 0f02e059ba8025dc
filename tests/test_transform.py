import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conchoidal import (
    FIELD_Q,
    FIELD_QI,
    Divisor,
    GaussianRational,
    PlaneCurve,
    ProjPoint,
    Scene,
    conchoidal_transform,
    degree_genus_predict,
    elimination_crosscheck,
    extract_known_components,
    infinity_restriction,
    membership_value,
    multiplicity_at,
    parse_poly,
    recenter,
    tangent_cone_at,
)
from conchoidal.errors import (
    DegenerateMembershipError,
    EliminationDegenerateError,
    IdenticallyZeroError,
    InvalidSceneError,
)

from helpers import (
    avoiding_special_points,
    curve_through_A,
    random_compliant_base,
    random_curve,
    random_form,
)

CIRCLE = PlaneCurve.from_text("x^2+y^2-z^2")
INTRO_QUARTIC = parse_poly("4*y^2*z^2 + x^4 + x^2*y^2 - 4*x^3*z - 4*x*y^2*z + 3*x^2*z^2")


def test_transform_two_lines_is_hyperbola():
    T = conchoidal_transform(PlaneCurve.from_text("x+y+z"),
                             PlaneCurve.from_text("x-y+2*z"))
    expected = -(parse_poly("(x+y+z)*(x-y+2*z)-2*z^2"))
    assert T.equation.proportional_to(expected)


def test_transform_circle_line_intro_quartic():
    T = conchoidal_transform(CIRCLE, PlaneCurve.from_text("x-2*z"))
    assert T.equation.proportional_to(INTRO_QUARTIC)
    assert T.degree == 4


def test_transform_circle_with_infinity_line():
    T = conchoidal_transform(CIRCLE, PlaneCurve.from_text("z"))
    assert T.equation.proportional_to(parse_poly("z^2*(x^2+y^2)"))


def test_transform_both_z_raises():
    with pytest.raises(IdenticallyZeroError):
        conchoidal_transform(PlaneCurve.from_text("z"), PlaneCurve.from_text("z^2"))


def test_line_base_closed_form():
    # with a line base the transform is G evaluated on the quadratic triple
    rng = random.Random(101)
    for _ in range(6):
        a, b, c = (Fraction(rng.randint(-4, 4)) for _ in range(3))
        if not (a or b):
            continue
        line = parse_poly("x") * a + parse_poly("y") * b + parse_poly("z") * c
        G = random_curve(rng, rng.randint(1, 3))
        T = conchoidal_transform(PlaneCurve(line), G)
        ell = line
        expected = G.equation.substitute({
            "x": parse_poly("x") * ell,
            "y": parse_poly("y") * ell,
            "z": (parse_poly("x") * a + parse_poly("y") * b) * parse_poly("z"),
        })
        assert T.equation.proportional_to(expected)


def test_membership_values():
    line = PlaneCurve.from_text("x-2*z")
    # (3,0) lies at distance 1 beyond (2,0); plug into the quartic to confirm
    assert INTRO_QUARTIC.evaluate({"x": Fraction(3), "y": Fraction(0), "z": Fraction(1)}) == 0
    assert membership_value(CIRCLE, line, ProjPoint.affine(3, 0)).value == 0
    assert INTRO_QUARTIC.evaluate({"x": Fraction(0), "y": Fraction(5), "z": Fraction(1)}) == 100
    assert membership_value(CIRCLE, line, ProjPoint.affine(0, 5)).value != 0
    with pytest.raises(ValueError):
        membership_value(CIRCLE, line, ProjPoint(1, 0, 0))


def test_membership_matches_transform_up_to_fixed_factor():
    rng = random.Random(55)
    line = PlaneCurve.from_text("x-2*z")
    T = conchoidal_transform(CIRCLE, line)
    ratios = set()
    for _ in range(8):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        m = membership_value(CIRCLE, line, ProjPoint.affine(a, b))
        tv = T.equation.evaluate({"x": a, "y": b, "z": Fraction(1)})
        if tv:
            ratios.add(m.value / tv)
    assert len(ratios) == 1


def test_membership_degenerate_flag():
    # Q on a direction hitting both curves at infinity: B = C = parabola-ish
    B = PlaneCurve.from_text("y*z-x^2")
    C = PlaneCurve.from_text("y*z-2*x^2")
    m = membership_value(B, C, ProjPoint.affine(0, 7))
    assert m.f_degree_drop and m.g_degree_drop and m.degenerate
    with pytest.raises(DegenerateMembershipError):
        m.vanishes()


def test_multiplicity_examples():
    T = conchoidal_transform(CIRCLE, PlaneCurve.from_text("x-2*z"))
    assert multiplicity_at(T, ProjPoint(0, 0, 1)) == 2      # delta*d = 1*2
    assert multiplicity_at(CIRCLE, ProjPoint(1, 0, 1)) == 1
    assert multiplicity_at(PlaneCurve.from_text("z^2*(x^2+y^2)"), ProjPoint(0, 0, 1)) == 2
    assert multiplicity_at(CIRCLE, ProjPoint(5, 0, 1)) == 0
    # at infinity
    assert multiplicity_at(PlaneCurve.from_text("y*z-x^2"), ProjPoint(0, 1, 0)) == 1


def _over(field, rng, curve):
    """The curve itself over Q; over Q(i), plus i times a random curve of its
    degree and of its multiplicity at A = [0:0:1]."""
    if field == FIELD_Q:
        return curve
    nu = multiplicity_at(curve, ProjPoint(0, 0, 1))
    other = curve_through_A(rng, curve.degree, nu).equation if nu \
        else random_form(rng, curve.degree)
    return PlaneCurve(curve.equation + other * GaussianRational(0, 1))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from((FIELD_Q, FIELD_QI)))
def test_the_conchoid_has_multiplicity_d_delta_at_A(seed, d, delta, field):
    # A = [0:0:1] is a point of multiplicity d*delta of the conchoid of a
    # generic pair, so its z-degree is d*delta, half its degree: the cap
    # under which poly_matrix_det samples it.  A C through A keeps it >= d*delta
    A = ProjPoint(0, 0, 1)
    rng = random.Random(seed)
    B = random_compliant_base(rng, d)
    C = avoiding_special_points(rng, delta, B)
    B, C = _over(field, rng, B), _over(field, rng, C)
    T = conchoidal_transform(B, C)
    assert T.field == field
    assert multiplicity_at(T, A) == d * delta
    assert T.equation.degree_in("z") == d * delta
    C = _over(field, rng, curve_through_A(rng, delta, rng.randint(1, delta)))
    assert multiplicity_at(conchoidal_transform(B, C), A) >= d * delta


def test_tangent_cone_examples():
    T = conchoidal_transform(CIRCLE, PlaneCurve.from_text("x-2*z"))
    cone = tangent_cone_at(T, ProjPoint(0, 0, 1))
    # F(cx, cy, ax+by) for F the circle and the line x - 2z:
    # F(-2x, -2y, x) = 3x^2 + 4y^2, also the product of the lines joining A
    # to circle /\ {x+2z} = [-2 : +-i sqrt(3) : 1]
    assert cone.proportional_to(parse_poly("3*x^2+4*y^2").with_vars(("x", "y")))
    cusp = PlaneCurve.from_text("x^2*z-y^3")
    assert tangent_cone_at(cusp, ProjPoint(0, 0, 1)).proportional_to(
        parse_poly("x^2").with_vars(("x", "y")))
    with pytest.raises(ValueError):
        tangent_cone_at(CIRCLE, ProjPoint(5, 0, 1))


def test_tangent_cone_formula_for_line_inputs():
    rng = random.Random(77)
    for _ in range(5):
        B = random_compliant_base(rng, 2)
        a, b, c = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 4))
        if not (a or b):
            continue
        line = PlaneCurve(parse_poly("x") * a + parse_poly("y") * b + parse_poly("z") * c)
        T = conchoidal_transform(B, line)
        cone = tangent_cone_at(T, ProjPoint(0, 0, 1))
        expected = B.equation.substitute({
            "x": parse_poly("x") * c,
            "y": parse_poly("y") * c,
            "z": parse_poly("x") * a + parse_poly("y") * b,
        }).with_vars(("x", "y"))
        assert cone.proportional_to(expected)


def test_infinity_restriction():
    line = PlaneCurve.from_text("2*x+3*y+5*z")
    T = conchoidal_transform(CIRCLE, line)
    expected = parse_poly("(2*x+3*y)^2*(x^2+y^2)").with_vars(("x", "y"))
    assert infinity_restriction(T).proportional_to(expected)
    assert infinity_restriction(PlaneCurve.from_text("z^2*(x^2+y^2)")).is_zero()


def test_infinity_restriction_generic_top_forms():
    rng = random.Random(88)
    done = 0
    while done < 4:
        B = random_compliant_base(rng, 2)
        C = avoiding_special_points(rng, 2, B)
        from conchoidal.gcd import is_squarefree

        if not (is_squarefree(C.top_form()) and is_squarefree(B.top_form())):
            continue
        T = conchoidal_transform(B, C)
        expected = B.top_form() ** C.degree * C.top_form() ** B.degree
        assert infinity_restriction(T).proportional_to(expected)
        done += 1


def test_scene_validation():
    with pytest.raises(InvalidSceneError):
        Scene(PlaneCurve.from_text("z*x"))
    s = Scene(PlaneCurve.from_text("x^2+y^2-z^2"))
    assert s.warnings == []
    s2 = Scene(PlaneCurve.from_text("x^2+y^2-x*z"))   # passes through A? F(0,0,1)=0
    assert "base curve passes through A" in s2.warnings[0]


def test_extract_known_components_es1():
    scene = Scene(CIRCLE)
    lineL = PlaneCurve.from_text("x")
    T1 = conchoidal_transform(CIRCLE, lineL)
    div = extract_known_components(T1, scene, lineL)
    assert div.multiplicity("input") == 2
    assert div.multiplicity("base") == 1
    assert div.residual() is None
    assert div.reconstruct() == T1.equation

    linf = PlaneCurve.from_text("z")
    T2 = conchoidal_transform(CIRCLE, linf)
    div2 = extract_known_components(T2, scene, linf)
    assert div2.multiplicity("linf") == 2
    blocks = [c for c in div2.components if c.label == "lineblock"]
    assert len(blocks) == 1 and blocks[0].poly == parse_poly("x^2+y^2") and blocks[0].mult == 1
    assert div2.reconstruct() == T2.equation


def test_extract_generic_all_residual():
    rng = random.Random(91)
    B = random_compliant_base(rng, 2)
    C = avoiding_special_points(rng, 2, B)
    T = conchoidal_transform(B, C)
    div = extract_known_components(T, Scene(B), C)
    assert div.multiplicity("base") == 0 == div.multiplicity("input")
    assert div.residual() is not None and div.reconstruct() == T.equation


def test_divisor_json_roundtrip():
    scene = Scene(CIRCLE)
    lineL = PlaneCurve.from_text("x")
    div = extract_known_components(conchoidal_transform(CIRCLE, lineL), scene, lineL)
    data = json.loads(div.to_json())
    assert set(data) == {"unit", "components"}
    for comp in data["components"]:
        assert set(comp) == {"poly", "mult", "label"}
        assert comp["label"] in ("base", "linf", "lineblock", "input", "residual")
    again = Divisor.from_json(div.to_json())
    assert again.reconstruct() == div.reconstruct()


def test_elimination_crosscheck_es1():
    got = elimination_crosscheck(CIRCLE, PlaneCurve.from_text("x"))
    assert got.proportional_to(parse_poly("x^3+x*y^2-x").with_vars(("x", "y")))


def test_elimination_crosscheck_intro_line():
    got = elimination_crosscheck(CIRCLE, PlaneCurve.from_text("x-2*z"))
    quartic_aff = INTRO_QUARTIC.dehomogenize("z").with_vars(("x", "y"))
    assert got.proportional_to(quartic_aff.monic())


def test_elimination_crosscheck_generic_lines():
    B = PlaneCurve.from_text("x+y+z")
    C = PlaneCurve.from_text("x-y+2*z")
    got = elimination_crosscheck(B, C)
    hyper = conchoidal_transform(B, C).equation.dehomogenize("z").with_vars(("x", "y"))
    from conchoidal import squarefree_part

    assert got.proportional_to(squarefree_part(hyper))


def test_elimination_degenerate():
    with pytest.raises(EliminationDegenerateError):
        elimination_crosscheck(CIRCLE, PlaneCurve.from_text("z"))


def test_recenter():
    f = PlaneCurve.from_text("(x-z)^2+y^2-z^2")
    assert recenter(f, (Fraction(1), Fraction(0))).equation == parse_poly("x^2+y^2-z^2")
    g = PlaneCurve.from_text("x^2+3*y^2-y*z-z^2")
    back = recenter(recenter(g, (Fraction(2), Fraction(-3))), (Fraction(-2), Fraction(3)))
    assert back.equation == g.equation
    P = ProjPoint.affine(2, -3)
    assert multiplicity_at(g, P) == multiplicity_at(
        recenter(g, (Fraction(2), Fraction(-3))), ProjPoint(0, 0, 1))


def test_degree_genus_predict():
    assert degree_genus_predict(2, 0, 1, 0) == (4, Fraction(0))
    assert degree_genus_predict(2, 0, 2, 0) == (8, Fraction(1))
    assert degree_genus_predict(3, 1, 1, 0) == (6, Fraction(1))
    with pytest.raises(ValueError):
        degree_genus_predict(3, 0, 1, 0)     # genus inconsistent with degree
    with pytest.raises(ValueError):
        degree_genus_predict(0, 0, 1, 0)


def test_membership_single_degree_drop_is_not_degenerate():
    # Q in the asymptotic direction of B only: F's specialization drops
    # degree, G's does not; the value stays usable
    B = PlaneCurve.from_text("y*z-x^2")     # infinity point [0:1:0]
    C = PlaneCurve.from_text("y-2*z")       # horizontal: misses [0:1:0]
    m = membership_value(B, C, ProjPoint.affine(0, 3))
    assert m.f_degree_drop and not m.g_degree_drop and not m.degenerate
    T = conchoidal_transform(B, C)
    tval = T.equation.evaluate({"x": Fraction(0), "y": Fraction(3), "z": Fraction(1)})
    assert (m.value == 0) == (tval == 0)
