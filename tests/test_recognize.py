import json
from fractions import Fraction

import pytest

from conchoidal import (
    CircleSpec,
    PlaneCurve,
    candidate_radii,
    conchoidal_transform,
    iterated_conchoid,
    parse_poly,
    recognize_complete,
    recognize_proper,
)

UNIT = CircleSpec((Fraction(0), Fraction(0)), Fraction(1))
INTRO_QUARTIC = PlaneCurve.from_text(
    "4*y^2*z^2 + x^4 + x^2*y^2 - 4*x^3*z - 4*x*y^2*z + 3*x^2*z^2")
Q2 = PlaneCurve.from_text("x^4+(y^2-2*y*z-4*z^2)*x^2-2*y^3*z-3*y^2*z^2")


def test_circle_spec_curve():
    c = CircleSpec((Fraction(1), Fraction(0)), Fraction(4)).curve()
    assert c.equation == parse_poly("(x-z)^2+y^2-4*z^2").monic()
    with pytest.raises(ValueError):
        CircleSpec((Fraction(0), Fraction(0)), Fraction(0))


def test_iterated_n1_is_plain_transform():
    C = PlaneCurve.from_text("x-3*z")
    div = iterated_conchoid(UNIT, C, 1)
    T = conchoidal_transform(UNIT.curve(), C)
    assert div.reconstruct() == T.equation
    assert div.residual() is not None


def test_iterated_second_conchoid_line():
    C = PlaneCurve.from_text("x-3*z")
    div = iterated_conchoid(UNIT, C, 2)
    assert div.total_degree() == 16
    assert div.multiplicity("base") == 2
    assert div.multiplicity("lineblock") == 3     # the pair L1 + L2, thrice each
    assert div.multiplicity("input") == 2
    residual = div.residual()
    twice = CircleSpec((Fraction(0), Fraction(0)), Fraction(4)).curve()
    assert residual.proportional_to(conchoidal_transform(twice, C).equation)


def test_iterated_requires_origin_center():
    with pytest.raises(ValueError):
        iterated_conchoid(CircleSpec((Fraction(1), Fraction(0)), Fraction(1)),
                          PlaneCurve.from_text("x-3*z"), 2)


def test_candidate_radii_intro_quartic():
    # probe y = 0 meets the quartic at x = 0, 1, 3: the pair (1,0),(3,0) at
    # distance 2 contributes s/4 = 1
    radii, notes = candidate_radii(INTRO_QUARTIC, (Fraction(0), Fraction(0)))
    assert Fraction(1) in radii
    assert notes == []
    d = INTRO_QUARTIC.equation.partial_eval({"y": Fraction(0), "z": Fraction(1)})
    assert d.proportional_to(parse_poly("x^4-4*x^3+3*x^2").with_vars(("x", "y")))


def test_candidate_radii_circle_probe():
    circle2 = PlaneCurve.from_text("x^2+y^2-4*z^2")
    radii, _ = candidate_radii(circle2, (Fraction(0), Fraction(0)))
    # points (0, +-2): s = 16 gives {4, 16}
    assert Fraction(4) in radii and Fraction(16) in radii


def test_candidate_radii_no_rational_hits():
    # the axis probes meet x^2 + y^2 = 3 z^2 only at irrational points, so
    # no candidates can be emitted
    curve = PlaneCurve.from_text("x^2+y^2-3*z^2")
    radii, _ = candidate_radii(curve, (Fraction(0), Fraction(0)))
    assert radii == []


def test_candidate_radii_probe_contained():
    degenerate = PlaneCurve.from_text("x*y")    # contains both default probes
    radii, notes = candidate_radii(degenerate, (Fraction(0), Fraction(0)))
    assert any("contained" in n for n in notes)


def test_recognize_complete_roundtrip():
    rep = recognize_complete(INTRO_QUARTIC)
    assert rep.verdict == "yes"
    cand = rep.candidates[0]
    assert cand.center == (Fraction(0), Fraction(0))
    assert cand.r2 == Fraction(1)
    assert PlaneCurve(cand.witness).equation == parse_poly("x-2*z")


def test_recognize_complete_wrong_degree():
    rep = recognize_complete(PlaneCurve.from_text("x^2+y^2-z^2"))
    assert rep.verdict == "no"
    assert rep.checks[-1].name == "degree-multiple-of-4"
    assert not rep.checks[-1].passed


def test_recognize_complete_no_multiple_point():
    # same infinity behaviour as the limacon but smooth in the affine plane
    pert = PlaneCurve.from_text(
        "4*y^2*z^2 + x^4 + x^2*y^2 - 4*x^3*z - 4*x*y^2*z + 3*x^2*z^2 + z^4")
    rep = recognize_complete(pert)
    assert rep.verdict == "no"
    failing = [c for c in rep.checks if not c.passed]
    assert failing and failing[0].name == "high-multiplicity-point"


def test_recognize_complete_bad_infinity():
    rep = recognize_complete(PlaneCurve.from_text("x^4+y^4-z^4"))
    assert rep.verdict == "no"
    failing = [c for c in rep.checks if not c.passed]
    assert failing[0].name == "infinity-splits"


def test_recognize_proper_quartic_component():
    rep = recognize_proper(Q2)
    assert rep.verdict == "yes"
    assert rep.candidates[0].center == (Fraction(0), Fraction(0))


def test_recognize_proper_trivial_and_inconclusive():
    rep = recognize_proper(PlaneCurve.from_text("x-2*z"))
    assert rep.verdict == "no"
    conic = PlaneCurve.from_text("x^2+2*y^2-3*z^2")
    rep2 = recognize_proper(conic)
    # tangency offsets are irrational: never a definitive no
    assert rep2.verdict == "inconclusive"


def test_report_json_schema():
    rep = recognize_complete(INTRO_QUARTIC)
    data = json.loads(rep.to_json())
    assert set(data) == {"verdict", "checks", "candidates"}
    for check in data["checks"]:
        assert set(check) == {"name", "passed", "detail"}
    for cand in data["candidates"]:
        assert set(cand) == {"center", "r2", "witness"}
        assert cand["center"] == ["0", "0"]
        assert cand["r2"] == "1"
        assert cand["witness"] == "x - 2*z"


def test_recognize_complete_generic_conic_roundtrip():
    circle = PlaneCurve.from_text("x^2+y^2-z^2")
    conic = PlaneCurve.from_text("1/4*x^2+1/9*y^2-z^2")
    D = conchoidal_transform(circle, conic)
    rep = recognize_complete(D)
    assert rep.verdict == "yes"
    cand = rep.candidates[0]
    assert cand.center == (Fraction(0), Fraction(0))
    assert cand.r2 == Fraction(1)
    assert PlaneCurve(cand.witness).equation == conic.equation


def test_recognize_complete_off_origin_center():
    # classical conchoid about A = (1,-2): the origin-frame picture
    # translated out to A
    from conchoidal import recenter

    line0 = PlaneCurve.from_text("x-3*z")
    D0 = conchoidal_transform(PlaneCurve.from_text("x^2+y^2-z^2"), line0)
    A = (Fraction(1), Fraction(-2))
    D = recenter(D0, (-A[0], -A[1]))
    rep = recognize_complete(D)
    assert rep.verdict == "yes"
    cand = rep.candidates[0]
    assert cand.center == A and cand.r2 == Fraction(1)
    assert PlaneCurve(cand.witness).equation == recenter(line0, (-A[0], -A[1])).equation


def test_recognize_complete_conic_with_double_component():
    # the complete conchoid of this conic once took minutes, nearly all of
    # it in the gcds that look for the double component
    from conchoidal import recenter

    conic = PlaneCurve.from_text("x^2-1/9*x*y-5/12*y^2-1/3*y*z")
    D = recenter(conchoidal_transform(UNIT.curve(), conic), (Fraction(-2), Fraction(0)))
    rep = recognize_complete(D)
    assert rep.verdict == "yes"
    cand = rep.candidates[0]
    assert cand.center == (Fraction(2), Fraction(0)) and cand.r2 == Fraction(1)
    assert PlaneCurve(cand.witness).equation == recenter(conic, (Fraction(-2), Fraction(0))).equation


def test_recognize_proper_off_origin_center():
    from conchoidal import recenter

    A = (Fraction(-2), Fraction(1))
    D = recenter(Q2, (-A[0], -A[1]))
    rep = recognize_proper(D)
    assert rep.verdict == "yes"
    assert rep.candidates[0].center == A


def test_iterated_second_conchoid_conic():
    # degree-32 pattern with delta = 2: circle 2*delta, line block 3*delta,
    # input twice, residual the doubled-radius conchoid
    C = PlaneCurve.from_text("x^2+2*y^2-9*z^2")
    div = iterated_conchoid(UNIT, C, 2)
    assert div.total_degree() == 32
    assert div.multiplicity("base") == 4
    assert div.multiplicity("lineblock") == 6
    assert div.multiplicity("input") == 2
    twice = CircleSpec((Fraction(0), Fraction(0)), Fraction(4)).curve()
    assert div.residual().proportional_to(conchoidal_transform(twice, C).equation)


def test_recognize_proper_circle_is_a_genuine_yes():
    # the radius-2 circle is the outer component of the proper conchoid of
    # the concentric unit circle, so the pipeline verifies a witness
    rep = recognize_proper(PlaneCurve.from_text("x^2+y^2-4*z^2"))
    assert rep.verdict == "yes"
    assert PlaneCurve(rep.candidates[0].witness).equation == \
        PlaneCurve.from_text("x^2+y^2-z^2").equation


def test_recognize_complete_gaussian_center_is_not_a_certified_no():
    # the conchoid of a line moved to the center (0, i): the 2-fold point
    # has a non-rational y-coordinate, so the search cannot certify "no"
    from conchoidal.curves import recenter
    from conchoidal.fields import GaussianRational

    r4 = CircleSpec((Fraction(0), Fraction(0)), Fraction(4)).curve()
    T = conchoidal_transform(r4, PlaneCurve.from_text("x-3*z"))
    D = recenter(T, (Fraction(0), GaussianRational(0, -1)))
    assert recognize_complete(D).verdict == "inconclusive"
