import json

import pytest

from conchoidal import PlaneCurve, cli
from conchoidal.cli import main
from conchoidal.errors import InternalError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_transform_prints_intro_quartic(capsys):
    code, out, _ = run(capsys, "transform", "--B", "x^2+y^2-z^2", "--C", "x-2*z")
    assert code == 0
    assert "x^4 - 4*x^3*z + x^2*y^2 + 3*x^2*z^2 - 4*x*y^2*z + 4*y^2*z^2" in out


def test_transform_proper_divisor_json(capsys):
    code, out, _ = run(capsys, "transform", "--B", "x^2+y^2-z^2", "--C", "x",
                       "--proper", "--json")
    assert code == 0
    data = json.loads(out)
    comps = {c["label"]: c for c in data["divisor"]["components"]}
    assert comps["input"]["mult"] == 2
    assert comps["base"]["mult"] == 1


def test_genus(capsys):
    code, out, _ = run(capsys, "genus", "--d", "2", "--delta", "1")
    assert code == 0
    assert "degree 4, genus 0" in out


def test_affine_flag(capsys):
    code, out, _ = run(capsys, "transform", "--B", "x^2+y^2-z^2", "--C", "x-2", "--affine")
    assert code == 0
    assert "4*y^2" in out
    code, _, err = run(capsys, "transform", "--B", "x^2+y^2-z^2", "--C", "x-2")
    assert code == 2
    assert "affine" in err


def test_syntax_error_offset(capsys):
    code, _, err = run(capsys, "transform", "--B", "x^2+", "--C", "x")
    assert code == 2
    assert "offset 4" in err


def test_split_exit_codes(capsys):
    code, out, _ = run(capsys, "split", "--C", "(y+z)^2-(x^2+y^2)")
    assert code == 0 and "split" in out
    code, _, _ = run(capsys, "split", "--C", "x^2+2*y^2-3*z^2")
    assert code == 1
    code, out, _ = run(capsys, "split", "--C", "1/25*x^2+1/9*y^2-z^2", "--center", "4,0")
    assert code == 0


def test_split_of_uncertified_curve_is_inconclusive(capsys):
    # the criterion is stated for an irreducible curve: without a
    # certificate of absolute irreducibility there is no "irreducible"
    # answer.  (x-2*z)*(x+y-5*z) has a proper conchoid divisible by the
    # conchoid of x-2*z; x^2-2*z^2 splits into the lines x = ±√2 z.
    for curve in ("(x-2*z)*(x+y-5*z)", "x^2-2*z^2", "(x-2*z)*(y-3*z)"):
        code, out, _ = run(capsys, "split", "--C", curve)
        assert code == 3, curve
        assert "verdict: inconclusive" in out
        assert "not certified absolutely irreducible" in out


def test_split_cyclic_tangent_is_math_error(capsys):
    # a curve containing a line through A and a cyclic point is a
    # mathematical degeneracy (exit 1), not a usage error (exit 2)
    for curve in ("x^2+y^2", "(x^2+y^2)*(x-z)"):
        code, _, err = run(capsys, "split", "--C", curve)
        assert code == 1
        assert err.startswith("error:") and "cyclic tangent line" in err


def test_internal_error_is_not_a_verdict(capsys, monkeypatch):
    # a broken invariant exits 4, never 1 ("no") or 2 (usage)
    def broken(*args):
        raise InternalError("split witness failed verification")

    monkeypatch.setattr(cli, "split_test", broken)
    code, _, err = run(capsys, "split", "--C", "(y+z)^2-(x^2+y^2)")
    assert code == 4
    assert err.startswith("internal error: split witness failed verification")


def test_broken_determinant_sample_is_an_internal_error(capsys, monkeypatch):
    # the conchoid's coefficient lists are forms, so its degree is certain and
    # a nonzero residual can only be a bug: exit 4, not a "degree bound" no.
    # Each determinant of four transforms, every grid sample of each batched
    # Bareiss output and the residual, is corrupted in turn by +1, -1, +2, +6
    # and the prime 10**9 + 7, before any pseudo-remainder division, and
    # every one of the 780 runs is an InternalError: the checked forward
    # differences catch what their divisions would round away, the exact
    # division by a^2 of the circle x cubic samples (2x2 after a
    # pseudo-remainder step) what it leaves inexact, and the off-grid
    # residual the rest.  The Q(i) pair's samples are packed Gaussian
    # integers.  About 1 s.
    from conchoidal import resultant
    from conchoidal.transform import conchoidal_transform

    exact = resultant._bareiss
    calls, corrupt = [], [0, 0]          # the sample to corrupt, and by how much

    def corrupted(mat):
        values = exact(mat)
        j = corrupt[0] - len(calls) - 1      # its place in this batch
        calls.extend([len(mat)] * len(values))
        if 0 <= j < len(values):
            values = values[:j] + [values[j] + corrupt[1]] + values[j + 1:]
        return values

    monkeypatch.setattr(resultant, "_bareiss", corrupted)

    def messages(B, C, offset, count):
        out = set()
        for j in range(1, count + 1):
            calls.clear()
            corrupt[:] = [j, offset]
            with pytest.raises(InternalError) as raised:
                conchoidal_transform(B, C)
            out.add(str(raised.value))
        return out

    # (B, C, field, sample and residual sizes, whether the samples divide by a^e > 1)
    for B, C, field, sizes, divided in (
            ("x^2+y^2-z^2", "x-2*z", "Q", {1, 3}, False),
            ("x^2+y^2-z^2", "y^2*z-x^3-x*z^2-2*z^3", "Q", {2, 5}, True),
            ("x^2+y^2-z^2", "x^2+2*y^2-9*z^2", "Q", {2, 4}, False),
            ("x^2+i*y^2-z^2", "x*y-(1+i)*z^2", "Qi", {2, 4}, False)):
        B, C = PlaneCurve.from_text(B, field), PlaneCurve.from_text(C, field)
        calls.clear()
        corrupt[0] = 0
        conchoidal_transform(B, C)
        count = len(calls)
        assert count > 1 and set(calls) == sizes
        for offset in (1, -1, 2, 6, 10 ** 9 + 7):
            found = messages(B, C, offset, count)
            assert ("pseudo-remainder sample not divisible" in found) == divided
    # ((D + 1)!)^2 = 14400, D = 4, leaves every difference of the README
    # transform exact, so each of its 13 corrupted samples reaches the residual
    B, C = PlaneCurve.from_text("x^2+y^2-z^2"), PlaneCurve.from_text("x-2*z")
    assert messages(B, C, 14400, 13) == {"interpolation residual nonzero at degree 4"}
    for offset, message in ((10 ** 9 + 7, "interpolation difference not divisible"),
                            (14400, "interpolation residual nonzero")):
        calls.clear()
        corrupt[:] = [1, offset]
        code, _, err = run(capsys, "transform", "--B", "x^2+y^2-z^2", "--C", "x-2*z")
        assert code == 4
        assert err.startswith("internal error: " + message)


def test_split_components(capsys):
    code, out, _ = run(capsys, "split", "--C", "(y+z)^2-(x^2+y^2)", "--components", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["components"]) == 2


def test_split_json_field(capsys):
    # the whole JSON line, "field" included: Q for a rational witness, Qi
    # when H1 or H2 has an imaginary coefficient
    code, out, _ = run(capsys, "split", "--C", "(y+z)^2-(x^2+y^2)", "--json")
    assert code == 0
    assert out == ('{"verdict": "split", "notes": [], "parity": "even", "H1": "y + z", '
                   '"H2": "1", "scale": "-1", "field": "Q"}\n')
    code, out, _ = run(capsys, "split", "--C", "1/25*x^2+1/9*y^2-z^2", "--center", "4,0",
                       "--json")
    assert code == 0
    assert out == ('{"verdict": "split", "notes": [], "parity": "even", '
                   '"H1": "i*x - 25/4*i*z", "H2": "5/4*i", "scale": "9/16", "field": "Qi"}\n')


ODD_CUBIC = "x^3+2*x^2*z-3*x*y^2+x*z^2-2*y^2*z"
# l1*H1^2 - l2*H2^2 about the origin, for (H1, H2) = (x^2+y*z, x*y-z^2) and
# (x^2-z^2, y^2+x*z); the second H1 is the form the solver pins
QUINTIC = ("x^5+i*x^4*y-x^3*y^2+2*x^3*y*z+i*x^2*y^3+2*i*x^2*y^2*z+2*x^2*y*z^2"
           "+(1-2*i)*x*y^2*z^2-x*z^4+i*y^3*z^2+i*y*z^4")
PINNED_QUINTIC = ("x^5+i*x^4*y-3*x^3*z^2-2*x^2*y^2*z-i*x^2*y*z^2-x*y^4+2*i*x*y^3*z"
                  "+x*z^4+i*y^5+i*y*z^4")


def test_split_odd_answers(capsys):
    code, out, _ = run(capsys, "split", "--C", "y^2*z-x^3-x*z^2-2*z^3")
    assert code == 3
    assert out == ("verdict: inconclusive\nnote: g|l1 not divisible by l2|l1\n"
                   "note: C is not certified absolutely irreducible; the criterion assumes it is\n")
    code, out, _ = run(capsys, "split", "--C", ODD_CUBIC, "--json")
    assert code == 0
    assert out == ('{"verdict": "split", "notes": [], "parity": "odd", '
                   '"H1": "-1/2*i*x + 1/2*y - 1/2*i*z", "H2": "-1/2*x + 1/2*i*y - 1/2*z", '
                   '"scale": "-1/2", "field": "Qi"}\n')
    code, out, _ = run(capsys, "split", "--field", "Qi", "--C", QUINTIC)
    assert code == 3
    assert out == "verdict: inconclusive\nnote: odd-case search not definitive\n"


def test_split_quintic_with_the_pinned_H1(capsys):
    code, out, _ = run(capsys, "split", "--field", "Qi", "--C", PINNED_QUINTIC)
    assert code == 0
    assert out == ("verdict: split\nparity odd: scale*G = l1*H1^2 - l2*H2^2\n"
                   "H1 = -x^2 + z^2\nH2 = x*z + y^2\nscale = 1 (field Q)\n")


def test_split_components_of_an_odd_witness(capsys):
    # two real quintics, with no spare factor x + i*y
    code, out, _ = run(capsys, "split", "--C", ODD_CUBIC, "--components")
    assert code == 0
    assert ("components: x^5 + 2*x^4*z - 2*x^3*y^2 + 2*x^2*y*z^2 - 3*x*y^4 + 4*x*y^2*z^2"
            " - 2*y^4*z + 2*y^3*z^2; x^5 + 2*x^4*z - 2*x^3*y^2 - 2*x^2*y*z^2 - 3*x*y^4"
            " + 4*x*y^2*z^2 - 2*y^4*z - 2*y^3*z^2\n") in out


def test_focus_exit(capsys):
    assert run(capsys, "focus", "--C", "(y+z)^2-(x^2+y^2)")[0] == 0
    assert run(capsys, "focus", "--C", "1/25*x^2+1/9*y^2-z^2")[0] == 1


def test_recognize_modes(capsys):
    code, out, _ = run(capsys, "recognize", "--D",
                       "4*y^2*z^2+x^4+x^2*y^2-4*x^3*z-4*x*y^2*z+3*x^2*z^2", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"
    code, _, _ = run(capsys, "recognize", "--D", "x^2+y^2-z^2")
    assert code == 1
    code, _, _ = run(capsys, "recognize", "--D", "x^2+2*y^2-3*z^2", "--mode", "proper")
    assert code == 3


# One input per report branch and mode: "yes", no rational radius candidate
# (the complete conchoid of x^2 + 2y^2 = 3 with r2 = 1 meets both axes at
# irrational points; so does the circle of radius sqrt(2)), and radius
# candidates of which none verifies (a quartic that passes every necessary
# check, and two concentric circles whose radii differ by an irrational).
RECOGNIZE_REPORTS = [
    ("complete", "4*y^2*z^2+x^4+x^2*y^2-4*x^3*z-4*x*y^2*z+3*x^2*z^2", 0,
     '{"verdict": "yes", "checks": [{"name": "reduced", "passed": true, "detail": ""}, '
     '{"name": "degree-multiple-of-4", "passed": true, "detail": "degree 4, delta 1"}, '
     '{"name": "infinity-splits", "passed": true, "detail": "restriction = const*(x^2+y^2)^1 * (x)^2"}, '
     '{"name": "high-multiplicity-point", "passed": true, "detail": "1 rational point(s) of multiplicity >= 2"}, '
     '{"name": "witness-verification", "passed": true, "detail": "center (0, 0), r2 = 1"}], '
     '"candidates": [{"center": ["0", "0"], "r2": "1", "witness": "x - 2*z"}]}'),
    ("complete", ("x^8+6*x^6*y^2-8*x^6*z^2+13*x^4*y^4-34*x^4*y^2*z^2+4*x^4*z^4+12*x^2*y^6"
                  "-46*x^2*y^4*z^2+4*x^2*y^2*z^4+4*y^8-20*y^6*z^2+y^4*z^4"), 3,
     '{"verdict": "inconclusive", "checks": [{"name": "reduced", "passed": true, "detail": ""}, '
     '{"name": "degree-multiple-of-4", "passed": true, "detail": "degree 8, delta 2"}, '
     '{"name": "infinity-splits", "passed": true, "detail": "restriction = const*(x^2+y^2)^2 * (x^2 + 2*y^2)^2"}, '
     '{"name": "high-multiplicity-point", "passed": true, "detail": "1 rational point(s) of multiplicity >= 4"}, '
     '{"name": "radius-candidates", "passed": false, "detail": "no rational radius candidate"}], '
     '"candidates": []}'),
    ("complete", "(x^2+y^2)*(x-z)^2-4*x^2*z^2+3*y^2*z^2", 3,
     '{"verdict": "inconclusive", "checks": [{"name": "reduced", "passed": true, "detail": ""}, '
     '{"name": "degree-multiple-of-4", "passed": true, "detail": "degree 4, delta 1"}, '
     '{"name": "infinity-splits", "passed": true, "detail": "restriction = const*(x^2+y^2)^1 * (x)^2"}, '
     '{"name": "high-multiplicity-point", "passed": true, "detail": "1 rational point(s) of multiplicity >= 2"}, '
     '{"name": "witness-verification", "passed": false, "detail": "no candidate passed the forward verification"}], '
     '"candidates": []}'),
    ("proper", "x^4+(y^2-2*y*z-4*z^2)*x^2-2*y^3*z-3*y^2*z^2", 0,
     '{"verdict": "yes", "checks": [{"name": "degree", "passed": true, "detail": "degree 4"}, '
     '{"name": "reduced", "passed": true, "detail": ""}, '
     '{"name": "cyclic-tangent-lines", "passed": true, "detail": "1 everywhere-tangent line(s) through the cyclic points"}, '
     '{"name": "affine-intersection", "passed": true, "detail": "center (0, 0)"}, '
     '{"name": "pattern-verification", "passed": true, "detail": "center (0, 0), r2 = 9/16"}], '
     '"candidates": [{"center": ["0", "0"], "r2": "9/16", "witness": "x^4 + x^2*y^2 - 2*x^2*y*z - 25/16*x^2*z^2 - 2*y^3*z - 3/2*y^2*z^2"}]}'),
    ("proper", "x^2+y^2-2*z^2", 3,
     '{"verdict": "inconclusive", "checks": [{"name": "degree", "passed": true, "detail": "degree 2"}, '
     '{"name": "reduced", "passed": true, "detail": ""}, '
     '{"name": "cyclic-tangent-lines", "passed": true, "detail": "1 everywhere-tangent line(s) through the cyclic points"}, '
     '{"name": "radius-candidates", "passed": false, "detail": "no rational radius candidate"}], '
     '"candidates": []}'),
    ("proper", "(x^2+y^2-z^2)*(x^2+y^2-2*z^2)", 3,
     '{"verdict": "inconclusive", "checks": [{"name": "degree", "passed": true, "detail": "degree 4"}, '
     '{"name": "reduced", "passed": true, "detail": ""}, '
     '{"name": "cyclic-tangent-lines", "passed": true, "detail": "1 everywhere-tangent line(s) through the cyclic points"}, '
     '{"name": "pattern-verification", "passed": false, "detail": "no candidate reproduced the iterated pattern"}], '
     '"candidates": []}'),
]


@pytest.mark.parametrize("mode, D, code, line", RECOGNIZE_REPORTS)
def test_recognize_report_lines(capsys, mode, D, code, line):
    assert run(capsys, "recognize", "--D", D, "--mode", mode, "--json")[:2] == (code, line + "\n")


def test_eliminate(capsys):
    code, out, _ = run(capsys, "eliminate", "--B", "x^2+y^2-z^2", "--C", "x")
    assert code == 0
    assert "x^3 + x*y^2 - x" in out
    code, _, err = run(capsys, "eliminate", "--B", "x^2+y^2-z^2", "--C", "z")
    assert code == 1


def test_iterate(capsys):
    code, out, _ = run(capsys, "iterate", "--C", "x-3*z", "--n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    labels = {c["label"]: c["mult"] for c in data["components"]}
    assert labels["base"] == 2
    assert labels["lineblock"] == 3
    assert labels["input"] == 2


def test_plot_deterministic(capsys, tmp_path):
    code1, out1, _ = run(capsys, "plot", "--C", "x^2+y^2-z^2", "--grid", "32")
    code2, out2, _ = run(capsys, "plot", "--C", "x^2+y^2-z^2", "--grid", "32")
    assert code1 == code2 == 0
    assert out1 == out2
    target = tmp_path / "circle.svg"
    code, _, _ = run(capsys, "plot", "--C", "x^2+y^2-z^2", "--grid", "32",
                     "--output", str(target))
    assert code == 0
    assert target.read_text() == out1


def test_plot_refuses_complex_coefficients(capsys):
    code, out, err = run(capsys, "plot", "--field", "Qi", "--C", "x^2+i*y^2-z^2",
                         "--window=-2,2,-2,2", "--grid", "16")
    assert code == 2 and out == ""
    assert "plotting requires real coefficients" in err


def test_plot_of_a_real_curve_ignores_the_field(capsys):
    # a real equation parsed over Q(i) draws the SVG it draws over Q
    q, qi = (run(capsys, "plot", "--field", field, "--C", "x^2+y^2-z^2", "--grid", "32")
             for field in ("Q", "Qi"))
    assert q[0] == 0 and q == qi


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--B", "x^2+y^2-z^2", "--C", "x-2*z")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    # a top form with a factor free of x (here x*y) is squarefree, so the
    # restriction to the line at infinity is checked
    code, out, _ = run(capsys, "verify", "--B", "x*y-z^2", "--C", "x+y-2*z")
    assert code == 0
    assert "[PASS] infinity restriction" in out


def test_verify_readme_text(capsys):
    code, out, _ = run(capsys, "verify", "--B", "x^2+y^2-z^2", "--C", "x-2*z")
    assert code == 0
    assert out == ("[PASS] degree = 2*d*delta\n"
                   "[PASS] symmetry\n"
                   "[PASS] membership oracle agrees with the transform\n"
                   "[PASS] infinity restriction = F_d^delta * G_delta^d\n")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_no_samples(samples):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--B", "x^2+y^2-z^2", "--C", "x-2*z", "--samples", samples])
    assert err.value.code == 2


def test_verify_fails_without_a_usable_sample(capsys):
    # the first sample point, (-40/3, 37/3), lies on the direction where the
    # top forms of both lines vanish, so both specializations drop degree
    argv = ["verify", "--B", "37*x+40*y-z", "--C", "37*x+40*y-2*z", "--samples", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "[FAIL] membership oracle agrees with the transform: no usable sample" in out
    code, out, _ = run(capsys, *argv, "--json")
    data = json.loads(out)
    assert data["ok"] is False
    assert {"name": "membership oracle agrees with the transform", "passed": False,
            "note": "no usable sample"} in data["checks"]


def test_radii(capsys):
    code, out, _ = run(capsys, "radii", "--D",
                       "4*y^2*z^2+x^4+x^2*y^2-4*x^3*z-4*x*y^2*z+3*x^2*z^2")
    assert code == 0
    assert "1" in out


def test_radii_prints_notes(capsys):
    argv = ["radii", "--D", "x^2+y^2-z^2", "--center", "0,0", "--probe", "x^2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "candidates: 1/4, 1, 4\nnote: probe x^2 is not a line; skipped\n"
    code, out, _ = run(capsys, *argv, "--json")
    assert json.loads(out)["notes"] == ["probe x^2 is not a line; skipped"]


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["transform"])            # missing required arguments
    assert err.value.code == 2


def test_field_qi(capsys):
    code, out, _ = run(capsys, "transform", "--B", "x+i*y+z", "--C", "x-i*y+2*z",
                       "--field", "Qi")
    assert code == 0
    # the printed Q(i) text, pinned exactly
    code, out, _ = run(capsys, "transform", "--field", "Qi", "--B", "x^2+y^2-z^2",
                       "--C", "x-(1+i)*z", "--proper", "--json")
    assert code == 0
    quartic = ("x^4 - (2+2*i)*x^3*z + x^2*y^2 - (1-2*i)*x^2*z^2 - (2+2*i)*x*y^2*z"
               " + 2*i*y^2*z^2")
    assert out == ('{"equation": "%s", "degree": 4, "divisor": {"unit": "1", "components": '
                   '[{"poly": "%s", "mult": 1, "label": "residual"}]}}\n' % (quartic, quartic))
    code, out, _ = run(capsys, "split", "--field", "Qi", "--C", "(y+i*z)^2-(x^2+y^2)",
                       "--components")
    assert code == 0
    assert out == (
        "verdict: split\n"
        "parity even: scale*G = H1^2 - q*H2^2\n"
        "H1 = y + i*z\n"
        "H2 = 1\n"
        "scale = -1 (field Qi)\n"
        "components: x^4 + x^2*y^2 - 2*i*x^2*y*z + 2*i*x^2*z^2 - 2*i*y^3*z"
        " + (1+2*i)*y^2*z^2; x^4 + x^2*y^2 - 2*i*x^2*y*z - 2*i*x^2*z^2 - 2*i*y^3*z"
        " + (1-2*i)*y^2*z^2\n")


def test_recognize_proper_yes_via_cli(capsys):
    code, out, _ = run(capsys, "recognize", "--D",
                       "x^4+(y^2-2*y*z-4*z^2)*x^2-2*y^3*z-3*y^2*z^2",
                       "--mode", "proper", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"


def test_recognize_proper_odd_degree_is_not_a_certified_no(capsys):
    # a quintic factor of the proper conchoid of ODD_CUBIC meets x + i*y = 0
    # only at the center, with odd contact 3: no everywhere-tangent cyclic
    # line, yet no certificate of "no"
    code, out, _ = run(capsys, "recognize", "--D",
                       "x^5+2*x^4*z-2*x^3*y^2+2*x^2*y*z^2-3*x*y^4+4*x*y^2*z^2-2*y^4*z+2*y^3*z^2",
                       "--mode", "proper")
    assert code == 3
    assert out.startswith("verdict: inconclusive\n")
    assert "[fail] cyclic-tangent-lines" in out


def test_main_keeps_no_state_between_calls(capsys):
    # the parser is built once per process; each call must still read only
    # its own argv
    argv = ["transform", "--B", "x^2+y^2-z^2", "--C", "x-2*z"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["degree"] == 4
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("conchoid: x^4 - 4*x^3*z")
    with pytest.raises(SystemExit) as err:
        main(["transform", "--B", "x^2+y^2-z^2", "--json"])      # --C missing
    assert err.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("conchoid: x^4 - 4*x^3*z")
    # --probe appends to a list default, which must not grow across calls
    probe = ["radii", "--D", "x^2+y^2-4*z^2", "--probe", "x-y"]
    assert run(capsys, *probe) == run(capsys, *probe)
    assert cli._build_parser() is cli._build_parser()
