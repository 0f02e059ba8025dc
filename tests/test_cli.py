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
    # Each scalar determinant of the README transform, every grid sample and
    # the residual, is corrupted in turn by 10**9, far above what the exact
    # integer differences could round away, whatever the sample layout
    from conchoidal import resultant
    from conchoidal.transform import conchoidal_transform

    exact = resultant.det_scalar
    calls, corrupt = [], [0]

    def corrupted(rows):
        calls.append(len(rows))
        value = exact(rows)
        return value + 10 ** 9 if len(calls) == corrupt[0] else value

    monkeypatch.setattr(resultant, "det_scalar", corrupted)
    B, C = PlaneCurve.from_text("x^2+y^2-z^2"), PlaneCurve.from_text("x-2*z")
    conchoidal_transform(B, C)
    count = len(calls)
    assert count > 1
    for j in range(1, count + 1):
        calls.clear()
        corrupt[0] = j
        with pytest.raises(InternalError):
            conchoidal_transform(B, C)
    calls.clear()
    corrupt[0] = 1
    code, _, err = run(capsys, "transform", "--B", "x^2+y^2-z^2", "--C", "x-2*z")
    assert code == 4
    assert err.startswith("internal error: interpolation residual nonzero")


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
