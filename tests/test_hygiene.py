"""Source checks: no handler in the package may swallow arbitrary errors,
so a bug surfaces as a traceback instead of turning into a verdict; the
package has one Sylvester determinant, one integer determinant kernel for
Q and Q(i) that takes each grid line as one batch, one interpolation of
the table of lines, one gcd, one exact division, one substitution, one
Q(i) scalar, one root finder, one quartic splitter, one double-component
search, one splitting finisher for both parities, one recognition
verifier, one polynomial type with one stored form, one
common-denominator conversion and one layer of modular arithmetic; no
module imports a name it never uses; every private module-level function
is used; and every function the benchmark's tracer wraps by name still
exists."""

import ast
import importlib
import re
from pathlib import Path

import conchoidal
from conchoidal import PlaneCurve, ProjPoint, membership_value, resultant
from conchoidal.errors import InternalError

BROAD = re.compile(r"except\s*:|except\b[^:\n]*\bException\b")
BAREISS_CALL = re.compile(r"(?<!def )\bdet_bareiss_poly\(")
PRS_ORACLE = re.compile(r"\bgcd_oracle\b|\bprs_gcd\b|\b_pseudo_rem\b|\bsubresultant\b", re.I)
DIVISION_ORACLE = re.compile(r"\bdivision_oracle\b|\bgrlex_exact_div\b")
SUBSTITUTE_ORACLE = re.compile(r"\bsubstitute_oracle\b|\bsubstitute_per_term\b")
GAUSSIAN_ORACLE = re.compile(r"\bgaussian_oracle\b")
GAUSS_KERNEL_ORACLE = re.compile(r"gauss_kernel_oracle|\b_det_gauss\b|_hybrid_bezout_gauss"
                                 r"|_sample_det_gauss")
SAMPLE_KERNEL_ORACLE = re.compile(r"sample_kernel_oracle|\b_det_int\b|\b_sample_det\b|\b_dets_on_line\b"
                                  r"|\b_at_prefix\b")
INTERP_ORACLE = re.compile(r"interp_oracle|\b_interp_simplex\b|\b_simplex\b")
ROOTS_ORACLE = re.compile(r"roots_oracle|_re_im_split|_rational_zeros_uv")
SOLVER_ORACLES = re.compile(r"quartic_oracle|quartic_split_oracle|double_component_oracle"
                            r"|odd_split_oracle|_odd_solve|_coefficient_system")
RECOGNIZE_ORACLE = re.compile(r"recognize_oracle|_verified_complete_candidate|_verified_proper_candidate")
FRACTION_POLY_ORACLE = re.compile(r"fraction_poly_oracle|\bFractionPoly\b")
SYLVESTER_LAYOUT = re.compile(r"\bsylvester_rows\(")
SECOND_POLY_TYPE = re.compile(r"\bUniPoly\b|\bas_unipoly\b|\bdivmod\b|\bdeflate_root\b")
LCM_CALL = re.compile(r"\blcm\(")
GRID_DENOMINATOR = "N = 2 * lcm("
LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _source_hits(pattern):
    hits = []
    for path in sorted(Path(conchoidal.__file__).parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                hits.append(f"{path.name}:{lineno}: {line.strip()}")
    return hits


def test_no_broad_exception_handlers():
    hits = _source_hits(BROAD)
    assert not hits, "broad exception handlers:\n" + "\n".join(hits)


def test_no_library_call_to_the_bareiss_oracle():
    # poly_matrix_det is the only polynomial determinant; det_bareiss_poly
    # stays as the tests' independent oracle
    hits = _source_hits(BAREISS_CALL)
    assert not hits, "calls to det_bareiss_poly:\n" + "\n".join(hits)


def test_no_library_use_of_the_prs_oracle():
    # the modular gcd is the only gcd; the subresultant PRS lives in
    # tests/gcd_oracle.py as the independent oracle
    hits = _source_hits(PRS_ORACLE)
    assert not hits, "uses of the PRS gcd:\n" + "\n".join(hits)


def test_no_library_use_of_the_division_oracle():
    # poly_exact_div is the only exact division; the whole-remainder
    # grlex reduction lives in tests/division_oracle.py as the oracle
    hits = _source_hits(DIVISION_ORACLE)
    assert not hits, "uses of the grlex division oracle:\n" + "\n".join(hits)


def test_no_library_use_of_the_substitution_oracle():
    # MultiPoly.substitute adds every term into one dict; the per-term
    # substitution lives in tests/substitute_oracle.py as the oracle
    hits = _source_hits(SUBSTITUTE_ORACLE)
    assert not hits, "uses of the per-term substitution oracle:\n" + "\n".join(hits)


def test_no_library_use_of_the_gaussian_oracle():
    # GaussianRational keeps one (a + b*i)/d triple of ints; the Fraction-pair
    # class lives in tests/gaussian_oracle.py as the oracle
    hits = _source_hits(GAUSSIAN_ORACLE)
    assert not hits, "uses of the Fraction-pair Gaussian oracle:\n" + "\n".join(hits)


def test_no_library_use_of_the_gaussian_kernel_oracle():
    # Q(i) determinants pack each Gaussian integer into Z and run the one
    # integer kernel; the Z[i] pair kernel lives in tests/gauss_kernel_oracle.py
    hits = _source_hits(GAUSS_KERNEL_ORACLE)
    assert not hits, "uses of the Z[i] pair kernel oracle:\n" + "\n".join(hits)


def test_no_library_use_of_the_per_sample_kernel():
    # the grid samples of a line run through the integer kernel as one
    # batch; the per-sample kernel lives in tests/sample_kernel_oracle.py
    hits = _source_hits(SAMPLE_KERNEL_ORACLE)
    assert not hits, "uses of the per-sample kernel oracle:\n" + "\n".join(hits)


def test_no_library_use_of_the_interpolation_oracle():
    # the grid samples are interpolated as a nested table of rows; the
    # dict-keyed lower-set interpolation lives in tests/interp_oracle.py
    hits = _source_hits(INTERP_ORACLE)
    assert not hits, "uses of the dict-keyed interpolation oracle:\n" + "\n".join(hits)


def test_no_library_use_of_the_roots_oracle():
    # p-adic lifting at a split prime is the one root finder over Q and
    # Q(i); the real/imaginary bivariate solve lives in tests/roots_oracle.py
    hits = _source_hits(ROOTS_ORACLE)
    assert not hits, "uses of the bivariate Q(i) root oracle:\n" + "\n".join(hits)


def test_no_library_use_of_the_solver_oracles():
    # the quartic split runs on solve_zero_dim, the double component on
    # derivative_gcd and the odd split on the finisher the even split uses;
    # the hand-rolled versions live in tests/ as oracles
    hits = _source_hits(SOLVER_ORACLES)
    assert not hits, "uses of the quartic, double-component or odd-split oracle:\n" + "\n".join(hits)


def test_no_library_use_of_the_recognition_oracle():
    # _verified_candidate is the one forward verifier of both recognition
    # modes; the two per-mode verifiers live in tests/recognize_oracle.py
    hits = _source_hits(RECOGNIZE_ORACLE)
    assert not hits, "uses of the per-mode recognition verifiers:\n" + "\n".join(hits)


def test_no_library_use_of_the_fraction_poly_oracle():
    # MultiPoly stores integer numerators over one denominator; the
    # scalar-coefficient dict bodies live in tests/fraction_poly_oracle.py
    hits = _source_hits(FRACTION_POLY_ORACLE)
    assert not hits, "uses of the scalar-coefficient polynomial oracle:\n" + "\n".join(hits)


def _annotation_names(node):
    """Names in an annotation, including those inside string annotations."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def test_no_unused_imports():
    # every module but the package's re-exporting __init__ uses each name
    # it imports, so a deletion leaves no stale import behind
    hits = []
    for path in sorted(Path(conchoidal.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                used.update(_annotation_names(node.annotation))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                used.update(_annotation_names(node.returns))
            elif isinstance(node, ast.AnnAssign):
                used.update(_annotation_names(node.annotation))
        hits += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not hits, "unused imports:\n" + "\n".join(sorted(hits))


def test_private_functions_are_used():
    # a module-level _private function must be referenced somewhere in the
    # package outside its own body, so a merge leaves no orphan helper.  One
    # walk of each module collects the names it references, each with the
    # module-level function whose body holds it (None outside any)
    trees = [(path.name, ast.parse(path.read_text()))
             for path in sorted(Path(conchoidal.__file__).parent.glob("*.py"))]
    referenced = {}               # name -> {(module, enclosing function or None)}
    for name, tree in trees:
        for top in tree.body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                ref = getattr(node, "id", None) or getattr(node, "attr", None)
                if ref:
                    referenced.setdefault(ref, set()).add((name, owner))
    hits = []
    for name, tree in trees:
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                continue
            if not referenced.get(fn.name, set()) - {(name, fn.name)}:
                hits.append(f"{name}:{fn.lineno}: {fn.name}")
    assert not hits, "unreferenced private functions:\n" + "\n".join(hits)


def test_sylvester_layout_is_one_module():
    # poly_matrix_det takes two coefficient lists; only resultant.py lays
    # them out as a matrix
    hits = [h for h in _source_hits(SYLVESTER_LAYOUT) if not h.startswith("resultant.py:")]
    assert not hits, "Sylvester matrices built outside resultant.py:\n" + "\n".join(hits)


def test_one_polynomial_type():
    # a univariate polynomial is a MultiPoly in one variable, divided by
    # poly_exact_div and reduced by poly_gcd; the field Euclid lives in
    # tests/gcd_oracle.py as the univariate base case of the oracle
    hits = _source_hits(SECOND_POLY_TYPE)
    assert not hits, "a second polynomial type or its division:\n" + "\n".join(hits)


def test_one_integer_form():
    # fields is the one place where coefficients go onto a common
    # denominator; the plot grid's denominator is the one other lcm
    hits = [h for h in _source_hits(LCM_CALL) if not h.startswith("fields.py:")
            and not (h.startswith("plotting.py:") and GRID_DENOMINATOR in h)]
    assert not hits, "a common denominator taken outside fields.integer_parts:\n" + "\n".join(hits)


def test_modular_arithmetic_is_one_module():
    # a three-argument pow (a modular inverse or power) computes modulo m,
    # which only modular.py does: roots and gcd take their residues there
    hits = []
    for path in sorted(Path(conchoidal.__file__).parent.glob("*.py")):
        if path.name != "modular.py":
            hits += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow"
                     and len(node.args) == 3]
    assert not hits, "modular arithmetic outside modular.py:\n" + "\n".join(hits)


def test_traced_layers_resolve():
    # perfbench wraps library functions by name: each of its targets must
    # resolve, and transform.py must keep its own binding of the kernel
    namespace = {}
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), namespace)
    for target in namespace["TARGETS"]:
        module, name = target.rsplit(".", 1)
        found = getattr(importlib.import_module(f"conchoidal.{module}"), name, None)
        assert callable(found), target
    assert conchoidal.transform.poly_matrix_det is conchoidal.resultant.poly_matrix_det


def test_membership_oracle_stays_on_bareiss(monkeypatch):
    # the transform samples pseudo-remainder reduced hybrid Bezout
    # determinants; the membership oracle takes the whole Sylvester matrix,
    # so it stays independent of both
    def banned(*args):
        raise InternalError("the membership oracle used the transform's sample kernel")

    monkeypatch.setattr(resultant, "_hybrid_bezout", banned)
    monkeypatch.setattr(resultant, "_resultants", banned)
    B = PlaneCurve.from_text("x^2+y^2-z^2")
    C = PlaneCurve.from_text("x-2*z")
    assert membership_value(B, C, ProjPoint.affine(3, 0)).value == 0
    assert membership_value(B, C, ProjPoint.affine(0, 5)).value != 0
    # res(1 + u^2, -2 + u + 3u^3) = g(i) g(-i) = (-2 - 2i)(-2 + 2i)
    assert resultant.resultant_nominal([1, 0, 1], [-2, 1, 0, 3]) == 8
