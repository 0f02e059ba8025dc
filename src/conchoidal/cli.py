"""Command-line front end: conchoid <subcommand> [flags].

Exit codes: 0 success, 1 mathematical "no"/irreducible/degenerate,
2 usage error (argparse default), 3 inconclusive, 4 internal error (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .curves import PlaneCurve, ProjPoint, Scene
from .errors import ConchoidError, InternalError, ParseError
from .fields import FIELD_Q, FIELD_QI
from .grammar import parse_poly, poly_to_text, scalar_to_text
from .plotting import PlotSpec, render_svg
from .recognize import CircleSpec, candidate_radii, iterated_conchoid, recognize_complete, recognize_proper
from .splitting import conic_focus_split, split_test, witness_components
from .transform import (
    conchoidal_transform,
    degree_genus_predict,
    elimination_crosscheck,
    extract_known_components,
    infinity_restriction,
    membership_value,
)

OK, MATH_NO, USAGE, INCONCLUSIVE, INTERNAL = 0, 1, 2, 3, 4


def parse_curve(text: str, field: str = FIELD_Q, affine: bool = False) -> PlaneCurve:
    """Parse a curve under the shared grammar; inhomogeneous input needs the
    affine flag and is homogenized with z to the total degree."""
    poly = parse_poly(text, field)
    if poly.uses_var("t"):
        raise ParseError("curve equations use the variables x, y, z only", 0)
    if not poly.is_homogeneous():
        if not affine:
            raise ParseError("equation is not homogeneous (use --affine to homogenize)", 0)
        poly = poly.with_vars(("x", "y")) if not poly.uses_var("z") else poly
        poly = poly.homogenize("z", poly.total_degree())
    return PlaneCurve(poly)


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="conchoid",
                                  description="exact conchoidal transforms of plane curves")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", choices=[FIELD_Q, FIELD_QI], default=FIELD_Q,
                        help="coefficient field (default Q)")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--affine", action="store_true",
                        help="homogenize inhomogeneous curve input with z")
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    tr = add_parser("transform", help="conchoidal transform of two curves")
    tr.add_argument("--B", required=True, help="base curve equation")
    tr.add_argument("--C", required=True, help="input curve equation")
    tr.add_argument("--proper", action="store_true",
                    help="also print the divisor decomposition as JSON")

    sp = add_parser("split", help="reducibility of the proper conchoid")
    sp.add_argument("--C", required=True)
    sp.add_argument("--center", default="0,0", help="a,b (default origin)")
    sp.add_argument("--r2", type=_fraction, default=Fraction(1),
                    help="squared radius for component output (default 1)")
    sp.add_argument("--components", action="store_true",
                    help="also compute the split plane components")

    fo = add_parser("focus", help="conic focus shortcut")
    fo.add_argument("--C", required=True)
    fo.add_argument("--center", default="0,0")

    it = add_parser("iterate", help="iterated conchoid decomposition")
    it.add_argument("--C", required=True)
    it.add_argument("--n", type=int, required=True)
    it.add_argument("--r2", type=_fraction, default=Fraction(1))

    rec = add_parser("recognize", help="is the curve a conchoid?")
    rec.add_argument("--D", required=True)
    rec.add_argument("--mode", choices=["complete", "proper"], default="complete")

    ge = add_parser("genus", help="degree/genus prediction")
    ge.add_argument("--d", type=int, required=True)
    ge.add_argument("--delta", type=int, required=True)
    ge.add_argument("--g", type=_fraction, default=None,
                    help="genus of B (default the smooth value)")
    ge.add_argument("--gamma", type=_fraction, default=Fraction(0))

    el = add_parser("eliminate", help="set-theoretic cross-check by elimination")
    el.add_argument("--B", required=True)
    el.add_argument("--C", required=True)

    pl = add_parser("plot", help="SVG plot of the real affine locus")
    pl.add_argument("--C", required=True)
    pl.add_argument("--window", default="-2,2,-2,2", help="xmin,xmax,ymin,ymax")
    pl.add_argument("--grid", type=int, default=64)
    pl.add_argument("--output", default=None, help="output path (default stdout)")

    ve = add_parser("verify", help="run the invariant suite on a pair of curves")
    ve.add_argument("--B", required=True)
    ve.add_argument("--C", required=True)
    ve.add_argument("--samples", type=_positive_int, default=12)

    ra = add_parser("radii", help="candidate squared radii through a center")
    ra.add_argument("--D", required=True)
    ra.add_argument("--center", default="0,0")
    ra.add_argument("--probe", action="append", default=[],
                    help="extra probe line through the center (repeatable)")
    return top


def _center(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("center must be a,b", 0)
    return Fraction(parts[0]), Fraction(parts[1])


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except ConchoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MATH_NO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL


def _dispatch(args) -> int:
    field = args.field
    if args.command == "transform":
        B = parse_curve(args.B, field, args.affine)
        C = parse_curve(args.C, field, args.affine)
        T = conchoidal_transform(B, C)
        payload = {"equation": poly_to_text(T.equation), "degree": T.degree}
        if args.proper:
            scene = Scene(B)
            div = extract_known_components(T, scene, C)
            payload["divisor"] = div.to_json_dict()
            _emit(args, payload,
                  f"conchoid: {poly_to_text(T.equation)}\ndivisor: {div.to_json()}")
        else:
            _emit(args, payload, f"conchoid: {poly_to_text(T.equation)}")
        return OK

    if args.command == "split":
        C = parse_curve(args.C, field, args.affine)
        center = _center(args.center)
        result = split_test(C, center)
        payload = {"verdict": result.verdict, "notes": result.notes}
        lines = [f"verdict: {result.verdict}"]
        if result.witness is not None:
            w = result.witness
            payload.update({
                "parity": w.parity,
                "H1": poly_to_text(w.H1),
                "H2": poly_to_text(w.H2),
                "scale": scalar_to_text(w.scale),
                "field": w.field_used,
            })
            lines.append(f"parity {w.parity}: scale*G = "
                         + ("H1^2 - q*H2^2" if w.parity == "even" else "l1*H1^2 - l2*H2^2"))
            lines.append(f"H1 = {poly_to_text(w.H1)}")
            lines.append(f"H2 = {poly_to_text(w.H2)}")
            lines.append(f"scale = {scalar_to_text(w.scale)} (field {w.field_used})")
            if args.components:
                comps = witness_components(C, center, args.r2, w)
                if comps is not None:
                    payload["components"] = [poly_to_text(c.equation) for c in comps]
                    lines.append("components: " + "; ".join(
                        poly_to_text(c.equation) for c in comps))
                else:
                    lines.append("components: unavailable (radius is irrational)")
        for note in result.notes:
            lines.append(f"note: {note}")
        _emit(args, payload, "\n".join(lines))
        return {"split": OK, "irreducible": MATH_NO, "inconclusive": INCONCLUSIVE}[result.verdict]

    if args.command == "focus":
        C = parse_curve(args.C, field, args.affine)
        split, polar = conic_focus_split(C, _center(args.center))
        _emit(args, {"split": split, "polar": poly_to_text(polar)},
              f"focus: {'yes' if split else 'no'} (polar line {poly_to_text(polar)})")
        return OK if split else MATH_NO

    if args.command == "iterate":
        C = parse_curve(args.C, field, args.affine)
        spec = CircleSpec((Fraction(0), Fraction(0)), args.r2)
        div = iterated_conchoid(spec, C, args.n)
        _emit(args, div.to_json_dict(), div.to_json())
        return OK

    if args.command == "recognize":
        D = parse_curve(args.D, field, args.affine)
        report = recognize_complete(D) if args.mode == "complete" else recognize_proper(D)
        lines = [f"verdict: {report.verdict}"]
        for c in report.checks:
            lines.append(f"  [{'ok' if c.passed else 'fail'}] {c.name}"
                         + (f": {c.detail}" if c.detail else ""))
        for cand in report.candidates:
            lines.append(f"  candidate: center ({cand.center[0]}, {cand.center[1]}), "
                         f"r2 = {cand.r2}, witness {poly_to_text(cand.witness)}")
        _emit(args, report.to_json_dict(), "\n".join(lines))
        return {"yes": OK, "no": MATH_NO, "inconclusive": INCONCLUSIVE}[report.verdict]

    if args.command == "genus":
        g = args.g if args.g is not None else Fraction((args.d - 1) * (args.d - 2), 2)
        degree, genus = degree_genus_predict(args.d, g, args.delta, args.gamma)
        _emit(args, {"degree": degree, "genus": str(genus)},
              f"degree {degree}, genus {genus}")
        return OK

    if args.command == "eliminate":
        B = parse_curve(args.B, field, args.affine)
        C = parse_curve(args.C, field, args.affine)
        result = elimination_crosscheck(B, C)
        _emit(args, {"equation": poly_to_text(result),
                     "note": "set-theoretic; multiplicities may be lost"},
              f"eliminated: {poly_to_text(result)} = 0  (multiplicities may be lost)")
        return OK

    if args.command == "plot":
        C = parse_curve(args.C, field, args.affine)
        window = tuple(Fraction(v) for v in args.window.split(","))
        if len(window) != 4:
            raise ParseError("window must be xmin,xmax,ymin,ymax", 0)
        svg = render_svg(C, PlotSpec(window, args.grid))
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(svg)
        else:
            sys.stdout.write(svg)
        return OK

    if args.command == "verify":
        return _verify(args, field)

    if args.command == "radii":
        D = parse_curve(args.D, field, args.affine)
        probes = [parse_poly(p, field) for p in args.probe]
        values, notes = candidate_radii(D, _center(args.center), probes)
        lines = ["candidates: " + ", ".join(str(v) for v in values)]
        lines += [f"note: {note}" for note in notes]
        _emit(args, {"candidates": [str(v) for v in values], "notes": notes}, "\n".join(lines))
        return OK

    raise AssertionError("unreachable")


def _verify(args, field) -> int:
    import random

    B = parse_curve(args.B, field, args.affine)
    C = parse_curve(args.C, field, args.affine)
    rng = random.Random(91)
    checks = []   # (name, passed, note)
    T = conchoidal_transform(B, C)
    checks.append(("degree = 2*d*delta", T.degree == 2 * B.degree * C.degree, None))
    checks.append(("symmetry", conchoidal_transform(C, B).equation == T.equation, None))
    agree, used = True, 0
    for _ in range(args.samples):
        Q = ProjPoint.affine(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                             Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
        member = membership_value(B, C, Q)
        if member.degenerate:
            continue
        used += 1
        tval = T.equation.evaluate({"x": Q.coords[0], "y": Q.coords[1], "z": Q.coords[2]})
        if bool(member.value) != bool(tval):
            agree = False
    # a check that compared no point has shown nothing, so it cannot pass
    checks.append(("membership oracle agrees with the transform", agree and used > 0,
                   None if used else "no usable sample"))
    from .gcd import is_squarefree, poly_gcd

    topB, topC = B.top_form(), C.top_form()
    if is_squarefree(topB) and is_squarefree(topC) and poly_gcd(topB, topC).is_constant():
        expect = topB ** C.degree * topC ** B.degree
        checks.append(("infinity restriction = F_d^delta * G_delta^d",
                       infinity_restriction(T).proportional_to(expect), None))
    ok = all(passed for _, passed, _ in checks)
    payload = {"checks": [dict({"name": n, "passed": p}, **({"note": note} if note else {}))
                          for n, p, note in checks], "ok": ok}
    if args.json:
        print(json.dumps(payload))
    else:
        for name, passed, note in checks:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {note}" if note else ""))
    return OK if ok else MATH_NO


if __name__ == "__main__":
    sys.exit(main())
