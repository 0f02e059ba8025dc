"""Self-test of the benchmark itself, on tiny inputs.

    python3 perfbench/selftest.py

Checks that the checkers count a perturbed transform and a wrong recovered
center as failures, that installing and removing the tracer restores every
original function object, that call counts repeat exactly across two
traced runs, and that both kinds of run print exactly the metrics that
BENCHMARK.json lists.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import random
import sys
from argparse import Namespace
from fractions import Fraction

import layers
import run
import tracer as tracing

sys.path.insert(0, str(run.SRC))
import conchoidal  # noqa: E402
import workloads  # noqa: E402
from conchoidal.fields import FIELD_Q  # noqa: E402
from conchoidal.multipoly import MultiPoly  # noqa: E402


def expect(condition, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _tiny_generic():
    rng = random.Random(7)
    B, C = workloads.generic_pair(rng, 2, 2, FIELD_Q)
    points = [(Fraction(k, 3), Fraction(2 - k, 5)) for k in range(4)]
    return B, C, points


def check_perturbed_transform():
    B, C, points = _tiny_generic()
    T = workloads.transform.conchoidal_transform(B, C)
    div = workloads.transform.extract_known_components(T, workloads.curves.Scene(B), C)
    expect(workloads.check_generic(B, C, points, T, div) is None, "true answer rejected")
    bump = MultiPoly.make(workloads.VARS, FIELD_Q, {(0, 0, T.degree): 1})
    wrong = workloads.curves.PlaneCurve(T.equation + bump)
    expect(workloads.check_generic(B, C, points, wrong, div) is not None,
           "perturbed T passed the reconstruction check")
    # A divisor that does reconstruct the perturbed T leaves the oracle to catch it.
    wrong_div = workloads.transform.extract_known_components(
        wrong, workloads.curves.Scene(B), C)
    expect(workloads.check_generic(B, C, points, wrong, wrong_div) is not None,
           "perturbed T passed the membership oracle")


def check_wrong_center():
    check = workloads.recognition_check((1, -2))

    def report(verdict, center):
        cands = [{"center": center, "r2": "1", "witness": "x"}] if center else []
        return json.dumps({"verdict": verdict, "checks": [], "candidates": cands})

    expect(check((0, report("yes", ["1", "-2"]))) is None, "right center rejected")
    expect(check((3, report("inconclusive", None))) is None, "inconclusive rejected")
    expect(check((0, report("yes", ["-1", "2"]))) is not None, "wrong center accepted")
    expect(check((1, report("no", None))) is not None, "a 'no' accepted")
    expect(check((3, report("yes", ["1", "-2"]))) is not None, "wrong exit code accepted")


def _bindings():
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "conchoidal" or n.startswith("conchoidal."))]
    return {(m.__name__, attr): value for m in mods for attr, value in vars(m).items()}


def check_tracer_restores():
    before = _bindings()
    t = tracing.Tracer(layers.TARGETS)
    t.install()
    try:
        expect(t.bindings() > len(layers.TARGETS), "some namespace bindings were missed")
        expect(conchoidal.transform.poly_matrix_det is not before[
            ("conchoidal.transform", "poly_matrix_det")], "transform's binding not wrapped")
    finally:
        t.remove()
    after = _bindings()
    expect(before.keys() == after.keys(), "module attributes added or lost")
    changed = [k for k in before if before[k] is not after[k]]
    expect(not changed, f"not restored: {changed[:3]}")


def _tiny_jobs():
    B, C, points = _tiny_generic()
    jobs = [workloads.generic_job("tiny.2x2", B, C, points)]
    jobs += [workloads.cli_job(name, argv, check)
             for name, argv, check in workloads.FIXED_QUESTIONS
             if name in ("readme.transform", "readme.radii", "readme.verify")]
    return jobs


def check_counts_repeat():
    counts = []
    for _ in range(2):
        t = tracing.Tracer(layers.TARGETS)
        t.install()
        try:
            for job in _tiny_jobs():
                job.run()
        finally:
            t.remove()
        counts.append({k: v["calls"] for k, v in tracing.summarize(t.spans).items()})
    expect(counts[0], "nothing was traced")
    expect(counts[0] == counts[1], "call counts differ between two traced runs")


def check_metric_names():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    args = Namespace(workload="generic_q", seed=-1, seconds=0.01)
    jobs = _tiny_jobs()
    for measure, listed in ((run.end_to_end, spec["end_to_end"]),
                            (run.per_layer, spec["per_layer"])):
        outcome, _, metrics, _ = measure(args, jobs)
        expect(outcome.failed == 0, f"tiny jobs failed: {outcome.problems[:3]}")
        want = {(m["name"], m["unit"]) for m in listed}
        got = {(name, unit) for name, (_, unit) in metrics.items()}
        expect(want == got, f"{measure.__name__}: missing {want - got}, extra {got - want}")
    specs = {(n, u, b) for n, u, b in layers.per_layer_specs()}
    expect(specs == {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]},
           "BENCHMARK.json per_layer differs from layers.per_layer_specs()")


CHECKS = [check_perturbed_transform, check_wrong_center, check_tracer_restores,
          check_counts_repeat, check_metric_names]


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
            print(f"PASS {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
