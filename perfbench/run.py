"""Benchmark of the conchoidal engine.

    python3 perfbench/run.py --workload generic_q --seed 1 --seconds 35 --trace 0

Builds the workload's job list from the seed, then runs the whole list
again and again in this one process, one job at a time (a closed loop with
a single caller), for about --seconds seconds.  Every output is checked
against a known answer or an independent oracle, outside the timed calls.
Times are reported in reference seconds: each timed call is divided by the
time of a fixed probe computation run right before and right after it, so
that the speed of a shared host, which drifts by up to 2x, cancels out.
The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  NOTES.md
describes the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import layers
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_outputs.json"
SPAN_DIR = HERE / "out"
SETUP_RUNS = 11

# The host-speed probe: fixed exact arithmetic of the engine's own kind
# (fraction-free integer elimination and Newton interpolation over Q),
# written here so that no change to the library can change it.
# PROBE_SECONDS is its typical time on the 2-vCPU machine where the
# benchmark was written; a time t measured next to a probe that took p
# seconds is reported as t * PROBE_SECONDS / p reference seconds.
PROBE_SECONDS = 0.045
PROBE_REPS = 8
_PROBE_RNG = random.Random(7)
_PROBE_MATRIX = [[_PROBE_RNG.randint(-10**6, 10**6) for _ in range(14)] for _ in range(14)]
_PROBE_VALUES = [Fraction(_PROBE_RNG.randint(-99, 99), _PROBE_RNG.randint(1, 99))
                 for _ in range(40)]


def _probe_work():
    m = [row[:] for row in _PROBE_MATRIX]
    n, prev = len(m), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    c = list(_PROBE_VALUES)
    for j in range(1, len(c)):
        for i in range(len(c) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / j
    return m[-1][-1], c[-1]


def reference_seconds(seconds: float, probe_seconds: float) -> float:
    """``seconds`` measured next to a probe that took ``probe_seconds``."""
    return seconds * PROBE_SECONDS / probe_seconds


def probe() -> float:
    """Seconds the probe computation takes now."""
    gc.collect()
    t0 = perf_counter()
    for _ in range(PROBE_REPS):
        _probe_work()
    return perf_counter() - t0


@dataclass
class Sample:
    seconds: float                  # wall time of the call
    probe: float                    # mean probe time just before and just after it
    output: Optional[str]           # digest of the canonical output text
    error: Optional[str]
    phases: Dict[str, float] = field(default_factory=dict)

    def ref(self, seconds: float) -> float:
        """``seconds`` measured during this sample, in reference seconds."""
        return reference_seconds(seconds, self.probe)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    outputs_changed: int = 0
    outputs_compared: int = 0


# Run in a fresh interpreter: time the import, then the probe in the same
# process.  Interpreter start-up is left out; no library change moves it,
# and process creation on a shared host is the noisiest part of it.
SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import conchoidal, conchoidal.cli
seconds = time.perf_counter() - t0
import sys
sys.path.insert(0, sys.argv[1])
from run import probe
print(seconds, probe())
"""


def measure_setup() -> float:
    """Median time, in reference seconds, of ``import conchoidal,
    conchoidal.cli`` in a fresh interpreter, as every CLI call runs it
    before any work."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(HERE)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True)  # writes the bytecode cache
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True,
                             text=True).stdout.split()
        times.append(reference_seconds(float(out[0]), float(out[1])))
    return statistics.median(times)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def run_passes(jobs, budget: float, first_results: Dict[int, Any],
               tracer=None) -> List[List[Sample]]:
    """Whole passes over the job list until the next one would end after
    ``budget`` seconds; at least one pass.  Only ``job.run()`` is timed and
    traced, and the probe runs before each job and after the last.  The
    first result of each job is kept in ``first_results`` for the checks;
    later ones are reduced to the digest of their output."""
    start = perf_counter()
    passes: List[List[Sample]] = []
    while True:
        if tracer is not None:
            tracer.pass_starts.append(len(tracer.spans))
        samples = []
        probes = [probe()]
        for j, job in enumerate(jobs):
            gc.collect()   # the previous job's garbage is not collected inside this one
            if tracer is not None:
                tracer.job = job.name
            t0 = perf_counter()
            try:
                result, error = job.run(), None
            except Exception as exc:   # a failing job is counted; the run goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
            output = None
            with tracer.paused() if tracer is not None else nullcontext():
                if error is None:
                    try:
                        output = digest(job.canon(result))
                    except Exception as exc:   # an unreadable output fails the sample
                        error = f"output unreadable: {type(exc).__name__}: {exc}"
                    first_results.setdefault(j, result)
            probes.append(probe())
            samples.append(Sample(seconds, (probes[-2] + probes[-1]) / 2, output, error,
                                  getattr(result, "phases", {})))
        passes.append(samples)
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def typical(jobs, passes) -> List[float]:
    """Each job's median time over the passes, in reference seconds."""
    return [statistics.median(p[j].ref(p[j].seconds) for p in passes)
            for j in range(len(jobs))]


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def evaluate(jobs, passes, first_results: Dict[int, Any], reference: dict) -> Outcome:
    """A sample fails when its job raised, when the job's first output
    fails the job's check, or when its output differs from that first
    output.  Jobs whose first output differs from the recorded reference
    output are counted in ``outputs_changed``."""
    out = Outcome()
    for j, job in enumerate(jobs):
        first = next((p[j].output for p in passes if p[j].output is not None), None)
        verdict = None
        if j in first_results:
            try:
                verdict = job.check(first_results[j])
            except Exception as exc:   # a check that cannot read the output fails it
                verdict = f"check raised {type(exc).__name__}: {exc}"
        for p in passes:
            s = p[j]
            out.attempted += 1
            problem = s.error or verdict or (
                "output differs between passes" if s.output != first else None)
            if problem:
                out.failed += 1
                out.problems.append(f"{job.name}: {problem}")
        key = digest(job.key)
        if first is not None and key in reference:
            out.outputs_compared += 1
            out.outputs_changed += reference[key] != first
    return out


def end_to_end(args, jobs):
    setup_s = measure_setup()
    first_results: Dict[int, Any] = {}
    passes = run_passes(jobs, args.seconds, first_results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome = evaluate(jobs, passes, first_results, load_reference())
    per_job = typical(jobs, passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_job), "s"),
        "job_s.p50": (statistics.median_low(per_job), "s"),
        "ok_ratio": (1 - outcome.failed / outcome.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    return outcome, passes, metrics, []


def per_layer(args, jobs):
    """Half the time untraced, half traced.  Calls and times per layer come
    from the traced passes; per-size times and the base of the tracing
    overhead come from the untraced ones."""
    first_results: Dict[int, Any] = {}
    plain = run_passes(jobs, args.seconds / 2, first_results)
    tracer = tracing.Tracer(layers.TARGETS)
    tracer.install()
    try:
        traced = run_passes(jobs, args.seconds / 2, first_results, tracer)
    finally:
        tracer.remove()
    outcome = evaluate(jobs, plain + traced, first_results, load_reference())

    bounds = tracer.pass_starts + [len(tracer.spans)]
    per_pass = [tracing.summarize(tracer.spans, bounds[i], bounds[i + 1])
                for i in range(len(traced))]
    problems = []
    counts = [{name: row["calls"] for name, row in summary.items()} for summary in per_pass]
    if any(c != counts[0] for c in counts):
        problems.append("call counts differ between traced passes")
    first = per_pass[0]
    problems += [f"{name} was never called"
                 for name in layers.REQUIRED[args.workload] if name not in first]

    metrics = {}
    for target, stats in layers.LAYERS:
        row = first.get(target)
        for stat in stats:
            if row is None:
                value = 0
            elif stat == "calls":
                value = row["calls"]
            elif stat == "hit_ratio":
                value = row["hits"] / row["calls"]
            else:
                value = min(s[target][stat] for s in per_pass if target in s)
            metrics[f"{target}.{stat}"] = value
    questions = sum(first[r]["calls"] for r in layers.RECOGNIZERS if r in first)
    forward = tracing.count_under(tracer.spans, "transform.conchoidal_transform",
                                  layers.RECOGNIZERS, bounds[0], bounds[1])
    metrics["recognize.transforms_per_question"] = forward / questions if questions else 0
    for size in layers.SIZES:
        idx = [j for j, job in enumerate(jobs) if job.size == size]
        for phase in ("transform_s", "decompose_s"):
            metrics[f"{phase}.{size}"] = statistics.median(
                sum(p[j].ref(p[j].phases.get(phase, 0.0)) for j in idx)
                for p in plain) if idx else 0.0
    metrics["trace_overhead"] = sum(typical(jobs, traced)) / sum(typical(jobs, plain)) - 1
    metrics["fail_ratio"] = outcome.failed / outcome.attempted
    metrics["outputs_changed"] = outcome.outputs_changed
    metrics["outputs_compared"] = outcome.outputs_compared

    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl",
                 bounds[0], bounds[1])
    units = {name: unit for name, unit, _ in layers.per_layer_specs()}
    return outcome, plain + traced, {k: (v, units[k]) for k, v in metrics.items()}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "conchoidal" / "__init__.py").is_file():
        print(f"error: the conchoidal sources are not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads   # needs the library on sys.path

    jobs = workloads.build(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    outcome, passes, metrics, problems = measure(args, jobs)
    problems = outcome.problems + problems
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs x {len(passes)} passes, "
          f"{outcome.failed}/{outcome.attempted} failed, "
          f"outputs changed {outcome.outputs_changed}/{outcome.outputs_compared}, "
          f"probe {statistics.median(s.probe for p in passes for s in p):.4f} s")
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
