"""Record the canonical output of every job, for a range of seeds, as the
reference that the benchmark's ``outputs_changed`` is counted against.

    python3 perfbench/record_outputs.py 0 32      # seeds 0..31, every workload

Each job runs once, must pass its check, and adds the digest of its output
to perfbench/reference_outputs.json under the digest of the job's input.
Recorded entries are never overwritten; a job whose output differs from
its recorded digest is reported and makes the script exit 1.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs the library on sys.path)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    first, last = int(argv[0]), int(argv[1])
    reference = run.load_reference()
    added = differ = 0
    for workload in workloads.WORKLOADS:
        for seed in range(first, last):
            for job in workloads.build(workload, seed):
                result = job.run()
                problem = job.check(result)
                if problem:
                    print(f"{workload} seed {seed} {job.name}: {problem}")
                    return 1
                key, output = run.digest(job.key), run.digest(job.canon(result))
                if key not in reference:
                    reference[key] = output
                    added += 1
                elif reference[key] != output:
                    print(f"{workload} seed {seed} {job.name}: output differs from the reference")
                    differ += 1
            print(f"{workload} seed {seed} done", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"{added} digests added, {differ} differ, {len(reference)} recorded")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
