"""Self-test of the benchmark's tracing.

For every workload, two traced processes run with the same seed.  The test
fails unless, in each, the per-layer self times cover at least 90% of the
timed call (no layer goes unmeasured), and unless the work counts and the
output digests repeat exactly between the two.  Where ``reference.json`` has
digests for the seed, tracing must not change the outputs either.

    python3 perfbench/selftest.py [--seed 1] [--workload corpus-v100 ...]
"""
from __future__ import annotations

import argparse
import sys

import layers
import run
import workloads

MIN_COVERAGE = 0.9


def check(workload: str, seed: int) -> list[str]:
    first, second = (run.run_sample(workload, seed, True, run.RUN_LIMIT_S) for _ in range(2))
    problems = []
    for label, sample in (("first", first), ("second", second)):
        if not sample.get("ok"):
            problems.append(f"{label} run failed: {sample.get('error') or sample.get('gates')}")
            return problems
        if sample["coverage"] < MIN_COVERAGE:
            problems.append(f"{label} run: layers cover {sample['coverage']:.3f} of wall_s")
    for name in layers.COUNTS:
        if first["layers"][name] != second["layers"][name]:
            problems.append(f"{name}: {first['layers'][name]} then {second['layers'][name]}")
    if first["digests"] != second["digests"]:
        problems.append("output digests differ between the two runs")
    reference = run.reference_digests(workload, seed)
    if reference is not None and first["digests"] != reference:
        problems.append("traced outputs differ from reference.json")
    coverage = min(first["coverage"], second["coverage"])
    print(f"{workload}: coverage {coverage:.4f}, counts "
          + ", ".join(f"{n}={first['layers'][n]}" for n in layers.COUNTS))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    failures = 0
    for workload in args.workload:
        problems = check(workload, args.seed)
        for problem in problems:
            print(f"FAIL {workload}: {problem}")
        failures += bool(problems)
        if not problems:
            print(f"PASS {workload}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
