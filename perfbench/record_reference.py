"""Record the output digests that ``run.py`` compares against.

Runs one untraced process per workload and seed and merges its output
digests into ``reference.json``.  Record on the commit whose outputs are the
reference; a later commit that reproduces them reports
``identical_to_reference: true`` for those seeds.

    python3 perfbench/record_reference.py --seeds 0 15
"""
from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    parser.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for workload in args.workload:
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            sample = run.run_sample(workload, seed, False, run.RUN_LIMIT_S)
            if not sample.get("ok"):
                print(f"{workload} seed {seed}: failed, not recorded", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = sample["digests"]
            print(f"{workload} seed {seed}: recorded")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
