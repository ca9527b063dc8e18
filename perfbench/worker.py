"""One fresh benchmark process: set up a workload, then run its timed call.

The process prints ``ready`` on its standard output as soon as set-up is done,
so the parent can time set-up from its own clock, including interpreter start
and imports; the CPU time the process has used by then is reported too.  The
timed call then runs ``--calls`` times, each checked.  The last line it
prints is a JSON object with the wall and CPU time of each call, peak
resident memory, gate verdicts, the first call's output digests and, when
traced, the per-layer metrics.  Anything the program itself prints goes to
stderr.

    python3 perfbench/worker.py --workload corpus-v100 --seed 1 --trace 0 --work DIR --calls 2
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    """User plus system time of every thread of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--calls", type=int, default=1, help="timed calls after one set-up")
    args = parser.parse_args()
    if args.trace and args.calls != 1:
        parser.error("a traced process makes exactly one timed call")

    protocol = sys.stdout
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    result: dict = {"ok": False}
    tracer = None
    with contextlib.redirect_stdout(sys.stderr):
        try:
            import nemclock

            if args.trace:
                import layers
                from spans import Tracer

                tracer = Tracer()
                layers.instrument(tracer)
            with tracer.span("setup") if tracer else contextlib.nullcontext():
                state = workload.setup(args.seed, args.work)
            result["setup_s"] = _cpu_seconds()
            print("ready", file=protocol, flush=True)

            walls, cpus, outcomes = [], [], []
            for index in range(args.calls):
                cpu = _cpu_seconds()
                start = time.perf_counter()
                with tracer.span("timed") if tracer else contextlib.nullcontext():
                    output = workload.call(state, index)
                walls.append(time.perf_counter() - start)
                cpus.append(_cpu_seconds() - cpu)
                outcomes.append(workload.check(state, output, index))
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            outcome = outcomes[0]
            result.update(outcome)
            result["wall_s"] = walls
            result["cpu_s"] = cpus
            result["gates"] = {
                name: all(o["gates"].get(name, False) for o in outcomes)
                for name in outcome["gates"]
            }
            result["digests_repeat"] = all(
                o["digests"] == outcome["digests"] for o in outcomes
            )
            result["ok"] = all(result["gates"].values())
            import numpy
            import scipy

            result["versions"] = {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "nemclock": nemclock.__version__,
            }
            if tracer is not None:
                metrics, coverage = layers.reduce(tracer.spans)
                metrics["readout.ticks"] = outcome["ticks"]
                metrics["cli.artifact_bytes"] = outcome["artifact_bytes"]
                result["layers"] = metrics
                result["coverage"] = coverage
                spans_dir = args.work / "spans"
                spans_dir.mkdir(parents=True, exist_ok=True)
                path = spans_dir / f"{args.workload}-seed{args.seed}-{time.time_ns()}.jsonl"
                tracer.dump(path)
                result["spans"] = str(path.relative_to(ROOT))
        except Exception as exc:  # a failed run is reported, not raised
            traceback.print_exc()
            result["error"] = f"{type(exc).__name__}: {exc}"
    # numpy scalars (gate verdicts, counts) serialise as plain numbers
    print(json.dumps(result, default=lambda o: o.item()), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
