"""nemclock benchmark: run one workload in fresh processes and report metrics.

    python3 perfbench/run.py --workload corpus-v100 --seed 1 --seconds 24 --trace 0

Each sample is a fresh ``worker.py`` process that sets the workload up, then
runs and checks its timed call ``CALLS`` times (see ``workloads.py`` for the
workloads and why each exists).  More calls per set-up average out the timing
noise of a shared machine at a lower set-up cost; a later call in the same
process finds the package's small caches warm (the cubic drive spline, the
zero-coupling baseline occupation), which the first call builds.  Samples
run one after another until ``--seconds`` have passed and at least three
processes have run.  With ``--trace 0`` the metrics are the end-to-end ones, medians over the samples:

  cpu_s        CPU time of the timed call, all threads (user + system)
  setup_s      CPU time from process start to ready: interpreter start,
               imports and the workload's set-up
  peak_rss_mb  the worker process's resident-memory high-water mark

The wall times ``wall_s`` (timed call) and ``setup_wall_s`` (process start to
ready, on the parent's clock) and ``member_steps_per_s`` (member-steps over
wall time) are printed in the summary but carry no bound.  On a 2-vCPU
virtual machine whose host steals cycles, the wall time of a two-thread call
spread by up to a quarter between runs minutes apart, and median set-up wall
time moved by a fifth between two rounds of runs; CPU times spread by 2-22%.
The price of bounding CPU time: on the two-thread workloads (``run-v100``,
``tables-v5-50-100``) a gain from better use of the two threads, or from less
waiting on I/O, lowers only the unbounded ``wall_s``; ``cpu_s`` sums the CPU
time of all threads and leaves out waits.

With ``--trace 1`` untraced and traced samples alternate; the metrics are the
per-layer medians of the traced samples (see ``layers.py``), the share of the
timed call the layer spans cover, and the tracing overhead: the median CPU
time of the traced calls minus that of the untraced first calls, so both
sides start with cold caches.  A ``busy_s`` of a layer that runs on worker
threads adds up the self time of each thread's spans, waits for the GIL
included, so it can exceed the wall time of the call.

A sample fails when its process errs (for example an ``ExcursionError``) or
any correctness gate fails; failures count in ``failed`` out of
``attempted`` (printed as ``failed_ops``).  The lines before the last carry the readable summary and a ``detail`` JSON line with
the environment, output digests and whether they match ``reference.json``
for this seed.  The last line is the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MIN_SAMPLES = 3  # set-up is timed once per process: take a median of several
CALLS = 2  # timed calls per untraced process; a traced process makes one

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_sample(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Start one worker process and collect its result, with set-up wall
    time measured from just before the process is started."""
    calls = 1 if traced else CALLS
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--work", str(WORK),
           "--calls", str(calls)]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            proc.stdout.close()
        lines = (first + rest).strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"ok": False, "error": f"worker exited {proc.returncode} without a result"}
        if first.strip() == "ready":
            result["setup_wall_s"] = ready - start
        if not result.get("ok"):
            log.seek(0)
            tail = log.read().decode(errors="replace")[-4000:]
            print(f"sample failed: {result.get('error') or result.get('gates')}\n{tail}",
                  file=sys.stderr)
    return result


def environment(samples: list[dict]) -> dict:
    versions = next((s["versions"] for s in samples if "versions" in s), {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "machine": platform.machine(),
        **versions,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _median(values):
    return statistics.median(values) if values else None


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"min {min(values):.6g} max {max(values):.6g} n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nemclock" / "__init__.py").is_file():
        print(f"no nemclock sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    begin = time.perf_counter()
    samples: list[dict] = []
    plan = [False] if not args.trace else [False, True]
    while True:
        for traced in plan:
            timeout = RUN_LIMIT_S - (time.perf_counter() - begin)
            result = run_sample(args.workload, args.seed, traced, timeout)
            result["traced"] = traced
            samples.append(result)
        elapsed = time.perf_counter() - begin
        average = elapsed / len(samples) * len(plan)
        if elapsed + average > RUN_LIMIT_S - 20.0:
            break
        if elapsed >= args.seconds and len(samples) >= MIN_SAMPLES:
            break
        plan.reverse()  # alternate which side of a traced pair runs first

    failed = sum(1 for s in samples if not s.get("ok"))
    timed = [s for s in samples if "wall_s" in s]
    plain = [s for s in timed if not s["traced"]]
    traced = [s for s in timed if s["traced"]]
    if not plain or (args.trace and not traced):
        print("no sample completed its timed call", file=sys.stderr)
        return 1

    wall = [w for s in plain for w in s["wall_s"]]
    cpu = [c for s in plain for c in s["cpu_s"]]
    setup = [s["setup_s"] for s in plain]
    setup_wall = [s["setup_wall_s"] for s in plain]
    rss = [s["peak_rss_mb"] for s in plain]
    steps = plain[0]["member_steps"]
    summary = {
        "wall_s": (_median(wall), "s", _spread(wall)),
        "cpu_s": (_median(cpu), "s", _spread(cpu)),
        "setup_s": (_median(setup), "s", _spread(setup)),
        "setup_wall_s": (_median(setup_wall), "s", _spread(setup_wall)),
        "peak_rss_mb": (_median(rss), "MB", _spread(rss)),
        "member_steps_per_s": (
            steps / _median(wall) if steps else None, "1/s",
            f"{steps} member-steps per call" if steps else "no stepping in this workload",
        ),
        "failed_ops": (failed / len(samples), "ratio", f"{failed} of {len(samples)} runs"),
    }
    if args.trace:
        # counts take a member of the samples (they repeat exactly), times the median
        metrics = {
            name: (statistics.median_low if unit in ("count", "bytes") else _median)(
                [s["layers"][name] for s in traced]
            )
            for name, (unit, _) in layers.PER_LAYER.items()
            if not name.startswith("trace.")
        }
        metrics["trace.coverage"] = _median([s["coverage"] for s in traced])
        metrics["trace.overhead_s"] = (
            _median([s["cpu_s"][0] for s in traced])
            - _median([s["cpu_s"][0] for s in plain])
        )
        result_metrics = {
            name: {"value": value, "unit": layers.PER_LAYER[name][0]}
            for name, value in metrics.items()
        }
    else:
        result_metrics = {
            name: {"value": summary[name][0], "unit": unit}
            for name, unit in END_TO_END.items()
        }

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(samples)} runs in {time.perf_counter() - begin:.1f} s")
    for name, (value, unit, note) in summary.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {shown:>12} {unit:<6} {note}")
    if args.trace:
        for name, entry in result_metrics.items():
            print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")

    digests = [s.get("digests") for s in timed if s.get("digests")]
    reference = reference_digests(args.workload, args.seed)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(samples),
        "samples": [
            {k: s.get(k) for k in ("traced", "ok", "setup_s", "setup_wall_s", "wall_s",
                                   "cpu_s", "peak_rss_mb", "gates", "error", "coverage",
                                   "spans")}
            for s in samples
        ],
        "digests": digests[0] if digests else None,
        "digests_repeat": all(d == digests[0] for d in digests)
        and all(s.get("digests_repeat") for s in timed),
        "identical_to_reference": (
            None if reference is None or not digests else digests[0] == reference
        ),
        "summary": {name: entry[0] for name, entry in summary.items()},
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


def reference_digests(workload: str, seed: int):
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


if __name__ == "__main__":
    sys.exit(main())
