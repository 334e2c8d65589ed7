"""One pass of a workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --root DIR --work DIR --workload NAME
        --seed N --mode setup|pass [--trace]

Set-up (timed) imports sepstar from DIR/src, builds the seeded inputs
and writes the CLI input files.  In ``pass`` mode every task of the
workload then runs once, one after another, each timed on its own.
Times come from ``refclock.RefClock``: CPU time at the speed of a
reference machine.  The result is one JSON object on the last line of
standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter

import refclock


def main() -> int:
    clock = refclock.RefClock()
    start = clock.now()
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--pass-index", type=int, default=0)
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import workloads

    workloads.load_sepstar()
    if not os.path.abspath(workloads.G.__file__).startswith(src + os.sep):
        print(f"sepstar imported from {workloads.G.__file__}, not {src}", file=sys.stderr)
        return 2
    counts: Counter = Counter()
    tasks = workloads.WORKLOADS[args.workload](args.seed, args.work, counts)
    setup_end = clock.now()
    if args.mode == "setup":
        clock.close()
        print(json.dumps({"setup_s": clock.seconds(start, setup_end)}))
        return 0

    caches = {
        "graphs.canonical_cert.misses": workloads.G.canonical_cert,
        "contexts.context_cert.misses": workloads.C.context_cert,
    }
    misses_before = {k: f.cache_info().misses for k, f in caches.items()}
    tracer = None
    if args.trace:
        import layers
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, "sepstar", layers.hooks(tracer, workloads.C))

    readings = []
    failed = wrong = 0
    errors = []
    wall_start = time.perf_counter()
    for kind, thunk in tasks:
        if kind == "probe":
            # a probe may recurse to the limit, where no handler can run
            clock.pause()
        t0 = clock.now()
        try:
            good = tracer.run_task(kind, thunk) if tracer else thunk()
        except workloads.ExitMismatch as exc:
            good = None
            errors.append(f"{kind}: {exc}")
        except Exception as exc:  # a crash fails the task, not the benchmark
            good = None
            errors.append(f"{kind}: {type(exc).__name__}: {str(exc)[:200]}")
        readings.append((t0, clock.now()))
        if kind == "probe":
            clock.resume()
        if good is not True:
            failed += 1
            if good is not None:
                wrong += 1
                errors.append(f"{kind}: wrong answer")

    wall_s = time.perf_counter() - wall_start
    clock.close()
    setup_s = clock.seconds(start, setup_end)
    latencies = [clock.seconds(t0, t1) for t0, t1 in readings]
    result = {
        "setup_s": setup_s,
        "task_wall_s": wall_s,
        "latencies": latencies,
        "attempted": len(tasks),
        "failed": failed,
        "wrong": wrong,
        "errors": errors[:20],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        for key, f in caches.items():
            counts[key] = f.cache_info().misses - misses_before[key]
        exact = dict(counts) | tracer.counts
        result["layers"] = layers.measure(tracer, exact)
        prefix = os.path.join(args.work, f"trace-{args.pass_index}")
        tracer.dump(prefix)
        result["spans_file"] = prefix + ".spans"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
