"""Benchmark for sepstar: three workloads, every answer checked.

    python3 perfbench/run.py --workload formulas|monoids|decompositions
        --seed N --seconds S --trace 0|1

The load is a closed loop with one caller: one task after another in
one thread.  A pass runs a workload's fixed task list once in a fresh
interpreter, because sepstar's caches are process-wide and unbounded:
a second pass in the same process would time cache lookups, and a CLI
user pays the cold cost on every call.  The seed fixes the inputs.

With ``--trace 0`` passes repeat while the next one is expected to end
within ``--seconds``; there is always at least one.  The end-to-end
metrics are:

* ``setup_s``: median over at least eleven fresh interpreters of
  importing sepstar, building the inputs and writing the CLI files;
* ``tasks_per_s``: checked verdicts per second of task time;
* ``verdict_p50_ms``, ``verdict_p90_ms``: task latency percentiles;
* ``peak_rss_mb``: peak resident set size of the pass's process.

Each of the last four is measured per pass and reported as the median
over the passes.  Times are reference-speed CPU seconds from
``refclock.py``: the machine's vCPUs swing by a factor of 1.5 to 2 in
speed with the host's load, and the clock scales that swing away with a
fixed yardstick timed every 50 ms of CPU time.  The wall time of the
tasks is printed beside them.

With ``--trace 1`` untraced and traced passes alternate in the same
way, and the metrics are the per-layer ones of ``layers.py`` plus
``trace.overhead_ratio``, the traced over the untraced task time.
Spans are written to ``perfbench/.work/<workload>/``.

A task fails on a wrong answer, an exception or a CLI exit code other
than the documented one.  ``correct`` is false when any answer was
wrong; ``failed`` counts every failed task.  The last line of standard
output is one JSON object; a run that cannot measure prints no result
and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("formulas", "monoids", "decompositions")
MIN_SETUPS = 11
DEADLINE_S = 170


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.work = HERE / ".work" / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.deadline = time.monotonic() + DEADLINE_S
        # A fixed hash seed keeps set iteration, and so the exact
        # counters, identical between runs.  Bytecode goes to a cache
        # of the benchmark's own, written even where the environment
        # says not to, so that every timed interpreter imports sepstar
        # from bytecode, as an installed package would.
        self.env = dict(
            os.environ,
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=str(HERE / ".work" / "pycache"),
        )
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.child("setup")  # untimed: fills the bytecode cache

    def child(self, mode, trace=False, index=0):
        a = self.args
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--root", str(ROOT), "--work", str(self.work),
            "--workload", a.workload, "--seed", str(a.seed),
            "--mode", mode, "--pass-index", str(index),
        ] + (["--trace"] if trace else [])
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before the run could finish")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=left
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = time.monotonic() - started
        return result

    def repeat(self, group):
        """Run `group` (a list of pass specs) until the next round would
        end after --seconds; returns one result list per spec."""
        rounds = []
        start = time.monotonic()
        while True:
            rounds.append([self.child("pass", trace, len(rounds)) for trace in group])
            elapsed = time.monotonic() - start
            longest = max(sum(r["wall_s"] for r in rnd) for rnd in rounds)
            if elapsed + longest > self.args.seconds:
                return [list(col) for col in zip(*rounds)]


def task_seconds(p):
    return sum(p["latencies"])


def summary(passes):
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    return attempted, failed, wrong


def end_to_end(runner, passes):
    """Each metric is measured per pass and reported as the median over
    the passes, which damps the machine's slower and faster stretches."""
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.child("setup")["setup_s"])

    def median(measure):
        return statistics.median(measure(p) for p in passes)

    def throughput(p):
        return (p["attempted"] - p["failed"]) / task_seconds(p)

    def p90(p):
        return statistics.quantiles(p["latencies"], n=10)[8]

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (median(throughput), "1/s"),
        "verdict_p50_ms": (median(lambda p: statistics.median(p["latencies"])) * 1e3, "ms"),
        "verdict_p90_ms": (median(p90) * 1e3, "ms"),
        "peak_rss_mb": (median(lambda p: p["rss_kb"]) / 1024, "MB"),
    }
    wall = sum(p["task_wall_s"] for p in passes)
    print(
        f"{len(passes)} passes of {passes[0]['attempted']} timed tasks each; "
        f"set-up over {len(setups)} interpreters; tasks took {wall:.3f} s of wall "
        f"time and {sum(map(task_seconds, passes)):.3f} s at reference speed"
    )
    return metrics


def per_layer(passes, traced):
    import layers

    first = traced[0]["layers"]
    for p in traced[1:]:
        for name in layers.EXACT:
            if p["layers"][name] != first[name]:
                raise BenchError(f"exact counter {name} differs between traced passes")
    metrics = {}
    for name, unit, _, _ in layers.METRICS:
        if name in layers.EXACT:
            metrics[name] = (first[name], unit)
        else:
            metrics[name] = (statistics.median(p["layers"][name] for p in traced), unit)
    ratio = statistics.median(map(task_seconds, traced)) / statistics.median(
        map(task_seconds, passes)
    )
    metrics[layers.OVERHEAD[0]] = (ratio, layers.OVERHEAD[1])
    print(
        f"{len(traced)} traced and {len(passes)} untraced passes; "
        f"spans in {traced[0]['spans_file']}"
    )
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "sepstar" / "__init__.py").is_file():
        print(f"error: no sepstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        runner = Runner(args)
        if args.trace:
            plain, traced = runner.repeat([False, True])
            metrics = per_layer(plain, traced)
            passes = plain + traced
        else:
            (passes,) = runner.repeat([False])
            metrics = end_to_end(runner, passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, wrong = summary(passes)
    errors = sorted({e for p in passes for e in p["errors"]})
    print(f"workload {args.workload}, seed {args.seed}")
    print(
        f"failed_share {failed / attempted:.6g} ratio "
        f"({failed} of {attempted} tasks, {wrong} wrong answers)"
    )
    for e in errors:
        print(f"  failed: {e}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
