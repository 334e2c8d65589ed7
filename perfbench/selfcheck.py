"""The benchmark's own check.

    python3 perfbench/selfcheck.py [--seed N] [--other-seed M]

For every workload, two traced runs with the same seed must report
identical exact counters (the per-layer metrics with unit ``count``),
and an untraced run with another seed must pass every answer check.
Each run is as short as run.py allows (one pass, or one untraced and
one traced pass).  Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, WORKLOADS


def run(workload, seed, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        first, second = (run(workload, args.seed, 1) for _ in range(2))
        exact = {k for k, m in first["metrics"].items() if m["unit"] == "count"}
        differ = sorted(k for k in exact if first["metrics"][k] != second["metrics"][k])
        other = run(workload, args.other_seed, 0)
        print(
            f"{workload}: {len(exact)} exact counters, {len(differ)} differ "
            f"between two runs of seed {args.seed}; seed {args.other_seed} "
            f"correct={other['correct']} "
            f"({other['failed']} of {other['attempted']} tasks failed)"
        )
        for k in differ:
            print(f"  {k}: {first['metrics'][k]['value']} != {second['metrics'][k]['value']}")
        correct = first["correct"] and second["correct"] and other["correct"]
        ok = ok and not differ and correct
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
