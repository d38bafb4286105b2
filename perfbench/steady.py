#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--workload NAME ...] [--seeds N] [--sets 1|2]
                                [--seconds S]

Runs `run.py --trace 0` once per seed (seeds 1 .. N) on each
workload, then prints, per end-to-end metric, the median of the runs,
the quartile spread (q3 - q1) / median with `statistics.quantiles(n=4)`,
that spread against the metric's bound in BENCHMARK.json, and the
smallest bound the spread would stay under a third of.  A metric is
`steady` when its spread is below a third of the bound.  With `--sets 2`
a second set runs on the next N seeds, and `moved` is how far its median
moved from the first set's, as a share of the first.  setup_s is exempt
from the spread rule but not from the median rule.  Each set's attempted
and failed operations are summed; the sets must agree on both.  Exit code
1 when a spread exceeds its bound, a median moves beyond it or the sets'
operation counts differ.  Run from the root
of a checkout.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True


def one_run(workload, seed, seconds):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit("run.py failed on %s seed %d" % (workload, seed))
    res = json.loads(r.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit("%s seed %d: an operation gave a wrong output" % (workload, seed))
    return {k: v["value"] for k, v in res["metrics"].items()}, (res["attempted"], res["failed"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        sets, counts = [], []
        for s in range(args.sets):
            runs, ops = [], [0, 0]
            for i in range(args.seeds):
                seed = 1 + s * args.seeds + i
                values, (attempted, failed) = one_run(w, seed, seconds)
                runs.append(values)
                ops[0] += attempted
                ops[1] += failed
                print("%s set %d seed %d done" % (w, s + 1, seed), file=sys.stderr, flush=True)
            sets.append(runs)
            counts.append(tuple(ops))
        print("== %s (%d seeds, %d s per run)" % (w, args.seeds, seconds))
        print("operations (attempted, failed) per set: %s%s"
              % (counts, "" if len(set(counts)) == 1 else "  SETS DISAGREE"))
        ok = ok and len(set(counts)) == 1
        print("%-18s %12s %8s %8s %8s %9s  %s" % ("metric", "median", "spread", "bound", "moved", "suggested", "verdict"))
        for name, bound in bounds.items():
            medians, spreads = [], []
            for runs in sets:
                xs = [r[name] for r in runs]
                q1, _, q3 = statistics.quantiles(xs, n=4)
                med = statistics.median(xs)
                medians.append(med)
                spreads.append((q3 - q1) / med)
            spread = max(spreads)
            moved = (medians[-1] - medians[0]) / medians[0]
            # the smallest bound, in steps of 0.05 and at most 0.25, that
            # the measured spread stays under a third of
            suggested = min(0.25, max(0.05, math.ceil(3 * spread / 0.05) * 0.05))
            if name != "setup_s" and spread > bound:
                verdict, failed = "SPREAD ABOVE BOUND", True
            elif abs(moved) > bound:
                verdict, failed = "MEDIAN MOVED BEYOND BOUND", True
            elif name != "setup_s" and spread > bound / 3:
                verdict, failed = "spread above bound/3", False
            else:
                verdict, failed = "steady", False
            ok = ok and not failed
            print("%-18s %12.4f %8.4f %8.3f %8.4f %9.2f  %s"
                  % (name, medians[0], spread, bound, moved, suggested, verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
