"""Run the benchmark on several seeds; print each metric's median and spread.

    python3 perfbench/spread.py --workload verify --seeds 1-10 [--trace 0]

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median: the figure
that BENCHMARK.json's bounds are compared with.  Prints one JSON object per
run, then the summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", default="40")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    values = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            cwd=os.path.dirname(HERE), capture_output=True, text=True,
            timeout=300)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps(dict(result, seed=seed)), flush=True)
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print("%-44s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.3f"
              % (name, med, q1, q3, (q3 - q1) / med if med else 0.0))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
