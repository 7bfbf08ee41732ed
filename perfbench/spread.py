#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--trace 0]

Runs perfbench/run.py once per seed for each workload (all workloads of
BENCHMARK.json by default, with its run_seconds), then prints, per
end-to-end metric, the median of the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. A spread above a third of the bound
is flagged. Raw results are appended to perfbench/out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = open(os.path.join(HERE, "out", "spread.jsonl"), "a")
    worst_ok = True
    for name in names:
        values = {}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            result = json.loads(last)
            log.write(json.dumps({"workload": name, "seed": seed, "trace": args.trace,
                                  "exit": done.returncode, "result": result}) + "\n")
            log.flush()
            if done.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: exit {done.returncode}, {last[:200]}")
                worst_ok = False
            for m, v in result.get("metrics", {}).items():
                values.setdefault(m, []).append(v["value"])
        print(f"\n{name} ({len(seeds(args.seeds))} seeds)")
        for spec in specs:
            v = values.get(spec["name"], [])
            if len(v) < 2:
                print(f"  {spec['name']:<32} missing")
                worst_ok = False
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = spec.get("bound")
            flag = ""
            if bound is not None and spec["name"] != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                worst_ok = False
            shown = f"bound {bound}" if bound is not None else ""
            print(f"  {spec['name']:<32} median {med:<14.6g} spread {spread:.4f} {shown}{flag}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
