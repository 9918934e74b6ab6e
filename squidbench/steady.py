#!/usr/bin/env python3
"""Steadiness check for the SQuID benchmark.

Runs each workload N times, each with another seed, and prints for every
end-to-end metric its median, quartiles, range and the inter-quartile
spread as a share of the median (quartiles as statistics.quantiles(n=4)
gives them), next to the metric's bound in BENCHMARK.json. It also prints
each workload's share of failed operations, which must be the same in
every run. Run it from the module root:

    python3 squidbench/steady.py --runs 10 --seconds 10
    python3 squidbench/steady.py --runs 5 --workloads scale-cold
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--workloads", nargs="*", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for wl in workloads:
        values, shares, walls = {}, set(), []
        for i in range(args.runs):
            seed = 1 + i
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            start = time.time()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            walls.append(time.time() - start)
            if out.returncode != 0:
                print(f"{wl} seed {seed}: exit {out.returncode}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: correct=false", file=sys.stderr)
                ok = False
            shares.add((res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{wl}: {args.runs} runs of {seconds}s, wall {min(walls):.1f}-{max(walls):.1f}s, "
              f"failed/attempted {sorted(shares)}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:<20} {med:12.4f} {q1:12.4f} {q3:12.4f} {min(vs):12.4f} {max(vs):12.4f} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}{flag}")
        if len({f / a for f, a in shares}) > 1:
            print("  failed share differs between runs", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
