#!/usr/bin/env python3
"""Steadiness report: runs each workload N times with distinct seeds and
prints, per metric, the median, the quartiles and the relative spread
(interquartile distance over the median, as statistics.quantiles(n=4)
gives them). The end-to-end bounds in BENCHMARK.json are set from this
output. Run from the checkout root:

    python3 benchmark/steady.py --runs 10 --seconds 10
    python3 benchmark/steady.py --runs 5 --workloads finalize_wide --trace 1
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), wall


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    worst = {}
    for wl in args.workloads.split(","):
        values, shares, walls, correct = {}, set(), [], True
        for i in range(args.runs):
            res, wall = run_once(wl, args.first_seed + i, args.seconds, args.trace)
            walls.append(wall)
            correct &= res["correct"]
            shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n== {wl}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f}s, "
              f"correct={correct}, failed shares={sorted(map(str, shares))}")
        print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for name in sorted(values):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
            b = bounds.get(name)
            flag = ""
            if b is not None and name != "setup_s" and spread > b / 3:
                flag = "  > bound/3"
            worst[name] = max(worst.get(name, 0), spread)
            print(f"{name:34s} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} "
                  f"{'' if b is None else b:>6}{flag}")
    if args.trace == 0:
        print("\nworst spread per end-to-end metric (bound/3 in brackets):")
        for name, b in bounds.items():
            if name in worst:
                print(f"  {name:32s} {worst[name]:.4f} [{b / 3:.4f}]")


if __name__ == "__main__":
    main()
