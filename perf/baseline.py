#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run spread and write a baseline.

Runs the command of BENCHMARK.json on every workload, once per seed, in
two sets (seeds 1..N, then N+1..2N), and for every end-to-end metric
reports the median, quartiles, IQR as a share of the median, min and
max, per set and overall.  Also runs each workload once traced and
records its per-layer metrics.  Checks every result line against
BENCHMARK.json (keys, names, units) and each spread against the
metric's bound.

    python3 perf/baseline.py --runs 10 --out perf/baseline-seed.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
    res = json.loads(lines[-1])
    want = bench["per_layer" if trace else "end_to_end"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload}: result keys {sorted(res)}")
    if [m["name"] for m in want] != list(res["metrics"]):
        sys.exit(f"{workload}: metric names differ from BENCHMARK.json")
    for m in want:
        if res["metrics"][m["name"]]["unit"] != m["unit"]:
            sys.exit(f"{workload}: unit of {m['name']} differs from BENCHMARK.json")
    if not res["correct"] or res["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return res, wall


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / statistics.median(values),
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--out", default=None, help="write the baseline JSON here")
    ap.add_argument("--workloads", nargs="*", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    e2e = bench["end_to_end"]
    sets = [list(range(1, args.runs + 1)), list(range(args.runs + 1, 2 * args.runs + 1))]
    values = {w: [{m["name"]: [] for m in e2e} for _ in sets] for w in names}
    walls = {w: [] for w in names}
    for si, seeds in enumerate(sets):
        for seed in seeds:
            for w in names:
                res, wall = run(bench, w, seed, 0)
                walls[w].append(wall)
                for m in e2e:
                    values[w][si][m["name"]].append(res["metrics"][m["name"]]["value"])
                print(f"set {si + 1} seed {seed:3d} {w:14s} {wall:5.1f} s", flush=True)
    out = {
        "machine": {"nproc": os.cpu_count(), "processor": platform.processor() or platform.machine()},
        "run_seconds": bench["run_seconds"],
        "sets": sets,
        "workloads": {},
    }
    ok = True
    for w in names:
        res, wall = run(bench, w, 1, 1)
        entry = {"wall_s": stats(walls[w]), "traced_wall_s": wall, "end_to_end": {},
                 "per_layer_seed1": {k: v["value"] for k, v in res["metrics"].items()}}
        for m in e2e:
            n = m["name"]
            per_set = [stats(values[w][si][n]) for si in range(len(sets))]
            both = stats(values[w][0][n] + values[w][1][n])
            shift = abs(per_set[1]["median"] - per_set[0]["median"]) / per_set[0]["median"]
            entry["end_to_end"][n] = {"all": both, "sets": per_set, "median_shift": shift}
            worst = max(s["iqr_frac"] for s in per_set)
            flag = ""
            if n != "setup_s" and worst > m["bound"]:
                flag, ok = "  SPREAD > bound", False
            elif worst > m["bound"] / 3:
                flag = "  spread > bound/3"
            if shift > m["bound"]:
                flag, ok = flag + "  SHIFT > bound", False
            print(f"{w:14s} {n:24s} median {both['median']:<14.6g} iqr/med "
                  f"{per_set[0]['iqr_frac']:.4f} {per_set[1]['iqr_frac']:.4f} "
                  f"shift {shift:.4f} bound {m['bound']}{flag}")
        out["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
