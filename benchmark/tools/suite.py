#!/usr/bin/env python3
"""Runs a full set of benchmark runs and compares two sets.

  suite.py run OUT.json [--seeds 1,2,..] [--workloads a,b] [--trace] [--idle S]
      Runs BENCHMARK.json's command once per workload and seed (each run
      its own process), stores every result line in OUT.json and prints,
      per workload and metric, the median and the quartile spread
      (statistics.quantiles(n=4), as a share of the median) next to the
      metric's bound. --idle S sleeps S seconds before each run: a set
      of cold starts, which must agree with a set of back-to-back runs.

  suite.py compare A.json B.json
      Per workload and end-to-end metric: both medians, B/A with its
      base, the bound, and a verdict — `unresolved` (a set's quartile
      spread is wider than the bound, unless every run of B reads better
      than every run of A), else `agree` (B's median no worse than A's by
      more than the bound) or `differ`. Exits 1 on any `differ` or
      failed run.
"""
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def run_set(out_path, seeds, workloads, trace, idle):
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    workloads = workloads or names
    runs = []
    for workload in workloads:
        for seed in seeds:
            cmd = contract["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]),
                "--trace", "1" if trace else "0",
            ]
            time.sleep(idle)
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            runs.append({"workload": workload, "seed": seed, "wall_s": wall,
                         "exit": proc.returncode, "result": result})
            ok = "ok" if proc.returncode == 0 and result["correct"] else "FAILED"
            print(f"{workload:14s} seed {seed:<3d} {wall:6.1f} s  {ok}", flush=True)
            if ok != "ok":
                sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    with open(out_path, "w") as f:
        json.dump({"trace": trace, "runs": runs}, f, indent=1)
    summarize(contract, runs, trace)
    return 0 if all(r["exit"] == 0 and r["result"]["correct"] for r in runs) else 1


def by_metric(runs, workload):
    table = {}
    for r in runs:
        if r["workload"] == workload:
            for name, m in r["result"]["metrics"].items():
                table.setdefault(name, []).append(m["value"])
    return table


def summarize(contract, runs, trace):
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        walls = [r["wall_s"] for r in runs if r["workload"] == workload]
        print(f"\n{workload}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, values in by_metric(runs, workload).items():
            spread = quartile_spread(values)
            line = f"  {name:44s} median {statistics.median(values):12.4f}  spread {spread:6.3f}"
            if not trace and name in bounds:
                line += f"  bound {bounds[name]:.2f}"
                if name != "setup_s" and spread > bounds[name] / 3:
                    line += "  > bound/3" if spread <= bounds[name] else "  > BOUND"
            print(line)


def compare(path_a, path_b):
    contract = load_contract()
    with open(path_a) as f:
        a = json.load(f)["runs"]
    with open(path_b) as f:
        b = json.load(f)["runs"]
    worst = 0
    for runs, path in ((a, path_a), (b, path_b)):
        bad = [r for r in runs if r["exit"] != 0 or not r["result"]["correct"]]
        if bad:
            print(f"{path}: {len(bad)} failed run(s)")
            worst = 1
    print(f"{'workload':14s} {'metric':12s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s}  verdict")
    for w in contract["workloads"]:
        ta, tb = by_metric(a, w["name"]), by_metric(b, w["name"])
        for m in contract["end_to_end"]:
            va, vb = ta.get(m["name"]), tb.get(m["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = mb / ma if ma else float("inf")
            lower = m["better"] == "lower"
            worse_by = (ratio - 1.0) if lower else (1.0 - ratio)
            sa, sb = quartile_spread(va), quartile_spread(vb)
            all_better = max(vb) < min(va) if lower else min(vb) > max(va)
            if max(sa, sb) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by <= m["bound"]:
                verdict = "agree"
            else:
                verdict = "differ"
                worst = 1
            print(f"{w['name']:14s} {m['name']:12s} {ma:12.4f} {mb:12.4f} "
                  f"{ratio:7.3f} {m['bound']:6.2f} {sa:9.3f} {sb:9.3f}  {verdict}"
                  f"  (base A = {ma:.4f} {m['unit']})")
    return worst


def main(argv):
    if len(argv) >= 3 and argv[1] == "run":
        seeds, workloads, trace, idle = list(range(1, 11)), None, False, 0.0
        rest = argv[3:]
        while rest:
            flag = rest.pop(0)
            if flag == "--seeds":
                seeds = [int(s) for s in rest.pop(0).split(",")]
            elif flag == "--workloads":
                workloads = rest.pop(0).split(",")
            elif flag == "--trace":
                trace = True
            elif flag == "--idle":
                idle = float(rest.pop(0))
            else:
                sys.exit(f"unknown flag {flag}")
        return run_set(argv[2], seeds, workloads, trace, idle)
    if len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
