#!/usr/bin/env python3
"""Runs the benchmark the way the driver does and records the evidence.

Two sets (A, B) of the command in `BENCHMARK.json`: per workload ten
end-to-end runs, each with another seed, then one traced run. Per
end-to-end metric the file keeps every value, the median and the spread
(distance between the first and third quartile as a share of the
median). The checks at the end are the benchmark's own acceptance rules:

* every spread except `setup_s`'s stays within the metric's bound (a
  spread above a third of the bound is listed under `above_a_third`:
  such a cell can only resolve a regression larger than its spread);
* between set A and set B no median worsens by more than the bound;
* no operation failed; exact counts repeat exactly between traced runs;
* the traced run's budget holds (no derived self time below zero beyond
  noise) and tracing costs at most a tenth of the throughput.

Run from the repository root:

    python3 benchmark/baseline.py --out benchmark/baseline.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = ["A", "B"]
RUNS = 10
EXACT_COUNTS = ["registers.events_per_write", "registers.events_per_read", "frame.bytes_per_op"]
MIN_OVERHEAD_RATIO = 0.9


def run_once(contract, workload, seed, trace):
    argv = contract["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(contract["run_seconds"]), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    result["wall_s"] = round(wall, 2)
    return result


def results_file(workload, seed, trace):
    path = os.path.join(ROOT, "benchmark", "out", workload, f"seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(runs):
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {
            "unit": first["unit"],
            "median": statistics.median(values),
            "spread": spread(values),
            "values": values,
        }
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    workloads = [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m for m in contract["end_to_end"]}

    doc = {"command": contract["command"], "run_seconds": contract["run_seconds"],
           "runs_per_set": RUNS, "sets": {}}
    problems, above_a_third = [], []
    seed = 1
    for label in SETS:
        doc["sets"][label] = {}
        for workload in workloads:
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(contract, workload, seed, 0))
                seed += 1
            traced = run_once(contract, workload, seed, 1)
            traced_file = results_file(workload, seed, 1)
            seed += 1
            entry = {
                "end_to_end": summarise(runs),
                "wall_s": [r["wall_s"] for r in runs],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                "budget": traced_file["budget"],
                "budget_broken": traced_file["budget_broken"],
                "traced_wall_s": traced["wall_s"],
            }
            doc["sets"][label][workload] = entry
            for broken in entry["budget_broken"]:
                problems.append(f"set {label} {workload}: budget broken, {broken}")
            overhead = entry["per_layer"]["trace.overhead_ratio"]
            if overhead < MIN_OVERHEAD_RATIO:
                problems.append(f"set {label} {workload}: trace.overhead_ratio {overhead:.3f}")
            print(f"set {label} {workload}:", file=sys.stderr)
            for name, m in entry["end_to_end"].items():
                bound = bounds[name]["bound"]
                print(f"  {name:<20} median {m['median']:>12.4f} {m['unit']:<7}"
                      f" spread {100 * m['spread']:6.2f} %  (bound {100 * bound:.1f} %)",
                      file=sys.stderr)
                if name == "setup_s" or m["spread"] <= bound / 3:
                    continue
                note = f"set {label} {workload} {name}: spread {m['spread']:.4f}, bound {bound}"
                (problems if m["spread"] > bound else above_a_third).append(note)

    a, b = (doc["sets"][label] for label in SETS)
    for workload in workloads:
        for name, m in a[workload]["end_to_end"].items():
            first, second = m["median"], b[workload]["end_to_end"][name]["median"]
            worse = (second - first) / first
            if bounds[name]["better"] == "higher":
                worse = -worse
            if worse > bounds[name]["bound"]:
                problems.append(f"{workload} {name}: B median {second:.4f} worse than "
                                f"A median {first:.4f} by {100 * worse:.1f} %")
        for name in EXACT_COUNTS:
            if a[workload]["per_layer"][name] != b[workload]["per_layer"][name]:
                problems.append(f"{workload} {name}: exact count differs between sets")
    # The evidence each bound rests on: a bound is three times the widest
    # spread seen, rounded up, and never above the contract's 0.25.
    doc["bounds"] = {}
    for name, m in bounds.items():
        worst = max(doc["sets"][label][w]["end_to_end"][name]["spread"]
                    for label in SETS for w in workloads)
        doc["bounds"][name] = {"bound": m["bound"], "worst_spread": worst,
                               "three_times_worst": 3 * worst}
    doc["problems"] = problems
    doc["above_a_third"] = above_a_third
    with open(os.path.join(ROOT, args.out), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for p in problems:
        print("PROBLEM:", p, file=sys.stderr)
    print(f"{len(problems)} problem(s), {len(above_a_third)} spread(s) above a third of the bound",
          file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
