#!/usr/bin/env python3
"""Measures a change against its parent with the repository's benchmark.

Usage: bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --out BENCH_<pr>.json

Both arguments are checkouts of this repository (the parent commit and the
change), each with its own `benchmark/`. `BENCHMARK.json` must be the same
file in both. Per workload the script runs the contract's command for
`run_seconds`, tracing off, as alternating pairs — parent then change, then
change then parent, both sides of a pair on one seed — and afterwards one
traced pass per side. The output file is one ledger row:

* per workload and end-to-end metric: every value of both sides in pair
  order, each side's first quartile, median and third quartile, the pairs
  the change won and lost (ties count for neither), the median's relative
  change, and a verdict by the contract's rules (see `verdict`);
* the traced pass of each side: every per-layer metric, the budget table
  and the list of broken budgets;
* the environment the runs shared, the commits, the seeds and the order.

The gain rule (the design guide's, and the driver's): a metric is `better`
only when the change wins at least nine tenths of the pairs and its median
beats the parent's by more than the distance between the parent's own
quartiles.

Exit codes: 0 written, 1 a run failed (non-zero exit or a failed
operation), 2 usage.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BUILD = ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "benchmark/Cargo.toml"]
SIDES = ["parent", "change"]


def read_contract(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json"), "rb") as f:
        return f.read()


def git(checkout, *args):
    proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def describe(checkout):
    status = git(checkout, "status", "--porcelain")
    return {"path": os.path.abspath(checkout),
            "git_commit": git(checkout, "rev-parse", "HEAD"),
            "uncommitted_changes": bool(status)}


def run_once(contract, checkout, workload, seed, seconds, trace):
    """One run of the contract's command; returns its last stdout line."""
    argv = contract["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"{checkout}: {' '.join(argv)} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}\n")
        sys.exit(1)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.stderr.write(f"{checkout}: {workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} operations failed\n")
        sys.exit(1)
    return result


def results_file(checkout, workload, seed, trace):
    path = os.path.join(checkout, "benchmark", "out", workload, f"seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def verdict(parent, change, better, bound):
    """Compares two lists of values, index i of each being pair i.

    `better`: the change won at least nine tenths of the pairs and its
    median beats the parent's by more than the parent's quartile distance.
    `worse`: the change's median is worse than the parent's by more than
    the contract's bound. `unresolved`: neither, but the parent's own
    quartile distance exceeds the bound, so a regression of the bound's
    size could hide in it — unless every run of the change beats every run
    of the parent. `within bound` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq["median"] - pq["median"])
    relative = gain / abs(pq["median"]) + 0.0 if pq["median"] else 0.0
    spread = pq["q3"] - pq["q1"]
    relative_spread = spread / abs(pq["median"]) if pq["median"] else 0.0
    if sign > 0:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if 10 * won >= 9 * len(parent) and gain > spread:
        word = "better"
    elif -relative > bound:
        word = "worse"
    elif relative_spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "within bound"
    return {"parent": {"values": parent, **pq}, "change": {"values": change, **cq},
            "pairs_won": won, "pairs_lost": lost, "pairs_tied": len(parent) - won - lost,
            "median_gain": relative, "parent_quartile_distance": relative_spread,
            "verdict": word}


def traced(contract, checkout, workload, seed, seconds):
    result = run_once(contract, checkout, workload, seed, seconds, 1)
    detail = results_file(checkout, workload, seed, 1)
    return {"per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            "budget_single_client_ns": detail["budget_single_client_ns"],
            "budget": detail["budget"],
            "budget_broken": detail["budget_broken"]}, detail["environment"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--first-seed", type=int, default=101,
                    help="pair i runs both sides on seed first-seed + i (default 101)")
    ap.add_argument("--traced-seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10,
                    help="below ten the file is a smoke run, not a ledger row")
    ap.add_argument("--seconds", type=int,
                    help="default: run_seconds of BENCHMARK.json; anything else is a smoke run")
    ap.add_argument("--workload", action="append",
                    help="restrict to these workloads (default: all of BENCHMARK.json)")
    args = ap.parse_args()

    checkouts = {"parent": args.parent, "change": args.change}
    raw = read_contract(args.change)
    if read_contract(args.parent) != raw:
        sys.stderr.write("BENCHMARK.json differs between the two checkouts\n")
        return 2
    contract = json.loads(raw)
    seconds = args.seconds or contract["run_seconds"]
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    end_to_end = {m["name"]: m for m in contract["end_to_end"]}

    for side in SIDES:
        # Compile before the clock matters, each side from its own source.
        subprocess.run(BUILD, cwd=checkouts[side], check=True)

    doc = {"command": contract["command"], "run_seconds": contract["run_seconds"],
           "seconds": seconds, "pairs": args.pairs, "first_seed": args.first_seed,
           "traced_seed": args.traced_seed,
           "ledger_row": seconds == contract["run_seconds"] and args.pairs >= 10,
           "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "parent": describe(args.parent), "change": describe(args.change),
           "environment": None, "workloads": {}}

    for workload in workloads:
        values = {side: {name: [] for name in end_to_end} for side in SIDES}
        order = []
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            first = SIDES if pair % 2 == 0 else SIDES[::-1]
            order.append(f"{first[0]} first")
            for side in first:
                result = run_once(contract, checkouts[side], workload, seed, seconds, 0)
                for name in end_to_end:
                    values[side][name].append(result["metrics"][name]["value"])
                kops = result["metrics"]["throughput_kops"]["value"]
                print(f"{workload} pair {pair} seed {seed} {side}: {kops:.1f} kops/s",
                      file=sys.stderr)
        entry = {"seeds": [args.first_seed + i for i in range(args.pairs)], "order": order,
                 "end_to_end": {}, "traced": {}}
        for name, m in end_to_end.items():
            entry["end_to_end"][name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                **verdict(values["parent"][name], values["change"][name],
                          m["better"], m["bound"])}
        for side in SIDES:
            entry["traced"][side], environment = traced(
                contract, checkouts[side], workload, args.traced_seed, seconds)
        doc["workloads"][workload] = entry
        if doc["environment"] is None:
            # What the benchmark saw of the machine; per-run fields dropped.
            doc["environment"] = {k: v for k, v in environment.items()
                                  if k not in ("seed", "seconds", "git_commit")}
            doc["environment"]["python"] = platform.python_version()
            doc["environment"]["kernel"] = platform.release()

        print(f"\n{workload}: parent → change, q1 / median / q3, pairs won of {args.pairs}",
              file=sys.stderr)
        for name, e in entry["end_to_end"].items():
            p, c = e["parent"], e["change"]
            print(f"  {name:<19} {p['q1']:>10.3f} {p['median']:>10.3f} {p['q3']:>10.3f}  →"
                  f" {c['q1']:>10.3f} {c['median']:>10.3f} {c['q3']:>10.3f} {e['unit']:<7}"
                  f" {e['pairs_won']:>2}/{args.pairs} {100 * e['median_gain']:>+7.1f} %"
                  f"  {e['verdict']}", file=sys.stderr)
        for side in SIDES:
            for broken in entry["traced"][side]["budget_broken"]:
                print(f"  {side} traced pass: budget broken, {broken}", file=sys.stderr)
        # Written after every workload: an interrupted run keeps what it has.
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
