#!/usr/bin/env python3
"""Prints one benchmark metric across the committed ledger rows.

Usage: bench_trend.py METRIC [WORKLOAD] [--dir DIR]

Reads every `BENCH_<pr>.json` in the repository root (or DIR), in PR
order, and prints per workload the parent's and the change's value of
METRIC in each row, so the trajectory of a number is one command instead
of a walk through CHANGES.md. For an end-to-end metric (`read_p50_us`,
`throughput_kops`, …) the value is the median over the row's pairs, with
the pairs won and the row's verdict; for a per-layer metric
(`tcp.self_ns`, `registers.ns_per_event`, …) it is the row's one traced
pass per side. A row's change is the next row's parent only if nothing
landed in between, and the rows were measured on different days of a
noisy host: compare a row's two sides with each other, and rows with
each other only in the large.

Every row is checked whole before anything is printed — each workload's
seeds and order, each end-to-end metric's two sides, quartiles, pair
counts and verdict, each traced pass's per-layer map — so a malformed
row fails here (and in CI, which runs this once) rather than in whoever
reads it next.

Exit codes: 0 printed, 1 a row is malformed, 2 usage (no rows, or the
metric or workload is in none of them).
"""

import argparse
import glob
import json
import os
import re
import sys

SIDES = ["parent", "change"]
VERDICTS = {"better", "worse", "unresolved", "within bound"}


class Malformed(Exception):
    pass


def need(condition, message):
    if not condition:
        raise Malformed(message)


def number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_row(row):
    """Raises `Malformed` unless `row` has what `bench_pairs.py` writes."""
    need(isinstance(row, dict), "not an object")
    for key in ["command", "run_seconds", "seconds", "pairs", "parent", "change",
                "environment", "workloads"]:
        need(key in row, f"no `{key}`")
    pairs = row["pairs"]
    need(isinstance(pairs, int) and pairs > 0, "`pairs` is not a positive integer")
    need(isinstance(row["workloads"], dict) and row["workloads"], "no workloads")
    for name, workload in row["workloads"].items():
        where = f"workload `{name}`"
        need(isinstance(workload, dict), f"{where}: not an object")
        for key in ["seeds", "order"]:
            need(isinstance(workload.get(key), list) and len(workload[key]) == pairs,
                 f"{where}: `{key}` is not a list of {pairs}")
        end_to_end = workload.get("end_to_end")
        need(isinstance(end_to_end, dict) and end_to_end, f"{where}: no end-to-end metrics")
        for metric, entry in end_to_end.items():
            at = f"{where}, `{metric}`"
            need(isinstance(entry, dict), f"{at}: not an object")
            need(entry.get("better") in ("higher", "lower"), f"{at}: no direction")
            need(entry.get("verdict") in VERDICTS, f"{at}: unknown verdict")
            counts = [entry.get(k) for k in ("pairs_won", "pairs_lost", "pairs_tied")]
            need(all(isinstance(c, int) for c in counts) and sum(counts) == pairs,
                 f"{at}: pair counts do not add up to {pairs}")
            for side in SIDES:
                values = entry.get(side, {}).get("values")
                need(isinstance(values, list) and len(values) == pairs
                     and all(number(v) for v in values), f"{at}: {side} is not {pairs} numbers")
                need(all(number(entry[side].get(q)) for q in ("q1", "median", "q3")),
                     f"{at}: {side} has no quartiles")
        traced = workload.get("traced")
        need(isinstance(traced, dict), f"{where}: no traced pass")
        for side in SIDES:
            per_layer = traced.get(side, {}).get("per_layer")
            need(isinstance(per_layer, dict) and per_layer
                 and all(number(v) for v in per_layer.values()),
                 f"{where}: {side}'s traced pass has no per-layer numbers")


def load_rows(directory):
    """[(pr number, file name, row)] in PR order."""
    rows = []
    for path in glob.glob(os.path.join(directory, "BENCH_*.json")):
        name = os.path.basename(path)
        match = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if not match:
            raise Malformed(f"{name}: a ledger row is named BENCH_<pr>.json")
        try:
            with open(path) as f:
                row = json.load(f)
            check_row(row)
        except (OSError, ValueError, Malformed) as e:
            raise Malformed(f"{name}: {e}") from e
        rows.append((int(match.group(1)), name, row))
    return sorted(rows, key=lambda r: r[0])


def fmt(value):
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def lines_for(rows, metric, only):
    """The table lines for `metric`, or None if no row has it."""
    found = False
    lines = []
    names = []
    for _, _, row in rows:
        names += [w for w in row["workloads"] if w not in names]
    for workload in names:
        if only and workload != only:
            continue
        body = []
        for pr, _, row in rows:
            w = row["workloads"].get(workload)
            if w is None:
                continue
            if metric in w["end_to_end"]:
                e = w["end_to_end"][metric]
                p, c = e["parent"]["median"], e["change"]["median"]
                note = (f"{e['pairs_won']}/{row['pairs']} pairs, {e['verdict']}, "
                        f"{e['better']} is better, {e.get('unit', '')}".rstrip(", "))
            elif metric in w["traced"]["parent"]["per_layer"]:
                p = w["traced"]["parent"]["per_layer"][metric]
                c = w["traced"]["change"]["per_layer"].get(metric)
                if c is None:
                    continue
                note = "one traced pass per side"
            else:
                continue
            found = True
            delta = f"{(c - p) / abs(p):+.1%}" if p else "n/a"
            body.append(f"  PR {pr:<4} parent {fmt(p):>10}  change {fmt(c):>10}  {delta:>8}  ({note})")
        if body:
            lines.append(f"{workload}  {metric}")
            lines += body
    return lines if found else None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("metric")
    ap.add_argument("workload", nargs="?")
    ap.add_argument("--dir", default=os.path.join(os.path.dirname(__file__), ".."),
                    help="where the BENCH_<pr>.json rows are (default: the repository root)")
    args = ap.parse_args()
    try:
        rows = load_rows(args.dir)
    except Malformed as e:
        sys.stderr.write(f"bench_trend: {e}\n")
        return 1
    if not rows:
        sys.stderr.write(f"bench_trend: no BENCH_<pr>.json in {args.dir}\n")
        return 2
    if args.workload and not any(args.workload in row["workloads"] for _, _, row in rows):
        sys.stderr.write(f"bench_trend: no row has a workload `{args.workload}`\n")
        return 2
    lines = lines_for(rows, args.metric, args.workload)
    if lines is None:
        sys.stderr.write(f"bench_trend: no row has a metric `{args.metric}`\n")
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
