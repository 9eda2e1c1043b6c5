#!/usr/bin/env python3
"""Repeat vpbench runs of one build, or compare two builds.

    python3 benchmark/compare.py --repeat K BUILD [--seed 100] \
        [--seconds 30] [--workloads a,b]
    python3 benchmark/compare.py PARENT_BUILD CHANGE_BUILD [--pairs 10] \
        [--seed 100] [--seconds 30] [--workloads a,b]

A build directory holds a vpbench binary built from the benchmark/
sources (README.md shows how to build one against another revision's
src/). Every run gets its own seed.

--repeat runs each workload K times on seeds seed..seed+K-1 and prints,
per (workload, metric), the median, the quartiles and the spread
(q3 - q1) / median, flagging a spread wider than the metric's bound.
It exits 1 when a spread exceeds its bound or a run failed requests.

With two builds, for every pair i both builds run each workload once
with seed `seed + i`, the parent first on even pairs and the change
first on odd ones. The report gives, per (workload, metric), each
side's median and quartiles, the change's wins out of the pairs, and a
verdict:

  gain        the change won at least 9/10 of the pairs and the
              medians differ by more than the parent's quartile spread;
  REGRESSION  otherwise, the change's median is worse than the parent's
              by more than the metric's bound;
  unresolved  otherwise, a side's quartile spread is wider than the
              bound, and the change's runs do not all beat the parent's;
  same        none of the above.

A gain does not count when the change failed more requests. Exits 1
when any pairing regressed or the change failed more requests.

Bounds and directions come from the end_to_end list of BENCHMARK.json.
The other metrics vpbench prints have no bound, so they can only be a
gain or the same; a unit ending in /s is higher-is-better and any other
lower-is-better. Counts are not compared. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["interactive", "evaluate_sweep", "cold_start", "restart"]


def metric_table():
    """name -> (better, bound) for the metrics BENCHMARK.json bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def judged(table, name, unit):
    """(better, bound or None) for a metric, or None when not compared."""
    if name in table:
        return table[name]
    if unit == "count":
        return None
    return ("higher" if unit.endswith("/s") else "lower"), None


def run(build, workload, seed, seconds):
    """One vpbench run: ({metric: (value, unit)}, failed requests)."""
    cmd = [os.path.join(build, "vpbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("compare.py: %s printed no result (exit %d)"
                 % (" ".join(cmd), out.returncode))
    metrics = {k: (v["value"], v["unit"])
               for k, v in summary["metrics"].items()}
    return metrics, summary["failed"]


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(parent, change, better, bound):
    """One pairing's verdict from its per-pair values."""
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if wins >= 0.9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1:
        word = "gain"
    elif bound is not None and worse > bound:
        word = "REGRESSION"
    elif (bound is not None and max(spread(parent), spread(change)) > bound
          and not all_better):
        word = "unresolved"
    else:
        word = "same"
    return wins, worse, word


def repeat(args, table, workloads):
    bad = False
    print("%-15s %-16s %11s %11s %11s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for workload in workloads:
        values, units, failed = {}, {}, 0
        for r in range(args.repeat):
            metrics, fails = run(args.builds[0], workload, args.seed + r,
                                 args.seconds)
            failed += fails
            for name, (value, unit) in metrics.items():
                values.setdefault(name, []).append(value)
                units[name] = unit
            print("%s: run %d/%d done" % (workload, r + 1, args.repeat),
                  file=sys.stderr)
        for name, vals in values.items():
            rule = judged(table, name, units[name])
            if rule is None or len(vals) != args.repeat:
                continue
            q1, q3 = quartiles(vals)
            s = spread(vals)
            over = rule[1] is not None and s > rule[1]
            bad |= over
            print("%-15s %-16s %11.5g %11.5g %11.5g %7.2f%% %6s%s" % (
                workload, name, statistics.median(vals), q1, q3, 100 * s,
                "-" if rule[1] is None else "%g%%" % (100 * rule[1]),
                "  SPREAD EXCEEDS BOUND" if over else ""))
        for name, vals in values.items():
            if judged(table, name, units[name]) is not None:
                print("%s %s runs %s" % (workload, name,
                                         " ".join("%.6g" % v for v in vals)))
        print("%s failed requests: %d" % (workload, failed))
        bad |= failed > 0
    return 1 if bad else 0


def compare(args, table, workloads):
    sides = {"parent": args.builds[0], "change": args.builds[1]}
    values = {}   # (workload, metric, side) -> [value per pair]
    units = {}
    failed = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                metrics, fails = run(sides[side], workload, args.seed + i,
                                     args.seconds)
                failed[side] += fails
                for name, (value, unit) in metrics.items():
                    values.setdefault((workload, name, side), []).append(
                        value)
                    units[name] = unit
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    print("%-15s %-16s %11s %23s %11s %23s %6s %8s  %s" % (
        "workload", "metric", "parent", "(q1, q3)", "change", "(q1, q3)",
        "wins", "worse", "verdict"))
    bad = failed["change"] > failed["parent"]
    for workload in workloads:
        for name, unit in units.items():
            rule = judged(table, name, unit)
            parent = values.get((workload, name, "parent"))
            change = values.get((workload, name, "change"))
            if (rule is None or not parent or not change
                    or len(parent) != args.pairs
                    or len(change) != args.pairs):
                continue
            wins, worse, word = verdict(parent, change, *rule)
            if word == "gain" and failed["change"] > failed["parent"]:
                word = "gain void: more failures"
            bad |= word == "REGRESSION"
            p_q, c_q = quartiles(parent), quartiles(change)
            print("%-15s %-16s %11.5g (%10.5g, %10.5g) %11.5g "
                  "(%10.5g, %10.5g) %3d/%-2d %7.2f%%  %s" % (
                      workload, name, statistics.median(parent), p_q[0],
                      p_q[1], statistics.median(change), c_q[0], c_q[1],
                      wins, args.pairs, 100 * worse, word))
    print("failed requests: parent %d, change %d"
          % (failed["parent"], failed["change"]))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("builds", nargs="+", metavar="BUILD")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    if args.repeat and (len(args.builds) != 1 or args.repeat < 2):
        parser.error("--repeat takes one build and K >= 2")
    if not args.repeat and (len(args.builds) != 2 or args.pairs < 2):
        parser.error("comparing takes two builds and --pairs >= 2")

    table = metric_table()
    workloads = args.workloads.split(",")
    if args.repeat:
        return repeat(args, table, workloads)
    return compare(args, table, workloads)


if __name__ == "__main__":
    sys.exit(main())
