#!/usr/bin/env python3
"""Compare two dialbench result directories (Python standard library only).

    python3 bench/dialbench/compare.py PARENT_DIR CHANGE_DIR [--layers]

Each directory holds the results.jsonl that `run.py --out DIR` appends to.
Untraced records are joined on (workload, metric), paired run by run in
file order, and each end-to-end metric gets a verdict against its bound in
BENCHMARK.json (a share of the parent's median):

  improved    the change wins >= 9/10 of the pairs (ties count for neither)
              and the medians differ by more than either side's
              interquartile range, in the metric's better direction (the
              change's own range too: near-constant metrics such as peak
              RSS otherwise read "improved" between two sets of one commit);
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unresolved  either side's interquartile range exceeds the bound, unless
              every change run is better (improved) or worse (regressed,
              when also past the bound) than every parent run;
  unchanged   otherwise.

It also prints each workload's failed share (failed / attempted). --layers
adds the traced runs' per-layer medians side by side, without verdicts.
Exits 1 when any metric regressed, else 0.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory):
    path = Path(directory) / "results.jsonl"
    if not path.is_file():
        sys.exit(f"compare: {path} not found")
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def series(records, trace):
    """(workload, metric) -> values in run order, plus per-workload counts."""
    values = defaultdict(list)
    counts = defaultdict(lambda: [0, 0])
    for record in records:
        if record["trace"] != trace:
            continue
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
        counts[record["workload"]][0] += record["attempted"]
        counts[record["workload"]][1] += record["failed"]
    return values, counts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, better, bound):
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = lambda a, b: sign * (a - b)  # > 0: a is better than b
    worse_by = -gain(c_med, p_med) / abs(p_med) if p_med else 0.0
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if gain(c, p) > 0)
    every_better = all(gain(c, p) > 0 for c in change for p in parent)
    every_worse = all(gain(c, p) < 0 for c in change for p in parent)
    if spread > bound:
        if every_better:
            return "improved", wins, len(pairs), worse_by
        if every_worse and worse_by > bound:
            return "regressed", wins, len(pairs), worse_by
        return "unresolved", wins, len(pairs), worse_by
    if worse_by > bound:
        return "regressed", wins, len(pairs), worse_by
    if (pairs and wins >= 0.9 * len(pairs) and
            gain(c_med, p_med) > max(p_q3 - p_q1, c_q3 - c_q1)):
        return "improved", wins, len(pairs), worse_by
    return "unchanged", wins, len(pairs), worse_by


def fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--layers", action="store_true",
                        help="also list traced per-layer medians")
    args = parser.parse_args()
    bench = json.loads(Path(args.benchmark).read_text())
    parent_records, change_records = load(args.parent), load(args.change)
    parent, parent_counts = series(parent_records, 0)
    change, change_counts = series(change_records, 0)

    print("workload metric unit | parent median [q1, q3] | change median [q1, q3] | "
          "worse by | bound | wins | verdict")
    regressed = False
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        for metric in bench["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                print(f"{workload} {metric['name']} | missing on one side")
                continue
            result, wins, pairs, worse_by = verdict(
                parent[key], change[key], metric["better"], metric["bound"])
            regressed |= result == "regressed"
            print(f"{workload} {metric['name']} {metric['unit']} | {fmt(parent[key])} | "
                  f"{fmt(change[key])} | {100 * worse_by:+.1f}% | "
                  f"{100 * metric['bound']:.0f}% | {wins}/{pairs} | {result}")

    print("\nfailed share per workload (parent | change)")
    for workload in sorted(set(parent_counts) | set(change_counts)):
        shares = []
        for counts in (parent_counts, change_counts):
            attempted, failed = counts.get(workload, [0, 0])
            shares.append(f"{failed}/{attempted}")
        print(f"{workload} | {shares[0]} | {shares[1]}")

    if args.layers:
        parent_layers, _ = series(parent_records, 1)
        change_layers, _ = series(change_records, 1)
        print("\ntraced per-layer medians (parent | change)")
        for key in sorted(set(parent_layers) | set(change_layers)):
            p = parent_layers.get(key)
            c = change_layers.get(key)
            if (p and any(p)) or (c and any(c)):
                print(f"{key[0]} {key[1]} | {fmt(p) if p else '-'} | {fmt(c) if c else '-'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
