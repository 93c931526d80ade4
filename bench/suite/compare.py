#!/usr/bin/env python3
"""Compares two sides of result sets written by `run.py --all`.

    python3 bench/suite/compare.py PARENT CHANGE

PARENT and CHANGE are each a result-set file or a directory of them; the
i-th set of one side is paired with the i-th of the other (sorted by file
name), so run the two commits alternately and name the files in run order.

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won, and a verdict under the bound
BENCHMARK.json fixes:

  better      the change won at least 9 of 10 pairs (at least ten pairs),
              and the medians differ by more than the parent's quartile
              spread;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own quartile spread exceeds the bound, so a
              change within it cannot be told apart (unless every change
              run beats every parent run);
  no change   otherwise.

Then it diffs every exact per-layer count of the first traced pair. Exits 1
when a verdict is "worse" or a count differs.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MIN_PAIRS_FOR_GAIN = 10
# Per-layer counts that are not exact functions of (workload, seed): steals
# depend on OS scheduling, and written bytes include the Chrome trace, whose
# timestamps vary in length.
NOT_EXACT = {"harness.steals", "harness.write_bytes"}
EXACT_UNITS = {"count", "B"}


def load_side(path):
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".json"))
    else:
        files = [path]
    sets = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            sets.append(json.load(handle)["results"])
    if not sets:
        sys.exit(f"compare.py: no result sets in {path}")
    return sets


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, metric):
    lower_is_better = metric["better"] == "lower"
    q1_a, med_a, q3_a = quartiles(parent)
    _, med_b, _ = quartiles(change)

    def improves(b, a):
        return b < a if lower_is_better else b > a

    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if improves(b, a))
    worse_by = (med_b - med_a) / med_a if lower_is_better else (med_a - med_b) / med_a
    spread = (q3_a - q1_a) / med_a
    every_run_better = all(improves(b, a) for b in change for a in parent)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs)
            and improves(med_b, med_a) and abs(med_b - med_a) > q3_a - q1_a):
        label = "better"
    elif spread > metric["bound"] and not every_run_better:
        label = "unresolved"
    elif worse_by > metric["bound"]:
        label = "worse"
    else:
        label = "no change"
    return label, wins, len(pairs), worse_by


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parent, change = load_side(sys.argv[1]), load_side(sys.argv[2])
    failing = False

    def fmt(values):
        q1, median, q3 = quartiles(values)
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    print(f"{'workload':15} {'metric':18} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'worse by':>9} {'won':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            def values(side):
                return [s[workload]["untraced"]["end_to_end"][metric["name"]]["value"]
                        for s in side if "untraced" in s.get(workload, {})]
            a, b = values(parent), values(change)
            if not a or not b:
                print(f"{workload:15} {metric['name']:18} missing")
                failing = True
                continue
            label, wins, pairs, worse_by = verdict(a, b, metric)
            failing = failing or label == "worse"
            print(f"{workload:15} {metric['name']:18} {fmt(a):32} {fmt(b):32} "
                  f"{worse_by:>+9.1%} {wins:>2}/{pairs:<3}  {label}")

    print("\nexact per-layer counts (first traced set of each side):")
    differences = 0
    for workload in (w["name"] for w in spec["workloads"]):
        a = parent[0].get(workload, {}).get("traced", {}).get("per_layer", {})
        b = change[0].get(workload, {}).get("traced", {}).get("per_layer", {})
        for metric in spec["per_layer"]:
            name = metric["name"]
            if metric["unit"] not in EXACT_UNITS or name in NOT_EXACT:
                continue
            va = a.get(name, {}).get("value")
            vb = b.get(name, {}).get("value")
            if va != vb:
                differences += 1
                print(f"  {workload:15} {name:28} {va} -> {vb}")
    print(f"  {differences} difference(s)")
    return 1 if failing or differences else 0


if __name__ == "__main__":
    sys.exit(main())
