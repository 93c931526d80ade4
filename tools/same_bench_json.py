#!/usr/bin/env python3
"""Checks that two BENCH_<name>.json artifacts carry the same results.

    python3 tools/same_bench_json.py A.json B.json

Everything except wall-clock and scheduling diagnostics must be equal:
the top-level "profile", "wall_seconds" and "jobs", and each sweep's
"wall_seconds", "jobs" and "pool" (steals and chunks depend on the worker
count, never on results) are dropped before comparing. A sweep figure
keeps its results under "sweeps", every other figure under "series".

Exit code 0 when the artifacts agree; 1 with a message otherwise.
"""
import json
import sys


def normalize(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc.pop("profile", None)
    doc.pop("wall_seconds", None)
    doc.pop("jobs", None)
    for sweep in doc.get("sweeps", []):
        sweep.pop("wall_seconds", None)
        sweep.pop("jobs", None)
        sweep.pop("pool", None)
    return doc


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    first, second = sys.argv[1], sys.argv[2]
    if normalize(first) != normalize(second):
        print(f"{first} and {second} diverge (modulo wall/pool)", file=sys.stderr)
        return 1
    print(f"{first} and {second} are identical (modulo wall/pool)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
