#!/usr/bin/env python3
"""Builds crn_bench from this checkout, runs the benchmark and checks it.

One workload (the form BENCHMARK.json's "command" takes):

    python3 bench/suite/run.py --workload fig6c --seed 7 --seconds 10 --trace 0

prints crn_bench's report, then as its last line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. It exits non-zero when an
output is wrong: a failed operation, a failed cross-check, a missing metric,
or — at the default seed — a result fold or digest that differs from
bench/suite/pins.json.

Every workload, untraced then traced, into one result set:

    python3 bench/suite/run.py --all [--seed S] [--seconds T] [--out FILE]

The smoke test (ctest bench_suite.smoke) runs every workload at --quick size:

    python3 bench/suite/run.py --smoke --bench-bin .bench_build/crn_bench

The build goes to $CARGO_TARGET_DIR (default .bench_build) in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
DEFAULT_SEED = 0x5EEDADDC
BENCH_TIMEOUT_S = 170  # one crn_bench process must finish within 180 s


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds crn_bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no src/ next to bench/suite; run from a full checkout")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SUITE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "crn_bench", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed:", " ".join(step))
            return None
    return os.path.join(out, "crn_bench")


def run_bench(binary, workload, seed, seconds, trace, quick=False):
    """Runs one crn_bench process; returns its result object or None."""
    out_dir = os.path.join(os.path.dirname(binary), "out")
    os.makedirs(out_dir, exist_ok=True)
    mode = "traced" if trace else "untraced"
    result_path = os.path.join(out_dir, f"{workload}.{mode}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [binary, f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--out-dir={out_dir}"]
    if trace:
        command.append("--trace")
    if quick:
        command.append("--quick")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} ({mode}) exceeded {BENCH_TIMEOUT_S} s")
        return None
    sys.stdout.write(proc.stdout)
    if not os.path.exists(result_path):
        log(f"run.py: {workload} ({mode}) wrote no result (exit {proc.returncode})")
        return None
    return load_json(result_path)


def check(result, spec, pins, seed, trace, quick):
    """Adds the checks crn_bench cannot make itself; returns failure notes.
    `pins` None skips the pinned-digest comparison (--update-pins)."""
    notes = []
    declared = spec["per_layer" if trace else "end_to_end"]
    section = result.get("per_layer" if trace else "end_to_end", {})
    for metric in declared:
        got = section.get(metric["name"])
        if got is None:
            notes.append(f"metric {metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            notes.append(f"metric {metric['name']} in {got['unit']}, "
                         f"declared {metric['unit']}")
    if pins is not None and seed == DEFAULT_SEED and not quick:
        pinned = pins.get(result["workload"], {}).get(
            "traced" if trace else "untraced", {})
        if not pinned:
            notes.append("no pinned digests for this workload and mode")
        for name, value in pinned.items():
            if result["digests"].get(name) != value:
                notes.append(f"{name} {result['digests'].get(name)} "
                             f"!= pinned {value}")
    return notes


def result_line(result, spec, trace, notes):
    declared = spec["per_layer" if trace else "end_to_end"]
    section = result.get("per_layer" if trace else "end_to_end", {})
    metrics = {m["name"]: section[m["name"]] for m in declared
               if m["name"] in section}
    failed = result["failed"] + len(notes)
    return {"correct": bool(result["correct"]) and not notes,
            "attempted": max(1, result["attempted"]),
            "failed": failed, "metrics": metrics}


def print_table(results):
    for workload, modes in results.items():
        for mode, result in modes.items():
            section = result["per_layer" if mode == "traced" else "end_to_end"]
            for name, metric in section.items():
                print(f"{workload:15} {mode:8} {name:30} "
                      f"{metric['value']:>16.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--out", help="--all: result-set file to write")
    parser.add_argument("--update-pins", action="store_true",
                        help="--all at the default seed: rewrite pins.json")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at --quick size, both modes")
    parser.add_argument("--bench-bin", help="use this crn_bench, do not build")
    args = parser.parse_args()
    if args.update_pins and (args.seed != DEFAULT_SEED or not args.all):
        parser.error("--update-pins needs --all at the default seed")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = args.bench_bin or build()
    if binary is None:
        return 1
    pins_path = os.path.join(SUITE, "pins.json")
    pins = load_json(pins_path) if os.path.exists(pins_path) else {}

    if args.workload is not None:
        if args.workload not in names:
            log(f"run.py: unknown workload {args.workload}; one of {names}")
            return 2
        trace = args.trace == 1
        result = run_bench(binary, args.workload, args.seed, seconds, trace)
        if result is None:
            return 1
        notes = check(result, spec, pins, args.seed, trace, quick=False)
        for note in notes:
            log("run.py: check failed:", note)
        line = result_line(result, spec, trace, notes)
        print(json.dumps(line))
        return 0 if line["correct"] and line["failed"] == 0 else 1

    if not (args.all or args.smoke):
        parser.error("give --workload, --all or --smoke")
    quick = args.smoke
    results = {}
    failures = []
    for workload in names:
        results[workload] = {}
        for trace in (False, True):
            mode = "traced" if trace else "untraced"
            result = run_bench(binary, workload, args.seed,
                               0.2 if quick else seconds, trace, quick)
            if result is None:
                failures.append(f"{workload} {mode}: no result")
                continue
            notes = check(result, spec, None if args.update_pins else pins,
                          args.seed, trace, quick)
            if not result["correct"] or result["failed"]:
                notes.append(f"{result['failed']} failed operations")
            failures += [f"{workload} {mode}: {note}" for note in notes]
            results[workload][mode] = result
    print_table(results)
    if args.update_pins:
        pins = {w: {mode: r["digests"] for mode, r in modes.items()}
                for w, modes in results.items()}
        with open(pins_path, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if not quick:
        out = args.out or os.path.join(os.path.dirname(binary), "results.json")
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "results": results}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"result set: {out}")
    for failure in failures:
        log("run.py:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
