#!/usr/bin/env python3
"""Self-test of tools/bench_delta.py on the committed baselines.

    python3 tools/bench_delta_test.py

Each baseline in bench/baselines/ must pass against itself under the flags
CI gates it with. Then, for every sweep that carries a budgeted key, a copy
of the baseline without that sweep must fail naming it: a run that stops
emitting a budgeted sweep may not pass its budget by silence.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Baseline file -> (the flags CI passes, the key those flags budget).
CASES = {
    "BENCH_sim_throughput.json": (
        ["--verify-digests", "--max-wall-ratio", "3"],
        "perf.sir_terms_evaluated{engine=cached}"),
    "BENCH_sweep_scaling.json": (
        ["--budget", "pool.steals", "--exact", "prefab.hits",
         "--exact", "prefab.misses", "--exact", "prefab.bytes",
         "--verify-digests", "--max-wall-ratio", "3"],
        "pool.steals"),
}


def bench_delta(baseline, current, flags):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_delta.py"),
         baseline, current] + flags,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False)


def main():
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, (flags, key) in CASES.items():
            baseline = os.path.join(ROOT, "bench", "baselines", name)
            verdict = bench_delta(baseline, baseline, flags)
            if verdict.returncode != 0:
                failures.append(f"{name} against itself:\n{verdict.stderr}")
            with open(baseline, encoding="utf-8") as handle:
                document = json.load(handle)
            section, field = (("pool", key[len("pool."):])
                              if key.startswith("pool.") else ("metrics", key))
            titles = [sweep["title"] for sweep in document["sweeps"]
                      if field in sweep.get(section, {})]
            if not titles:
                failures.append(f"{name}: no sweep carries {key}")
            for title in titles:
                current = os.path.join(scratch, name)
                with open(current, "w", encoding="utf-8") as handle:
                    json.dump(dict(document, sweeps=[
                        sweep for sweep in document["sweeps"]
                        if sweep["title"] != title]), handle)
                verdict = bench_delta(baseline, current, flags)
                if (verdict.returncode != 1 or
                        f"{title}: {key} missing" not in verdict.stderr):
                    failures.append(f"{name} without '{title}' exited "
                                    f"{verdict.returncode}:\n{verdict.stderr}")
            print(f"bench_delta_test: {name} passes against itself and fails "
                  f"without each of its {len(titles)} budgeted sweeps")
    for failure in failures:
        print(f"bench_delta_test: FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
