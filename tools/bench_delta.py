#!/usr/bin/env python3
"""CI perf-smoke comparator for BENCH_sim_throughput.json artifacts.

Compares a freshly produced bench JSON against the committed baseline
(bench/baselines/BENCH_sim_throughput.json) on the *deterministic* work
counters, not on wall time: the perf.* counters are exact functions of
(scenario, seed), so any increase is a real algorithmic regression — there
is no machine noise to absorb, and the default tolerance is therefore zero.
Wall-clock deltas are printed for the log; they gate only when the caller
opts in with --max-wall-ratio, and then with a deliberately generous bound
sized for shared-runner noise, not for micro-regressions.

Checks, without any third-party dependency:
  * envelope comparability — both files are schema v2, same bench name,
    and identical scale block (num_sus/num_pus/area_side/pu_activity/
    repetitions/seed). Counter comparison across different instances is
    meaningless, so a mismatch is exit 2 (incomparable), not a failure.
  * budget (--budget KEY, repeatable) — for every baseline sweep title that
    carries KEY, the current run must carry the title and KEY, and
    metrics[KEY] must not exceed baseline * (1 + --tolerance). Default
    budget: the interference field's term count (first reads of a pair),
    the quantity DESIGN.md §10 pins. Keys spelled
    "pool.<field>" resolve from the sweep's scheduling-diagnostics section
    (tasks/chunks/steals/workers) instead of the metrics registry — steals
    are scheduling-dependent, so they budget (upper-bound) rather than pin.
  * exact (--exact KEY, repeatable) — like --budget but strict equality:
    the key must match the baseline bit for bit on every shared title.
    This is the gate for deterministic cache accounting (prefab.hits/
    misses/bytes): any drift means the keying rule or the fold changed.
  * --verify-digests — every sweep whose title starts with "engine
    verification" or "cache verification" must carry the same
    addc_trace_digest on all its points, and that digest must equal every
    point digest of the baseline's same-title sweep. The baselines were
    written while the direct-sum SIR engine and per-cell geometry rebuilds
    still ran and matched these digests, so this re-checks both
    equivalences from the artifact.
  * --max-wall-ratio R — for every sweep title present in both files,
    current wall_seconds / baseline wall_seconds must be <= R. This is the
    only wall-clock gate; it exists to catch order-of-magnitude blowups
    (e.g. an accidentally quadratic scheduler) that the deterministic
    counters cannot see.

Exit 0 when all checks pass, 1 on any regression/violation, 2 on unusable
or incomparable inputs.
"""
from __future__ import annotations

import argparse
import json
import sys

DEFAULT_BUDGET = ["perf.sir_terms_evaluated{engine=cached}"]
SCALE_KEYS = ("num_sus", "num_pus", "area_side", "pu_activity",
              "repetitions", "seed")


def fail_usage(message: str) -> None:
    print(f"bench_delta: {message}", file=sys.stderr)
    raise SystemExit(2)


def require(mapping, key, path: str):
    """mapping[key], but a schema mismatch names the offending key path
    (e.g. "sweeps[3].title") instead of surfacing as a bare KeyError."""
    if not isinstance(mapping, dict):
        fail_usage(f"{path}: expected an object, got "
                   f"{type(mapping).__name__}")
    if key not in mapping:
        fail_usage(f"{path}.{key}: required key missing")
    return mapping[key]


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail_usage(f"{path}: {error}")
    if document.get("schema_version") != 2:
        fail_usage(f"{path}: schema_version must be 2, got "
                   f"{document.get('schema_version')!r}")
    sweeps = require(document, "sweeps", path)
    if not isinstance(sweeps, list):
        fail_usage(f"{path}.sweeps: expected an array, got "
                   f"{type(sweeps).__name__}")
    for index, sweep in enumerate(sweeps):
        sweep_path = f"{path}.sweeps[{index}]"
        title = require(sweep, "title", sweep_path)
        if not isinstance(title, str):
            fail_usage(f"{sweep_path}.title: expected a string, got "
                       f"{type(title).__name__}")
        metrics = sweep.get("metrics", {})
        if not isinstance(metrics, dict):
            fail_usage(f"{sweep_path}.metrics: expected an object, got "
                       f"{type(metrics).__name__}")
    return document


def check_comparable(baseline: dict, current: dict) -> None:
    if baseline.get("bench") != current.get("bench"):
        fail_usage(f"bench name mismatch: {baseline.get('bench')!r} vs "
                   f"{current.get('bench')!r}")
    for key in SCALE_KEYS:
        b = baseline.get("scale", {}).get(key)
        c = current.get("scale", {}).get(key)
        if b != c:
            fail_usage(f"scale.{key} differs ({b!r} vs {c!r}); counters are "
                       "only comparable on the identical pinned instance")


def sweeps_by_title(document: dict) -> dict[str, dict]:
    return {sweep.get("title", ""): sweep for sweep in document["sweeps"]}


def report_profile(baseline: dict, current: dict) -> None:
    """Informational harness-profiler comparison. The `profile` section is
    optional (the bench may run with profiling disabled), so absence on
    either side skips the report — it must never fail the gate."""
    base_profile = baseline.get("profile")
    profile = current.get("profile")
    if not isinstance(base_profile, dict) or not isinstance(profile, dict):
        print("bench_delta: profile section absent — skipping "
              "(optional, informational only)")
        return
    base_phases = {phase.get("phase", ""): phase
                   for phase in base_profile.get("phases", [])
                   if isinstance(phase, dict)}
    for phase in profile.get("phases", []):
        if not isinstance(phase, dict):
            continue
        name = phase.get("phase", "")
        base = base_phases.get(name)
        if base is None or not base.get("total_s") or not phase.get("total_s"):
            continue
        ratio = phase["total_s"] / base["total_s"]
        print(f"bench_delta: profile phase '{name}': {phase['total_s']:.3f}s "
              f"vs baseline {base['total_s']:.3f}s "
              f"({ratio:.2f}x, informational)")


def metric_value(sweep: dict, key: str):
    """Resolves a comparison key in one sweep section. "pool.<field>" keys
    read the scheduling-diagnostics section WriteBenchJson emits next to
    "metrics"; everything else reads the merged metrics registry."""
    if key.startswith("pool."):
        pool = sweep.get("pool", {})
        return pool.get(key[len("pool."):]) if isinstance(pool, dict) else None
    return sweep.get("metrics", {}).get(key)


def check_budget(baseline: dict, current: dict, keys: list[str],
                 tolerance: float) -> list[str]:
    """Upper bounds on every title the baseline carries the key for. A
    budgeted title or key missing from the current run is a failure, as in
    check_exact: a run that stops emitting a sweep must not pass its
    budget by silence."""
    problems: list[str] = []
    current_sweeps = sweeps_by_title(current)
    compared = 0
    for title, base in sweeps_by_title(baseline).items():
        sweep = current_sweeps.get(title)
        for key in keys:
            base_value = metric_value(base, key)
            if base_value is None:
                continue
            allowed = base_value * (1.0 + tolerance)
            value = metric_value(sweep, key) if sweep is not None else None
            if value is None:
                problems.append(f"{title}: {key} missing from current run "
                                f"(baseline {base_value})")
                continue
            compared += 1
            verdict = "OK" if value <= allowed else "REGRESSION"
            print(f"bench_delta: {title}: {key} {value} vs baseline "
                  f"{base_value} (budget {allowed:.0f}) {verdict}")
            if value > allowed:
                problems.append(f"{title}: {key} {value} exceeds budget "
                                f"{allowed:.0f}")
        if (sweep is not None and base.get("wall_seconds")
                and sweep.get("wall_seconds")):
            ratio = sweep["wall_seconds"] / base["wall_seconds"]
            print(f"bench_delta: {title}: wall {sweep['wall_seconds']:.3f}s "
                  f"vs baseline {base['wall_seconds']:.3f}s "
                  f"({ratio:.2f}x, informational)")
    if compared == 0:
        problems.append("no budget counter was compared — title or key "
                        "drift between baseline and current")
    return problems


def check_exact(baseline: dict, current: dict, keys: list[str]) -> list[str]:
    """Deterministic keys (prefab.* cache accounting): strict equality on
    every title the baseline carries the key for. A missing title or key on
    the current side is itself a failure — the counters are supposed to be
    exact functions of the pinned instance, so silence means the fold or
    the bench shape changed."""
    problems: list[str] = []
    current_sweeps = sweeps_by_title(current)
    compared = 0
    for title, base in sweeps_by_title(baseline).items():
        for key in keys:
            base_value = metric_value(base, key)
            if base_value is None:
                continue
            sweep = current_sweeps.get(title)
            value = metric_value(sweep, key) if sweep is not None else None
            if value is None:
                problems.append(f"{title}: {key} missing from current run "
                                f"(baseline {base_value})")
                continue
            compared += 1
            verdict = "OK" if value == base_value else "MISMATCH"
            print(f"bench_delta: {title}: {key} {value} vs baseline "
                  f"{base_value} (exact) {verdict}")
            if value != base_value:
                problems.append(f"{title}: {key} {value} != baseline "
                                f"{base_value} (exact match required)")
    if compared == 0:
        problems.append("--exact: no exact counter was compared — title or "
                        "key drift between baseline and current")
    return problems


VERIFICATION_TITLE_PREFIXES = ("engine verification", "cache verification")


def point_digests(sweep: dict) -> list:
    return [point.get("addc_trace_digest") for point in sweep.get("points", [])]


def check_digests(baseline: dict, current: dict) -> list[str]:
    problems: list[str] = []
    base_sweeps = sweeps_by_title(baseline)
    checked = 0
    for sweep in current["sweeps"]:
        title = sweep.get("title", "")
        if not title.startswith(VERIFICATION_TITLE_PREFIXES):
            continue
        digests = point_digests(sweep)
        checked += 1
        if not digests or None in digests:
            problems.append(f"{title}: verification points missing "
                            "addc_trace_digest")
            continue
        if len(set(digests)) != 1:
            problems.append(f"{title}: verification digests differ: "
                            f"{digests}")
            continue
        base = base_sweeps.get(title)
        base_digests = point_digests(base) if base is not None else []
        if not base_digests or set(base_digests) != {digests[0]}:
            problems.append(f"{title}: verification digest {digests[0]} "
                            f"differs from the baseline's {base_digests}")
            continue
        print(f"bench_delta: {title}: {len(digests)} digest(s) identical "
              f"to the baseline's ({digests[0]})")
    if checked == 0:
        problems.append("--verify-digests: no verification sweep "
                        f"(titles {VERIFICATION_TITLE_PREFIXES}) in "
                        "current run")
    return problems


def check_wall_ratio(baseline: dict, current: dict,
                     maximum: float) -> list[str]:
    """Wall-clock blowup gate. Unlike the counters, wall time is noisy, so
    the caller picks a generous `maximum` (CI uses 3x): the gate is meant to
    catch complexity-class regressions, not jitter. Sweeps present on only
    one side are skipped — new rungs have no baseline to regress against."""
    problems: list[str] = []
    base_sweeps = sweeps_by_title(baseline)
    compared = 0
    for title, sweep in sweeps_by_title(current).items():
        base = base_sweeps.get(title)
        if base is None:
            continue
        base_wall = base.get("wall_seconds")
        wall = sweep.get("wall_seconds")
        if not base_wall or not wall:
            continue
        compared += 1
        ratio = wall / base_wall
        if ratio > maximum:
            problems.append(f"{title}: wall {wall:.3f}s is {ratio:.2f}x "
                            f"baseline {base_wall:.3f}s (limit "
                            f"{maximum:g}x)")
    print(f"bench_delta: wall ratio <= {maximum:g}x checked on {compared} "
          f"shared sweep(s): {'FAIL' if problems else 'OK'}")
    if compared == 0:
        problems.append("--max-wall-ratio: no sweep shared a title between "
                        "baseline and current")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--budget", action="append", default=[],
                        help="counter key that must not exceed the baseline "
                             f"(repeatable; default {DEFAULT_BUDGET[0]})")
    parser.add_argument("--exact", action="append", default=[],
                        help="counter key that must equal the baseline "
                             "exactly on every shared title (repeatable; "
                             "e.g. prefab.hits)")
    parser.add_argument("--tolerance", type=float, default=0.0,
                        help="fractional budget slack (default 0: the "
                             "counters are deterministic)")
    parser.add_argument("--verify-digests", action="store_true")
    parser.add_argument("--max-wall-ratio", type=float, default=0.0,
                        help="gate: current/baseline wall_seconds per shared "
                             "sweep title must not exceed this (0 = wall "
                             "stays informational)")
    arguments = parser.parse_args()

    baseline = load(arguments.baseline)
    current = load(arguments.current)
    check_comparable(baseline, current)
    report_profile(baseline, current)

    problems = check_budget(baseline, current,
                            arguments.budget or DEFAULT_BUDGET,
                            arguments.tolerance)
    if arguments.exact:
        problems += check_exact(baseline, current, arguments.exact)
    if arguments.verify_digests:
        problems += check_digests(baseline, current)
    if arguments.max_wall_ratio > 0.0:
        problems += check_wall_ratio(baseline, current,
                                     arguments.max_wall_ratio)

    for problem in problems:
        print(f"bench_delta: FAIL {problem}", file=sys.stderr)
    print(f"bench_delta: {'FAIL' if problems else 'OK'} "
          f"({len(problems)} problem(s))")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
