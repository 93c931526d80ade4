#!/usr/bin/env python3
"""CI validator for the observability layer's JSON artifacts.

Checks, without any third-party dependency:
  --trace FILE    Chrome trace-event / Perfetto JSON (obs/chrome_trace.cc):
                  object form with "traceEvents", every event carries the
                  required fields for its phase, timestamps are monotone
                  non-decreasing in file order (the writer sorts), and async
                  "b"/"e" events are balanced per correlation id.
  --bench FILE    BENCH_<name>.json envelope (harness/json_writer.cc):
                  schema_version == 2, and when a "profile" section is
                  present it has the per-phase aggregate shape.
  --metrics FILE  metrics registry export (harness/obs_export.cc):
                  schema_version == 1, digest is 0x-hex, "final" entries are
                  sorted by key, series timestamps are monotone.
  --flight FILE   scheduler flight-recorder binary dump
                  (sim/flight_recorder.cc, DESIGN.md §13): magic + layout,
                  record times monotone non-decreasing, arm seqs strictly
                  increasing, parent_seq < seq for arm/reschedule/fire,
                  every kind id registered, and per-kind counters consistent
                  (disarms + fires never exceed arms).

Exit code 0 when every given file validates; 1 with a message otherwise.
"""
from __future__ import annotations

import argparse
import json
import struct
import sys

VALID_PHASES = {"X", "b", "e", "i", "M"}


def fail(message: str) -> None:
    raise SystemExit(f"validate_trace: {message}")


def validate_trace(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("displayTimeUnit") != "ms":
        fail(f"{path}: displayTimeUnit must be 'ms'")
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty array")
    last_ts = None
    async_depth: dict[tuple[int, int], int] = {}
    for index, event in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                fail(f"{path}: event {index} missing '{key}'")
        phase = event["ph"]
        if phase not in VALID_PHASES:
            fail(f"{path}: event {index} has unknown phase {phase!r}")
        if phase == "M":
            continue  # metadata sorts first and carries no timeline position
        ts = float(event["ts"])
        if ts < 0:
            fail(f"{path}: event {index} has negative ts {ts}")
        if last_ts is not None and ts < last_ts:
            fail(f"{path}: event {index} ts {ts} < previous {last_ts} "
                 "(writer must emit monotone timestamps)")
        last_ts = ts
        if phase == "X" and float(event.get("dur", -1)) < 0:
            fail(f"{path}: complete event {index} has negative duration")
        if phase in ("b", "e"):
            if "id" not in event:
                fail(f"{path}: async event {index} missing 'id'")
            key = (int(event["pid"]), int(event["id"]))
            async_depth[key] = async_depth.get(key, 0) + (1 if phase == "b" else -1)
            if async_depth[key] < 0:
                fail(f"{path}: async end before begin for id {event['id']}")
    unbalanced = {key: depth for key, depth in async_depth.items() if depth != 0}
    if unbalanced:
        fail(f"{path}: {len(unbalanced)} unbalanced async span id(s)")
    print(f"validate_trace: {path}: {len(events)} events OK")


def validate_bench(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema_version") != 2:
        fail(f"{path}: schema_version must be 2, got "
             f"{document.get('schema_version')!r}")
    for key in ("bench", "scale", "wall_seconds"):
        if key not in document:
            fail(f"{path}: missing '{key}'")
    profile = document.get("profile")
    if profile is not None:
        if "spans_total" not in profile or "phases" not in profile:
            fail(f"{path}: profile section missing spans_total/phases")
        for phase in profile["phases"]:
            for key in ("phase", "count", "total_s", "mean_s", "min_s", "max_s"):
                if key not in phase:
                    fail(f"{path}: profile phase missing '{key}'")
    print(f"validate_trace: {path}: schema v2 envelope OK"
          + (" (with profile)" if profile is not None else ""))


def validate_metrics(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema_version") != 1:
        fail(f"{path}: metrics schema_version must be 1")
    digest = document.get("digest", "")
    if not (isinstance(digest, str) and digest.startswith("0x")
            and len(digest) == 18):
        fail(f"{path}: digest must be fixed-width 0x-hex, got {digest!r}")
    final = document.get("final")
    if not isinstance(final, dict) or "entries" not in final:
        fail(f"{path}: missing final snapshot")
    keys = [entry["key"] for entry in final["entries"]]
    if keys != sorted(keys):
        fail(f"{path}: final snapshot entries must be sorted by key")
    last_at = None
    for point in document.get("series", []):
        at = int(point["at_ns"])
        if last_at is not None and at < last_at:
            fail(f"{path}: series at_ns not monotone")
        last_at = at
    print(f"validate_trace: {path}: metrics document OK "
          f"({len(keys)} instruments, {len(document.get('series', []))} "
          "series points)")


FLIGHT_MAGIC = b"CRNFREC1"
ACTION_NAMES = ("arm", "resched", "disarm", "fire")


class _Reader:
    """Bounds-checked little-endian reader over the dump bytes."""

    def __init__(self, data: bytes, path: str) -> None:
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, count: int, what: str) -> bytes:
        if self.offset + count > len(self.data):
            fail(f"{self.path}: truncated while reading {what} "
                 f"(need {count} bytes at offset {self.offset})")
        chunk = self.data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def validate_flight(path: str) -> None:
    with open(path, "rb") as handle:
        reader = _Reader(handle.read(), path)
    if reader.take(8, "magic") != FLIGHT_MAGIC:
        fail(f"{path}: bad magic (not a flight-recorder dump)")
    depth = reader.u64("depth")
    total_recorded = reader.u64("total_recorded")
    kind_count = reader.u32("kind_count")
    if kind_count == 0:
        fail(f"{path}: kind table must at least hold the 'unnamed' kind 0")
    kind_names = []
    for index in range(kind_count):
        length = reader.u32(f"kind {index} name length")
        kind_names.append(reader.take(length, f"kind {index} name").decode())
    for index, name in enumerate(kind_names):
        if index > 0 and not name:
            fail(f"{path}: kind {index} has an empty name")
    counters = []
    for index in range(kind_count):
        arms = reader.u64(f"kind {index} arms")
        reschedules = reader.u64(f"kind {index} reschedules")
        disarms = reader.u64(f"kind {index} disarms")
        fires = reader.u64(f"kind {index} fires")
        if disarms + fires > arms:
            fail(f"{path}: kind {kind_names[index]!r} resolved more "
                 f"lifetimes than it armed ({disarms} disarms + {fires} "
                 f"fires > {arms} arms)")
        counters.append((arms, reschedules, disarms, fires))
    record_count = reader.u64("record count")
    if record_count > depth:
        fail(f"{path}: {record_count} stored records exceed ring depth "
             f"{depth}")
    if record_count > total_recorded:
        fail(f"{path}: {record_count} stored records exceed "
             f"{total_recorded} ever recorded")
    last_time = None
    last_arm_seq = None
    for index in range(record_count):
        what = f"record {index}"
        seq = reader.u64(what)
        time_ns = reader.u64(what)
        parent_seq = reader.u64(what)
        reader.u32(what)  # owner (int32; any value is legal)
        kind = reader.u16(what)
        action = reader.take(1, what)[0]
        reader.take(1, what)  # pad
        if action >= len(ACTION_NAMES):
            fail(f"{path}: record {index} has unknown action {action}")
        if kind >= kind_count:
            fail(f"{path}: record {index} references unregistered kind "
                 f"{kind} (table holds {kind_count})")
        if last_time is not None and time_ns < last_time:
            fail(f"{path}: record {index} time {time_ns} < previous "
                 f"{last_time} (actions must append in sim-time order)")
        last_time = time_ns
        if action in (0, 1):  # arm / reschedule: freshly allocated seq
            if last_arm_seq is not None and seq <= last_arm_seq:
                fail(f"{path}: record {index} arm seq {seq} not strictly "
                     f"increasing (previous arm {last_arm_seq})")
            last_arm_seq = seq
        # Disarm records reuse the cancelled entry's seq with the canceller
        # as parent, so parent < seq holds only for the other actions.
        if action != 2 and parent_seq >= seq:
            fail(f"{path}: record {index} ({ACTION_NAMES[action]}) "
                 f"parent #{parent_seq} >= seq #{seq} — causality violated")
    if reader.offset != len(reader.data):
        fail(f"{path}: {len(reader.data) - reader.offset} trailing bytes "
             "after the last record")
    print(f"validate_trace: {path}: flight dump OK ({record_count} records, "
          f"{total_recorded} recorded, {kind_count} kinds)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="append", default=[])
    parser.add_argument("--bench", action="append", default=[])
    parser.add_argument("--metrics", action="append", default=[])
    parser.add_argument("--flight", action="append", default=[])
    arguments = parser.parse_args()
    if not (arguments.trace or arguments.bench or arguments.metrics
            or arguments.flight):
        parser.error("give at least one of --trace/--bench/--metrics/--flight")
    for path in arguments.trace:
        validate_trace(path)
    for path in arguments.bench:
        validate_bench(path)
    for path in arguments.metrics:
        validate_metrics(path)
    for path in arguments.flight:
        validate_flight(path)


if __name__ == "__main__":
    main()
    sys.exit(0)
