#!/usr/bin/env python3
"""Validator for the deadmember observability outputs (docs/OBSERVABILITY.md).

Subcommands:

  validate-stats FILE       check a --stats-json file against the
                            dmm-stats schema, v1..v3 (required fields,
                            dense begin-ordered span ids, parents precede
                            children, no orphan spans; for v2 documents
                            with a "profiler" section: per-field types,
                            strictly increasing snapshot events, live
                            bytes bounded by the high-water mark; for v3
                            documents with a "diagnostics" section:
                            per-level log counters and flight-recorder
                            totals, all non-negative integers)
  validate-trace FILE       check a --trace-json file (Chrome trace
                            format; every duration event must carry its
                            span id and parent link)
  compare A B               check that two stats files agree on
                            everything except the run-varying timing
                            fields (jobs, start_ns, wall_ns, cpu_ns,
                            mem_*_bytes) -- the run-to-run
                            determinism contract
  check-crash FILE          check a dmm-crash-<pid>.json crash report:
                            dmm-crash schema v1, a non-empty span stack,
                            at least one flight-recorder event with the
                            required fields and thread 0, and integer
                            counters

Exits 0 on success, 1 with a diagnostic on the first violation.
Only the standard library is used.
"""

import json
import sys

SCHEMA_NAME = "dmm-stats"
# Accepted schema versions; the "profiler" section needs v2+, the
# "diagnostics" section needs v3+.
SCHEMA_MIN_VERSION = 1
SCHEMA_MAX_VERSION = 3

CRASH_SCHEMA_NAME = "dmm-crash"
CRASH_SCHEMA_VERSION = 1

DIAGNOSTICS_FIELDS = (
    "log_error", "log_warn", "log_info", "log_debug", "log_trace",
    "recorder_events", "recorder_dropped", "crashes",
)
# Flight-recorder totals count every span and log event, so they move
# with the span set (and "recorder_dropped" with how far the one ring
# wrapped); compare skips them, but the log counters and crash count
# must still match.
DIAGNOSTICS_RUN_VARYING = frozenset(("recorder_events", "recorder_dropped"))

CRASH_COUNTER_FIELDS = DIAGNOSTICS_FIELDS[:-1]  # No "crashes" key.
CRASH_EVENT_STR_FIELDS = ("kind", "level", "text")
CRASH_EVENT_INT_FIELDS = ("seq", "ts_ns", "thread")

PROFILER_SUMMARY_FIELDS = (
    "object_space", "dead_member_space", "high_water_mark",
    "high_water_mark_no_dead", "num_objects", "alloc_events",
    "free_events", "leaked_objects", "peak_alloc_event",
    "snapshot_stride",
)
PROFILER_SNAPSHOT_FIELDS = (
    "event", "live_bytes", "live_bytes_no_dead", "live_objects",
)
PROFILER_SITE_STR_FIELDS = ("file", "class", "member")
PROFILER_SITE_INT_FIELDS = (
    "line", "objects", "alloc_bytes", "written_bytes", "read_bytes",
    "addr_taken_bytes", "never_read_bytes",
)

SPAN_NUMERIC_FIELDS = (
    "id", "parent", "depth", "start_ns", "wall_ns", "cpu_ns",
    "mem_net_bytes", "mem_peak_bytes",
)
# Fields expected to differ between otherwise-identical runs (machine
# load, allocator state). Everything else must be bit-equal.
TIMING_FIELDS = frozenset(
    ("start_ns", "wall_ns", "cpu_ns", "mem_net_bytes", "mem_peak_bytes"))


def fail(msg):
    print("error: %s" % msg, file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("%s: %s" % (path, e))


def check_stats_doc(doc, where):
    if not isinstance(doc, dict):
        fail("%s: top level is not an object" % where)
    if doc.get("schema") != SCHEMA_NAME:
        fail("%s: schema is %r, want %r" % (where, doc.get("schema"),
                                            SCHEMA_NAME))
    version = doc.get("version")
    if (not isinstance(version, int)
            or not SCHEMA_MIN_VERSION <= version <= SCHEMA_MAX_VERSION):
        fail("%s: version is %r, want %d..%d"
             % (where, version, SCHEMA_MIN_VERSION, SCHEMA_MAX_VERSION))
    if not isinstance(doc.get("tool"), str):
        fail("%s: missing string \"tool\"" % where)
    if not isinstance(doc.get("jobs"), int):
        fail("%s: missing integer \"jobs\"" % where)
    if not isinstance(doc.get("memory_accounting"), bool):
        fail("%s: missing boolean \"memory_accounting\"" % where)

    phases = doc.get("phases")
    if not isinstance(phases, list):
        fail("%s: missing array \"phases\"" % where)
    for i, p in enumerate(phases):
        if not isinstance(p, dict) or not isinstance(p.get("name"), str):
            fail("%s: phases[%d] lacks a string name" % (where, i))
        for key in ("wall_ns", "calls"):
            if not isinstance(p.get(key), int):
                fail("%s: phases[%d] (%s) lacks integer %r"
                     % (where, i, p["name"], key))

    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail("%s: missing object \"counters\"" % where)
    for name, value in counters.items():
        if not isinstance(value, int):
            fail("%s: counter %r is not an integer" % (where, name))

    if "profiler" in doc:
        check_profiler(doc, where)
    if "diagnostics" in doc:
        check_diagnostics(doc, where)

    spans = doc.get("spans")
    if not isinstance(spans, list):
        fail("%s: missing array \"spans\"" % where)
    for i, s in enumerate(spans):
        label = "%s: spans[%d]" % (where, i)
        if not isinstance(s, dict) or not isinstance(s.get("name"), str):
            fail(label + " lacks a string name")
        for key in SPAN_NUMERIC_FIELDS:
            if not isinstance(s.get(key), int):
                fail("%s (%s) lacks integer %r" % (label, s["name"], key))
        if s["id"] != i + 1:
            fail("%s (%s): id %d is not dense (want %d)"
                 % (label, s["name"], s["id"], i + 1))
        if s["parent"] >= s["id"]:
            fail("%s (%s): parent %d does not precede span %d"
                 % (label, s["name"], s["parent"], s["id"]))
        args = s.get("args", {})
        if not isinstance(args, dict):
            fail(label + ": \"args\" is not an object")
        for k, v in args.items():
            if not isinstance(v, (int, str)):
                fail("%s: arg %r is neither integer nor string" % (label, k))
    return doc


def check_profiler(doc, where):
    """Validates the v2 "profiler" section: field presence and types,
    strictly increasing snapshot events, and the live-byte invariants
    (live <= high-water mark, live-without-dead <= live)."""
    if doc["version"] < 2:
        fail("%s: \"profiler\" section requires version >= 2, got %d"
             % (where, doc["version"]))
    prof = doc["profiler"]
    if not isinstance(prof, dict):
        fail("%s: \"profiler\" is not an object" % where)
    for key in PROFILER_SUMMARY_FIELDS:
        if not isinstance(prof.get(key), int):
            fail("%s: profiler lacks integer %r" % (where, key))
    if prof["snapshot_stride"] < 1:
        fail("%s: profiler snapshot_stride must be >= 1" % where)
    hwm = prof["high_water_mark"]
    if prof["high_water_mark_no_dead"] > hwm:
        fail("%s: profiler high_water_mark_no_dead exceeds "
             "high_water_mark" % where)

    snapshots = prof.get("snapshots")
    if not isinstance(snapshots, list):
        fail("%s: profiler lacks array \"snapshots\"" % where)
    prev_event = 0
    for i, s in enumerate(snapshots):
        label = "%s: profiler.snapshots[%d]" % (where, i)
        if not isinstance(s, dict):
            fail(label + " is not an object")
        for key in PROFILER_SNAPSHOT_FIELDS:
            if not isinstance(s.get(key), int):
                fail("%s lacks integer %r" % (label, key))
        if s["event"] <= prev_event:
            fail("%s: event %d does not increase (previous %d)"
                 % (label, s["event"], prev_event))
        prev_event = s["event"]
        if s["live_bytes"] > hwm:
            fail("%s: live_bytes %d exceeds the high water mark %d"
                 % (label, s["live_bytes"], hwm))
        if s["live_bytes_no_dead"] > s["live_bytes"]:
            fail("%s: live_bytes_no_dead exceeds live_bytes" % label)

    sites = prof.get("sites")
    if not isinstance(sites, list):
        fail("%s: profiler lacks array \"sites\"" % where)
    for i, s in enumerate(sites):
        label = "%s: profiler.sites[%d]" % (where, i)
        if not isinstance(s, dict):
            fail(label + " is not an object")
        for key in PROFILER_SITE_STR_FIELDS:
            if not isinstance(s.get(key), str):
                fail("%s lacks string %r" % (label, key))
        for key in PROFILER_SITE_INT_FIELDS:
            if not isinstance(s.get(key), int):
                fail("%s lacks integer %r" % (label, key))
        if not isinstance(s.get("static_dead"), bool):
            fail("%s lacks boolean \"static_dead\"" % label)
        if s["never_read_bytes"] > s["alloc_bytes"]:
            fail("%s: never_read_bytes exceeds alloc_bytes" % label)


def check_diagnostics(doc, where):
    """Validates the v3 "diagnostics" section: per-level log counters,
    flight-recorder totals, and the crash count, all non-negative
    integers."""
    if doc["version"] < 3:
        fail("%s: \"diagnostics\" section requires version >= 3, got %d"
             % (where, doc["version"]))
    diag = doc["diagnostics"]
    if not isinstance(diag, dict):
        fail("%s: \"diagnostics\" is not an object" % where)
    for key in DIAGNOSTICS_FIELDS:
        value = diag.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            fail("%s: diagnostics lacks integer %r" % (where, key))
        if value < 0:
            fail("%s: diagnostics %r is negative" % (where, key))


def cmd_validate_stats(path):
    doc = check_stats_doc(load(path), path)
    profiler = ""
    if "profiler" in doc:
        profiler = (", profiler: %d snapshots, %d sites"
                    % (len(doc["profiler"]["snapshots"]),
                       len(doc["profiler"]["sites"])))
    print("%s: ok (v%d, %d phases, %d counters, %d spans%s)"
          % (path, doc["version"], len(doc["phases"]),
             len(doc["counters"]), len(doc["spans"]), profiler))


def cmd_validate_trace(path):
    doc = load(path)
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        fail("%s: missing array \"traceEvents\"" % path)
    spans = 0
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail("%s: traceEvents[%d] is not an object" % (path, i))
        if e.get("ph") != "X":
            continue
        spans += 1
        args = e.get("args")
        if not isinstance(args, dict):
            fail("%s: duration event %d lacks \"args\"" % (path, i))
        for key in ("span_id", "parent", "mem_peak_bytes"):
            if key not in args:
                fail("%s: duration event %r lacks args.%s"
                     % (path, e.get("name"), key))
    if spans == 0:
        fail("%s: no duration events" % path)
    print("%s: ok (%d events, %d spans)" % (path, len(events), spans))


def span_paths(doc):
    """Order-independent span identities: the name path from the root
    plus non-timing args, so records compare independently of their
    order and ids."""
    by_id = {s["id"]: s for s in doc["spans"]}
    paths = []
    for s in doc["spans"]:
        parts = []
        cur = s
        while cur is not None:
            parts.append(cur["name"])
            cur = by_id.get(cur["parent"])
        args = tuple(sorted(s.get("args", {}).items()))
        paths.append(("/".join(reversed(parts)), s["depth"], args))
    return sorted(paths)


def normalized(doc):
    return {
        "schema": doc["schema"],
        "version": doc["version"],
        "tool": doc["tool"],
        "memory_accounting": doc["memory_accounting"],
        "phases": [(p["name"], p["calls"]) for p in doc["phases"]],
        "counters": sorted(doc["counters"].items()),
        # The whole profiler section is deterministic (counts and byte
        # totals, no timing), so it must be bit-equal across runs.
        "profiler": doc.get("profiler"),
        "diagnostics": diagnostics_normalized(doc.get("diagnostics")),
        "spans": span_paths(doc),
    }


def diagnostics_normalized(diag):
    if not isinstance(diag, dict):
        return diag
    return {k: v for k, v in diag.items()
            if k not in DIAGNOSTICS_RUN_VARYING}


def cmd_compare(path_a, path_b):
    a = check_stats_doc(load(path_a), path_a)
    b = check_stats_doc(load(path_b), path_b)
    na, nb = normalized(a), normalized(b)
    for key in na:
        if na[key] != nb[key]:
            va, vb = na[key], nb[key]
            if isinstance(va, list):
                only_a = [x for x in va if x not in vb]
                only_b = [x for x in vb if x not in va]
                fail("%r differs beyond timing fields:\n  only in %s: %r\n"
                     "  only in %s: %r"
                     % (key, path_a, only_a[:5], path_b, only_b[:5]))
            fail("%r differs beyond timing fields: %r vs %r" % (key, va, vb))
    print("%s and %s agree modulo timing fields (jobs=%d vs jobs=%d)"
          % (path_a, path_b, a["jobs"], b["jobs"]))


def cmd_check_crash(path):
    doc = load(path)
    if not isinstance(doc, dict):
        fail("%s: top level is not an object" % path)
    if doc.get("schema") != CRASH_SCHEMA_NAME:
        fail("%s: schema is %r, want %r" % (path, doc.get("schema"),
                                            CRASH_SCHEMA_NAME))
    if doc.get("version") != CRASH_SCHEMA_VERSION:
        fail("%s: version is %r, want %d" % (path, doc.get("version"),
                                             CRASH_SCHEMA_VERSION))
    for key in ("tool", "tool_version", "reason"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            fail("%s: missing non-empty string %r" % (path, key))
    if not isinstance(doc.get("pid"), int):
        fail("%s: missing integer \"pid\"" % path)

    argv_list = doc.get("argv")
    if (not isinstance(argv_list, list) or not argv_list
            or not all(isinstance(a, str) for a in argv_list)):
        fail("%s: \"argv\" is not a non-empty array of strings" % path)

    spans = doc.get("span_stack")
    if not isinstance(spans, list) or not spans:
        fail("%s: \"span_stack\" is empty -- the handler should see at "
             "least the root pipeline span" % path)
    if not all(isinstance(s, str) and s for s in spans):
        fail("%s: span_stack entries must be non-empty strings" % path)

    events = doc.get("flight_recorder")
    if not isinstance(events, list) or not events:
        fail("%s: \"flight_recorder\" holds no events" % path)
    for i, e in enumerate(events):
        label = "%s: flight_recorder[%d]" % (path, i)
        if not isinstance(e, dict):
            fail(label + " is not an object")
        for key in CRASH_EVENT_INT_FIELDS:
            if not isinstance(e.get(key), int):
                fail("%s lacks integer %r" % (label, key))
        for key in CRASH_EVENT_STR_FIELDS:
            if not isinstance(e.get(key), str):
                fail("%s lacks string %r" % (label, key))
        if e["kind"] not in ("log", "span_begin", "span_end"):
            fail("%s: unknown kind %r" % (label, e["kind"]))
        # The recorder has one ring, owned by the one pipeline thread.
        if e["thread"] != 0:
            fail("%s: thread is %r, want 0" % (label, e["thread"]))

    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail("%s: missing object \"counters\"" % path)
    for key in CRASH_COUNTER_FIELDS:
        if not isinstance(counters.get(key), int):
            fail("%s: counters lacks integer %r" % (path, key))

    print("%s: ok (reason: %s, %d spans deep, %d flight-recorder events)"
          % (path, doc["reason"], len(spans), len(events)))


def main(argv):
    if len(argv) >= 3 and argv[1] == "validate-stats":
        for path in argv[2:]:
            cmd_validate_stats(path)
    elif len(argv) >= 3 and argv[1] == "validate-trace":
        for path in argv[2:]:
            cmd_validate_trace(path)
    elif len(argv) == 4 and argv[1] == "compare":
        cmd_compare(argv[2], argv[3])
    elif len(argv) >= 3 and argv[1] == "check-crash":
        for path in argv[2:]:
            cmd_check_crash(path)
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
