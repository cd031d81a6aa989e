//===-- telemetry/Stats.h - Versioned stats document ------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one record of a run: a versioned document (schema "dmm-stats")
/// holding per-span wall/cpu time and memory peaks, the flat phase
/// aggregates, and every counter. Every telemetry output is rendered
/// from it: `--metrics` (printMetrics), `--trace-json`
/// (printChromeTrace), `--stats-json` (printStats) and `--report`
/// (renderHtmlReport, telemetry/HtmlReport.h). The stats file is also
/// consumed by `scripts/run_bench.sh` (to compose BENCH_<label>.json)
/// and by the schema-validation tests.
///
/// Compatibility policy (see docs/OBSERVABILITY.md): within a major
/// version, fields are only ever added, never removed or retyped;
/// consumers must ignore unknown fields. A breaking change increments
/// "version". Timing/memory fields (start_ns, wall_ns, cpu_ns,
/// mem_net_bytes, mem_peak_bytes) vary run to run; all other fields are
/// deterministic for a given input. "jobs" is always 1: the pipeline
/// runs on one thread, and the key stays for schema compatibility.
///
/// The document reuses the registry's record types (PhaseStat,
/// SpanRecord) but is a snapshot, not a view: it can be built from a
/// registry (buildStats) or parsed back from a file (parseStats), so
/// `--report --from-stats=FILE` works without re-running the pipeline,
/// and every renderer gives the same bytes for either.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TELEMETRY_STATS_H
#define DMM_TELEMETRY_STATS_H

#include "telemetry/Telemetry.h"

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmm {
namespace stats {

inline constexpr const char kSchemaName[] = "dmm-stats";
/// Version history: 1 — phases/counters/spans (PR-5); 2 — adds the
/// optional "profiler" section (shadow-memory profiler summary,
/// snapshots, and per-site byte attribution); 3 — adds the optional
/// "diagnostics" section (per-level log counts, flight-recorder
/// totals, crash-report count); phase rows later gained "depth", an
/// added field, so the version stayed 3. Documents without the
/// optional sections are valid at any version that permits them;
/// parseStats accepts every version in [kMinSchemaVersion,
/// kSchemaVersion].
inline constexpr int kSchemaVersion = 3;
inline constexpr int kMinSchemaVersion = 1;

/// One point of the shadow profiler's high-water-mark timeline (v2).
struct ProfilerSnapshotRow {
  uint64_t Event = 0; ///< 1-based allocation-event index.
  uint64_t LiveBytes = 0;
  uint64_t LiveBytesNoDead = 0;
  uint64_t LiveObjects = 0;
};

/// One (allocation site, class, leaf member) attribution cell (v2).
struct ProfilerSiteRow {
  std::string File;
  uint64_t Line = 0;
  std::string Class;
  std::string Member;
  uint64_t Objects = 0;
  uint64_t AllocBytes = 0;
  uint64_t WrittenBytes = 0;
  uint64_t ReadBytes = 0;
  uint64_t AddrTakenBytes = 0;
  uint64_t NeverReadBytes = 0;
  bool StaticDead = false;
};

/// The optional "profiler" object introduced in schema version 2. All
/// fields are deterministic for a given program (no timing), so whole
/// sections compare equal across runs.
struct ProfilerSection {
  bool Present = false; ///< Section exists in the document.
  uint64_t ObjectSpace = 0;
  uint64_t DeadMemberSpace = 0;
  uint64_t HighWaterMark = 0;
  uint64_t HighWaterMarkNoDead = 0;
  uint64_t NumObjects = 0;
  uint64_t AllocEvents = 0;
  uint64_t FreeEvents = 0;
  uint64_t LeakedObjects = 0;
  uint64_t PeakAllocEvent = 0;
  uint64_t SnapshotStride = 1;
  std::vector<ProfilerSnapshotRow> Snapshots; ///< Event ascending.
  std::vector<ProfilerSiteRow> Sites; ///< (File, Line, Class, Member).
};

/// The optional "diagnostics" object introduced in schema version 3:
/// the run's own observability health. Log counts are per-level event
/// totals (post level-filter); recorder fields mirror the flight
/// recorder (telemetry/FlightRecorder.h); Crashes counts crash
/// reports written by this process (nonzero only if a signal handler
/// fired and the process somehow lived to emit stats — it exists so
/// batch drivers folding many registries surface half-died runs).
struct DiagnosticsSection {
  bool Present = false; ///< Section exists in the document.
  uint64_t LogError = 0;
  uint64_t LogWarn = 0;
  uint64_t LogInfo = 0;
  uint64_t LogDebug = 0;
  uint64_t LogTrace = 0;
  uint64_t RecorderEvents = 0;
  uint64_t RecorderDropped = 0;
  uint64_t Crashes = 0;
};

/// The parsed/built document.
struct StatsDocument {
  int Version = kSchemaVersion;
  std::string Tool; ///< e.g. "deadmember 0.3.0".
  unsigned Jobs = 0; ///< buildStats always writes 1.
  bool MemAccounting = false; ///< Platform supports heap accounting.
  ProfilerSection Profiler; ///< Present only when --profile ran (v2).
  DiagnosticsSection Diagnostics; ///< Filled by buildStats (v3).
  /// Sorted by (namespace, key): the namespace is the dotted prefix
  /// before the first '.'. Depth is 0 when read from a file older
  /// than the "depth" field.
  std::vector<PhaseStat> Phases;
  std::vector<std::pair<std::string, uint64_t>> Counters; ///< Same order.
  std::vector<SpanRecord> Spans; ///< In begin order; Spans[I].Id == I+1.
};

/// Snapshots \p T into a document.
StatsDocument buildStats(const Telemetry &T, std::string Tool);

/// Writes the document as schema-versioned JSON.
void printStats(const StatsDocument &D, std::ostream &OS);

/// Writes the human-readable phase/counter table (--metrics): phases
/// indented by depth, then counters, both in document order.
void printMetrics(const StatsDocument &D, std::ostream &OS);

/// Writes Chrome trace-event JSON ({"traceEvents": [...]}, loadable in
/// chrome://tracing or Perfetto): one complete event per span with its
/// id, parent link and memory/attribute args, then one instant event
/// carrying every counter, stamped at the latest span end.
void printChromeTrace(const StatsDocument &D, std::ostream &OS);

/// Parses and validates a stats JSON document: strict JSON, schema
/// name/version, required fields with correct types, span parent ids
/// resolving to earlier spans. On failure returns false and sets
/// \p Error.
bool parseStats(std::string_view Text, StatsDocument &Out,
                std::string &Error);

} // namespace stats
} // namespace dmm

#endif // DMM_TELEMETRY_STATS_H
