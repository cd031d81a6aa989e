//===-- telemetry/Telemetry.h - Span registry and counters ------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead observability for the deadmember pipeline: a registry of
/// hierarchical spans (RAII, parent/child links, per-span wall/cpu time
/// and memory accounting) and named counters, with emitters for a
/// human-readable phase/counter table and Chrome trace-event JSON
/// (loadable in chrome://tracing or Perfetto). The versioned stats
/// schema and the HTML report renderer build on this registry — see
/// telemetry/Stats.h and docs/OBSERVABILITY.md.
///
/// Telemetry is off by default. Instrumentation sites test one global
/// pointer (`Telemetry::Active`); when no registry is installed via
/// TelemetryScope, a Span or Telemetry::count() call costs a load and a
/// branch.
///
/// Spans form a tree. Each thread tracks its innermost open span; a new
/// Span attaches to it as a child. While a span is open, allocations on
/// its thread are charged to it (telemetry/MemoryAccounting.h):
/// completed spans report net and peak heap bytes, inclusive of child
/// spans on the same thread.
///
/// The registry's central state is mutex-guarded, so spans and counters
/// may be recorded from any thread.
///
/// Span names are part of the tool's observable interface (benches and
/// tests grep for them): "lex", "parse", "sema", "callgraph",
/// "analysis", "eliminate", "interp", and the dotted sub-spans
/// ("analysis.scan", "analysis.closure", "vm.compile", ...). Counter
/// names are dotted, prefixed by their namespace (e.g.
/// "analysis.exprs_visited").
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TELEMETRY_TELEMETRY_H
#define DMM_TELEMETRY_TELEMETRY_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace dmm {

/// Accumulated cost of one span name (the flat per-phase view kept for
/// the --metrics table and the benchmark counter exports).
struct PhaseStat {
  std::string Name;
  uint64_t Nanos = 0;       ///< Total inclusive wall time.
  uint64_t Invocations = 0; ///< Completed Span activations.
  unsigned Depth = 0;       ///< Minimum tree depth observed.
};

/// One key/value attribute attached to a span. Values are either
/// unsigned integers (counts, bytes, flags) or strings (file names).
struct SpanArg {
  std::string Key;
  uint64_t IntValue = 0;
  std::string StrValue;
  bool IsString = false;
};

/// One span: a named interval in the pipeline's execution tree.
/// Id 0 is reserved ("no span"); parents always have smaller ids than
/// their children because a parent begins before any child.
struct SpanRecord {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for roots.
  std::string Name;
  uint64_t StartNanos = 0; ///< Relative to the registry's epoch.
  uint64_t DurNanos = 0;
  uint64_t CpuNanos = 0;     ///< Thread CPU time (0 where unsupported).
  int64_t MemNetBytes = 0;   ///< Allocated minus freed while open.
  int64_t MemPeakBytes = 0;  ///< Peak net heap growth while open.
  unsigned Depth = 0;        ///< Tree depth (root = 0).
  bool Closed = false;       ///< False only for spans still open.
  std::vector<SpanArg> Args;
};

/// The span/counter registry. Install with TelemetryScope; instrument
/// with Span and Telemetry::count().
class Telemetry {
public:
  Telemetry();

  /// The installed process-wide sink, or null (telemetry off).
  static Telemetry *active() { return Active; }

  /// Adds \p Delta to counter \p Name on the active sink, if any. The
  /// null test is the entire disabled-path cost.
  static void count(const char *Name, uint64_t Delta = 1);

  /// The calling thread's innermost open span id (0 if none).
  static uint64_t currentSpanId();

  void addCounter(const std::string &Name, uint64_t Delta);

  /// \name Span recording (used by the Span RAII class)
  /// @{
  /// Opens a span; returns its id, or 0 when the registry's span limit
  /// was reached (aggregates still accumulate for dropped spans).
  /// \p DepthOut receives the span's tree depth (parent depth + 1).
  uint64_t beginSpan(const char *Name, uint64_t Parent, uint64_t StartNanos,
                     unsigned &DepthOut);
  /// Closes span \p Id with its measured costs and attributes, and
  /// folds the interval into the per-name aggregate. \p Id may be 0
  /// (dropped span): only the aggregate is updated then.
  void endSpan(uint64_t Id, const char *Name, uint64_t StartNanos,
               uint64_t DurNanos, uint64_t CpuNanos, int64_t MemNetBytes,
               int64_t MemPeakBytes, unsigned Depth,
               std::vector<SpanArg> Args);
  /// @}

  /// Nanoseconds since this registry was created (monotonic clock).
  uint64_t nowNanos() const;

  /// Caps the number of retained SpanRecords (aggregates and counters
  /// are unaffected). Spans beyond the limit are counted in the
  /// "telemetry.spans_dropped" counter. Default: 1<<18.
  void setSpanLimit(size_t Limit);

  /// Folds \p Other (which must be quiescent) into this registry:
  /// counters and phase aggregates add; spans append with ids remapped
  /// past this registry's, subject to the span limit. Used by the bench
  /// harnesses to fold per-benchmark registries into a whole-run one.
  void merge(const Telemetry &Other);

  /// \name Aggregate accessors
  /// The returned references are not snapshots.
  /// @{
  /// Phase aggregates in first-activation order.
  const std::vector<PhaseStat> &phases() const { return Phases; }
  /// Null if no span named \p Name ever began.
  const PhaseStat *phase(const std::string &Name) const;

  const std::map<std::string, uint64_t> &counters() const {
    return Counters;
  }
  /// 0 if the counter was never touched.
  uint64_t counter(const std::string &Name) const;

  /// Completed (and still-open) spans, in begin order. Spans[I] has
  /// Id == I + 1.
  const std::vector<SpanRecord> &spans() const { return Spans; }
  /// @}

  /// Writes the human-readable phase/counter table. Rows are sorted by
  /// (namespace, key) — the namespace is the dotted prefix before the
  /// first '.'.
  void printMetrics(std::ostream &OS) const;
  /// Writes Chrome trace-event JSON ({"traceEvents": [...]}) with span
  /// ids, parent links, and memory/attribute args.
  void printChromeTrace(std::ostream &OS) const;

private:
  friend class TelemetryScope;
  friend class Span;
  static Telemetry *Active;

  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex Mu; ///< Guards all fields below.
  std::vector<PhaseStat> Phases;
  std::map<std::string, size_t> PhaseIndex;
  std::map<std::string, uint64_t> Counters;
  std::vector<SpanRecord> Spans;
  size_t SpanLimit;
  uint64_t SpansDropped = 0;
};

/// Installs a registry as the process-wide active sink for the current
/// scope. Scopes nest; the previous sink is restored on destruction.
class TelemetryScope {
public:
  explicit TelemetryScope(Telemetry &T) : Saved(Telemetry::Active) {
    Telemetry::Active = &T;
  }
  ~TelemetryScope() { Telemetry::Active = Saved; }
  TelemetryScope(const TelemetryScope &) = delete;
  TelemetryScope &operator=(const TelemetryScope &) = delete;

private:
  Telemetry *Saved;
};

/// RAII span: records the enclosed interval (wall and thread-cpu time,
/// net/peak heap bytes) into the active registry under \p Name, as a
/// child of the thread's current span. \p Name must outlive the span
/// (string literals only). Attach attributes with arg() before the
/// span closes.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// This span's id (0 when telemetry is off or the span was dropped).
  uint64_t id() const { return Id; }
  bool active() const { return T != nullptr; }

  /// Attaches a numeric attribute (count, bytes, 0/1 flag).
  void arg(const char *Key, uint64_t Value);
  /// Attaches a string attribute (file name, mode).
  void arg(const char *Key, std::string Value);

private:
  Telemetry *T;
  const char *Name;
  uint64_t Id = 0;
  uint64_t SavedParent = 0;
  unsigned Depth = 0;
  bool MemPushed = false;
  uint64_t StartNanos = 0;
  uint64_t CpuStart = 0;
  std::vector<SpanArg> Args;
};

} // namespace dmm

#endif // DMM_TELEMETRY_TELEMETRY_H
