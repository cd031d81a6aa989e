//===-- telemetry/FlightRecorder.h - The process's event ring ---*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity in-memory flight recorder: log events and span
/// markers go into one ring buffer, so the most recent activity
/// survives to a crash and can be dumped by the async-signal-safe crash
/// handler (telemetry/CrashHandler.h) without taking locks or
/// allocating.
///
/// The process runs its whole pipeline on one thread, and the crash
/// handler runs on that same thread, so the ring needs no atomics: a
/// std::atomic_signal_fence before each head update keeps a completed
/// entry ahead of the head that publishes it. The recorder lives in
/// static storage, so it stays valid for signal handlers until the
/// very end of the process and never allocates.
///
/// Alongside the ring, the recorder keeps the stack of open span names
/// (pushed/popped by the Span RAII class in Telemetry.cpp, independent
/// of whether a Telemetry registry is active) so a crash report can say
/// *where in the pipeline* the process died even on runs with no
/// --metrics/--stats-json.
///
/// Events beyond the ring's capacity overwrite the oldest entry (that
/// is the point of a flight recorder); the number of overwritten events
/// is reported as "recorder_dropped" in the stats v3 diagnostics
/// section.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TELEMETRY_FLIGHTRECORDER_H
#define DMM_TELEMETRY_FLIGHTRECORDER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmm {

enum class FlightEventKind : uint8_t {
  Log = 0,       ///< A log event that passed the logger's level filter.
  SpanBegin = 1, ///< A Span opened (Text = span name).
  SpanEnd = 2,   ///< A Span closed (Text = span name).
};

/// Returns "log", "span_begin", or "span_end". Async-signal-safe.
const char *flightEventKindName(FlightEventKind Kind);

/// One recorded event. POD with a fixed-size text payload so the ring
/// can be walked from a signal handler.
struct FlightEvent {
  uint64_t Seq = 0;       ///< 1-based sequence number.
  uint64_t TimeNanos = 0; ///< Nanoseconds since the recorder's epoch.
  uint32_t Thread = 0;    ///< Always 0: the crash schema's thread field.
  FlightEventKind Kind = FlightEventKind::Log;
  uint8_t Level = 0;   ///< LogLevel for Kind == Log; 0 otherwise.
  char Text[102] = {}; ///< NUL-terminated, truncated message / span name.
};

/// The process-wide recorder. Install once near the top of main();
/// instrumentation sites reach it through the free helpers below, which
/// cost one load when no recorder is installed.
class FlightRecorder {
public:
  static constexpr size_t kCapacity = 256; ///< Events in the ring.
  static constexpr size_t kMaxSpanDepth = 64;
  static constexpr size_t kCrashTailEvents = 64; ///< Crash-report cap.
  // The slot record() overwrites must lie outside the crash tail.
  static_assert(kCrashTailEvents < kCapacity);

  /// The installed recorder, or null.
  static FlightRecorder *active() { return Active; }

  /// Installs the process-wide recorder. Idempotent: the first call
  /// starts the clock and the recorder lives for the rest of the
  /// process.
  static void install();

  /// Records an event. Never allocates.
  void record(FlightEventKind Kind, uint8_t Level, const char *Text);

  /// \name Span-stack maintenance (called by the Span RAII class).
  /// @{
  void spanBegin(const char *Name);
  void spanEnd();
  /// @}

  /// Copies the open-span names, outermost first, into \p Names (at
  /// most \p Max). Returns the count. Async-signal-safe.
  size_t currentSpanStack(const char **Names, size_t Max) const;

  /// Total events ever recorded; also the ring's next write index.
  uint64_t eventsRecorded() const { return Head; }
  /// Events lost to ring wrap-around.
  uint64_t eventsDropped() const {
    return Head > kCapacity ? Head - kCapacity : 0;
  }

  size_t capacity() const { return kCapacity; }

  /// Copies the retained events, oldest first (in Seq order). Allocates
  /// — for tests and post-run reporting, not for signal context.
  std::vector<FlightEvent> snapshot() const;

  /// Event \p Index (0-based, in recording order); only the newest
  /// capacity() indices below eventsRecorded() are retained.
  /// Async-signal-safe.
  const FlightEvent &event(uint64_t Index) const {
    return Entries[Index % kCapacity];
  }

private:
  constexpr FlightRecorder() = default;

  static FlightRecorder *Active;
  static FlightRecorder Instance;

  uint64_t EpochNanos = 0; ///< steady_clock epoch for TimeNanos.
  uint64_t Head = 0;
  size_t SpanDepth = 0;
  const char *SpanNames[kMaxSpanDepth] = {};
  FlightEvent Entries[kCapacity];

  uint64_t nowNanos() const;
};

/// \name Instrumentation helpers
/// No-ops (one load) when no recorder is installed.
/// @{
inline void flightRecordLog(uint8_t Level, const char *Msg) {
  if (FlightRecorder *R = FlightRecorder::active())
    R->record(FlightEventKind::Log, Level, Msg);
}
inline void flightSpanBegin(const char *Name) {
  if (FlightRecorder *R = FlightRecorder::active())
    R->spanBegin(Name);
}
inline void flightSpanEnd() {
  if (FlightRecorder *R = FlightRecorder::active())
    R->spanEnd();
}
/// @}

} // namespace dmm

#endif // DMM_TELEMETRY_FLIGHTRECORDER_H
