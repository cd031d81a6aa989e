//===-- telemetry/Log.h - Leveled structured logging ------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured, leveled logging for every dmm tool. A log event is a
/// level, a constant message, and zero or more key/value fields; sinks
/// render it either as a human-readable stderr line
///
///   error: cannot open input file path=missing.mcc
///
/// or as one JSON object per line in a JSONL file (--log-json). The
/// human prefixes ("error:", "warning:") deliberately match the ad-hoc
/// prints this layer replaced, so scripts grepping stderr keep working.
///
/// The level filter (default: warn, i.e. errors and warnings only) is
/// one load and a compare; disabled events build no fields. The logger
/// belongs to the process's one thread and takes no locks. Every
/// emitted event also lands in the flight recorder
/// (telemetry/FlightRecorder.h) and bumps a per-level counter; both
/// feed crash reports and the stats v3 "diagnostics" section.
///
/// Configure with --log-level=LEVEL / --log-json=FILE or the
/// DMM_LOG_LEVEL environment variable (flag wins).
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TELEMETRY_LOG_H
#define DMM_TELEMETRY_LOG_H

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

namespace dmm {

enum class LogLevel : uint8_t {
  Error = 0,
  Warn = 1,
  Info = 2,
  Debug = 3,
  Trace = 4,
};
inline constexpr unsigned kNumLogLevels = 5;

/// Canonical spelling used by --log-level, JSONL, and the stats
/// diagnostics section: "error", "warn", "info", "debug", "trace".
const char *logLevelName(LogLevel L);
/// The human stderr prefix: like logLevelName but Warn renders as
/// "warning" to match the tool's historical message format.
const char *logLevelLabel(LogLevel L);
/// Accepts the canonical names plus "warning"; case-sensitive.
bool parseLogLevel(std::string_view Text, LogLevel &Out);

/// One key/value field. Build with the kv() overloads.
struct LogField {
  const char *Key = "";
  bool IsInt = false;
  int64_t Int = 0;
  std::string Str;
};

template <typename T,
          std::enable_if_t<std::is_integral_v<T> || std::is_enum_v<T>, int> = 0>
LogField kv(const char *Key, T Value) {
  LogField F;
  F.Key = Key;
  F.IsInt = true;
  F.Int = static_cast<int64_t>(Value);
  return F;
}
inline LogField kv(const char *Key, std::string Value) {
  LogField F;
  F.Key = Key;
  F.Str = std::move(Value);
  return F;
}
inline LogField kv(const char *Key, std::string_view Value) {
  return kv(Key, std::string(Value));
}
inline LogField kv(const char *Key, const char *Value) {
  return kv(Key, std::string(Value ? Value : ""));
}

/// The process-wide logger. Tools normally touch it only through
/// configuration (setLevel/openJsonSink) and the logError/logWarn/...
/// helpers below.
class Logger {
public:
  /// The singleton. First use reads DMM_LOG_LEVEL; the default level
  /// is Warn and the default human sink is std::cerr.
  static Logger &instance();

  void setLevel(LogLevel L) { Level = L; }
  LogLevel level() const { return Level; }
  /// The entire disabled-event cost: one load and a compare.
  bool enabled(LogLevel L) const { return L <= Level; }

  /// Redirects the human-readable sink (default std::cerr); null
  /// silences it. The stream must outlive subsequent events.
  void setHumanSink(std::ostream *OS);

  /// Opens (truncates) \p Path as a JSONL sink: one JSON object per
  /// emitted event. Returns false and sets \p Error on failure.
  bool openJsonSink(const std::string &Path, std::string &Error);
  void closeJsonSink();

  /// Renders \p Msg with \p Fields to the active sinks, records it in
  /// the flight recorder, and bumps the level counter. Callers should
  /// test enabled() first (the helpers below do).
  void emit(LogLevel L, const char *Msg, const LogField *Fields,
            size_t NumFields);

  /// Events emitted (post-filter) at \p L since process start.
  uint64_t count(LogLevel L) const {
    return Counts[static_cast<unsigned>(L)];
  }

  /// The per-level counter array (kNumLogLevels entries), readable from
  /// the async-signal-safe crash handler.
  static const uint64_t *countsForCrash();

  /// Restores defaults (level Warn unless DMM_LOG_LEVEL is set, human
  /// sink std::cerr, no JSONL sink). Counters keep accumulating — they
  /// are process totals. For tests.
  void resetForTest();

private:
  Logger();

  LogLevel Level;
  uint64_t Counts[kNumLogLevels] = {};
  std::ostream *Human;
  std::unique_ptr<std::ostream> Json;
  uint64_t EpochNanos; ///< steady_clock epoch for JSONL timestamps.
};

/// \name Event helpers
/// logError("cannot open input file", {kv("path", Path)});
/// @{
void logEvent(LogLevel L, const char *Msg,
              std::initializer_list<LogField> Fields = {});
inline void logError(const char *Msg,
                     std::initializer_list<LogField> Fields = {}) {
  logEvent(LogLevel::Error, Msg, Fields);
}
inline void logWarn(const char *Msg,
                    std::initializer_list<LogField> Fields = {}) {
  logEvent(LogLevel::Warn, Msg, Fields);
}
inline void logInfo(const char *Msg,
                    std::initializer_list<LogField> Fields = {}) {
  logEvent(LogLevel::Info, Msg, Fields);
}
inline void logDebug(const char *Msg,
                     std::initializer_list<LogField> Fields = {}) {
  logEvent(LogLevel::Debug, Msg, Fields);
}
inline void logTrace(const char *Msg,
                     std::initializer_list<LogField> Fields = {}) {
  logEvent(LogLevel::Trace, Msg, Fields);
}
/// @}

} // namespace dmm

#endif // DMM_TELEMETRY_LOG_H
