//===-- telemetry/CrashHandler.h - Post-mortem crash reports ----*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Async-signal-safe crash diagnostics: handlers for SIGSEGV, SIGBUS,
/// SIGABRT, SIGFPE, SIGILL and std::terminate that dump a
/// `dmm-crash-<pid>.json` report before the process dies. The report
/// carries everything a post-mortem needs and nothing that requires a
/// live process: the open-span stack, the tail of the flight-recorder
/// ring (telemetry/FlightRecorder.h), the async-signal-safe diagnostic
/// counters (per-level log counts, recorder totals), argv, and the
/// tool version.
///
/// The handler allocates nothing, takes no locks, and uses only
/// async-signal-safe calls (open/write/close plus reads of plain
/// counters and the static ring); the JSON is emitted
/// through a small fixed-buffer writer. The signal handlers run on an
/// alternate stack (sigaltstack), so a host stack overflow is reported
/// too. After the dump the original signal is re-raised with default
/// disposition so the exit status still reports the crash.
///
/// The report lands in the current directory, or in $DMM_CRASH_DIR if
/// set at install time. `scripts/validate_stats.py check-crash FILE`
/// validates the schema ("dmm-crash", version 1); the driver's
/// `--inject-fault=crash` exists so CI can exercise this whole path on
/// every push (PR-3 fault-injection style).
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TELEMETRY_CRASHHANDLER_H
#define DMM_TELEMETRY_CRASHHANDLER_H

#include <cstdint>

namespace dmm {

inline constexpr const char kCrashSchemaName[] = "dmm-crash";
inline constexpr int kCrashSchemaVersion = 1;

/// Installs the signal and std::terminate handlers (idempotent; first
/// call wins). \p Argv must outlive the process (main's argv).
/// \p Tool/\p Version are copied.
void installCrashHandler(int Argc, const char *const *Argv, const char *Tool,
                         const char *Version);

/// Crash reports written by this process (0 in any healthy run; the
/// stats v3 diagnostics section reports it so a half-died batch run is
/// visible in its own telemetry).
uint64_t crashReportsWritten();

/// Emits a complete crash report for \p Reason (a signal name or
/// "terminate") to file descriptor \p Fd. Async-signal-safe. Exposed
/// separately so tests can validate the report format without dying.
void writeCrashReport(int Fd, const char *Reason);

} // namespace dmm

#endif // DMM_TELEMETRY_CRASHHANDLER_H
