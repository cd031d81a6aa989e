//===-- telemetry/CrashHandler.cpp ----------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/CrashHandler.h"

#include "telemetry/FlightRecorder.h"
#include "telemetry/Log.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#define DMM_HAVE_CRASH_SIGNALS 1
#else
#define DMM_HAVE_CRASH_SIGNALS 0
#endif

using namespace dmm;

namespace {

// All handler state is plain data captured at install() time; the
// handler itself reads only this, the logger's counters, and the
// flight recorder's static ring.
constexpr size_t kMaxPath = 512;
constexpr size_t kMaxName = 128;

int InstallArgc = 0;
const char *const *InstallArgv = nullptr;
char ToolName[kMaxName] = "dmm";
char ToolVersion[kMaxName] = "unknown";
char CrashDir[kMaxPath] = ".";
uint64_t ReportsWritten = 0;
// A second signal can arrive while a report is being written.
std::atomic_flag DumpInProgress = ATOMIC_FLAG_INIT;
std::terminate_handler PrevTerminate = nullptr;

void copyBounded(char *Dst, const char *Src, size_t Cap) {
  if (!Src)
    Src = "";
  size_t Len = strnlen(Src, Cap - 1);
  memcpy(Dst, Src, Len);
  Dst[Len] = '\0';
}

#if DMM_HAVE_CRASH_SIGNALS

/// A fixed-buffer writer flushing to \p Fd via write(2). Everything it
/// calls is async-signal-safe.
class SafeWriter {
public:
  explicit SafeWriter(int Fd) : Fd(Fd) {}
  ~SafeWriter() { flush(); }

  void put(char C) {
    if (Len == sizeof(Buf))
      flush();
    Buf[Len++] = C;
  }

  void str(const char *S) {
    if (!S)
      S = "";
    while (*S)
      put(*S++);
  }

  void uint(uint64_t V) {
    char Digits[24];
    size_t N = 0;
    do {
      Digits[N++] = static_cast<char>('0' + V % 10);
      V /= 10;
    } while (V);
    while (N)
      put(Digits[--N]);
  }

  /// JSON string literal with conservative escaping. A copy of
  /// json::writeString because a signal handler cannot use an ostream.
  void quoted(const char *S) {
    static const char *Hex = "0123456789abcdef";
    put('"');
    if (!S)
      S = "";
    for (; *S; ++S) {
      unsigned char U = static_cast<unsigned char>(*S);
      if (*S == '"' || *S == '\\') {
        put('\\');
        put(*S);
      } else if (U < 0x20) {
        str("\\u00");
        put(Hex[U >> 4]);
        put(Hex[U & 0xf]);
      } else {
        put(*S);
      }
    }
    put('"');
  }

  void flush() {
    size_t Off = 0;
    while (Off < Len) {
      ssize_t N = ::write(Fd, Buf + Off, Len - Off);
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    Len = 0;
  }

private:
  int Fd;
  char Buf[512];
  size_t Len = 0;
};

const char *levelNameForCrash(uint8_t Level) {
  return Level < kNumLogLevels
             ? logLevelName(static_cast<LogLevel>(Level))
             : "error";
}

#endif // DMM_HAVE_CRASH_SIGNALS

} // namespace

uint64_t dmm::crashReportsWritten() { return ReportsWritten; }

#if DMM_HAVE_CRASH_SIGNALS

void dmm::writeCrashReport(int Fd, const char *Reason) {
  SafeWriter W(Fd);
  W.str("{\"schema\":\"");
  W.str(kCrashSchemaName);
  W.str("\",\"version\":");
  W.uint(kCrashSchemaVersion);
  W.str(",\"tool\":");
  W.quoted(ToolName);
  W.str(",\"tool_version\":");
  W.quoted(ToolVersion);
  W.str(",\"pid\":");
  W.uint(static_cast<uint64_t>(::getpid()));
  W.str(",\"reason\":");
  W.quoted(Reason);

  W.str(",\"argv\":[");
  for (int I = 0; I < InstallArgc; ++I) {
    if (I)
      W.put(',');
    W.quoted(InstallArgv[I]);
  }
  W.put(']');

  // The open spans, outermost first.
  W.str(",\"span_stack\":[");
  if (FlightRecorder *R = FlightRecorder::active()) {
    const char *Names[FlightRecorder::kMaxSpanDepth];
    size_t Depth = R->currentSpanStack(Names, FlightRecorder::kMaxSpanDepth);
    for (size_t I = 0; I < Depth; ++I) {
      if (I)
        W.put(',');
      W.quoted(Names[I]);
    }
  }
  W.put(']');

  // The ring's newest kCrashTailEvents entries, oldest first. A signal
  // that interrupted record() leaves its half-written entry past the
  // head, in a slot older than this tail (kCrashTailEvents < capacity).
  W.str(",\"flight_recorder\":[");
  if (FlightRecorder *R = FlightRecorder::active()) {
    uint64_t Head = R->eventsRecorded();
    uint64_t First = R->eventsDropped();
    if (Head - First > FlightRecorder::kCrashTailEvents)
      First = Head - FlightRecorder::kCrashTailEvents;
    for (uint64_t I = First; I < Head; ++I) {
      const FlightEvent &E = R->event(I);
      if (I != First)
        W.put(',');
      W.str("{\"seq\":");
      W.uint(E.Seq);
      W.str(",\"ts_ns\":");
      W.uint(E.TimeNanos);
      W.str(",\"thread\":");
      W.uint(E.Thread);
      W.str(",\"kind\":\"");
      W.str(flightEventKindName(E.Kind));
      W.str("\",\"level\":\"");
      // Span markers carry no level; an empty string keeps the field
      // present without implying severity.
      if (E.Kind == FlightEventKind::Log)
        W.str(levelNameForCrash(E.Level));
      W.str("\",\"text\":");
      W.quoted(E.Text);
      W.put('}');
    }
  }
  W.put(']');

  // Counter snapshot: only the async-signal-safe diagnostic counters.
  // The Telemetry registry's counter map is heap-backed and may be
  // mid-update, so it is deliberately NOT read here.
  const uint64_t *Counts = Logger::countsForCrash();
  W.str(",\"counters\":{");
  for (unsigned L = 0; L < kNumLogLevels; ++L) {
    if (L)
      W.put(',');
    W.str("\"log_");
    W.str(logLevelName(static_cast<LogLevel>(L)));
    W.str("\":");
    W.uint(Counts[L]);
  }
  uint64_t Recorded = 0, Dropped = 0;
  if (FlightRecorder *R = FlightRecorder::active()) {
    Recorded = R->eventsRecorded();
    Dropped = R->eventsDropped();
  }
  W.str(",\"recorder_events\":");
  W.uint(Recorded);
  W.str(",\"recorder_dropped\":");
  W.uint(Dropped);
  W.put('}');

  W.str("}\n");
  W.flush();
}

namespace {

/// Builds "<dir>/dmm-crash-<pid>.json", opens it, writes the report,
/// and prints a one-line notice to stderr. Returns true if this call
/// performed the dump (false: another crash got there first).
bool dumpCrashReport(const char *Reason) {
  if (DumpInProgress.test_and_set())
    return false;

  char Path[kMaxPath + 64];
  size_t N = 0;
  for (const char *S = CrashDir; *S && N < kMaxPath; ++S)
    Path[N++] = *S;
  if (N && Path[N - 1] != '/')
    Path[N++] = '/';
  const char *Stem = "dmm-crash-";
  for (const char *S = Stem; *S; ++S)
    Path[N++] = *S;
  uint64_t Pid = static_cast<uint64_t>(::getpid());
  char Digits[24];
  size_t D = 0;
  do {
    Digits[D++] = static_cast<char>('0' + Pid % 10);
    Pid /= 10;
  } while (Pid);
  while (D)
    Path[N++] = Digits[--D];
  for (const char *S = ".json"; *S; ++S)
    Path[N++] = *S;
  Path[N] = '\0';

  int Fd = ::open(Path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd >= 0) {
    writeCrashReport(Fd, Reason);
    ::close(Fd);
    ++ReportsWritten;
  }

  SafeWriter Err(2);
  Err.str("error: fatal ");
  Err.str(Reason);
  if (Fd >= 0) {
    Err.str("; crash report written to ");
    Err.str(Path);
  } else {
    Err.str("; could not write crash report");
  }
  Err.put('\n');
  Err.flush();
  return true;
}

const char *signalName(int Sig) {
  switch (Sig) {
  case SIGSEGV:
    return "SIGSEGV";
  case SIGBUS:
    return "SIGBUS";
  case SIGABRT:
    return "SIGABRT";
  case SIGFPE:
    return "SIGFPE";
  case SIGILL:
    return "SIGILL";
  }
  return "signal";
}

void crashSignalHandler(int Sig) {
  dumpCrashReport(signalName(Sig));
  // SA_RESETHAND restored the default disposition; re-raise so the
  // process still dies with the original signal's exit status.
  ::raise(Sig);
}

[[noreturn]] void crashTerminateHandler() {
  dumpCrashReport("terminate");
  if (PrevTerminate && PrevTerminate != crashTerminateHandler)
    PrevTerminate();
  ::abort();
}

} // namespace

void dmm::installCrashHandler(int Argc, const char *const *Argv,
                              const char *Tool, const char *Version) {
  static bool Installed = false;
  if (Installed)
    return;
  Installed = true;
  InstallArgc = Argc;
  InstallArgv = Argv;
  copyBounded(ToolName, Tool, sizeof(ToolName));
  copyBounded(ToolVersion, Version, sizeof(ToolVersion));
  if (const char *Dir = std::getenv("DMM_CRASH_DIR"))
    if (*Dir)
      copyBounded(CrashDir, Dir, sizeof(CrashDir));

  // A host stack overflow leaves no room on the faulting stack for the
  // handler, so it runs on a stack of its own. sigaltstack is
  // per-thread; this covers the installing thread, which runs the
  // whole pipeline.
  static char AltStack[64 * 1024];
  stack_t Alt;
  memset(&Alt, 0, sizeof(Alt));
  Alt.ss_sp = AltStack;
  Alt.ss_size = sizeof(AltStack);
  sigaltstack(&Alt, nullptr);

  struct sigaction SA;
  memset(&SA, 0, sizeof(SA));
  SA.sa_handler = crashSignalHandler;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = SA_RESETHAND | SA_ONSTACK;
  for (int Sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL})
    sigaction(Sig, &SA, nullptr);
  PrevTerminate = std::set_terminate(crashTerminateHandler);
}

#else // !DMM_HAVE_CRASH_SIGNALS

void dmm::writeCrashReport(int, const char *) {}

void dmm::installCrashHandler(int Argc, const char *const *Argv,
                              const char *Tool, const char *Version) {
  InstallArgc = Argc;
  InstallArgv = Argv;
  copyBounded(ToolName, Tool, sizeof(ToolName));
  copyBounded(ToolVersion, Version, sizeof(ToolVersion));
}

#endif // DMM_HAVE_CRASH_SIGNALS
