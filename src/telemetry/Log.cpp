//===-- telemetry/Log.cpp -------------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/Log.h"

#include "telemetry/FlightRecorder.h"
#include "telemetry/Json.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>

using namespace dmm;

const char *dmm::logLevelName(LogLevel L) {
  switch (L) {
  case LogLevel::Error:
    return "error";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Info:
    return "info";
  case LogLevel::Debug:
    return "debug";
  case LogLevel::Trace:
    return "trace";
  }
  return "error";
}

const char *dmm::logLevelLabel(LogLevel L) {
  return L == LogLevel::Warn ? "warning" : logLevelName(L);
}

bool dmm::parseLogLevel(std::string_view Text, LogLevel &Out) {
  if (Text == "error")
    Out = LogLevel::Error;
  else if (Text == "warn" || Text == "warning")
    Out = LogLevel::Warn;
  else if (Text == "info")
    Out = LogLevel::Info;
  else if (Text == "debug")
    Out = LogLevel::Debug;
  else if (Text == "trace")
    Out = LogLevel::Trace;
  else
    return false;
  return true;
}

namespace {

LogLevel defaultLevel() {
  LogLevel L = LogLevel::Warn;
  if (const char *Env = std::getenv("DMM_LOG_LEVEL"))
    if (*Env)
      parseLogLevel(Env, L); // Unparsable values keep the default.
  return L;
}

uint64_t steadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True when a string field value renders unambiguously without
/// quoting: non-empty, printable ASCII, no spaces/quotes/escapes.
bool fieldValueIsBare(const std::string &S) {
  if (S.empty())
    return false;
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (U <= 0x20 || U >= 0x7f || C == '"' || C == '\\' || C == '=')
      return false;
  }
  return true;
}

} // namespace

Logger::Logger()
    : Level(defaultLevel()), Human(&std::cerr),
      EpochNanos(steadyNowNanos()) {}

Logger &Logger::instance() {
  // Leaked deliberately: log events may fire from destructors running
  // after static teardown would have destroyed a function-local static.
  static Logger *L = new Logger();
  return *L;
}

const uint64_t *Logger::countsForCrash() {
  return instance().Counts;
}

void Logger::setHumanSink(std::ostream *OS) { Human = OS; }

bool Logger::openJsonSink(const std::string &Path, std::string &Error) {
  auto File = std::make_unique<std::ofstream>(Path, std::ios::trunc);
  if (!*File) {
    Error = "cannot open log file '" + Path + "'";
    return false;
  }
  Json = std::move(File);
  return true;
}

void Logger::closeJsonSink() { Json.reset(); }

void Logger::resetForTest() {
  Level = defaultLevel();
  Human = &std::cerr;
  Json.reset();
}

void Logger::emit(LogLevel L, const char *Msg, const LogField *Fields,
                  size_t NumFields) {
  if (!Msg)
    Msg = "";
  ++Counts[static_cast<unsigned>(L)];
  flightRecordLog(static_cast<uint8_t>(L), Msg);

  if (Human) {
    std::ostream &OS = *Human;
    OS << logLevelLabel(L) << ": " << Msg;
    for (size_t I = 0; I < NumFields; ++I) {
      const LogField &F = Fields[I];
      OS << ' ' << F.Key << '=';
      if (F.IsInt)
        OS << F.Int;
      else if (fieldValueIsBare(F.Str))
        OS << F.Str;
      else
        json::writeString(OS, F.Str);
    }
    OS << '\n';
  }
  if (Json) {
    std::ostream &OS = *Json;
    OS << "{\"ts_ns\":" << (steadyNowNanos() - EpochNanos)
       << ",\"level\":\"" << logLevelName(L) << "\",\"msg\":";
    json::writeString(OS, Msg);
    if (NumFields) {
      OS << ",\"fields\":{";
      for (size_t I = 0; I < NumFields; ++I) {
        const LogField &F = Fields[I];
        if (I)
          OS << ',';
        json::writeString(OS, F.Key);
        OS << ':';
        if (F.IsInt)
          OS << F.Int;
        else
          json::writeString(OS, F.Str);
      }
      OS << '}';
    }
    OS << "}\n";
    OS.flush(); // A crash must not lose buffered JSONL lines.
  }
}

void dmm::logEvent(LogLevel L, const char *Msg,
                   std::initializer_list<LogField> Fields) {
  Logger &Log = Logger::instance();
  if (!Log.enabled(L))
    return;
  Log.emit(L, Msg, Fields.begin(), Fields.size());
}
