//===-- tests/LogTest.cpp - Logging / flight-recorder / crash tests -------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the structured logger (level parsing, the human and JSONL
/// sink formats, per-level counters), the flight recorder's one ring
/// (wrap-around, span markers, the open-span stack), and the
/// crash-report writer validated through the tool's own strict JSON
/// parser, including a real host stack overflow in a death test.
///
//===----------------------------------------------------------------------===//

#include "telemetry/CrashHandler.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Json.h"
#include "telemetry/Log.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

using namespace dmm;

namespace {

/// RAII: captures the human sink into a string and restores the logger
/// defaults afterwards so tests do not leak configuration.
class CapturedLogger {
public:
  CapturedLogger(LogLevel Level = LogLevel::Trace) {
    Logger::instance().setLevel(Level);
    Logger::instance().setHumanSink(&OS);
  }
  ~CapturedLogger() { Logger::instance().resetForTest(); }
  std::string text() const { return OS.str(); }

private:
  std::ostringstream OS;
};

TEST(Log, ParsesLevelNamesAndAliases) {
  LogLevel L;
  EXPECT_TRUE(parseLogLevel("error", L));
  EXPECT_EQ(L, LogLevel::Error);
  EXPECT_TRUE(parseLogLevel("warn", L));
  EXPECT_EQ(L, LogLevel::Warn);
  EXPECT_TRUE(parseLogLevel("warning", L)); // Historical alias.
  EXPECT_EQ(L, LogLevel::Warn);
  EXPECT_TRUE(parseLogLevel("trace", L));
  EXPECT_EQ(L, LogLevel::Trace);
  EXPECT_FALSE(parseLogLevel("", L));
  EXPECT_FALSE(parseLogLevel("WARN", L)); // Case-sensitive.
  EXPECT_FALSE(parseLogLevel("verbose", L));

  // The human label preserves the historical "warning:" prefix; the
  // canonical name is the short spelling.
  EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
  EXPECT_STREQ(logLevelLabel(LogLevel::Warn), "warning");
  EXPECT_STREQ(logLevelLabel(LogLevel::Error), "error");
}

TEST(Log, HumanSinkFormatsFields) {
  CapturedLogger Cap;
  logError("cannot open input file", {kv("path", "missing.mcc")});
  logWarn("odd state", {kv("count", 3), kv("detail", "two words")});
  logInfo("plain message");

  const std::string Text = Cap.text();
  EXPECT_NE(Text.find("error: cannot open input file path=missing.mcc\n"),
            std::string::npos);
  // Values with spaces are quoted; bare values are not.
  EXPECT_NE(Text.find("warning: odd state count=3 detail=\"two words\"\n"),
            std::string::npos);
  EXPECT_NE(Text.find("info: plain message\n"), std::string::npos);
}

TEST(Log, LevelFilterSuppressesAndCounts) {
  const uint64_t InfoBefore = Logger::instance().count(LogLevel::Info);
  const uint64_t WarnBefore = Logger::instance().count(LogLevel::Warn);
  {
    CapturedLogger Cap(LogLevel::Warn);
    logInfo("below the filter");
    logWarn("at the filter");
    EXPECT_EQ(Cap.text().find("below the filter"), std::string::npos);
    EXPECT_NE(Cap.text().find("at the filter"), std::string::npos);
  }
  // Counters only see events that passed the filter.
  EXPECT_EQ(Logger::instance().count(LogLevel::Info), InfoBefore);
  EXPECT_EQ(Logger::instance().count(LogLevel::Warn), WarnBefore + 1);
}

TEST(Log, JsonSinkEmitsParseableLines) {
  const std::string Path = "log_test_sink.jsonl";
  {
    CapturedLogger Cap;
    std::string Error;
    ASSERT_TRUE(Logger::instance().openJsonSink(Path, Error)) << Error;
    logError("boom", {kv("path", "a \"b\"\n"), kv("n", -7)});
    logDebug("quiet");
    Logger::instance().closeJsonSink();
  }

  std::ifstream In(Path);
  ASSERT_TRUE(In.is_open());
  std::string Line;
  size_t Lines = 0;
  bool SawBoom = false;
  while (std::getline(In, Line)) {
    ++Lines;
    json::Value V;
    std::string Error;
    ASSERT_TRUE(json::parse(Line, V, Error)) << Line << ": " << Error;
    ASSERT_TRUE(V.isObject());
    EXPECT_TRUE(V.get("ts_ns") && V.get("ts_ns")->isNumber());
    if (V.getString("msg") == "boom") {
      SawBoom = true;
      EXPECT_EQ(V.getString("level"), "error");
      const json::Value *Fields = V.get("fields");
      ASSERT_NE(Fields, nullptr);
      // Escapes round-trip through the strict parser.
      EXPECT_EQ(Fields->getString("path"), "a \"b\"\n");
      EXPECT_EQ(Fields->getNumber("n"), -7.0);
    }
  }
  EXPECT_GE(Lines, 2u);
  EXPECT_TRUE(SawBoom);
  std::remove(Path.c_str());
}

TEST(Log, OpenJsonSinkFailsOnBadPath) {
  std::string Error;
  EXPECT_FALSE(Logger::instance().openJsonSink(
      "no_such_dir_xyz/log.jsonl", Error));
  EXPECT_NE(Error.find("no_such_dir_xyz"), std::string::npos);
  Logger::instance().resetForTest();
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

// The recorder is process-wide and installed once; every test below
// shares one instance and therefore reasons in deltas.

TEST(FlightRecorder, RecordsAndWrapsRings) {
  FlightRecorder::install();
  FlightRecorder *R = FlightRecorder::active();
  ASSERT_NE(R, nullptr);

  const uint64_t Before = R->eventsRecorded();
  // Overfill the ring (tests share the process-wide recorder).
  const size_t N = R->capacity() + 50;
  for (size_t I = 0; I != N; ++I)
    R->record(FlightEventKind::Log, 0, "wrap-test-event");
  EXPECT_EQ(R->eventsRecorded(), Before + N);
  EXPECT_GE(R->eventsDropped(), uint64_t(50));
  // One ring: everything beyond its capacity was overwritten.
  EXPECT_EQ(R->eventsDropped(), R->eventsRecorded() - R->capacity());

  // The snapshot holds exactly capacity entries with consecutive
  // sequence numbers, and the newest event is retained.
  std::vector<FlightEvent> Events = R->snapshot();
  ASSERT_FALSE(Events.empty());
  EXPECT_EQ(Events.size(), R->capacity());
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_LT(Events[I - 1].Seq, Events[I].Seq);
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_EQ(Events[I].Seq, Events[I - 1].Seq + 1);
  for (const FlightEvent &E : Events)
    EXPECT_EQ(E.Thread, 0u);
  EXPECT_EQ(std::string(Events.back().Text), "wrap-test-event");
  EXPECT_EQ(Events.back().Seq, Before + N);
}

TEST(FlightRecorder, TruncatesLongMessages) {
  FlightRecorder::install();
  FlightRecorder *R = FlightRecorder::active();
  const std::string Long(500, 'x');
  R->record(FlightEventKind::Log, 2, Long.c_str());
  std::vector<FlightEvent> Events = R->snapshot();
  ASSERT_FALSE(Events.empty());
  const FlightEvent &E = Events.back();
  EXPECT_EQ(std::string(E.Text), std::string(sizeof(E.Text) - 1, 'x'));
  EXPECT_EQ(E.Level, 2);
}

TEST(FlightRecorder, SpanMarkersAndStack) {
  FlightRecorder::install();
  FlightRecorder *R = FlightRecorder::active();

  const char *Names[FlightRecorder::kMaxSpanDepth];
  {
    // Spans hit the recorder even with no Telemetry registry active —
    // that is what makes crash reports useful on plain runs.
    Span Outer("unit.outer");
    Span Inner("unit.inner");
    size_t Depth = R->currentSpanStack(Names, FlightRecorder::kMaxSpanDepth);
    ASSERT_GE(Depth, 2u);
    EXPECT_STREQ(Names[Depth - 2], "unit.outer");
    EXPECT_STREQ(Names[Depth - 1], "unit.inner");
  }
  const size_t DepthAfter =
      R->currentSpanStack(Names, FlightRecorder::kMaxSpanDepth);

  std::vector<FlightEvent> Events = R->snapshot();
  bool SawBegin = false, SawEnd = false;
  for (const FlightEvent &E : Events) {
    if (std::string(E.Text) != "unit.inner")
      continue;
    SawBegin = SawBegin || E.Kind == FlightEventKind::SpanBegin;
    SawEnd = SawEnd || E.Kind == FlightEventKind::SpanEnd;
  }
  EXPECT_TRUE(SawBegin);
  EXPECT_TRUE(SawEnd);
  // Both spans popped again.
  for (size_t I = 0; I < DepthAfter; ++I) {
    EXPECT_STRNE(Names[I], "unit.outer");
    EXPECT_STRNE(Names[I], "unit.inner");
  }
}

TEST(FlightRecorder, LogEventsLandInRings) {
  FlightRecorder::install();
  CapturedLogger Cap;
  logWarn("recorder-visible warning");
  std::vector<FlightEvent> Events = FlightRecorder::active()->snapshot();
  bool Found = false;
  for (const FlightEvent &E : Events)
    Found = Found || (E.Kind == FlightEventKind::Log &&
                      std::string(E.Text) == "recorder-visible warning" &&
                      E.Level == static_cast<uint8_t>(LogLevel::Warn));
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Crash reports
//===----------------------------------------------------------------------===//

#ifndef _WIN32

TEST(CrashReport, WriteCrashReportEmitsValidJson) {
  FlightRecorder::install();
  {
    CapturedLogger Cap;
    logError("pre-crash breadcrumb");
  }

  const std::string Path = "crash_report_test.json";
  std::string Text;
  {
    Span Root("pipeline");
    Span Fault("inject.fault");
    int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(Fd, 0);
    writeCrashReport(Fd, "SIGSEGV");
    ::close(Fd);

    std::ifstream In(Path);
    std::ostringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  }
  std::remove(Path.c_str());

  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(Text, V, Error)) << Error;
  EXPECT_EQ(V.getString("schema"), kCrashSchemaName);
  EXPECT_EQ(V.getNumber("version"), kCrashSchemaVersion);
  EXPECT_EQ(V.getString("reason"), "SIGSEGV");

  // The open spans at write time, outermost first.
  const json::Value *SpanStack = V.get("span_stack");
  ASSERT_NE(SpanStack, nullptr);
  ASSERT_TRUE(SpanStack->isArray());
  ASSERT_GE(SpanStack->array().size(), 2u);
  const auto &Stack = SpanStack->array();
  EXPECT_EQ(Stack[Stack.size() - 2].str(), "pipeline");
  EXPECT_EQ(Stack[Stack.size() - 1].str(), "inject.fault");

  // At least one flight-recorder event, with the breadcrumb findable.
  const json::Value *Events = V.get("flight_recorder");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_FALSE(Events->array().empty());
  EXPECT_LE(Events->array().size(), FlightRecorder::kCrashTailEvents);
  bool SawBreadcrumb = false;
  double PrevSeq = 0;
  for (const json::Value &E : Events->array()) {
    EXPECT_TRUE(E.get("seq") && E.get("seq")->isNumber());
    EXPECT_TRUE(E.get("kind") && E.get("kind")->isString());
    // One ring, oldest first: sequence numbers strictly increase and
    // every entry comes from thread 0.
    EXPECT_GT(E.getNumber("seq"), PrevSeq);
    PrevSeq = E.getNumber("seq");
    EXPECT_TRUE(E.get("thread") && E.get("thread")->isNumber());
    EXPECT_EQ(E.getNumber("thread"), 0.0);
    SawBreadcrumb =
        SawBreadcrumb || E.getString("text") == "pre-crash breadcrumb";
  }
  EXPECT_TRUE(SawBreadcrumb);

  // Counter snapshot: all the async-signal-safe atomics.
  const json::Value *Counters = V.get("counters");
  ASSERT_NE(Counters, nullptr);
  for (const char *Key : {"log_error", "log_warn", "log_info", "log_debug",
                          "log_trace", "recorder_events",
                          "recorder_dropped"}) {
    const json::Value *C = Counters->get(Key);
    ASSERT_NE(C, nullptr) << Key;
    EXPECT_TRUE(C->isNumber()) << Key;
  }
  EXPECT_GE(Counters->getNumber("log_error"), 1.0);
  // No crash actually happened in this process.
  EXPECT_EQ(crashReportsWritten(), 0u);
}

/// Recurses until the host stack overflows. The volatile frame buffer
/// keeps every frame large and the read after the call keeps the
/// recursion from becoming a loop.
[[gnu::noinline]] unsigned overflowHostStack(unsigned Depth) {
  volatile char Frame[1024];
  Frame[Depth % sizeof(Frame)] = static_cast<char>(Depth);
  if (Depth == ~0u)
    return 0;
  return overflowHostStack(Depth + 1) + Frame[(Depth + 1) % sizeof(Frame)];
}

TEST(CrashReportDeathTest, HostStackOverflowWritesAReport) {
  // The forked child shares this directory name with the parent.
  ::testing::GTEST_FLAG(death_test_style) = "fast";
  std::string Dir = ::testing::TempDir() + "dmm-overflow-XXXXXX";
  ASSERT_NE(::mkdtemp(Dir.data()), nullptr);
  EXPECT_EXIT(
      {
        ::setenv("DMM_CRASH_DIR", Dir.c_str(), 1);
        installCrashHandler(0, nullptr, "dmm_tests", "test");
        overflowHostStack(0);
      },
      ::testing::KilledBySignal(SIGSEGV), "crash report written");

  std::vector<std::string> Names, Texts;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    Names.push_back(Entry.path().filename().string());
    std::ifstream In(Entry.path());
    std::ostringstream SS;
    SS << In.rdbuf();
    Texts.push_back(SS.str());
  }
  std::filesystem::remove_all(Dir);
  ASSERT_EQ(Names.size(), 1u);
  EXPECT_EQ(Names[0].rfind("dmm-crash-", 0), 0u) << Names[0];

  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(Texts[0], V, Error)) << Error;
  EXPECT_EQ(V.getString("schema"), kCrashSchemaName);
  EXPECT_EQ(V.getString("reason"), "SIGSEGV");
}

#endif // !_WIN32

} // namespace
