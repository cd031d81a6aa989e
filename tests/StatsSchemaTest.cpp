//===-- tests/StatsSchemaTest.cpp - Stats schema & report tests -----------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the JSON parser, the versioned dmm-stats document
/// (build → print → parse round trip, strict validation, parent-id
/// resolution), and the HTML report renderer.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "telemetry/HtmlReport.h"
#include "telemetry/Json.h"
#include "telemetry/Stats.h"
#include "telemetry/Telemetry.h"

#include <sstream>

using namespace dmm;
using namespace dmm::test;

namespace {

//===----------------------------------------------------------------------===//
// JSON parser
//===----------------------------------------------------------------------===//

json::Value parseJsonOK(const std::string &Text) {
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Text, V, Error)) << Error;
  return V;
}

bool jsonParseFails(const std::string &Text) {
  json::Value V;
  std::string Error;
  return !json::parse(Text, V, Error);
}

TEST(Json, ParsesScalarsArraysAndObjects) {
  json::Value V = parseJsonOK(
      R"({"a": 1, "b": -2.5e2, "c": "s\u0041\n", "d": [true, false, null]})");
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.getNumber("a"), 1.0);
  EXPECT_EQ(V.getNumber("b"), -250.0);
  EXPECT_EQ(V.getString("c"), "sA\n");
  const json::Value *D = V.get("d");
  ASSERT_NE(D, nullptr);
  ASSERT_TRUE(D->isArray());
  ASSERT_EQ(D->array().size(), 3u);
  EXPECT_TRUE(D->array()[0].boolean());
  EXPECT_FALSE(D->array()[1].boolean());
  EXPECT_TRUE(D->array()[2].isNull());
}

TEST(Json, StrictnessRejectsMalformedInput) {
  EXPECT_TRUE(jsonParseFails(""));
  EXPECT_TRUE(jsonParseFails("{"));
  EXPECT_TRUE(jsonParseFails("{} trailing"));
  EXPECT_TRUE(jsonParseFails("{\"a\": 01}"));
  EXPECT_TRUE(jsonParseFails("{\"a\": }"));
  EXPECT_TRUE(jsonParseFails("[1, 2,]"));
  EXPECT_TRUE(jsonParseFails("\"unterminated"));
  EXPECT_TRUE(jsonParseFails("\"bad \\x escape\""));
  EXPECT_TRUE(jsonParseFails("{\"a\" 1}"));
  EXPECT_TRUE(jsonParseFails("nul"));
}

TEST(Json, SurrogatePairsDecodeToUtf8) {
  json::Value V = parseJsonOK("\"\\ud83d\\ude00\"");
  EXPECT_EQ(V.str(), "\xF0\x9F\x98\x80");
  EXPECT_TRUE(jsonParseFails("\"\\ud83d\"")); // Unpaired high surrogate.
}

//===----------------------------------------------------------------------===//
// Stats document
//===----------------------------------------------------------------------===//

/// Runs the pipeline under \p Tel with a root span, like the driver
/// does.
void runPipeline(Telemetry &Tel) {
  TelemetryScope Scope(Tel);
  Span Root("pipeline");
  auto C = compileOK("class P { public: int x; int y; };\n"
                     "int main() { P p; p.x = 1; return p.x; }\n");
  analyze(*C);
}

std::string liveStatsJson() {
  Telemetry Tel;
  runPipeline(Tel);
  stats::StatsDocument D = stats::buildStats(Tel, "deadmember test");
  std::ostringstream OS;
  stats::printStats(D, OS);
  return OS.str();
}

TEST(StatsSchema, RoundTripFromLivePipeline) {
  std::string Text = liveStatsJson();

  // Strict JSON first, then the schema-aware parse.
  json::Value Raw;
  std::string Error;
  ASSERT_TRUE(json::parse(Text, Raw, Error)) << Error;
  EXPECT_EQ(Raw.getString("schema"), stats::kSchemaName);

  stats::StatsDocument D;
  ASSERT_TRUE(stats::parseStats(Text, D, Error)) << Error;
  EXPECT_EQ(D.Version, stats::kSchemaVersion);
  EXPECT_EQ(D.Tool, "deadmember test");
  EXPECT_EQ(D.Jobs, 1u);
  EXPECT_FALSE(D.Spans.empty());

  // The driver-stable phase names survive the round trip.
  for (const char *Name : {"pipeline", "lex", "parse", "sema", "callgraph",
                           "analysis"}) {
    bool Found = false;
    for (const stats::PhaseRow &P : D.Phases)
      Found = Found || P.Name == Name;
    EXPECT_TRUE(Found) << "missing phase " << Name;
  }

  // The pipeline span is the root; pipeline children link to it.
  ASSERT_EQ(D.Spans[0].Name, "pipeline");
  EXPECT_EQ(D.Spans[0].Parent, 0u);
  size_t Children = 0;
  for (const stats::SpanStat &S : D.Spans)
    if (S.Parent == D.Spans[0].Id)
      ++Children;
  EXPECT_GT(Children, 0u);
}

TEST(StatsSchema, NoOrphanSpansAtAnyJobsLevel) {
  std::string Text = liveStatsJson();
  stats::StatsDocument D;
  std::string Error;
  // parseStats enforces dense begin-ordered ids and parent-precedes-
  // child, so a successful parse proves every parent resolves.
  ASSERT_TRUE(stats::parseStats(Text, D, Error)) << Error;
  for (const stats::SpanStat &S : D.Spans) {
    EXPECT_LT(S.Parent, S.Id);
    if (S.Name != "pipeline") {
      EXPECT_NE(S.Parent, 0u) << "orphan span '" << S.Name << "'";
    }
  }
}

TEST(StatsSchema, ValidationRejectsSchemaViolations) {
  std::string Good = liveStatsJson();
  stats::StatsDocument D;
  std::string Error;
  ASSERT_TRUE(stats::parseStats(Good, D, Error)) << Error;

  auto Replaced = [&](const std::string &From, const std::string &To) {
    std::string S = Good;
    size_t Pos = S.find(From);
    EXPECT_NE(Pos, std::string::npos) << From;
    S.replace(Pos, From.size(), To);
    stats::StatsDocument Out;
    std::string Err;
    return !stats::parseStats(S, Out, Err);
  };

  EXPECT_TRUE(Replaced("\"dmm-stats\"", "\"other-schema\""));
  EXPECT_TRUE(Replaced("\"version\": 3", "\"version\": 999"));
  EXPECT_TRUE(Replaced("\"jobs\": 1", "\"jobs\": \"one\""));
  EXPECT_TRUE(Replaced("\"memory_accounting\"", "\"renamed_field\""));
  // First span id rewritten: ids are no longer dense.
  EXPECT_TRUE(Replaced("{\"id\": 1,", "{\"id\": 7,"));
  EXPECT_TRUE(jsonParseFails(Good + "x"));
}

TEST(StatsSchema, AcceptsOlderVersionDocuments) {
  // v1 documents (no profiler section) and v2 documents (no
  // diagnostics section) written by older builds still parse; the
  // version floor only rises when a field is removed. A live v3
  // document carries a diagnostics section, so drop it before
  // downgrading the version.
  Telemetry Tel;
  runPipeline(Tel);
  stats::StatsDocument D = stats::buildStats(Tel, "deadmember test");
  D.Diagnostics.Present = false;
  std::ostringstream OS;
  stats::printStats(D, OS);

  for (int Version : {1, 2}) {
    std::string Text = OS.str();
    size_t Pos = Text.find("\"version\": 3");
    ASSERT_NE(Pos, std::string::npos);
    Text.replace(Pos, 12, "\"version\": " + std::to_string(Version));
    stats::StatsDocument Back;
    std::string Error;
    ASSERT_TRUE(stats::parseStats(Text, Back, Error))
        << "v" << Version << ": " << Error;
    EXPECT_EQ(Back.Version, Version);
    EXPECT_FALSE(Back.Profiler.Present);
    EXPECT_FALSE(Back.Diagnostics.Present);
  }
}

TEST(StatsSchema, DiagnosticsSectionRoundTrips) {
  // A live pipeline run emits a populated diagnostics section; its
  // counters survive print -> parse unchanged.
  Telemetry Tel;
  runPipeline(Tel);
  stats::StatsDocument D = stats::buildStats(Tel, "deadmember test");
  ASSERT_TRUE(D.Diagnostics.Present);

  std::ostringstream OS;
  stats::printStats(D, OS);
  stats::StatsDocument Back;
  std::string Error;
  ASSERT_TRUE(stats::parseStats(OS.str(), Back, Error)) << Error;
  ASSERT_TRUE(Back.Diagnostics.Present);
  EXPECT_EQ(Back.Diagnostics.LogError, D.Diagnostics.LogError);
  EXPECT_EQ(Back.Diagnostics.LogWarn, D.Diagnostics.LogWarn);
  EXPECT_EQ(Back.Diagnostics.LogInfo, D.Diagnostics.LogInfo);
  EXPECT_EQ(Back.Diagnostics.LogDebug, D.Diagnostics.LogDebug);
  EXPECT_EQ(Back.Diagnostics.LogTrace, D.Diagnostics.LogTrace);
  EXPECT_EQ(Back.Diagnostics.RecorderEvents, D.Diagnostics.RecorderEvents);
  EXPECT_EQ(Back.Diagnostics.RecorderDropped,
            D.Diagnostics.RecorderDropped);
  EXPECT_EQ(Back.Diagnostics.Crashes, D.Diagnostics.Crashes);
}

TEST(StatsSchema, DiagnosticsSectionRejectsInvalidDocuments) {
  Telemetry Tel;
  runPipeline(Tel);
  stats::StatsDocument D = stats::buildStats(Tel, "deadmember test");
  ASSERT_TRUE(D.Diagnostics.Present);
  std::ostringstream OS;
  stats::printStats(D, OS);
  const std::string Good = OS.str();

  auto Replaced = [&](const std::string &From, const std::string &To) {
    std::string S = Good;
    size_t Pos = S.find(From);
    EXPECT_NE(Pos, std::string::npos) << From;
    S.replace(Pos, From.size(), To);
    stats::StatsDocument Out;
    std::string Err;
    return !stats::parseStats(S, Out, Err);
  };

  // The diagnostics section was introduced in v3; a v2 document
  // carrying one is malformed.
  EXPECT_TRUE(Replaced("\"version\": 3", "\"version\": 2"));
  // Every counter is required and must be numeric.
  EXPECT_TRUE(Replaced("\"log_error\"", "\"renamed_field\""));
  EXPECT_TRUE(Replaced("\"recorder_dropped\": ",
                       "\"recorder_dropped\": \"\", \"x\": "));
}

stats::ProfilerSection syntheticProfiler() {
  stats::ProfilerSection P;
  P.Present = true;
  P.ObjectSpace = 48;
  P.DeadMemberSpace = 16;
  P.HighWaterMark = 32;
  P.HighWaterMarkNoDead = 20;
  P.NumObjects = 3;
  P.AllocEvents = 3;
  P.FreeEvents = 2;
  P.LeakedObjects = 1;
  P.PeakAllocEvent = 2;
  P.SnapshotStride = 2;
  P.Snapshots.push_back({2, 32, 20, 2});
  P.Sites.push_back({"suite/a.mcc", 4, "P", "P::dead_one", 3, 12, 12, 0,
                     0, 12, true});
  P.Sites.push_back({"suite/a.mcc", 4, "P", "P::x", 3, 12, 12, 12, 4, 0,
                     false});
  return P;
}

TEST(StatsSchema, ProfilerSectionRoundTrips) {
  Telemetry Tel;
  runPipeline(Tel);
  stats::StatsDocument D = stats::buildStats(Tel, "deadmember test");
  D.Profiler = syntheticProfiler();
  std::ostringstream OS;
  stats::printStats(D, OS);

  stats::StatsDocument Back;
  std::string Error;
  ASSERT_TRUE(stats::parseStats(OS.str(), Back, Error)) << Error;
  ASSERT_TRUE(Back.Profiler.Present);
  EXPECT_EQ(Back.Profiler.ObjectSpace, 48u);
  EXPECT_EQ(Back.Profiler.DeadMemberSpace, 16u);
  EXPECT_EQ(Back.Profiler.HighWaterMark, 32u);
  EXPECT_EQ(Back.Profiler.HighWaterMarkNoDead, 20u);
  EXPECT_EQ(Back.Profiler.NumObjects, 3u);
  EXPECT_EQ(Back.Profiler.LeakedObjects, 1u);
  EXPECT_EQ(Back.Profiler.PeakAllocEvent, 2u);
  EXPECT_EQ(Back.Profiler.SnapshotStride, 2u);
  ASSERT_EQ(Back.Profiler.Snapshots.size(), 1u);
  EXPECT_EQ(Back.Profiler.Snapshots[0].Event, 2u);
  EXPECT_EQ(Back.Profiler.Snapshots[0].LiveBytesNoDead, 20u);
  ASSERT_EQ(Back.Profiler.Sites.size(), 2u);
  EXPECT_EQ(Back.Profiler.Sites[0].Member, "P::dead_one");
  EXPECT_EQ(Back.Profiler.Sites[0].NeverReadBytes, 12u);
  EXPECT_TRUE(Back.Profiler.Sites[0].StaticDead);
  EXPECT_FALSE(Back.Profiler.Sites[1].StaticDead);
}

TEST(StatsSchema, ProfilerSectionRejectsInvalidDocuments) {
  Telemetry Tel;
  runPipeline(Tel);
  stats::StatsDocument D = stats::buildStats(Tel, "deadmember test");
  D.Profiler = syntheticProfiler();
  std::ostringstream OS;
  stats::printStats(D, OS);
  const std::string Good = OS.str();

  auto Replaced = [&](const std::string &From, const std::string &To) {
    std::string S = Good;
    size_t Pos = S.find(From);
    EXPECT_NE(Pos, std::string::npos) << From;
    S.replace(Pos, From.size(), To);
    stats::StatsDocument Out;
    std::string Err;
    return !stats::parseStats(S, Out, Err);
  };

  // The profiler section was introduced in v2; a v1 document carrying
  // one is malformed.
  EXPECT_TRUE(Replaced("\"version\": 3", "\"version\": 1"));
  // Snapshot events must be positive and the live bytes bounded by the
  // high-water mark.
  EXPECT_TRUE(Replaced("\"event\": 2", "\"event\": 0"));
  EXPECT_TRUE(Replaced("\"live_bytes\": 32", "\"live_bytes\": 9999"));
  // Summary fields are all required.
  EXPECT_TRUE(Replaced("\"peak_alloc_event\"", "\"renamed_field\""));
  EXPECT_TRUE(Replaced("\"static_dead\": true", "\"static_dead\": 1"));
}

TEST(StatsSchema, TraceJsonIsStrictlyParseable) {
  Telemetry Tel;
  runPipeline(Tel);
  std::ostringstream OS;
  Tel.printChromeTrace(OS);
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(OS.str(), V, Error)) << Error;
  const json::Value *Events = V.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  EXPECT_FALSE(Events->array().empty());
  // Every duration event carries its span id and parent link.
  for (const json::Value &E : Events->array()) {
    if (E.getString("ph") != "X")
      continue;
    const json::Value *Args = E.get("args");
    ASSERT_NE(Args, nullptr);
    EXPECT_NE(Args->get("span_id"), nullptr);
    EXPECT_NE(Args->get("parent"), nullptr);
    EXPECT_NE(Args->get("mem_peak_bytes"), nullptr);
  }
}

//===----------------------------------------------------------------------===//
// HTML report
//===----------------------------------------------------------------------===//

stats::StatsDocument syntheticDoc() {
  stats::StatsDocument D;
  D.Tool = "deadmember test";
  D.Jobs = 2;
  D.MemAccounting = true;
  const char *Names[] = {"pipeline", "lex", "analysis", "analysis.scan",
                         "analysis.closure"};
  for (uint64_t I = 0; I != 5; ++I) {
    stats::SpanStat S;
    S.Id = I + 1;
    S.Parent = I; // Chain: each span under the previous one.
    S.Name = Names[I];
    S.Depth = static_cast<unsigned>(I);
    S.StartNanos = I * 1000;
    S.DurNanos = (5 - I) * 1000000;
    S.CpuNanos = S.DurNanos / 2;
    S.MemPeakBytes = static_cast<int64_t>((I + 1) * 4096);
    if (S.Name == std::string("analysis.scan")) {
      S.StrArgs.emplace_back("file", "suite/a.mcc");
      S.IntArgs.emplace_back("functions", 1);
    }
    D.Spans.push_back(std::move(S));
  }
  D.Phases.push_back({"analysis", 3000000, 1});
  D.Counters.emplace_back("analysis.exprs_visited", 1);
  return D;
}

TEST(HtmlReport, ContainsTopHotSpansAndWaterfall) {
  std::ostringstream OS;
  stats::renderHtmlReport(syntheticDoc(), OS);
  const std::string Html = OS.str();
  EXPECT_NE(Html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(Html.find("Top 5 hot spans"), std::string::npos);
  EXPECT_NE(Html.find("Span waterfall"), std::string::npos);
  EXPECT_NE(Html.find("suite/a.mcc"), std::string::npos);
  EXPECT_NE(Html.find("pipeline"), std::string::npos);
  // Self-contained: no external references.
  EXPECT_EQ(Html.find("src="), std::string::npos);
  EXPECT_EQ(Html.find("href="), std::string::npos);
}

TEST(HtmlReport, RendersProfilerSections) {
  stats::StatsDocument D = syntheticDoc();
  D.Profiler = syntheticProfiler();
  std::ostringstream OS;
  stats::renderHtmlReport(D, OS);
  const std::string Html = OS.str();
  EXPECT_NE(Html.find("Shadow profiler"), std::string::npos);
  EXPECT_NE(Html.find("High-water-mark timeline"), std::string::npos);
  EXPECT_NE(Html.find("Dead-byte heat"), std::string::npos);
  // The dead member ranks first (12 never-read bytes vs 0).
  size_t DeadPos = Html.find("P::dead_one");
  size_t LivePos = Html.find("P::x");
  ASSERT_NE(DeadPos, std::string::npos);
  ASSERT_NE(LivePos, std::string::npos);
  EXPECT_LT(DeadPos, LivePos);
  // Without a profiler section the report omits all three headings.
  std::ostringstream Plain;
  stats::renderHtmlReport(syntheticDoc(), Plain);
  EXPECT_EQ(Plain.str().find("Shadow profiler"), std::string::npos);
}

TEST(HtmlReport, EscapesUntrustedNames) {
  stats::StatsDocument D = syntheticDoc();
  D.Spans[3].StrArgs[0].second = "<script>alert(1)</script>";
  std::ostringstream OS;
  stats::renderHtmlReport(D, OS);
  EXPECT_EQ(OS.str().find("<script>alert"), std::string::npos);
  EXPECT_NE(OS.str().find("&lt;script&gt;"), std::string::npos);
}

} // namespace
