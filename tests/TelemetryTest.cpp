//===-- tests/TelemetryTest.cpp - Telemetry & provenance tests ------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the telemetry registry (spans, counters, scope
/// install/restore, disabled-path no-op), per-span memory accounting,
/// the metrics table and Chrome trace-event JSON rendered from the
/// registry's stats document, and liveness provenance: direct
/// marks carry a source location, propagated marks carry the
/// propagation edge, and the --explain report renders the full cause
/// chain.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Report.h"
#include "telemetry/MemoryAccounting.h"
#include "telemetry/Stats.h"
#include "telemetry/Telemetry.h"

#include <vector>

using namespace dmm;
using namespace dmm::test;

namespace {

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(Telemetry, CountersAccumulateAndReadBackZeroWhenAbsent) {
  Telemetry Tel;
  TelemetryScope Scope(Tel);
  Telemetry::count("x.a");
  Telemetry::count("x.a", 4);
  Telemetry::count("x.b", 7);
  EXPECT_EQ(Tel.counter("x.a"), 5u);
  EXPECT_EQ(Tel.counter("x.b"), 7u);
  EXPECT_EQ(Tel.counter("never.touched"), 0u);
}

TEST(Telemetry, SpansAggregateInvocationsInActivationOrder) {
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    for (int I = 0; I < 3; ++I) {
      Span Timer("alpha");
    }
    Span Timer("beta");
  }
  ASSERT_EQ(Tel.phases().size(), 2u);
  EXPECT_EQ(Tel.phases()[0].Name, "alpha");
  EXPECT_EQ(Tel.phases()[1].Name, "beta");
  const PhaseStat *Alpha = Tel.phase("alpha");
  ASSERT_NE(Alpha, nullptr);
  EXPECT_EQ(Alpha->Invocations, 3u);
  EXPECT_EQ(Tel.phase("gamma"), nullptr);
  EXPECT_EQ(Tel.spans().size(), 4u);
}

TEST(Telemetry, NestedSpansRecordDepthAndParentLinks) {
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    Span Outer("outer");
    {
      Span Inner("inner");
      EXPECT_EQ(Inner.id(), Telemetry::currentSpanId());
    }
    EXPECT_EQ(Outer.id(), Telemetry::currentSpanId());
  }
  EXPECT_EQ(Telemetry::currentSpanId(), 0u);
  const PhaseStat *Outer = Tel.phase("outer");
  const PhaseStat *Inner = Tel.phase("inner");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->Depth, 0u);
  EXPECT_EQ(Inner->Depth, 1u);

  // Span records: ids are dense begin-ordered, parents precede
  // children. One completed activation each proves endSpan ran.
  ASSERT_EQ(Tel.spans().size(), 2u);
  const SpanRecord &OuterRec = Tel.spans()[0];
  const SpanRecord &InnerRec = Tel.spans()[1];
  EXPECT_EQ(OuterRec.Id, 1u);
  EXPECT_EQ(OuterRec.Parent, 0u);
  EXPECT_EQ(InnerRec.Parent, OuterRec.Id);
  EXPECT_EQ(Outer->Invocations, 1u);
  EXPECT_EQ(Inner->Invocations, 1u);
  EXPECT_GE(OuterRec.DurNanos, InnerRec.DurNanos);
}

TEST(Telemetry, SpanArgsAreRecorded) {
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    Span S("tagged");
    S.arg("file", std::string("a.mcc"));
    S.arg("bytes", uint64_t(123));
  }
  ASSERT_EQ(Tel.spans().size(), 1u);
  const SpanRecord &R = Tel.spans()[0];
  ASSERT_EQ(R.StrArgs.size(), 1u);
  EXPECT_EQ(R.StrArgs[0].first, "file");
  EXPECT_EQ(R.StrArgs[0].second, "a.mcc");
  ASSERT_EQ(R.IntArgs.size(), 1u);
  EXPECT_EQ(R.IntArgs[0].first, "bytes");
  EXPECT_EQ(R.IntArgs[0].second, 123u);
}

TEST(Telemetry, SpanLimitDropsRecordsButKeepsAggregates) {
  Telemetry Tel;
  Tel.setSpanLimit(2);
  {
    TelemetryScope Scope(Tel);
    for (int I = 0; I < 5; ++I) {
      Span S("capped");
    }
  }
  EXPECT_EQ(Tel.spans().size(), 2u);
  EXPECT_EQ(Tel.counter("telemetry.spans_dropped"), 3u);
  const PhaseStat *P = Tel.phase("capped");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Invocations, 5u);
}

TEST(Telemetry, MergeFoldsCountersPhasesAndRemapsSpanIds) {
  Telemetry A;
  {
    TelemetryScope Scope(A);
    Span S("shared");
    Telemetry::count("c.x", 1);
  }
  Telemetry B;
  {
    TelemetryScope Scope(B);
    Span Outer("shared");
    Span Inner("extra");
    Telemetry::count("c.x", 2);
  }
  A.merge(B);
  EXPECT_EQ(A.counter("c.x"), 3u);
  const PhaseStat *Shared = A.phase("shared");
  ASSERT_NE(Shared, nullptr);
  EXPECT_EQ(Shared->Invocations, 2u);
  ASSERT_EQ(A.spans().size(), 3u);
  // Merged spans keep dense ids and intra-registry parent links.
  EXPECT_EQ(A.spans()[1].Id, 2u);
  EXPECT_EQ(A.spans()[1].Parent, 0u);
  EXPECT_EQ(A.spans()[2].Id, 3u);
  EXPECT_EQ(A.spans()[2].Parent, 2u);
}

TEST(Telemetry, MemoryAccountingReportsAllocationPeak) {
  if (!memacct::available())
    GTEST_SKIP() << "usable-size accounting unavailable on this platform";
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    Span S("alloc_heavy");
    std::vector<std::string> Hog;
    for (int I = 0; I < 256; ++I)
      Hog.emplace_back(1024, 'x');
  }
  ASSERT_EQ(Tel.spans().size(), 1u);
  const SpanRecord &R = Tel.spans()[0];
  // 256 KiB of strings were live inside the span; the peak must see
  // at least that much, and the hog was freed before the span closed,
  // so net is below peak.
  EXPECT_GE(R.MemPeakBytes, 256 * 1024);
  EXPECT_LT(R.MemNetBytes, R.MemPeakBytes);
}

TEST(Telemetry, ScopeRestoresPreviousSinkAndInactiveIsNoOp) {
  EXPECT_EQ(Telemetry::active(), nullptr);
  Telemetry::count("dropped"); // No sink installed: must not crash.
  {
    Span Timer("dropped_phase");
    EXPECT_FALSE(Timer.active());
    EXPECT_EQ(Timer.id(), 0u);
  }
  Telemetry OuterTel;
  {
    TelemetryScope OuterScope(OuterTel);
    EXPECT_EQ(Telemetry::active(), &OuterTel);
    Telemetry InnerTel;
    {
      TelemetryScope InnerScope(InnerTel);
      EXPECT_EQ(Telemetry::active(), &InnerTel);
      Telemetry::count("seen");
    }
    EXPECT_EQ(Telemetry::active(), &OuterTel);
    EXPECT_EQ(InnerTel.counter("seen"), 1u);
    EXPECT_EQ(OuterTel.counter("seen"), 0u);
  }
  EXPECT_EQ(Telemetry::active(), nullptr);
}

/// The --metrics table, rendered from \p Tel's stats document.
std::string metricsTable(const Telemetry &Tel) {
  std::ostringstream OS;
  stats::printMetrics(stats::buildStats(Tel, "deadmember test"), OS);
  return OS.str();
}

/// The Chrome trace, rendered from \p Tel's stats document.
std::string chromeTrace(const Telemetry &Tel) {
  std::ostringstream OS;
  stats::printChromeTrace(stats::buildStats(Tel, "deadmember test"), OS);
  return OS.str();
}

TEST(Telemetry, MetricsTableListsPhasesAndCounters) {
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    Span Timer("demo");
    Telemetry::count("demo.items", 42);
  }
  const std::string Out = metricsTable(Tel);
  EXPECT_NE(Out.find("demo"), std::string::npos);
  EXPECT_NE(Out.find("demo.items"), std::string::npos);
  EXPECT_NE(Out.find("42"), std::string::npos);
}

TEST(Telemetry, MetricsRowsSortedByNamespaceThenKey) {
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    // Activation order deliberately differs from sorted order.
    Span Z("zeta");
    Span A("alpha.late");
    Telemetry::count("z.first", 1);
    Telemetry::count("a.second", 2);
  }
  const std::string Out = metricsTable(Tel);
  EXPECT_LT(Out.find("alpha.late"), Out.find("zeta"));
  EXPECT_LT(Out.find("a.second"), Out.find("z.first"));
  // phases() itself stays in activation order for programmatic use.
  ASSERT_EQ(Tel.phases().size(), 2u);
  EXPECT_EQ(Tel.phases()[0].Name, "zeta");
}

//===----------------------------------------------------------------------===//
// Chrome trace JSON
//===----------------------------------------------------------------------===//

/// Minimal JSON syntax check: braces/brackets balance outside string
/// literals, strings terminate, and the trailing content is exhausted.
bool isBalancedJson(const std::string &S) {
  std::vector<char> Stack;
  bool InString = false;
  for (size_t I = 0; I < S.size(); ++I) {
    char C = S[I];
    if (InString) {
      if (C == '\\')
        ++I; // Skip the escaped character.
      else if (C == '"')
        InString = false;
      continue;
    }
    switch (C) {
    case '"':
      InString = true;
      break;
    case '{':
    case '[':
      Stack.push_back(C);
      break;
    case '}':
      if (Stack.empty() || Stack.back() != '{')
        return false;
      Stack.pop_back();
      break;
    case ']':
      if (Stack.empty() || Stack.back() != '[')
        return false;
      Stack.pop_back();
      break;
    default:
      break;
    }
  }
  return !InString && Stack.empty();
}

TEST(Telemetry, ChromeTraceIsWellFormed) {
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    Span Outer("outer");
    {
      Span Inner("inner");
    }
    Telemetry::count("outer.things", 3);
  }
  std::string Json = chromeTrace(Tel);
  EXPECT_TRUE(isBalancedJson(Json)) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"outer\""), std::string::npos);
  EXPECT_NE(Json.find("\"inner\""), std::string::npos);
  // Counters ride along on a final instant event.
  EXPECT_NE(Json.find("\"ph\": \"I\""), std::string::npos);
  EXPECT_NE(Json.find("\"outer.things\""), std::string::npos);
}

TEST(Telemetry, ChromeTraceEscapesNamesSafely) {
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    Telemetry::count("weird\"name\\with\ncontrols");
  }
  std::string Json = chromeTrace(Tel);
  EXPECT_TRUE(isBalancedJson(Json)) << Json;
}

//===----------------------------------------------------------------------===//
// Pipeline integration: phase names are a stable interface
//===----------------------------------------------------------------------===//

TEST(Telemetry, PipelinePopulatesStablePhaseNames) {
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    auto C = compileOK("class P { public: int x; };\n"
                       "int main() { P p; p.x = 1; return p.x; }\n");
    analyze(*C);
    runOK(*C);
  }
  for (const char *Phase :
       {"lex", "parse", "sema", "callgraph", "analysis", "interp"}) {
    const PhaseStat *P = Tel.phase(Phase);
    ASSERT_NE(P, nullptr) << "missing phase " << Phase;
    EXPECT_GT(P->Invocations, 0u) << Phase;
  }
  EXPECT_GT(Tel.counter("lex.tokens"), 0u);
  EXPECT_GT(Tel.counter("sema.classes"), 0u);
  EXPECT_GT(Tel.counter("analysis.exprs_visited"), 0u);
  EXPECT_GT(Tel.counter("interp.steps"), 0u);
}

//===----------------------------------------------------------------------===//
// Liveness provenance
//===----------------------------------------------------------------------===//

const char *ProvenanceProgram = R"(union Blob {
public:
  int word;
  double wide;
};
class Holder {
public:
  int kept;
  int lost;
};
int main() {
  Blob b;
  b.wide = 2.0;
  Holder h;
  h.kept = 3;
  int *p = reinterpret_cast<int*>(&h);
  return b.word;
}
)";

AnalysisOptions withProvenance() {
  AnalysisOptions Options;
  Options.RecordProvenance = true;
  return Options;
}

TEST(Provenance, DirectReadCarriesMarkingLocation) {
  auto C = compileOK(ProvenanceProgram);
  DeadMemberResult R = analyze(*C, withProvenance());
  const FieldDecl *Word = findField(*C, "Blob", "word");
  ASSERT_TRUE(R.isLive(Word));
  const LivenessProvenance *Prov = R.provenance(Word);
  ASSERT_NE(Prov, nullptr);
  EXPECT_EQ(Prov->Reason, LivenessReason::Read);
  EXPECT_TRUE(Prov->Loc.isValid());
  EXPECT_FALSE(Prov->isPropagated());
}

TEST(Provenance, UnsafeCastSweepRecordsSourceClassAndCastLocation) {
  auto C = compileOK(ProvenanceProgram);
  DeadMemberResult R = analyze(*C, withProvenance());
  // The cast's *source* type (Holder) is swept, members live or not.
  const FieldDecl *Lost = findField(*C, "Holder", "lost");
  ASSERT_TRUE(R.isLive(Lost));
  const LivenessProvenance *Prov = R.provenance(Lost);
  ASSERT_NE(Prov, nullptr);
  EXPECT_EQ(Prov->Reason, LivenessReason::UnsafeCast);
  ASSERT_NE(Prov->Via, nullptr);
  EXPECT_EQ(Prov->Via->name(), "Holder");
  EXPECT_TRUE(Prov->Loc.isValid());
  EXPECT_TRUE(Prov->isPropagated());
}

TEST(Provenance, UnionClosureChainsToTriggeringMember) {
  auto C = compileOK(ProvenanceProgram);
  DeadMemberResult R = analyze(*C, withProvenance());
  const FieldDecl *Wide = findField(*C, "Blob", "wide");
  ASSERT_TRUE(R.isLive(Wide));
  const LivenessProvenance *Prov = R.provenance(Wide);
  ASSERT_NE(Prov, nullptr);
  EXPECT_EQ(Prov->Reason, LivenessReason::UnionClosure);
  ASSERT_NE(Prov->Via, nullptr);
  EXPECT_EQ(Prov->Via->name(), "Blob");
  ASSERT_NE(Prov->Trigger, nullptr);
  EXPECT_EQ(Prov->Trigger->qualifiedName(), "Blob::word");
  // The trigger's own provenance roots the chain at a source location.
  const LivenessProvenance *Root = R.provenance(Prov->Trigger);
  ASSERT_NE(Root, nullptr);
  EXPECT_TRUE(Root->Loc.isValid());
}

TEST(Provenance, NotRecordedWithoutOptIn) {
  auto C = compileOK(ProvenanceProgram);
  DeadMemberResult R = analyze(*C);
  const FieldDecl *Word = findField(*C, "Blob", "word");
  ASSERT_TRUE(R.isLive(Word));
  EXPECT_EQ(R.provenance(Word), nullptr);
}

//===----------------------------------------------------------------------===//
// --explain report rendering
//===----------------------------------------------------------------------===//

TEST(Explain, DirectMarkEndsAtSourceLocation) {
  auto C = compileOK(ProvenanceProgram);
  DeadMemberResult R = analyze(*C, withProvenance());
  std::ostringstream OS;
  ASSERT_TRUE(printExplainReport(OS, C->context(), R, "Blob::word", &C->SM));
  EXPECT_NE(OS.str().find("Blob::word: live"), std::string::npos);
  EXPECT_NE(OS.str().find("at "), std::string::npos) << OS.str();
}

TEST(Explain, UnsafeCastShowsPropagationEdge) {
  auto C = compileOK(ProvenanceProgram);
  DeadMemberResult R = analyze(*C, withProvenance());
  std::ostringstream OS;
  ASSERT_TRUE(
      printExplainReport(OS, C->context(), R, "Holder::lost", &C->SM));
  EXPECT_NE(OS.str().find("swept: transitively contained in 'Holder'"),
            std::string::npos)
      << OS.str();
  EXPECT_NE(OS.str().find("unsafe cast"), std::string::npos);
  EXPECT_NE(OS.str().find("at "), std::string::npos);
}

TEST(Explain, UnionClosureChainReachesRootCause) {
  auto C = compileOK(ProvenanceProgram);
  DeadMemberResult R = analyze(*C, withProvenance());
  std::ostringstream OS;
  ASSERT_TRUE(printExplainReport(OS, C->context(), R, "Blob::wide", &C->SM));
  std::string Out = OS.str();
  EXPECT_NE(Out.find("swept: closing union 'Blob'"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("triggered by live member 'Blob::word'"),
            std::string::npos);
  // The chain bottoms out at the trigger's marking expression.
  EXPECT_NE(Out.find("Blob::word: live"), std::string::npos);
  EXPECT_NE(Out.find("at "), std::string::npos);
}

TEST(Explain, DeadMemberAndUnknownQuery) {
  auto C = compileOK("class Q { public: int unused; };\n"
                     "int main() { Q q; return 0; }\n");
  DeadMemberResult R = analyze(*C, withProvenance());
  std::ostringstream OS;
  ASSERT_TRUE(printExplainReport(OS, C->context(), R, "Q::unused", &C->SM));
  EXPECT_NE(OS.str().find("dead"), std::string::npos);
  std::ostringstream OS2;
  EXPECT_FALSE(printExplainReport(OS2, C->context(), R, "Q::missing", &C->SM));
}

} // namespace
