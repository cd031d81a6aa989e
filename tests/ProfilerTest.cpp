//===-- tests/ProfilerTest.cpp - Shadow-memory profiler tests -------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the shadow-memory profiler (profiler/ShadowProfiler.h): the
/// exact-agreement contract with the allocation-trace replay
/// (trace/DynamicMetrics.h), per-site dead-byte attribution, the
/// massif-style snapshot schedule, address-taken and deallocation-read
/// marking, and agreement on every golden-corpus program.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "profiler/ShadowProfiler.h"
#include "telemetry/Stats.h"

#include <filesystem>
#include <fstream>

using namespace dmm;
using namespace dmm::test;

namespace {

/// One profiled execution: interprets \p C with the allocation trace
/// and the shadow profiler attached to the same run, then returns the
/// finalized profiler alongside the trace replay's metrics.
struct ProfiledRun {
  std::unique_ptr<ShadowProfiler> Prof;
  DynamicMetrics Replayed;
  ExecResult Exec;
};

ProfiledRun runProfiled(Compilation &C, const DeadMemberResult &R,
                        bool ExpectCompletion = true) {
  ProfiledRun Out;
  AllocationTrace Trace;
  Out.Prof = std::make_unique<ShadowProfiler>(C.hierarchy(), R.deadSet());
  InterpOptions IO;
  IO.Trace = &Trace;
  IO.Profiler = Out.Prof.get();
  Interpreter I(C.context(), C.hierarchy(), IO);
  Out.Exec = I.run(C.mainFunction());
  if (ExpectCompletion)
    EXPECT_TRUE(Out.Exec.Completed) << "runtime error: " << Out.Exec.Error;
  Out.Prof->finalize(&C.SM);
  LayoutEngine Layout(C.hierarchy());
  Out.Replayed = computeDynamicMetrics(Trace, Layout, R.deadSet());
  return Out;
}

const ProfileSiteRow *findSite(const ProfileSummary &P,
                               const std::string &Member) {
  for (const ProfileSiteRow &Row : P.Sites)
    if (Row.Member == Member)
      return &Row;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Exact agreement with the trace replay
//===----------------------------------------------------------------------===//

TEST(Profiler, AgreesWithTraceReplayOnHeapChurn) {
  auto C = compileOK("class Node {\n"
                     "public:\n"
                     "  int payload;\n"
                     "  int padding;\n"
                     "  Node() : payload(1), padding(2) {}\n"
                     "};\n"
                     "int main() {\n"
                     "  Node *a = new Node();\n"
                     "  Node *b = new Node();\n"
                     "  print_int(a->payload);\n"
                     "  delete a;\n"
                     "  Node *c = new Node();\n"
                     "  print_int(c->payload);\n"
                     "  delete b;\n"
                     "  delete c;\n"
                     "  return 0;\n"
                     "}\n");
  DeadMemberResult R = analyze(*C);
  ProfiledRun Run = runProfiled(*C, R);
  EXPECT_EQ(Run.Prof->metrics(), Run.Replayed);
  const ProfileSummary &P = Run.Prof->summary();
  EXPECT_EQ(P.AllocEvents, 3u);
  EXPECT_EQ(P.FreeEvents, 3u);
  EXPECT_EQ(P.LeakedObjects, 0u);
  EXPECT_EQ(P.Metrics.NumObjects, 3u);
  // Two nodes coexist at the peak.
  EXPECT_EQ(P.Metrics.HighWaterMark, 2 * (P.Metrics.ObjectSpace / 3));
}

TEST(Profiler, AgreesOnArraysAndLeaks) {
  auto C = compileOK("class Cell {\n"
                     "public:\n"
                     "  int v;\n"
                     "  int unused;\n"
                     "  Cell() : v(7), unused(0) {}\n"
                     "};\n"
                     "int main() {\n"
                     "  Cell stackArr[3];\n"
                     "  Cell *heapArr = new Cell[4];\n"
                     "  print_int(stackArr[1].v);\n"
                     "  print_int(heapArr[2].v);\n"
                     "  return 0;\n" // heapArr leaks.
                     "}\n");
  DeadMemberResult R = analyze(*C);
  ProfiledRun Run = runProfiled(*C, R);
  EXPECT_EQ(Run.Prof->metrics(), Run.Replayed);
  const ProfileSummary &P = Run.Prof->summary();
  EXPECT_EQ(P.Metrics.NumObjects, 7u);
  EXPECT_EQ(P.AllocEvents, 2u); // One per array group.
  // The heap array is never deleted; the stack array dies with main.
  EXPECT_EQ(P.LeakedObjects, 4u);
}

TEST(Profiler, AgreesOnInheritanceAndMemberClasses) {
  auto C = compileOK("class Base {\n"
                     "public:\n"
                     "  int b;\n"
                     "  Base() : b(1) {}\n"
                     "};\n"
                     "class Inner {\n"
                     "public:\n"
                     "  int i1;\n"
                     "  int i2;\n"
                     "  Inner() : i1(2), i2(3) {}\n"
                     "};\n"
                     "class Outer : public Base {\n"
                     "public:\n"
                     "  Inner nested;\n"
                     "  int o;\n"
                     "  Outer() : o(4) {}\n"
                     "};\n"
                     "int main() {\n"
                     "  Outer *p = new Outer();\n"
                     "  print_int(p->nested.i1);\n"
                     "  print_int(p->b);\n"
                     "  delete p;\n"
                     "  return 0;\n"
                     "}\n");
  DeadMemberResult R = analyze(*C);
  ProfiledRun Run = runProfiled(*C, R);
  EXPECT_EQ(Run.Prof->metrics(), Run.Replayed);
  const ProfileSummary &P = Run.Prof->summary();
  // Leaf members of the nested class are attributed to the Outer
  // allocation site under their own qualified names.
  const ProfileSiteRow *I1 = findSite(P, "Inner::i1");
  const ProfileSiteRow *I2 = findSite(P, "Inner::i2");
  ASSERT_NE(I1, nullptr);
  ASSERT_NE(I2, nullptr);
  EXPECT_EQ(I1->Class, "Outer");
  EXPECT_GT(I1->ReadBytes, 0u);
  EXPECT_EQ(I2->ReadBytes, 0u);
  EXPECT_EQ(I2->NeverReadBytes, I2->AllocBytes);
}

//===----------------------------------------------------------------------===//
// Site attribution
//===----------------------------------------------------------------------===//

TEST(Profiler, AttributesNeverReadBytesPerSite) {
  auto C = compileOK("class P {\n"
                     "public:\n"
                     "  int used;\n"
                     "  int writeOnly;\n"
                     "  P() : used(1), writeOnly(2) {}\n"
                     "};\n"
                     "int main() {\n"
                     "  P p;\n"
                     "  p.writeOnly = 9;\n"
                     "  print_int(p.used);\n"
                     "  return 0;\n"
                     "}\n");
  DeadMemberResult R = analyze(*C);
  ProfiledRun Run = runProfiled(*C, R);
  EXPECT_EQ(Run.Prof->metrics(), Run.Replayed);
  const ProfileSummary &P = Run.Prof->summary();

  const ProfileSiteRow *Used = findSite(P, "P::used");
  ASSERT_NE(Used, nullptr);
  EXPECT_EQ(Used->Objects, 1u);
  EXPECT_EQ(Used->ReadBytes, Used->AllocBytes);
  EXPECT_EQ(Used->NeverReadBytes, 0u);
  EXPECT_FALSE(Used->StaticDead);

  const ProfileSiteRow *WO = findSite(P, "P::writeOnly");
  ASSERT_NE(WO, nullptr);
  EXPECT_EQ(WO->WrittenBytes, WO->AllocBytes);
  EXPECT_EQ(WO->ReadBytes, 0u);
  EXPECT_EQ(WO->NeverReadBytes, WO->AllocBytes);
  // Written but never read: dead under the paper's analysis, and the
  // shadow state agrees byte-for-byte.
  EXPECT_TRUE(WO->StaticDead);
  EXPECT_TRUE(R.isDead(findField(*C, "P", "writeOnly")));

  // Site rows carry the allocation location of the `P p;` declaration.
  EXPECT_NE(Used->File, "<unknown>");
  EXPECT_GT(Used->Line, 0u);
}

TEST(Profiler, MarksAddressTakenBytes) {
  auto C = compileOK("class V {\n"
                     "public:\n"
                     "  int x;\n"
                     "  int y;\n"
                     "  V() : x(1), y(2) {}\n"
                     "};\n"
                     "int main() {\n"
                     "  V v;\n"
                     "  int *p = &v.x;\n"
                     "  print_int(*p);\n"
                     "  return 0;\n"
                     "}\n");
  DeadMemberResult R = analyze(*C);
  ProfiledRun Run = runProfiled(*C, R);
  EXPECT_EQ(Run.Prof->metrics(), Run.Replayed);
  const ProfileSummary &P = Run.Prof->summary();
  const ProfileSiteRow *X = findSite(P, "V::x");
  const ProfileSiteRow *Y = findSite(P, "V::y");
  ASSERT_NE(X, nullptr);
  ASSERT_NE(Y, nullptr);
  EXPECT_EQ(X->AddrTakenBytes, X->AllocBytes);
  EXPECT_EQ(Y->AddrTakenBytes, 0u);
  EXPECT_EQ(P.AddrTakenBytes, X->AllocBytes);
}

TEST(Profiler, DeallocationReadsStayUnread) {
  // `owned` is loaded only to feed delete. The paper's footnote-3
  // exemption keeps it out of the read set, and the shadow profiler
  // mirrors that: its bytes stay never-read.
  auto C = compileOK("class Resource {\n"
                     "public:\n"
                     "  int id;\n"
                     "  Resource() : id(5) {}\n"
                     "};\n"
                     "class Holder {\n"
                     "public:\n"
                     "  Resource *owned;\n"
                     "  int uses;\n"
                     "  Holder() : owned(new Resource()), uses(1) {}\n"
                     "  ~Holder() { delete owned; }\n"
                     "};\n"
                     "int main() {\n"
                     "  Holder h;\n"
                     "  print_int(h.uses);\n"
                     "  return 0;\n"
                     "}\n");
  DeadMemberResult R = analyze(*C);
  ProfiledRun Run = runProfiled(*C, R);
  EXPECT_EQ(Run.Prof->metrics(), Run.Replayed);
  const ProfileSummary &P = Run.Prof->summary();
  const ProfileSiteRow *Owned = findSite(P, "Holder::owned");
  ASSERT_NE(Owned, nullptr);
  EXPECT_EQ(Owned->ReadBytes, 0u);
  EXPECT_EQ(Owned->NeverReadBytes, Owned->AllocBytes);
  EXPECT_TRUE(Owned->StaticDead);
}

//===----------------------------------------------------------------------===//
// Snapshot schedule
//===----------------------------------------------------------------------===//

TEST(Profiler, SnapshotScheduleDoublesAndStaysMonotone) {
  // 600 allocation events overflow the 256-snapshot buffer twice, so
  // the stride must have doubled to 4 and every kept snapshot must sit
  // on the final schedule.
  auto C = compileOK("class N {\n"
                     "public:\n"
                     "  int v;\n"
                     "  N() : v(1) {}\n"
                     "};\n"
                     "int main() {\n"
                     "  int i = 0;\n"
                     "  int sum = 0;\n"
                     "  while (i < 600) {\n"
                     "    N *n = new N();\n"
                     "    sum = sum + n->v;\n"
                     "    delete n;\n"
                     "    i = i + 1;\n"
                     "  }\n"
                     "  print_int(sum);\n"
                     "  return 0;\n"
                     "}\n");
  DeadMemberResult R = analyze(*C);
  ProfiledRun Run = runProfiled(*C, R);
  EXPECT_EQ(Run.Prof->metrics(), Run.Replayed);
  const ProfileSummary &P = Run.Prof->summary();
  EXPECT_EQ(P.AllocEvents, 600u);
  EXPECT_EQ(P.SnapshotStride, 4u);
  ASSERT_FALSE(P.Snapshots.empty());
  EXPECT_LE(P.Snapshots.size(), 256u);
  uint64_t Prev = 0;
  for (const ProfileSnapshot &S : P.Snapshots) {
    EXPECT_GT(S.AllocEvent, Prev);
    EXPECT_EQ(S.AllocEvent % P.SnapshotStride, 0u);
    EXPECT_LE(S.LiveBytes, P.Metrics.HighWaterMark);
    EXPECT_LE(S.LiveBytesNoDead, S.LiveBytes);
    Prev = S.AllocEvent;
  }
}

TEST(Profiler, FinalizeIsIdempotent) {
  auto C = compileOK("class A {\n"
                     "public:\n"
                     "  int x;\n"
                     "  A() : x(3) {}\n"
                     "};\n"
                     "int main() {\n"
                     "  A *a = new A();\n" // Leaks.
                     "  print_int(a->x);\n"
                     "  return 0;\n"
                     "}\n");
  DeadMemberResult R = analyze(*C);
  ProfiledRun Run = runProfiled(*C, R);
  const ProfileSummary &First = Run.Prof->summary();
  EXPECT_EQ(First.LeakedObjects, 1u);
  const ProfileSummary &Second = Run.Prof->finalize(&C->SM);
  EXPECT_EQ(&First, &Second);
  EXPECT_EQ(Second.LeakedObjects, 1u);
  EXPECT_EQ(Second.Sites.size(), First.Sites.size());
}

//===----------------------------------------------------------------------===//
// Stats-section conversion
//===----------------------------------------------------------------------===//

TEST(Profiler, ConvertsToStatsSection) {
  auto C = compileOK("class P {\n"
                     "public:\n"
                     "  int x;\n"
                     "  int unused;\n"
                     "  P() : x(1), unused(2) {}\n"
                     "};\n"
                     "int main() {\n"
                     "  P *p = new P();\n"
                     "  print_int(p->x);\n"
                     "  delete p;\n"
                     "  return 0;\n"
                     "}\n");
  DeadMemberResult R = analyze(*C);
  ProfiledRun Run = runProfiled(*C, R);
  const ProfileSummary &P = Run.Prof->summary();
  stats::ProfilerSection S = toProfilerSection(P);
  EXPECT_TRUE(S.Present);
  EXPECT_EQ(S.ObjectSpace, P.Metrics.ObjectSpace);
  EXPECT_EQ(S.DeadMemberSpace, P.Metrics.DeadMemberSpace);
  EXPECT_EQ(S.HighWaterMark, P.Metrics.HighWaterMark);
  EXPECT_EQ(S.NumObjects, P.Metrics.NumObjects);
  ASSERT_EQ(S.Snapshots.size(), P.Snapshots.size());
  ASSERT_EQ(S.Sites.size(), P.Sites.size());
  for (size_t I = 0; I != S.Sites.size(); ++I) {
    EXPECT_EQ(S.Sites[I].Member, P.Sites[I].Member);
    EXPECT_EQ(S.Sites[I].NeverReadBytes, P.Sites[I].NeverReadBytes);
    EXPECT_EQ(S.Sites[I].StaticDead, P.Sites[I].StaticDead);
  }
}

//===----------------------------------------------------------------------===//
// Golden corpus: byte-identical agreement with the trace replay
//===----------------------------------------------------------------------===//

struct CorpusProgram {
  const char *Name;
  std::vector<std::pair<const char *, bool>> Files; ///< (name, library).
};

const CorpusProgram kCorpusPrograms[] = {
    {"basics", {{"basics.mcc", false}}},
    {"inheritance", {{"inheritance.mcc", false}}},
    {"unions", {{"unions.mcc", false}}},
    {"casts", {{"casts.mcc", false}}},
    {"sizeof", {{"sizeof.mcc", false}}},
    {"ptrmember", {{"ptrmember.mcc", false}}},
    {"dealloc", {{"dealloc.mcc", false}}},
    {"volatile", {{"volatile.mcc", false}}},
    {"deadcode", {{"deadcode.mcc", false}}},
    {"overloads", {{"overloads.mcc", false}}},
    {"multifile", {{"multifile_lib.mcc", false}, {"multifile_app.mcc", false}}},
    {"library", {{"library_vendor.mcc", true}, {"library_app.mcc", false}}},
};

std::string readCorpusFile(const char *Name) {
  std::ifstream In(std::filesystem::path(DMM_CORPUS_DIR) / Name,
                   std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read corpus file " << Name;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

TEST(ProfilerCorpus, MatchesTraceReplayOnEveryProgramAndJobsLevel) {
  for (const CorpusProgram &Entry : kCorpusPrograms) {
    std::vector<SourceFile> Files;
    for (const auto &[Name, IsLibrary] : Entry.Files)
      Files.push_back({Name, readCorpusFile(Name), IsLibrary});
    std::ostringstream Diag;
    auto C = compileProgram(std::move(Files), &Diag);
    ASSERT_TRUE(C->Success) << Entry.Name << ": " << Diag.str();
    DeadMemberResult R = analyze(*C);

    // Some corpus programs (casts) abort mid-run by design; the trace
    // and the profiler still saw the same event prefix, so the
    // agreement contract holds regardless.
    ProfiledRun Run = runProfiled(*C, R, /*ExpectCompletion=*/false);
    EXPECT_EQ(Run.Prof->metrics(), Run.Replayed)
        << Entry.Name << " diverges from the trace replay";
  }
}

} // namespace
