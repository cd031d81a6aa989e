//===-- tests/EliminatorTest.cpp - Dead-member elimination tests ----------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The transformation's contract: the transformed program recompiles,
// produces the same observable output and exit code, allocates no more
// object space than the original, lays its classes out as the original's
// dead-free layouts predict, and no longer contains the removed members.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracles.h"
#include "fuzz/ProgramGenerator.h"
#include "TestUtil.h"

#include "benchgen/Synthesizer.h"
#include "transform/DeadMemberEliminator.h"

#include <filesystem>
#include <fstream>

using namespace dmm;
using namespace dmm::test;

namespace {

struct EliminationOutcome {
  EliminationResult Elim;
  ExecResult Before;
  ExecResult After;
  DynamicMetrics BeforeSpace;
  DynamicMetrics AfterSpace;
  /// Owns the decls referenced by Elim.Removed/Kept.
  std::unique_ptr<Compilation> Original;
  std::unique_ptr<Compilation> Transformed;
};

EliminationOutcome runElimination(const std::string &Source) {
  EliminationOutcome Out;

  auto C1 = compileOK(Source);
  DeadMemberAnalysis Analysis(C1->context(), C1->hierarchy(), {});
  DeadMemberResult Result = Analysis.run(C1->mainFunction());
  Out.Elim = eliminateDeadMembers(C1->context(), Result,
                                  Analysis.callGraph());

  std::ostringstream Diag;
  Out.Transformed = compileString(Out.Elim.Source, &Diag);
  EXPECT_TRUE(Out.Transformed->Success)
      << "transformed program does not compile:\n"
      << Diag.str() << "\n--- transformed ---\n"
      << Out.Elim.Source;
  if (!Out.Transformed->Success) {
    Out.Original = std::move(C1);
    return Out;
  }

  AllocationTrace T1, T2;
  InterpOptions IO1, IO2;
  IO1.Trace = &T1;
  IO2.Trace = &T2;
  Out.Before = runOK(*C1, IO1);
  Out.After = runOK(*Out.Transformed, IO2);

  LayoutEngine L1(C1->hierarchy());
  LayoutEngine L2(Out.Transformed->hierarchy());
  Out.BeforeSpace = computeDynamicMetrics(T1, L1, {});
  Out.AfterSpace = computeDynamicMetrics(T2, L2, {});

  EXPECT_EQ(Out.Before.Output, Out.After.Output)
      << "--- transformed ---\n" << Out.Elim.Source;
  EXPECT_EQ(Out.Before.ExitCode, Out.After.ExitCode);
  EXPECT_LE(Out.AfterSpace.ObjectSpace, Out.BeforeSpace.ObjectSpace);
  if (std::optional<std::string> Mismatch = fuzz::layoutMismatch(
          *C1, *Out.Transformed, Out.Elim.Removed))
    ADD_FAILURE() << *Mismatch << "\n--- transformed ---\n"
                  << Out.Elim.Source;
  Out.Original = std::move(C1);
  return Out;
}

TEST(Eliminator, RemovesWriteOnlyMember) {
  auto Out = runElimination(R"(
    class A {
    public:
      int live;
      int ballast;
      A() : live(3), ballast(4) {}
    };
    int main() {
      A *a = new A();
      print_int(a->live);
      a->ballast = 99;
      delete a;
      return 0;
    }
  )");
  EXPECT_EQ(Out.Elim.Removed.size(), 1u);
  EXPECT_TRUE(Out.Elim.Kept.empty());
  EXPECT_EQ(Out.Elim.Source.find("ballast"), std::string::npos);
  EXPECT_LT(Out.AfterSpace.ObjectSpace, Out.BeforeSpace.ObjectSpace);
}

TEST(Eliminator, KeepsSideEffectingWriteValue) {
  // `a.dead = next();` must keep calling next() (it prints).
  auto Out = runElimination(R"(
    int counter = 0;
    int next() { counter = counter + 1; print_int(counter); return counter; }
    class A { public: int dead; };
    int main() {
      A a;
      a.dead = next();
      a.dead = next();
      return 0;
    }
  )");
  // The member goes away but the calls stay (RhsOnly rewrite).
  EXPECT_EQ(Out.Elim.Removed.size(), 1u);
  EXPECT_EQ(Out.Before.Output, "1\n2\n");
}

// A double printed with too few digits would flip this comparison.
TEST(Eliminator, KeepsDoubleLiteralsExact) {
  auto Out = runElimination(R"(
    class A { public: int live; int dead; };
    int main() {
      A a;
      a.live = 1;
      a.dead = 2;
      double c = 123456789.125;
      if (c < 123457000.0) print_int(a.live); else print_int(0);
      return 0;
    }
  )");
  EXPECT_EQ(Out.Elim.Removed.size(), 1u);
  EXPECT_EQ(Out.Before.Output, "1\n");
  EXPECT_EQ(Out.After.Output, "1\n") << Out.Elim.Source;
}

TEST(Eliminator, RemovesDeleteOnlyPointerMember) {
  auto Out = runElimination(R"(
    class P { public: int v; };
    class A {
    public:
      int live;
      P *owned;
      A() : live(1) { owned = nullptr; }
      ~A() { delete owned; }
    };
    int main() {
      A *a = new A();
      print_int(a->live);
      delete a;
      return 0;
    }
  )");
  // `owned` is removed (P::v, dead in the never-instantiated class P,
  // goes too).
  EXPECT_GE(Out.Elim.Removed.size(), 1u);
  EXPECT_EQ(Out.Elim.Source.find("owned"), std::string::npos);
}

TEST(Eliminator, StripsUnreachableFunctionBodies) {
  auto Out = runElimination(R"(
    class A { public: int ghost; };
    int neverCalled(A *a) { return a->ghost; }
    int main() { A a; return 0; }
  )");
  // ghost is dead (read only in unreachable code); removing it requires
  // stripping neverCalled's body, which references it.
  EXPECT_EQ(Out.Elim.Removed.size(), 1u);
  EXPECT_EQ(Out.Elim.RemovedFunctions.size(), 1u);
  EXPECT_EQ(Out.Elim.Source.find("ghost"), std::string::npos);
}

TEST(Eliminator, PreservesVirtualDispatchAfterStripping) {
  auto Out = runElimination(R"(
    class Base {
    public:
      int pad;
      virtual int id() { return 1; }
    };
    class D : public Base {
    public:
      virtual int id() { return 2; }
    };
    int main() {
      Base *p = new D();
      print_int(p->id());
      delete p;
      return 0;
    }
  )");
  // Base is never instantiated, so Base::id is unreachable under RTA;
  // its body is stripped, but its declaration must remain so that the
  // virtual call through Base* still compiles and dispatches to D::id.
  EXPECT_EQ(Out.Before.Output, "2\n");
}

TEST(Eliminator, KeepsMembersWithImpureWriteBase) {
  auto Out = runElimination(R"(
    class A { public: int dead; };
    A *make() { print_str("make\n"); return new A(); }
    int main() {
      make()->dead = 5;
      return 0;
    }
  )");
  // The write target's base has side effects (make() prints): the
  // member must be kept.
  EXPECT_TRUE(Out.Elim.Removed.empty());
  EXPECT_EQ(Out.Elim.Kept.size(), 1u);
  EXPECT_EQ(Out.Before.Output, "make\n");
}

TEST(Eliminator, TransformedProgramHasFewerRemovableDeadMembers) {
  // Idempotence-ish: after elimination, re-analysis finds no *removable*
  // dead members among those we removed.
  auto Out = runElimination(R"(
    class A {
    public:
      int a1; int a2; int a3;
      A() : a1(1), a2(2), a3(3) {}
    };
    int main() { A a; print_int(a.a1); return 0; }
  )");
  ASSERT_TRUE(Out.Transformed->Success);
  DeadMemberAnalysis Again(Out.Transformed->context(),
                           Out.Transformed->hierarchy(), {});
  DeadMemberResult R2 = Again.run(Out.Transformed->mainFunction());
  EXPECT_TRUE(R2.deadMembers().empty());
}

TEST(Eliminator, ShrinksRichardsMaintenanceBloat) {
  // The space_optimizer example scenario, verified end to end.
  std::string Src = richardsSource();
  size_t Pos = Src.find("  Packet *link;");
  ASSERT_NE(Pos, std::string::npos);
  Src.insert(Pos, "  double legacyStamp;\n  int retries;\n");
  auto Out = runElimination(Src);
  EXPECT_EQ(Out.Elim.Removed.size(), 2u);
  EXPECT_LT(Out.AfterSpace.ObjectSpace, Out.BeforeSpace.ObjectSpace);
  // Behaviour: the canonical counters still check out.
  EXPECT_NE(Out.After.Output.find("queueCount=2322"), std::string::npos);
}

class EliminatorRandom : public ::testing::TestWithParam<int> {};

TEST_P(EliminatorRandom, PreservesBehaviourAndNeverGrows) {
  fuzz::ProgramGenerator Gen(static_cast<uint64_t>(GetParam()) + 5000);
  runElimination(Gen.generate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EliminatorRandom, ::testing::Range(1, 21));

class EliminatorBenchmarks : public ::testing::TestWithParam<std::string> {};

TEST_P(EliminatorBenchmarks, PreservesBenchmarkBehaviour) {
  BenchmarkSpec Spec = benchmarkByName(GetParam());
  std::string Source;
  if (Spec.HandWritten)
    Source = GetParam() == "richards" ? richardsSource()
                                      : deltablueSource();
  else
    Source = synthesizeBenchmark(Spec, 0.05).Files[0].Text;
  auto Out = runElimination(Source);
  if (!Spec.HandWritten) {
    // Synthesized programs are built so every dead member is removable.
    EXPECT_GT(Out.Elim.Removed.size(), 0u);
    EXPECT_LT(Out.AfterSpace.ObjectSpace, Out.BeforeSpace.ObjectSpace);
  } else if (GetParam() == "richards") {
    EXPECT_TRUE(Out.Elim.Removed.empty()); // Nothing dead to remove.
  } else {
    // deltablue: only the members of the never-instantiated
    // ScaleConstraint are dead, and those are removable.
    EXPECT_LE(Out.Elim.Removed.size(), 2u);
    for (const FieldDecl *F : Out.Elim.Removed)
      EXPECT_EQ(F->parent()->name(), "ScaleConstraint");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paper, EliminatorBenchmarks,
    ::testing::Values("sched", "taldict", "lcom", "richards", "deltablue"),
    [](const auto &Info) { return Info.param; });

TEST(Eliminator, CorpusLayoutsMatchDeadFreePrediction) {
  // Oracle 1's layout check over every single-file corpus program. Only
  // elimination and layout are involved, so programs that abort at run
  // time (casts) or print sizeof values (sizeof) qualify too.
  const std::filesystem::path Dir(DMM_CORPUS_DIR);
  std::vector<std::filesystem::path> Files;
  for (const char *Name : {"basics", "inheritance", "unions", "casts",
                           "sizeof", "ptrmember", "dealloc", "volatile",
                           "deadcode", "overloads"})
    Files.push_back(Dir / (std::string(Name) + ".mcc"));
  for (const auto &Entry : std::filesystem::directory_iterator(Dir / "fuzzed"))
    if (Entry.path().extension() == ".mcc")
      Files.push_back(Entry.path());
  for (const std::filesystem::path &Path : Files) {
    SCOPED_TRACE(Path.filename().string());
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream Source;
    Source << In.rdbuf();
    auto C = compileOK(Source.str());
    DeadMemberAnalysis Analysis(C->context(), C->hierarchy(), {});
    DeadMemberResult Result = Analysis.run(C->mainFunction());
    EliminationResult Elim =
        eliminateDeadMembers(C->context(), Result, Analysis.callGraph());
    std::ostringstream Diag;
    auto Eliminated = compileString(Elim.Source, &Diag);
    ASSERT_TRUE(Eliminated->Success) << Diag.str();
    EXPECT_EQ(fuzz::layoutMismatch(*C, *Eliminated, Elim.Removed),
              std::nullopt);
  }
}

} // namespace
