//===-- tests/PropertyTest.cpp - Property-based soundness tests -----------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The central soundness invariant (DESIGN.md 6): for every program,
// every data member whose value is read during interpretation must be
// classified live by the analysis. Swept over randomly generated
// feature-mixing programs and over the synthesized benchmark suite, for
// every call-graph configuration.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/ProgramStats.h"
#include "benchgen/Synthesizer.h"
#include "fuzz/ProgramGenerator.h"

using namespace dmm;
using namespace dmm::test;

namespace {

//===----------------------------------------------------------------------===//
// Random-program sweep
//===----------------------------------------------------------------------===//

class RandomProgramSoundness
    : public ::testing::TestWithParam<std::tuple<int, CallGraphKind>> {};

TEST_P(RandomProgramSoundness, DynamicReadsAreLive) {
  auto [Seed, Kind] = GetParam();
  fuzz::ProgramGenerator Gen(static_cast<uint64_t>(Seed));
  std::string Source = Gen.generate();

  auto C = compileOK(Source);
  if (!C->Success)
    return; // compileOK already failed the test; avoid cascading.

  AnalysisOptions Opts;
  Opts.CallGraph = Kind;
  auto R = analyze(*C, Opts);

  FieldHeat Heat;
  InterpOptions IO;
  IO.Heat = &Heat;
  Interpreter I(C->context(), C->hierarchy(), IO);
  ExecResult E = I.run(C->mainFunction());
  ASSERT_TRUE(E.Completed) << "runtime error: " << E.Error
                           << "\nprogram:\n" << Source;

  for (const FieldDecl *F : Heat.FirstReads)
    EXPECT_FALSE(R.isDead(F))
        << F->qualifiedName()
        << " was read at run time but classified dead (callgraph="
        << callGraphKindName(Kind) << ")\nprogram:\n"
        << Source;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomProgramSoundness,
    ::testing::Combine(::testing::Range(1, 33),
                       ::testing::Values(CallGraphKind::Trivial,
                                         CallGraphKind::CHA,
                                         CallGraphKind::RTA,
                                         CallGraphKind::PTA)),
    [](const auto &Info) {
      return "seed" + std::to_string(std::get<0>(Info.param)) + "_" +
             callGraphKindName(std::get<1>(Info.param));
    });

class RandomProgramProperties : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramProperties, PrecisionIsMonotonic) {
  // A more precise call graph never classifies fewer members dead:
  // dead(RTA) >= dead(CHA) >= dead(Trivial), as inclusion of sets.
  fuzz::ProgramGenerator Gen(static_cast<uint64_t>(GetParam()));
  auto C = compileOK(Gen.generate());

  auto DeadWith = [&](CallGraphKind K) {
    AnalysisOptions Opts;
    Opts.CallGraph = K;
    return deadNames(analyze(*C, Opts));
  };
  auto Trivial = DeadWith(CallGraphKind::Trivial);
  auto CHA = DeadWith(CallGraphKind::CHA);
  auto RTA = DeadWith(CallGraphKind::RTA);
  auto PTA = DeadWith(CallGraphKind::PTA);

  for (const std::string &Name : Trivial)
    EXPECT_TRUE(CHA.count(Name)) << Name << " dead under Trivial but "
                                 << "live under CHA";
  for (const std::string &Name : CHA)
    EXPECT_TRUE(RTA.count(Name)) << Name << " dead under CHA but live "
                                 << "under RTA";
  for (const std::string &Name : RTA)
    EXPECT_TRUE(PTA.count(Name)) << Name << " dead under RTA but live "
                                 << "under PTA";
}

TEST_P(RandomProgramProperties, BaselineIsMoreConservative) {
  // The "accessed = live" baseline never finds more dead members than
  // the paper's algorithm.
  fuzz::ProgramGenerator Gen(static_cast<uint64_t>(GetParam()));
  auto C = compileOK(Gen.generate());
  auto Paper = deadNames(analyze(*C));
  AnalysisOptions BOpts;
  BOpts.TreatWritesAsLive = true;
  auto Baseline = deadNames(analyze(*C, BOpts));
  for (const std::string &Name : Baseline)
    EXPECT_TRUE(Paper.count(Name))
        << Name << " dead under baseline but live under the paper "
        << "algorithm";
}

TEST_P(RandomProgramProperties, GenerationAndAnalysisAreDeterministic) {
  fuzz::ProgramGenerator GenA(static_cast<uint64_t>(GetParam()));
  fuzz::ProgramGenerator GenB(static_cast<uint64_t>(GetParam()));
  std::string SrcA = GenA.generate();
  std::string SrcB = GenB.generate();
  EXPECT_EQ(SrcA, SrcB);

  auto CA = compileOK(SrcA);
  auto CB = compileOK(SrcB);
  EXPECT_EQ(deadNames(analyze(*CA)), deadNames(analyze(*CB)));
}

TEST_P(RandomProgramProperties, NeverCalledMethodReadsStayDeadUnderRTA) {
  // Every generated class has a `ghost` method that is never called;
  // fields read *only* there must be dead (unless another path reads
  // them or a conservative rule fires).
  fuzz::ProgramGenerator Gen(static_cast<uint64_t>(GetParam()));
  auto C = compileOK(Gen.generate());
  auto R = analyze(*C);
  // Sanity: the analysis classified something, and all dead members are
  // classifiable.
  for (const FieldDecl *F : R.deadMembers())
    EXPECT_TRUE(R.canClassify(F));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramProperties,
                         ::testing::Range(1, 25));

//===----------------------------------------------------------------------===//
// Synthesized benchmark sweep
//===----------------------------------------------------------------------===//

class BenchmarkSoundness : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkSoundness, CompilesRunsAndIsSound) {
  BenchmarkSpec Spec = benchmarkByName(GetParam());
  GeneratedBenchmark G;
  if (Spec.HandWritten) {
    G.Spec = Spec;
    G.Files.push_back({Spec.Name + ".mcc",
                       Spec.Name == "richards" ? richardsSource()
                                               : deltablueSource(),
                       false});
  } else {
    G = synthesizeBenchmark(Spec, /*Scale=*/0.05);
  }

  std::ostringstream Diag;
  auto C = compileProgram(G.Files, &Diag);
  ASSERT_TRUE(C->Success) << Diag.str();

  auto R = analyze(*C);

  FieldHeat Heat;
  InterpOptions IO;
  IO.Heat = &Heat;
  Interpreter I(C->context(), C->hierarchy(), IO);
  ExecResult E = I.run(C->mainFunction());
  ASSERT_TRUE(E.Completed) << E.Error;
  EXPECT_EQ(E.ExitCode, 0) << "benchmark self-check failed";

  for (const FieldDecl *F : Heat.FirstReads)
    EXPECT_FALSE(R.isDead(F))
        << F->qualifiedName() << " read at run time but classified dead";
}

TEST_P(BenchmarkSoundness, StaticDeadPercentageMatchesSpec) {
  BenchmarkSpec Spec = benchmarkByName(GetParam());
  GeneratedBenchmark G;
  if (Spec.HandWritten) {
    G.Spec = Spec;
    G.Files.push_back({Spec.Name + ".mcc",
                       Spec.Name == "richards" ? richardsSource()
                                               : deltablueSource(),
                       false});
  } else {
    G = synthesizeBenchmark(Spec, /*Scale=*/0.05);
  }
  std::ostringstream Diag;
  auto C = compileProgram(G.Files, &Diag);
  ASSERT_TRUE(C->Success) << Diag.str();
  auto R = analyze(*C);
  ProgramStats St = computeProgramStats(C->context(), R, &C->SM,
                                        C->UserFileIDs);
  EXPECT_NEAR(St.percentDead(), Spec.TargetStaticDeadPct, 0.75)
      << "static dead percentage off target";
  if (!Spec.HandWritten) {
    EXPECT_EQ(St.NumClasses, Spec.NumClasses);
    EXPECT_EQ(St.NumUsedClasses, Spec.NumUsedClasses);
    EXPECT_EQ(St.NumMembersInUsedClasses, Spec.NumMembers);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paper, BenchmarkSoundness,
    ::testing::Values("jikes", "idl", "npic", "lcom", "taldict", "ixx",
                      "simulate", "sched", "hotwire", "deltablue",
                      "richards"),
    [](const auto &Info) { return Info.param; });

} // namespace
