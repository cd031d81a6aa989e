//===-- tests/FuzzTest.cpp - The fuzzing subsystem's own tests ------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Exercises src/fuzz end to end: the generator's feature coverage and
// determinism, the three oracles over a clean corpus, the harness'
// self-validation (an injected eliminator defect must be caught by the
// differential-semantics oracle and shrunk to a small reproducer), the
// generic ddmin shrinker, and the eliminator fixpoint property (running
// the eliminator to a fixed point leaves no removable dead member
// behind). See docs/TESTING.md.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fuzz/Coverage.h"
#include "fuzz/Feedback.h"
#include "fuzz/Oracles.h"
#include "fuzz/ProgramGenerator.h"
#include "fuzz/Shrinker.h"
#include "support/Hash.h"

using namespace dmm;
using namespace dmm::test;

namespace {

unsigned nonBlankLines(const std::string &S) {
  unsigned N = 0;
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t NL = S.find('\n', Pos);
    std::string Line = S.substr(Pos, NL == std::string::npos
                                         ? std::string::npos
                                         : NL - Pos);
    if (Line.find_first_not_of(" \t\r") != std::string::npos)
      ++N;
    if (NL == std::string::npos)
      break;
    Pos = NL + 1;
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(FuzzGenerator, CoversThePaperFeatureMatrix) {
  // Across a modest seed range the corpus must collectively exercise
  // every analysis-relevant language feature (paper §2.3's hard cases).
  std::string Corpus;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    Corpus += fuzz::ProgramGenerator(Seed).generate();

  EXPECT_NE(Corpus.find("union "), std::string::npos);
  EXPECT_NE(Corpus.find("virtual "), std::string::npos);
  EXPECT_NE(Corpus.find("::*"), std::string::npos); // pointer-to-member
  EXPECT_NE(Corpus.find(".*"), std::string::npos);
  EXPECT_NE(Corpus.find("absorb(&"), std::string::npos); // address-taken
  EXPECT_NE(Corpus.find("delete "), std::string::npos);
  EXPECT_NE(Corpus.find("free("), std::string::npos);
  EXPECT_NE(Corpus.find("volatile "), std::string::npos);
  EXPECT_NE(Corpus.find("sizeof("), std::string::npos);
  EXPECT_NE(Corpus.find("reinterpret_cast<"), std::string::npos);
  EXPECT_NE(Corpus.find("static_cast<"), std::string::npos); // downcasts
  EXPECT_NE(Corpus.find("::sum()"), std::string::npos); // qualified call
  EXPECT_NE(Corpus.find("new Payload"), std::string::npos);
}

TEST(FuzzGenerator, TogglesSuppressFeaturesWithoutBreakingPrograms) {
  fuzz::GeneratorOptions Opts;
  Opts.Unions = false;
  Opts.UnsafeCasts = false;
  Opts.Sizeof = false;
  Opts.PointerToMember = false;
  Opts.VolatileMembers = false;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    std::string Source = fuzz::ProgramGenerator(Seed, Opts).generate();
    EXPECT_EQ(Source.find("union "), std::string::npos);
    EXPECT_EQ(Source.find("reinterpret_cast<"), std::string::npos);
    EXPECT_EQ(Source.find("sizeof("), std::string::npos);
    EXPECT_EQ(Source.find("::*"), std::string::npos);
    EXPECT_EQ(Source.find("volatile "), std::string::npos);
    auto C = compileOK(Source);
    EXPECT_TRUE(runOK(*C).Completed);
  }
}

TEST(FuzzGenerator, GenerateIsIdempotent) {
  fuzz::ProgramGenerator Gen(11);
  std::string First = Gen.generate();
  // A second generate() on the same object re-seeds and reproduces.
  EXPECT_EQ(First, Gen.generate());
}

//===----------------------------------------------------------------------===//
// Oracles
//===----------------------------------------------------------------------===//

class FuzzOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzOracleSweep, CleanPipelinePassesAllOracles) {
  fuzz::ProgramGenerator Gen(static_cast<uint64_t>(GetParam()));
  fuzz::OracleOutcome Out = fuzz::runOracles(Gen.generate());
  EXPECT_TRUE(Out.Passed)
      << Out.FailedOracle << ": " << Out.Detail << "\nseed "
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzOracleSweep, ::testing::Range(1, 26));

TEST(FuzzOracles, RejectNonCompilingInput) {
  fuzz::OracleOutcome Out = fuzz::runOracles("int main( { return 0 }");
  EXPECT_FALSE(Out.Passed);
  EXPECT_EQ(Out.FailedOracle, "frontend");
}

TEST(FuzzOracles, InjectedEliminatorFaultIsCaughtAndShrunk) {
  // ISSUE 3 acceptance: a deliberately buggy eliminator (live member
  // stores dropped) must fail the differential-semantics oracle, and
  // the shrinker must boil the witness down to a tiny reproducer.
  fuzz::OracleConfig Config;
  Config.Fault.DropLiveMemberStores = true;
  Config.Invariance = false; // Isolate the semantics oracle.

  std::string Source = fuzz::ProgramGenerator(1).generate();
  fuzz::OracleOutcome Out = fuzz::runOracles(Source, Config);
  ASSERT_FALSE(Out.Passed);
  EXPECT_EQ(Out.FailedOracle, "semantics");

  fuzz::ShrinkStats Stats;
  std::string Reproducer = fuzz::shrinkProgram(
      Source,
      [&](const std::string &Candidate) {
        return fuzz::runOracles(Candidate, Config).FailedOracle ==
               "semantics";
      },
      /*MaxAttempts=*/4000, &Stats);

  EXPECT_LE(nonBlankLines(Reproducer), 25u)
      << "reproducer not minimal:\n" << Reproducer;
  EXPECT_LT(Stats.LinesAfter, Stats.LinesBefore);
  // The reproducer still witnesses the same failure...
  EXPECT_EQ(fuzz::runOracles(Reproducer, Config).FailedOracle,
            "semantics");
  // ...and the *correct* eliminator passes on it.
  EXPECT_TRUE(fuzz::runOracles(Reproducer).Passed);
}

TEST(FuzzOracles, InjectedExemptionFaultFailsSoundness) {
  // Interpreter-side fault: counting the pointer read that only feeds
  // delete/free breaks the two-sided deallocation exemption, so a
  // member that is dead per the paper's rule shows up in the dynamic
  // read set.
  const char *Source = R"(
    class Holder {
    public:
      int *buf;
      Holder() { buf = new int; }
      ~Holder() { delete buf; }
    };
    int main() {
      Holder h;
      print_int(1);
      return 0;
    }
  )";
  fuzz::OracleConfig Config;
  Config.CountDeallocationReads = true;
  Config.Semantics = false;
  Config.Invariance = false;
  fuzz::OracleOutcome Out = fuzz::runOracles(Source, Config);
  ASSERT_FALSE(Out.Passed);
  EXPECT_EQ(Out.FailedOracle, "soundness");
  EXPECT_NE(Out.Detail.find("Holder::buf"), std::string::npos)
      << Out.Detail;
  // Without the fault the same program is clean.
  EXPECT_TRUE(fuzz::runOracles(Source).Passed);
}

//===----------------------------------------------------------------------===//
// Shrinker
//===----------------------------------------------------------------------===//

TEST(FuzzShrinker, MinimizesToTheFailingLine) {
  std::string Doc;
  for (int I = 0; I < 40; ++I)
    Doc += "filler line " + std::to_string(I) + "\n";
  Doc += "NEEDLE\n";
  for (int I = 40; I < 80; ++I)
    Doc += "filler line " + std::to_string(I) + "\n";

  fuzz::ShrinkStats Stats;
  std::string Min = fuzz::shrinkProgram(
      Doc,
      [](const std::string &S) {
        return S.find("NEEDLE") != std::string::npos;
      },
      4000, &Stats);
  EXPECT_EQ(Min, "NEEDLE\n");
  EXPECT_EQ(Stats.LinesAfter, 1u);
  EXPECT_GT(Stats.Accepted, 0u);
}

TEST(FuzzShrinker, RespectsTheAttemptBudget) {
  std::string Doc;
  for (int I = 0; I < 64; ++I)
    Doc += "line " + std::to_string(I) + "\n";
  unsigned Calls = 0;
  fuzz::ShrinkStats Stats;
  fuzz::shrinkProgram(
      Doc,
      [&](const std::string &S) {
        ++Calls;
        return S.find("line 63") != std::string::npos;
      },
      /*MaxAttempts=*/10, &Stats);
  // The ddmin loop spends at most the budget; only the final
  // blank-line packing re-check may add one more evaluation.
  EXPECT_LE(Calls, 11u);
}

//===----------------------------------------------------------------------===//
// Eliminator fixpoint (ISSUE 3 satellite)
//===----------------------------------------------------------------------===//

class EliminatorFixpoint : public ::testing::TestWithParam<int> {};

TEST_P(EliminatorFixpoint, ReachesAFixedPointWithNoRemovableDeadLeft) {
  // Elimination can *create* dead members: an `RhsOnly` rewrite deletes
  // the read of member B inside `deadA = b;`. Re-analyzing and
  // re-eliminating must therefore converge — and at the fixed point the
  // eliminator finds nothing left to remove, while the program still
  // runs identically to the original.
  fuzz::ProgramGenerator Gen(static_cast<uint64_t>(GetParam()));
  std::string Source = Gen.generate();

  auto C0 = compileOK(Source);
  ExecResult Original = runOK(*C0);

  std::string Current = Source;
  std::set<std::string> LastRemoved;
  int Rounds = 0;
  for (; Rounds < 8; ++Rounds) {
    auto C = compileOK(Current);
    ASSERT_TRUE(C->Success) << "round " << Rounds
                            << " output does not compile:\n" << Current;
    DeadMemberAnalysis A(C->context(), C->hierarchy(), {});
    DeadMemberResult R = A.run(C->mainFunction());
    EliminationResult E =
        eliminateDeadMembers(C->context(), R, A.callGraph());
    if (E.Removed.empty())
      break;
    Current = E.Source;
  }
  ASSERT_LT(Rounds, 8) << "elimination did not converge";

  // At the fixed point: re-analysis agrees nothing removable remains,
  // and behaviour is still that of the original program.
  auto CF = compileOK(Current);
  DeadMemberAnalysis A(CF->context(), CF->hierarchy(), {});
  DeadMemberResult R = A.run(CF->mainFunction());
  EliminationResult E = eliminateDeadMembers(CF->context(), R,
                                             A.callGraph());
  EXPECT_TRUE(E.Removed.empty());
  for (const FieldDecl *F : R.deadMembers())
    EXPECT_TRUE(E.Kept.count(F))
        << F->qualifiedName()
        << " dead at the fixed point yet not marked kept";

  ExecResult Final = runOK(*CF);
  EXPECT_EQ(Final.Output, Original.Output);
  EXPECT_EQ(Final.ExitCode, Original.ExitCode);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EliminatorFixpoint,
                         ::testing::Range(1, 16));

//===----------------------------------------------------------------------===//
// Liveness-driven generation (ISSUE 8)
//===----------------------------------------------------------------------===//

TEST(FuzzSeedStability, BlindGenerationIsByteStableAcrossSeeds) {
  // The liveness-driven extension must not move a single byte of the
  // historical blind corpus: the default FeatureWeights equal the old
  // hard-coded literals, and every planning draw is gated behind
  // TargetDeadRatio >= 0. Fused hash over seeds 1..200; an intentional
  // generator change must update this constant (and re-vet the CI
  // smoke seeds with it).
  Hasher H;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed)
    H.str(fuzz::ProgramGenerator(Seed).generate());
  EXPECT_EQ(H.value(), 0x9f372c8d2e83ea17ULL);
}

TEST(FuzzSeedStability, ExplicitDefaultOptionsMatchImplicitDefaults) {
  fuzz::GeneratorOptions Explicit;
  Explicit.Weights = fuzz::FeatureWeights{};
  Explicit.TargetDeadRatio = -1.0;
  for (uint64_t Seed : {1, 7, 42, 199})
    EXPECT_EQ(fuzz::ProgramGenerator(Seed, Explicit).generate(),
              fuzz::ProgramGenerator(Seed).generate())
        << "seed " << Seed;
}

class LivenessTarget : public ::testing::TestWithParam<double> {};

TEST_P(LivenessTarget, AchievedDeadRatioTracksTheTarget) {
  // ISSUE 8 acceptance: requested dead ratios hit within +/-0.1. The
  // measured (static analysis) classification must also agree exactly
  // with the generator's plan, program by program — any drift means a
  // planned-dead member was resurrected or a planned-live one starved.
  const double Target = GetParam();
  fuzz::GeneratorOptions Opts;
  Opts.TargetDeadRatio = Target;
  double Sum = 0.0;
  unsigned N = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    fuzz::ProgramGenerator Gen(Seed, Opts);
    fuzz::ProgramMeasurement M = fuzz::measureProgram(Gen.generate());
    ASSERT_TRUE(M.Valid) << "seed " << Seed << ": " << M.Error;
    EXPECT_EQ(M.DeadMembers, Gen.plannedDeadMembers()) << "seed " << Seed;
    EXPECT_EQ(M.ClassifiableMembers, Gen.plannedTotalMembers())
        << "seed " << Seed;
    Sum += M.AchievedDeadRatio;
    ++N;
  }
  EXPECT_NEAR(Sum / N, Target, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Targets, LivenessTarget,
                         ::testing::Values(0.1, 0.5, 0.9));

TEST(LivenessKeepAlive, RareLivenessCausesSurviveLiveDrivenMode) {
  // The analysis records the *first* liveness cause it finds, and main
  // calls sum() before any address-taken / pointer-to-member / cast
  // site — so a planned-live member that is also read would always be
  // classified `read`. planKeepAlive() reserves members that are live
  // through their mechanism only; the rare causes must therefore stay
  // observable even when every member is planned live.
  fuzz::GeneratorOptions Opts;
  Opts.TargetDeadRatio = 0.0;
  std::set<std::string> Keys;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    fuzz::ProgramMeasurement M =
        fuzz::measureProgram(fuzz::ProgramGenerator(Seed, Opts).generate());
    ASSERT_TRUE(M.Valid) << "seed " << Seed << ": " << M.Error;
    Keys.insert(M.Keys.begin(), M.Keys.end());
  }
  EXPECT_TRUE(Keys.count("cause.read"));
  EXPECT_TRUE(Keys.count("cause.address_taken"));
  EXPECT_TRUE(Keys.count("cause.pointer_to_member"));
  EXPECT_TRUE(Keys.count("cause.unsafe_cast"));
  EXPECT_TRUE(Keys.count("cause.volatile_write"));
}

TEST(FuzzCoverage, RatioBucketsPartitionTheUnitInterval) {
  EXPECT_EQ(fuzz::ratioBucket(0.0), 0u);
  EXPECT_EQ(fuzz::ratioBucket(-0.5), 0u);
  EXPECT_EQ(fuzz::ratioBucket(1.0), fuzz::kRatioBuckets - 1);
  for (unsigned B = 0; B != fuzz::kRatioBuckets; ++B)
    EXPECT_EQ(fuzz::ratioBucket(fuzz::ratioBucketCenter(B)), B);
}

TEST(FuzzCoverage, MeasureProgramEmitsTheExpectedBoundaryKeys) {
  // Hand-built program with a known classification: K::used live by
  // read, K::unused dead, K::own dead via the deallocation exemption
  // (the differential ablation must light up), Payload::pv dead.
  const char *Source = R"(
    class Payload {
    public:
      int pv;
      Payload() { pv = 1; }
    };
    class K {
    public:
      int used;
      int unused;
      Payload *own;
      K() { used = 1; unused = 2; own = new Payload(); }
      ~K() { delete own; }
    };
    int main() {
      K k;
      print_int(k.used);
      return 0;
    }
  )";
  fuzz::ProgramMeasurement M = fuzz::measureProgram(Source);
  ASSERT_TRUE(M.Valid) << M.Error;
  EXPECT_EQ(M.ClassifiableMembers, 4u);
  EXPECT_EQ(M.DeadMembers, 3u);
  EXPECT_DOUBLE_EQ(M.AchievedDeadRatio, 0.75);

  std::set<std::string> Keys(M.Keys.begin(), M.Keys.end());
  EXPECT_TRUE(Keys.count("cause.read"));
  EXPECT_TRUE(Keys.count("dead_adjacent.read"));
  EXPECT_TRUE(Keys.count("boundary.dealloc_exemption"));
  EXPECT_TRUE(Keys.count("profiler.never_read"));
  EXPECT_TRUE(Keys.count("profiler.dead_space"));
  EXPECT_TRUE(Keys.count("elim.removed_members"));
  EXPECT_TRUE(
      Keys.count("ratio.b" + std::to_string(fuzz::ratioBucket(0.75))));
  // 0.75 is below the sparse regime: no .sparse variants.
  for (const std::string &K : Keys)
    EXPECT_EQ(K.find(".sparse"), std::string::npos) << K;
}

TEST(FuzzCoverage, SparseRegimeDoublesKeysAboveTheThreshold) {
  // Achieved ratio 6/7 ~ 0.857 >= 0.85: every non-ratio key gains a
  // .sparse twin. Blind generation tops out near 0.83 on the smoke
  // seeds, so this family is what the coverage-sweep unlocks.
  const char *Source = R"(
    class K {
    public:
      int a; int b; int c; int d; int e; int f;
      int used;
      K() { a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; used = 7; }
    };
    int main() {
      K k;
      print_int(k.used);
      return 0;
    }
  )";
  fuzz::ProgramMeasurement M = fuzz::measureProgram(Source);
  ASSERT_TRUE(M.Valid) << M.Error;
  EXPECT_GE(M.AchievedDeadRatio, 0.85);
  std::set<std::string> Keys(M.Keys.begin(), M.Keys.end());
  EXPECT_TRUE(Keys.count("cause.read"));
  EXPECT_TRUE(Keys.count("cause.read.sparse"));
  EXPECT_TRUE(Keys.count("dead_adjacent.read.sparse"));
  EXPECT_FALSE(Keys.count("ratio.b" +
                          std::to_string(fuzz::ratioBucket(6.0 / 7.0)) +
                          ".sparse"));
}

TEST(FuzzCoverage, InvalidProgramsComeBackInvalid) {
  fuzz::ProgramMeasurement M = fuzz::measureProgram("int main( {");
  EXPECT_FALSE(M.Valid);
  EXPECT_NE(M.Error.find("compile"), std::string::npos);
  EXPECT_TRUE(M.Keys.empty());
}

TEST(FuzzDistill, GreedySetCoverPicksByGainWithEarliestTieBreak) {
  std::vector<fuzz::DistillCandidate> C(5);
  C[0].Keys = {"a", "b"};
  C[1].Keys = {"a", "b", "c"}; // Strict superset of 0: picked first.
  C[2].Keys = {"d"};           // Redundant once 4 is in.
  C[3].Keys = {"a"};           // Adds nothing once 1 is in.
  C[4].Keys = {"d", "e"};      // Beats 2 (gain 2 vs 1).
  std::vector<size_t> Picks = fuzz::distillCorpus(C, 10);
  ASSERT_EQ(Picks.size(), 2u);
  EXPECT_EQ(Picks[0], 1u);
  EXPECT_EQ(Picks[1], 4u);
}

TEST(FuzzDistill, StopsWhenNothingAddsCoverageAndHonorsTheCap) {
  std::vector<fuzz::DistillCandidate> C(3);
  C[0].Keys = {"a", "b"};
  C[1].Keys = {"b"};
  C[2].Keys = {"c"};
  std::vector<size_t> All = fuzz::distillCorpus(C, 10);
  ASSERT_EQ(All.size(), 2u); // 1 is redundant.
  EXPECT_EQ(All[0], 0u);
  EXPECT_EQ(All[1], 2u);
  EXPECT_EQ(fuzz::distillCorpus(C, 1).size(), 1u);
  EXPECT_TRUE(fuzz::distillCorpus({}, 4).empty());
}

TEST(FuzzFeedback, SteeringPolaritySeparatesCoverage) {
  // ISSUE 8 satellite: on the same seed budget the inverted loop must
  // land measurably below neutral, and closed at or above it — proof
  // the feedback signal is live, not decorative.
  auto Run = [](fuzz::Steering Mode) {
    fuzz::FeedbackLoop Loop({}, Mode, /*FixedTarget=*/-1.0,
                            /*Sweep=*/true);
    unsigned InBatch = 0;
    for (uint64_t Seed = 1; Seed <= 120; ++Seed) {
      fuzz::ProgramGenerator Gen(Seed, Loop.batchOptions());
      Loop.observe(fuzz::measureProgram(Gen.generate()));
      if (++InBatch == 8) {
        Loop.endBatch();
        InBatch = 0;
      }
    }
    Loop.endBatch();
    return Loop;
  };
  fuzz::FeedbackLoop Closed = Run(fuzz::Steering::Closed);
  fuzz::FeedbackLoop Neutral = Run(fuzz::Steering::Neutral);
  fuzz::FeedbackLoop Inverted = Run(fuzz::Steering::Inverted);

  size_t NC = Closed.coverage().entries();
  size_t NN = Neutral.coverage().entries();
  size_t NI = Inverted.coverage().entries();
  EXPECT_LT(NI, NN) << "inverted " << NI << " vs neutral " << NN;
  EXPECT_GE(NC, NN) << "closed " << NC << " vs neutral " << NN;
  EXPECT_EQ(Closed.measuredPrograms(), 120u);
  EXPECT_FALSE(Closed.batches().empty());
}

TEST(FuzzFeedback, FixedTargetLoopConvergesOnTheRequest) {
  fuzz::FeedbackLoop Loop({}, fuzz::Steering::Closed,
                          /*FixedTarget=*/0.5, /*Sweep=*/false);
  unsigned InBatch = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    fuzz::ProgramGenerator Gen(Seed, Loop.batchOptions());
    Loop.observe(fuzz::measureProgram(Gen.generate()));
    if (++InBatch == 8) {
      Loop.endBatch();
      InBatch = 0;
    }
  }
  Loop.endBatch();
  EXPECT_NEAR(Loop.achievedMean(), 0.5, 0.1);
  EXPECT_LE(Loop.achievedMax(), 1.0);
  EXPECT_GE(Loop.achievedMin(), 0.0);
}

class LivenessOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(LivenessOracleSweep, LiveDrivenProgramsPassAllOracles) {
  // The planner's rewiring (retargeted address-taken/pointer-to-member
  // sites, suppressed reads, cast gating) must never produce a program
  // the five oracles reject.
  for (double Target : {0.0, 0.5, 0.9}) {
    fuzz::GeneratorOptions Opts;
    Opts.TargetDeadRatio = Target;
    fuzz::ProgramGenerator Gen(static_cast<uint64_t>(GetParam()), Opts);
    fuzz::OracleOutcome Out = fuzz::runOracles(Gen.generate());
    EXPECT_TRUE(Out.Passed)
        << Out.FailedOracle << ": " << Out.Detail << "\nseed "
        << GetParam() << " target " << Target;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LivenessOracleSweep,
                         ::testing::Range(1, 9));

} // namespace
