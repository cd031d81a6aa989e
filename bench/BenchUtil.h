//===-- bench/BenchUtil.h - Shared benchmark-harness helpers ----*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the full measurement pipeline (compile -> analyze -> execute ->
/// trace metrics) over the eleven-benchmark suite, for the table/figure
/// generators in this directory.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_BENCH_BENCHUTIL_H
#define DMM_BENCH_BENCHUTIL_H

#include "analysis/DeadMemberAnalysis.h"
#include "analysis/ProgramStats.h"
#include "benchgen/Synthesizer.h"
#include "driver/Frontend.h"
#include "interp/Interpreter.h"
#include "telemetry/Telemetry.h"
#include "trace/DynamicMetrics.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace dmm {
namespace bench {

/// Everything measured for one benchmark program.
struct BenchmarkRun {
  BenchmarkSpec Spec;
  std::unique_ptr<Compilation> Comp;
  DeadMemberResult Analysis;
  ProgramStats Stats;
  DynamicMetrics Dynamic;
  bool ExecutedOK = false;
};

/// Compiles, analyzes, and executes every benchmark of the suite, in
/// suite order. Exits with an error message if any program fails to
/// compile or run (the harness must never silently report partial
/// results).
inline std::vector<BenchmarkRun> runSuite(double Scale = 1.0,
                                          AnalysisOptions Options = {}) {
  std::vector<BenchmarkRun> Runs;
  for (GeneratedBenchmark &G : paperBenchmarkPrograms(Scale)) {
    BenchmarkRun Run;
    Run.Spec = G.Spec;
    auto Fail = [&](const std::string &Error) {
      std::fprintf(stderr, "error: benchmark '%s' %s\n",
                   Run.Spec.Name.c_str(), Error.c_str());
      std::exit(1);
    };
    Run.Comp = compileProgram(G.Files, nullptr);
    if (!Run.Comp->Success)
      Fail("failed to compile");
    DeadMemberAnalysis A(Run.Comp->context(), Run.Comp->hierarchy(),
                         Options);
    Run.Analysis = A.run(Run.Comp->mainFunction());
    Run.Stats = computeProgramStats(Run.Comp->context(), Run.Analysis,
                                    &Run.Comp->SM, Run.Comp->UserFileIDs);

    AllocationTrace Trace;
    InterpOptions IO;
    IO.Trace = &Trace;
    Interpreter Interp(Run.Comp->context(), Run.Comp->hierarchy(), IO);
    ExecResult E = Interp.run(Run.Comp->mainFunction());
    if (!E.Completed)
      Fail("failed to run: " + E.Error);
    Run.ExecutedOK = true;
    LayoutEngine Layout(Run.Comp->hierarchy());
    Run.Dynamic = computeDynamicMetrics(Trace, Layout,
                                        Run.Analysis.deadSet());
    Runs.push_back(std::move(Run));
  }
  return Runs;
}

inline void printRule(unsigned Width) {
  for (unsigned I = 0; I != Width; ++I)
    std::putchar('-');
  std::putchar('\n');
}

} // namespace bench
} // namespace dmm

#endif // DMM_BENCH_BENCHUTIL_H
