//===-- bench/BenchStats.h - Whole-run stats for gbench mains ---*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `--stats-json=FILE` support for the google-benchmark harnesses: a
/// whole-run telemetry registry that each benchmark folds its local
/// registry into, written as a dmm-stats document (telemetry/Stats.h)
/// after the run. scripts/run_bench.sh composes `BENCH_<label>.json`
/// from this file plus google-benchmark's own JSON output.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_BENCH_BENCHSTATS_H
#define DMM_BENCH_BENCHSTATS_H

#include "telemetry/Stats.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace dmm {
namespace bench {

/// The whole-run registry `--stats-json` accumulates into. Stays empty
/// unless stripStatsJsonArg() saw the flag.
inline Telemetry &benchStatsRegistry() {
  static Telemetry Tel;
  return Tel;
}

inline bool &benchStatsEnabledFlag() {
  static bool Enabled = false;
  return Enabled;
}

/// Removes `--stats-json=FILE` from argv before benchmark::Initialize
/// sees (and rejects) it. Returns the file name, empty when absent.
inline std::string stripStatsJsonArg(int &Argc, char **Argv) {
  static const char Prefix[] = "--stats-json=";
  const size_t PrefixLen = sizeof(Prefix) - 1;
  std::string File;
  int Out = 1;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], Prefix, PrefixLen) == 0)
      File = Argv[I] + PrefixLen;
    else
      Argv[Out++] = Argv[I];
  }
  Argv[Out] = nullptr;
  Argc = Out;
  if (!File.empty()) {
    benchStatsEnabledFlag() = true;
    // Benchmarks repeat each span thousands of times; bound the record
    // buffer so the stats file stays a committable size. Phase/counter
    // aggregates keep accumulating past the limit (the drop is
    // reported in the telemetry.spans_dropped counter).
    benchStatsRegistry().setSpanLimit(512);
  }
  return File;
}

/// Folds one benchmark's local registry into the whole-run registry.
/// No-op unless `--stats-json` was given.
inline void foldBenchStats(const Telemetry &Tel) {
  if (benchStatsEnabledFlag())
    benchStatsRegistry().merge(Tel);
}

/// Writes the accumulated dmm-stats document to \p File. Returns false
/// (after printing an error) when the file cannot be written; true when
/// it was written or \p File is empty.
inline bool writeBenchStats(const std::string &File, const char *Suite) {
  if (File.empty())
    return true;
  stats::StatsDocument D = stats::buildStats(benchStatsRegistry(), Suite);
  std::ofstream OS(File, std::ios::binary | std::ios::trunc);
  if (!OS) {
    std::fprintf(stderr, "error: cannot write stats file '%s'\n",
                 File.c_str());
    return false;
  }
  stats::printStats(D, OS);
  OS.flush();
  if (!OS) {
    std::fprintf(stderr, "error: failed writing stats file '%s'\n",
                 File.c_str());
    return false;
  }
  return true;
}

} // namespace bench
} // namespace dmm

#endif // DMM_BENCH_BENCHSTATS_H
