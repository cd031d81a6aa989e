//===-- fuzz/FuzzMain.cpp - The dmm-fuzz differential fuzzer --------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `dmm-fuzz`: generate deterministic random MiniC++ programs and push
/// each through the semantics/soundness/invariance/profiler/engine
/// oracles (fuzz/Oracles.h). On a failure, a delta-debugging shrinker
/// minimizes the program while the same oracle keeps failing, and a
/// self-contained reproducer (.mcc) plus a JSON failure record land in
/// the artifacts directory. Exit status: 0 when every seed passed, 1
/// otherwise.
///
/// See docs/TESTING.md for the artifacts layout, replay workflow, and
/// the fault-injection self-validation modes.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Coverage.h"
#include "fuzz/Feedback.h"
#include "fuzz/Oracles.h"
#include "fuzz/ProgramGenerator.h"
#include "fuzz/Shrinker.h"

#include "driver/Frontend.h"
#include "telemetry/CrashHandler.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Json.h"
#include "telemetry/Log.h"
#include "telemetry/Stats.h"
#include "telemetry/Telemetry.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace dmm;
using namespace dmm::fuzz;

namespace {

struct FuzzOptions {
  uint64_t SeedBegin = 1;
  uint64_t SeedEnd = 100; ///< Inclusive.
  OracleConfig Oracles;
  std::string OracleName = "all";
  bool OracleExplicit = false; ///< --oracle given (beats replay records).
  bool FaultExplicit = false;  ///< --inject-fault given.
  std::string ArtifactsDir = "fuzz-artifacts";
  std::string ReplayFile; ///< Run oracles on a file instead.
  bool Shrink = true;
  unsigned MaxShrinkAttempts = 4000;
  bool Metrics = false;
  bool Verbose = false;
  std::optional<LogLevel> LogLevelFlag; ///< --log-level.
  std::string LogJsonFile;              ///< --log-json.

  /// \name Liveness-driven generation (docs/TESTING.md)
  /// @{
  double TargetDeadRatio = -1.0; ///< --target-dead-ratio; negative=off.
  bool CoverageSweep = false;    ///< --coverage-sweep.
  Steering Steer = Steering::Closed;
  unsigned BatchSize = 20;     ///< --batch.
  std::string CoverageJson;    ///< --coverage-json report path.
  std::string DistillDir;      ///< --distill output directory.
  unsigned DistillMax = 16;    ///< --distill-max.
  /// @}

  /// Any flag that needs per-program measurement.
  bool coverageActive() const {
    return TargetDeadRatio >= 0 || CoverageSweep ||
           !CoverageJson.empty() || !DistillDir.empty();
  }
};

/// Applies an --oracle selection ("all", "none", or one family) to the
/// config; false on an unknown name.
bool applyOracleSelection(const std::string &Kind, FuzzOptions &Opts) {
  Opts.OracleName = Kind;
  Opts.Oracles.Semantics = Kind == "all" || Kind == "semantics";
  Opts.Oracles.Soundness = Kind == "all" || Kind == "soundness";
  Opts.Oracles.Invariance = Kind == "all" || Kind == "invariance";
  Opts.Oracles.Profiler = Kind == "all" || Kind == "profiler";
  Opts.Oracles.Engine = Kind == "all" || Kind == "engine";
  if (Kind == "none")
    return true;
  return Opts.Oracles.Semantics || Opts.Oracles.Soundness ||
         Opts.Oracles.Invariance || Opts.Oracles.Profiler ||
         Opts.Oracles.Engine;
}

int usage() {
  std::cerr
      << "usage: dmm-fuzz [options]\n"
         "\n"
         "Differential fuzzing for the dead-member pipeline: random\n"
         "MiniC++ programs are run through five oracles (differential\n"
         "semantics of the eliminated program, dynamic soundness of the\n"
         "analysis, monotonicity in call-graph precision, shadow-\n"
         "profiler agreement with the trace replay, and bytecode-VM\n"
         "equivalence with the tree-walking interpreter). Failures are\n"
         "shrunk to minimal reproducers. Everything is deterministic in\n"
         "the seed.\n"
         "\n"
         "options:\n"
         "  --seeds <N>|<A>..<B>     seed range, inclusive (default "
         "1..100)\n"
         "  --oracle <all|none|semantics|soundness|invariance"
         "|profiler|engine>\n"
         "                           which oracle family to run "
         "(default all)\n"
         "  --artifacts <dir>        where reproducers and JSON failure\n"
         "                           records go (default fuzz-artifacts;\n"
         "                           created on first failure)\n"
         "  --replay <file>          run the oracles on a program file\n"
         "                           (e.g. a shrunk reproducer), or on a\n"
         "                           .json failure record — the record's\n"
         "                           oracle selection and injected\n"
         "                           faults are restored unless given\n"
         "                           explicitly on the command line\n"
         "  --target-dead-ratio=<r>  liveness-driven generation: plan\n"
         "                           programs whose dead-member ratio\n"
         "                           lands on r in [0,1]\n"
         "  --coverage-sweep         feedback-driven exploration of\n"
         "                           ratio buckets and feature weights\n"
         "  --steering=<closed|neutral|inverted>\n"
         "                           feedback polarity (default closed;\n"
         "                           neutral/inverted validate the loop)\n"
         "  --batch=<N>              programs per feedback batch "
         "(default 20)\n"
         "  --coverage-json=<file>   write the boundary-coverage report\n"
         "  --distill=<dir>          greedily select a minimal seed set\n"
         "                           maximizing boundary coverage and\n"
         "                           write it as a corpus into <dir>\n"
         "  --distill-max=<N>        distilled corpus size cap "
         "(default 16)\n"
         "  --no-shrink              keep failing programs unminimized\n"
         "  --max-shrink-attempts=<N>  shrinker predicate budget "
         "(default 4000)\n"
         "  --inject-fault=<drop-live-stores|count-dealloc-reads"
         "|vm-miscompile>\n"
         "                           deliberately break the eliminator /\n"
         "                           the read exemption / the bytecode\n"
         "                           compiler to validate that the\n"
         "                           oracles catch it\n"
         "  --metrics                print the fuzz counter table at "
         "exit\n"
         "  --verbose                log every seed, not just failures\n"
         "  --log-level=<error|warn|info|debug|trace>\n"
         "                           structured-log verbosity (default\n"
         "                           warn; DMM_LOG_LEVEL also works)\n"
         "  --log-json=<file>        also write log events as JSONL\n";
  return 2;
}

bool parseSeeds(const std::string &Value, FuzzOptions &Opts) {
  size_t Dots = Value.find("..");
  char *End = nullptr;
  if (Dots == std::string::npos) {
    unsigned long long N = std::strtoull(Value.c_str(), &End, 10);
    if (Value.empty() || *End || N == 0)
      return false;
    Opts.SeedBegin = 1;
    Opts.SeedEnd = N;
    return true;
  }
  std::string A = Value.substr(0, Dots), B = Value.substr(Dots + 2);
  unsigned long long Begin = std::strtoull(A.c_str(), &End, 10);
  if (A.empty() || *End)
    return false;
  unsigned long long Last = std::strtoull(B.c_str(), &End, 10);
  if (B.empty() || *End || Last < Begin)
    return false;
  Opts.SeedBegin = Begin;
  Opts.SeedEnd = Last;
  return true;
}

bool parseArgs(int Argc, char **Argv, FuzzOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto needValue = [&](const char *Flag) -> const char * {
      if (++I >= Argc) {
        std::cerr << "error: " << Flag << " requires a value\n";
        return nullptr;
      }
      return Argv[I];
    };
    if (Arg == "--seeds") {
      const char *V = needValue("--seeds");
      if (!V || !parseSeeds(V, Opts)) {
        std::cerr << "error: --seeds expects <N> or <A>..<B> with "
                     "positive integers\n";
        return false;
      }
    } else if (Arg == "--oracle") {
      const char *V = needValue("--oracle");
      if (!V)
        return false;
      if (!applyOracleSelection(V, Opts)) {
        std::cerr << "error: invalid --oracle value '" << V
                  << "' (valid choices: all, none, semantics, soundness, "
                     "invariance, profiler, engine)\n";
        return false;
      }
      Opts.OracleExplicit = true;
    } else if (Arg == "--artifacts") {
      const char *V = needValue("--artifacts");
      if (!V)
        return false;
      Opts.ArtifactsDir = V;
    } else if (Arg == "--replay") {
      const char *V = needValue("--replay");
      if (!V)
        return false;
      Opts.ReplayFile = V;
    } else if (Arg == "--no-shrink") {
      Opts.Shrink = false;
    } else if (Arg.rfind("--max-shrink-attempts=", 0) == 0) {
      std::string V = Arg.substr(22);
      char *End = nullptr;
      unsigned long N = std::strtoul(V.c_str(), &End, 10);
      if (V.empty() || *End || N == 0) {
        std::cerr << "error: --max-shrink-attempts expects a positive "
                     "integer\n";
        return false;
      }
      Opts.MaxShrinkAttempts = static_cast<unsigned>(N);
    } else if (Arg.rfind("--inject-fault=", 0) == 0) {
      std::string Fault = Arg.substr(15);
      Opts.FaultExplicit = true;
      if (Fault == "drop-live-stores")
        Opts.Oracles.Fault.DropLiveMemberStores = true;
      else if (Fault == "count-dealloc-reads")
        Opts.Oracles.CountDeallocationReads = true;
      else if (Fault == "vm-miscompile")
        Opts.Oracles.VmMiscompile = true;
      else {
        std::cerr << "error: invalid --inject-fault value '" << Fault
                  << "' (valid choices: drop-live-stores, "
                     "count-dealloc-reads, vm-miscompile)\n";
        return false;
      }
    } else if (Arg.rfind("--target-dead-ratio=", 0) == 0) {
      std::string V = Arg.substr(20);
      char *End = nullptr;
      double R = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || R < 0.0 || R > 1.0) {
        std::cerr << "error: --target-dead-ratio expects a number in "
                     "[0,1], got '"
                  << V << "'\n";
        return false;
      }
      Opts.TargetDeadRatio = R;
    } else if (Arg == "--coverage-sweep") {
      Opts.CoverageSweep = true;
    } else if (Arg.rfind("--steering=", 0) == 0) {
      std::string V = Arg.substr(11);
      if (!parseSteering(V, Opts.Steer)) {
        std::cerr << "error: invalid --steering value '" << V
                  << "' (valid choices: closed, neutral, inverted)\n";
        return false;
      }
    } else if (Arg.rfind("--batch=", 0) == 0) {
      std::string V = Arg.substr(8);
      char *End = nullptr;
      unsigned long N = std::strtoul(V.c_str(), &End, 10);
      if (V.empty() || *End || N == 0) {
        std::cerr << "error: --batch expects a positive integer\n";
        return false;
      }
      Opts.BatchSize = static_cast<unsigned>(N);
    } else if (Arg.rfind("--coverage-json=", 0) == 0) {
      Opts.CoverageJson = Arg.substr(16);
      if (Opts.CoverageJson.empty()) {
        std::cerr << "error: --coverage-json expects a file path\n";
        return false;
      }
    } else if (Arg.rfind("--distill=", 0) == 0) {
      Opts.DistillDir = Arg.substr(10);
      if (Opts.DistillDir.empty()) {
        std::cerr << "error: --distill expects a directory path\n";
        return false;
      }
    } else if (Arg.rfind("--distill-max=", 0) == 0) {
      std::string V = Arg.substr(14);
      char *End = nullptr;
      unsigned long N = std::strtoul(V.c_str(), &End, 10);
      if (V.empty() || *End || N == 0) {
        std::cerr << "error: --distill-max expects a positive integer\n";
        return false;
      }
      Opts.DistillMax = static_cast<unsigned>(N);
    } else if (Arg == "--metrics") {
      Opts.Metrics = true;
    } else if (Arg == "--verbose") {
      Opts.Verbose = true;
    } else if (Arg.rfind("--log-level=", 0) == 0) {
      std::string V = Arg.substr(12);
      LogLevel L;
      if (!parseLogLevel(V, L)) {
        std::cerr << "error: invalid --log-level value '" << V
                  << "' (valid choices: error, warn, info, debug, "
                     "trace)\n";
        return false;
      }
      Opts.LogLevelFlag = L;
    } else if (Arg.rfind("--log-json=", 0) == 0) {
      Opts.LogJsonFile = Arg.substr(11);
      if (Opts.LogJsonFile.empty()) {
        std::cerr << "error: --log-json expects a file path\n";
        return false;
      }
    } else {
      std::cerr << "error: unknown option '" << Arg << "'\n";
      return false;
    }
  }
  if (Opts.TargetDeadRatio >= 0 && Opts.CoverageSweep) {
    std::cerr << "error: --target-dead-ratio and --coverage-sweep are "
                 "mutually exclusive (a sweep picks its own targets)\n";
    return false;
  }
  return true;
}

/// One failure's on-disk record set.
struct FailureArtifacts {
  std::string Stem; ///< e.g. "fuzz-artifacts/seed000017"
};

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  if (!Out) {
    logError("cannot write output file", {kv("path", Path)});
    return false;
  }
  Out << Text;
  return true;
}

std::optional<FailureArtifacts>
writeArtifacts(const FuzzOptions &Opts, const std::string &Stem,
               uint64_t Seed, double TargetDeadRatio,
               const std::string &Original, const std::string &Reproducer,
               const OracleOutcome &Outcome, const ShrinkStats &Shrink) {
  std::error_code EC;
  std::filesystem::create_directories(Opts.ArtifactsDir, EC);
  if (EC) {
    logError("cannot create artifacts directory",
             {kv("dir", Opts.ArtifactsDir), kv("error", EC.message())});
    return std::nullopt;
  }
  FailureArtifacts Art;
  Art.Stem = Opts.ArtifactsDir + "/" + Stem;

  if (!writeFile(Art.Stem + ".original.mcc", Original) ||
      !writeFile(Art.Stem + ".reproducer.mcc", Reproducer))
    return std::nullopt;

  // Schema 2: the record names its reproducer and the replay command
  // targets the record itself, so `--replay <record>.json` restores the
  // oracle selection and injected faults the failure was produced
  // under (replaying a record from a fault-injection run under default
  // toggles used to report a spurious pass).
  std::ostringstream J;
  J << "{\n"
    << "  \"schema\": 2,\n"
    << "  \"seed\": " << Seed << ",\n"
    << "  \"oracle\": ";
  json::writeString(J, Outcome.FailedOracle);
  J << ",\n  \"detail\": ";
  json::writeString(J, Outcome.Detail);
  J << ",\n  \"oracle_selection\": ";
  json::writeString(J, Opts.OracleName);
  J << ",\n"
    << "  \"injected_faults\": {\"drop_live_stores\": "
    << (Opts.Oracles.Fault.DropLiveMemberStores ? "true" : "false")
    << ", \"count_dealloc_reads\": "
    << (Opts.Oracles.CountDeallocationReads ? "true" : "false")
    << ", \"vm_miscompile\": "
    << (Opts.Oracles.VmMiscompile ? "true" : "false") << "},\n"
    << "  \"generator\": {\"target_dead_ratio\": " << TargetDeadRatio
    << "},\n"
    << "  \"reproducer\": ";
  json::writeString(J, Art.Stem + ".reproducer.mcc");
  J << ",\n"
    << "  \"shrink\": {\"lines_before\": " << Shrink.LinesBefore
    << ", \"lines_after\": " << Shrink.LinesAfter
    << ", \"attempts\": " << Shrink.Attempts
    << ", \"accepted\": " << Shrink.Accepted << "},\n"
    << "  \"replay\": ";
  json::writeString(J, "dmm-fuzz --replay " + Art.Stem + ".json");
  J << "\n}\n";
  if (!writeFile(Art.Stem + ".json", J.str()))
    return std::nullopt;
  return Art;
}

/// Runs one program through the oracles; on failure, shrinks and
/// records. Returns true when the program passed.
/// \p Label is the human-readable progress prefix; \p Stem names the
/// artifact files (filesystem-safe, no separators).
bool checkProgram(const FuzzOptions &Opts, const std::string &Label,
                  const std::string &Stem, uint64_t Seed,
                  double TargetDeadRatio, const std::string &Source) {
  Telemetry::count("fuzz.iterations");
  OracleOutcome Outcome = runOracles(Source, Opts.Oracles);
  if (Outcome.Passed) {
    if (Opts.Verbose)
      std::cout << Label << ": ok\n";
    return true;
  }

  std::string Reproducer = Source;
  ShrinkStats Shrink;
  if (Opts.Shrink) {
    const std::string FailedKind = Outcome.FailedOracle;
    Reproducer = shrinkProgram(
        Source,
        [&](const std::string &Candidate) {
          return runOracles(Candidate, Opts.Oracles).FailedOracle ==
                 FailedKind;
        },
        Opts.MaxShrinkAttempts, &Shrink);
  }

  auto Art = writeArtifacts(Opts, Stem, Seed, TargetDeadRatio, Source,
                            Reproducer, Outcome, Shrink);
  std::cout << Label << ": FAIL " << Outcome.FailedOracle << " — "
            << Outcome.Detail;
  if (Opts.Shrink)
    std::cout << " (shrunk " << Shrink.LinesBefore << " -> "
              << Shrink.LinesAfter << " lines in " << Shrink.Attempts
              << " attempts)";
  if (Art)
    std::cout << "\n  artifacts: " << Art->Stem << ".{reproducer.mcc,"
              << "original.mcc,json}";
  std::cout << "\n";
  return false;
}

/// Loads a .json failure record for --replay: restores the recorded
/// oracle selection and injected faults (unless the user overrode them
/// on the command line) and redirects the replay to the recorded
/// reproducer program. Returns false on a malformed record.
bool loadReplayRecord(FuzzOptions &Opts) {
  std::ifstream In(Opts.ReplayFile);
  if (!In) {
    logError("cannot open replay file", {kv("path", Opts.ReplayFile)});
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  json::Value Record;
  std::string Error;
  if (!json::parse(SS.str(), Record, Error) || !Record.isObject()) {
    logError("replay file is not a valid failure record",
             {kv("path", Opts.ReplayFile), kv("error", Error)});
    return false;
  }

  if (!Opts.OracleExplicit) {
    std::string Selection = Record.getString("oracle_selection", "all");
    if (!applyOracleSelection(Selection, Opts)) {
      logError("replay record carries unknown oracle selection",
               {kv("selection", Selection)});
      return false;
    }
  }
  if (!Opts.FaultExplicit) {
    if (const json::Value *Faults = Record.get("injected_faults")) {
      auto FaultOn = [&](const char *Key) {
        const json::Value *V = Faults->get(Key);
        return V && V->isBool() && V->boolean();
      };
      Opts.Oracles.Fault.DropLiveMemberStores = FaultOn("drop_live_stores");
      Opts.Oracles.CountDeallocationReads = FaultOn("count_dealloc_reads");
      Opts.Oracles.VmMiscompile = FaultOn("vm_miscompile");
    }
  }

  // Schema 2 records name their reproducer; older records sit next to
  // it by the artifact naming convention.
  std::string Reproducer = Record.getString("reproducer");
  if (Reproducer.empty())
    Reproducer =
        Opts.ReplayFile.substr(0, Opts.ReplayFile.size() - 5) +
        ".reproducer.mcc";
  std::cout << "replaying record " << Opts.ReplayFile << " (oracle: "
            << Opts.OracleName << ", faults:"
            << (Opts.Oracles.Fault.DropLiveMemberStores
                    ? " drop-live-stores"
                    : "")
            << (Opts.Oracles.CountDeallocationReads ? " count-dealloc-reads"
                                                    : "")
            << (Opts.Oracles.VmMiscompile ? " vm-miscompile" : "")
            << ((Opts.Oracles.Fault.DropLiveMemberStores ||
                 Opts.Oracles.CountDeallocationReads ||
                 Opts.Oracles.VmMiscompile)
                    ? ""
                    : " none")
            << ")\n";
  Opts.ReplayFile = Reproducer;
  return true;
}

std::string formatRatio(double R) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4f", R);
  return Buf;
}

/// Writes the --coverage-json report.
bool writeCoverageJson(const FuzzOptions &Opts, const FeedbackLoop &Loop,
                       uint64_t Total) {
  std::ostringstream J;
  J << "{\n"
    << "  \"schema\": 1,\n"
    << "  \"programs\": " << Total << ",\n"
    << "  \"measured\": " << Loop.measuredPrograms() << ",\n"
    << "  \"mode\": \""
    << (Opts.CoverageSweep
            ? "sweep"
            : (Opts.TargetDeadRatio >= 0 ? "ratio" : "blind"))
    << "\",\n"
    << "  \"steering\": \"" << steeringName(Opts.Steer) << "\",\n"
    << "  \"target_dead_ratio\": ";
  if (Opts.TargetDeadRatio >= 0)
    J << formatRatio(Opts.TargetDeadRatio);
  else
    J << "null";
  J << ",\n"
    << "  \"achieved_dead_ratio\": {\"mean\": "
    << formatRatio(Loop.achievedMean())
    << ", \"min\": " << formatRatio(Loop.achievedMin())
    << ", \"max\": " << formatRatio(Loop.achievedMax()) << "},\n"
    << "  \"coverage_entries\": " << Loop.coverage().entries() << ",\n"
    << "  \"coverage\": {";
  bool First = true;
  for (const auto &[Key, N] : Loop.coverage().keys()) {
    J << (First ? "\n" : ",\n") << "    ";
    json::writeString(J, Key);
    J << ": " << N;
    First = false;
  }
  J << "\n  },\n"
    << "  \"batches\": [";
  First = true;
  for (const BatchRecord &B : Loop.batches()) {
    J << (First ? "\n" : ",\n") << "    {\"target\": "
      << (B.Target >= 0 ? formatRatio(B.Target) : std::string("null"))
      << ", \"achieved_mean\": " << formatRatio(B.AchievedMean)
      << ", \"programs\": " << B.Programs
      << ", \"new_entries\": " << B.NewEntries << "}";
    First = false;
  }
  J << "\n  ]\n}\n";
  return writeFile(Opts.CoverageJson, J.str());
}

/// Runs the greedy distiller and writes the corpus + manifest.
bool writeDistilledCorpus(const FuzzOptions &Opts,
                          const std::vector<DistillCandidate> &Candidates) {
  std::vector<size_t> Picks = distillCorpus(Candidates, Opts.DistillMax);
  std::error_code EC;
  std::filesystem::create_directories(Opts.DistillDir, EC);
  if (EC) {
    logError("cannot create distill directory",
             {kv("dir", Opts.DistillDir), kv("error", EC.message())});
    return false;
  }

  CoverageMap Covered;
  std::ostringstream Manifest;
  Manifest << "{\n  \"schema\": 1,\n  \"programs\": [";
  for (size_t P = 0; P != Picks.size(); ++P) {
    const DistillCandidate &C = Candidates[Picks[P]];
    char Name[64];
    std::snprintf(Name, sizeof(Name), "fz%02u_seed%llu.mcc",
                  static_cast<unsigned>(P),
                  static_cast<unsigned long long>(C.Seed));
    if (!writeFile(Opts.DistillDir + "/" + Name, C.Source))
      return false;
    Manifest << (P ? ",\n" : "\n") << "    {\"file\": \"" << Name
             << "\", \"seed\": " << C.Seed << ", \"target_dead_ratio\": "
             << (C.TargetDeadRatio >= 0 ? formatRatio(C.TargetDeadRatio)
                                        : std::string("null"))
             << ", \"achieved_dead_ratio\": "
             << formatRatio(C.AchievedDeadRatio) << ", \"keys\": [";
    for (size_t K = 0; K != C.Keys.size(); ++K) {
      Manifest << (K ? ", " : "");
      json::writeString(Manifest, C.Keys[K]);
      Covered.add(C.Keys[K]);
    }
    Manifest << "]}";
  }
  Manifest << "\n  ],\n  \"coverage_entries\": " << Covered.entries()
           << "\n}\n";
  if (!writeFile(Opts.DistillDir + "/manifest.json", Manifest.str()))
    return false;
  std::cout << "distilled: " << Picks.size() << " programs -> "
            << Opts.DistillDir << " (" << Covered.entries()
            << " coverage entries)\n";
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  installCrashHandler(Argc, Argv, "dmm-fuzz", kToolVersion);
  FlightRecorder::install();

  FuzzOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage();

  if (Opts.LogLevelFlag)
    Logger::instance().setLevel(*Opts.LogLevelFlag);
  if (!Opts.LogJsonFile.empty()) {
    std::string Error;
    if (!Logger::instance().openJsonSink(Opts.LogJsonFile, Error)) {
      std::cerr << "error: cannot open --log-json file '"
                << Opts.LogJsonFile << "': " << Error << "\n";
      return 2;
    }
  }

  const char *MetricsEnv = std::getenv("DMM_METRICS");
  bool MetricsToStderr = MetricsEnv && *MetricsEnv &&
                         std::strcmp(MetricsEnv, "0") != 0 && !Opts.Metrics;
  Telemetry Tel;
  std::optional<TelemetryScope> TelScope;
  if (Opts.Metrics || MetricsToStderr)
    TelScope.emplace(Tel);

  uint64_t Failures = 0, Total = 0;
  FeedbackLoop Loop(GeneratorOptions{}, Opts.Steer, Opts.TargetDeadRatio,
                    Opts.CoverageSweep);
  std::vector<DistillCandidate> Candidates;
  {
    Span Timer("fuzz");
    if (!Opts.ReplayFile.empty()) {
      // A .json replay target is a failure record: restore its recorded
      // oracle selection and injected faults, then replay its
      // reproducer.
      if (Opts.ReplayFile.size() > 5 &&
          Opts.ReplayFile.rfind(".json") == Opts.ReplayFile.size() - 5 &&
          !loadReplayRecord(Opts))
        return 2;
      std::ifstream In(Opts.ReplayFile);
      if (!In) {
        logError("cannot open replay file", {kv("path", Opts.ReplayFile)});
        return 2;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      Total = 1;
      if (!checkProgram(Opts, "replay " + Opts.ReplayFile, "replay", 0,
                        /*TargetDeadRatio=*/-1.0, SS.str()))
        ++Failures;
    } else {
      const bool RunOracles = Opts.OracleName != "none";
      unsigned InBatch = 0;
      for (uint64_t Seed = Opts.SeedBegin; Seed <= Opts.SeedEnd; ++Seed) {
        ++Total;
        const GeneratorOptions &GenOpts =
            Opts.coverageActive() ? Loop.batchOptions() : GeneratorOptions{};
        double Target = GenOpts.TargetDeadRatio;
        ProgramGenerator Gen(Seed, GenOpts);
        std::string Source = Gen.generate();
        char Label[32];
        std::snprintf(Label, sizeof(Label), "seed%06llu",
                      static_cast<unsigned long long>(Seed));
        if (RunOracles &&
            !checkProgram(Opts, Label, Label, Seed, Target, Source))
          ++Failures;
        if (Opts.coverageActive()) {
          ProgramMeasurement M = measureProgram(Source);
          if (!M.Valid && Opts.Verbose)
            std::cout << Label << ": unmeasured (" << M.Error << ")\n";
          Loop.observe(M);
          if (M.Valid && !Opts.DistillDir.empty()) {
            DistillCandidate C;
            C.Seed = Seed;
            C.TargetDeadRatio = Target;
            C.Source = std::move(Source);
            C.AchievedDeadRatio = M.AchievedDeadRatio;
            C.Keys = std::move(M.Keys);
            Candidates.push_back(std::move(C));
          }
          if (++InBatch == Opts.BatchSize) {
            Loop.endBatch();
            InBatch = 0;
          }
        }
      }
      Loop.endBatch();
    }
  }

  std::cout << "dmm-fuzz: " << Total
            << (Total == 1 ? " program, " : " programs, ") << Failures
            << (Failures == 1 ? " failure" : " failures") << " (oracle: "
            << Opts.OracleName << ")\n";
  if (Opts.coverageActive() && Opts.ReplayFile.empty()) {
    std::cout << "coverage: " << Loop.coverage().entries()
              << " boundary entries over " << Loop.measuredPrograms()
              << " measured programs (steering: "
              << steeringName(Opts.Steer) << ")\n";
    std::cout << "achieved dead ratio: mean "
              << formatRatio(Loop.achievedMean()) << ", min "
              << formatRatio(Loop.achievedMin()) << ", max "
              << formatRatio(Loop.achievedMax()) << "\n";
    if (!Opts.CoverageJson.empty() &&
        !writeCoverageJson(Opts, Loop, Total))
      return 2;
    if (!Opts.DistillDir.empty() &&
        !writeDistilledCorpus(Opts, Candidates))
      return 2;
  }
  if (Opts.Metrics || MetricsToStderr)
    stats::printMetrics(stats::buildStats(Tel, "dmm-fuzz"),
                        Opts.Metrics ? std::cout : std::cerr);
  return Failures ? 1 : 0;
}
