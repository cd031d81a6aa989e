//===-- driver/Main.cpp - The deadmember command-line tool ----------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `deadmember`: parse MiniC++ sources, run the dead-data-member
/// analysis, and report. Mirrors the paper's tool: static detection plus
/// the dynamic measurement pipeline (instrumented execution over the
/// interpreter), with an observability layer (phase timers, counters,
/// liveness provenance) on top.
///
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "driver/Frontend.h"
#include "interp/Interpreter.h"
#include "profiler/ShadowProfiler.h"
#include "vm/VM.h"
#include "telemetry/CrashHandler.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/HtmlReport.h"
#include "telemetry/Log.h"
#include "telemetry/Stats.h"
#include "telemetry/Telemetry.h"
#include "trace/DynamicMetrics.h"
#include "transform/DeadMemberEliminator.h"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace dmm;

namespace {

const std::string VersionString =
    std::string("deadmember ") + kToolVersion +
    " — dead data member analysis for MiniC++\n"
    "(reproduction of Sweeney & Tip, \"A Study of Dead Data Members in\n"
    "C++ Applications\", PLDI 1998)\n";

struct DriverOptions {
  std::vector<SourceFile> Files;
  AnalysisOptions Analysis;
  ReportOptions Report;
  bool ShowStats = false;
  bool RunProgram = false;
  bool Measure = false;
  bool Profile = false; ///< --profile / DMM_PROFILE env.
  bool DumpCallGraph = false;
  bool Eliminate = false;
  bool Json = false;
  bool DumpLayout = false;
  bool Check = false;
  bool DeadFunctions = false;
  bool Version = false;
  bool Metrics = false;
  /// --engine=<vm|tree>: which execution engine --run/--check/
  /// --measure/--profile use. Empty until resolved (flag beats the
  /// DMM_ENGINE env var beats the "vm" default).
  std::string Engine;
  std::string MetricsFile;   ///< --metrics=<file>; empty = stdout.
  std::string TraceJsonFile; ///< --trace-json=<file>; empty = off.
  std::string StatsJsonFile; ///< --stats-json=<file>; empty = off.
  std::string ReportFile;    ///< --report=<file.html>; empty = off.
  std::string FromStatsFile; ///< --from-stats=<file>: render --report
                             ///< from an existing stats file, no run.
  std::vector<std::string> Explain; ///< --explain=<Class::member>.
  std::optional<LogLevel> LogLevelFlag; ///< --log-level=<level>.
  std::string LogJsonFile;  ///< --log-json=<file>; empty = off.
  uint64_t SpanLimit = 0;   ///< --span-limit=<N> / DMM_SPAN_LIMIT; 0 = default.
  std::string InjectFault;  ///< --inject-fault=<crash|terminate>.
};

int usage() {
  std::cerr
      << "usage: deadmember [options] <file.mcc>...\n"
         "\n"
         "Detects dead data members in MiniC++ programs (Sweeney & Tip,\n"
         "PLDI 1998).\n"
         "\n"
         "options:\n"
         "  --library <file>        parse <file> as a library (its classes\n"
         "                           are not classified; paper sec. 3.3)\n"
         "  --callgraph=<pta|rta|cha|trivial>  call-graph algorithm "
         "(default rta)\n"
         "  --baseline               'accessed = live' linter baseline\n"
         "  --no-dealloc-exempt      delete/free arguments create liveness\n"
         "  --no-union-closure       disable the union soundness closure\n"
         "  --sizeof=<ignore|conservative>  sizeof policy (default "
         "ignore)\n"
         "  --downcasts=<safe|conservative> down-cast policy (default "
         "safe)\n"
         "  --show-live              list live members with their reasons\n"
         "  --explain=<Class::member>  print the liveness provenance\n"
         "                           chain for one member\n"
         "  --stats                  print Table 1-style characteristics\n"
         "  --run                    interpret the program; the program's\n"
         "                           exit code becomes the exit status\n"
         "  --measure                interpret and print the dynamic\n"
         "                           measurements (Table 2 columns) plus\n"
         "                           per-class member access heat\n"
         "  --profile                interpret under the shadow-memory\n"
         "                           profiler: per-byte dead-data\n"
         "                           attribution per allocation site and\n"
         "                           high-water-mark snapshots (also:\n"
         "                           DMM_PROFILE=1 env var). With\n"
         "                           --measure, cross-checks the profiler\n"
         "                           against the allocation-trace replay\n"
         "  --engine=<vm|tree>       execution engine for --run/--check/\n"
         "                           --measure/--profile: the bytecode VM\n"
         "                           (default) or the tree-walking\n"
         "                           interpreter (also: DMM_ENGINE env\n"
         "                           var; see docs/VM.md). Both produce\n"
         "                           identical output, traces, and\n"
         "                           measurements\n"
         "  --dump-callgraph         list reachable functions\n"
         "  --eliminate              print the transformed program with\n"
         "                           dead members and unreachable code\n"
         "                           removed (to stdout)\n"
         "  --inert=<name>           assert that function <name> does not\n"
         "                           observe its arguments (paper fn. 3)\n"
         "  --json                   emit the classification as JSON\n"
         "  --dump-layout            print object layouts with offsets\n"
         "  --check                  execute the program and verify the\n"
         "                           soundness invariant (every member\n"
         "                           read at run time is classified "
         "live)\n"
         "  --dead-functions         also list unreachable functions\n"
         "  --jobs=<N>               accepted for compatibility; the\n"
         "                           pipeline runs on one thread, so N\n"
         "                           (a positive integer) has no effect\n"
         "  --metrics[=<file>]       print the pipeline phase/counter\n"
         "                           table (also: DMM_METRICS=1 env var,\n"
         "                           which prints to stderr)\n"
         "  --trace-json=<file>      write a Chrome trace-event JSON\n"
         "                           timeline (chrome://tracing, "
         "Perfetto)\n"
         "  --stats-json=<file>      write the versioned dmm-stats JSON\n"
         "                           document (per-span wall/cpu time,\n"
         "                           memory peaks, counters; see\n"
         "                           docs/OBSERVABILITY.md)\n"
         "  --report=<file.html>     render a self-contained HTML run\n"
         "                           report (span waterfall, hot spans)\n"
         "  --from-stats=<file>      with --report: render from an\n"
         "                           existing stats file instead of\n"
         "                           running the pipeline\n"
         "  --log-level=<level>      stderr log verbosity: error, warn\n"
         "                           (default), info, debug, trace\n"
         "                           (also: DMM_LOG_LEVEL env var)\n"
         "  --log-json=<file>        also write every log event as one\n"
         "                           JSON object per line to <file>\n"
         "  --span-limit=<N>         cap retained telemetry spans at N;\n"
         "                           spans beyond the cap count into the\n"
         "                           telemetry.spans_dropped counter\n"
         "                           (also: DMM_SPAN_LIMIT env var)\n"
         "  --inject-fault=<kind>    harness self-validation: die with\n"
         "                           kind 'crash' (SIGSEGV) or\n"
         "                           'terminate' (std::terminate) after\n"
         "                           the analysis, exercising the crash\n"
         "                           handler (docs/OBSERVABILITY.md)\n"
         "  --version                print version information\n";
  return 2;
}

bool readFile(const char *Path, bool IsLibrary, DriverOptions &Opts) {
  std::ifstream In(Path);
  if (!In) {
    logError("cannot open input file", {kv("path", Path)});
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Opts.Files.push_back({Path, SS.str(), IsLibrary});
  return true;
}

bool parseArgs(int Argc, char **Argv, DriverOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--library") {
      if (++I >= Argc) {
        std::cerr << "error: --library requires a file\n";
        return false;
      }
      if (!readFile(Argv[I], /*IsLibrary=*/true, Opts))
        return false;
    } else if (Arg.rfind("--callgraph=", 0) == 0) {
      std::string Kind = Arg.substr(12);
      if (Kind == "rta")
        Opts.Analysis.CallGraph = CallGraphKind::RTA;
      else if (Kind == "pta")
        Opts.Analysis.CallGraph = CallGraphKind::PTA;
      else if (Kind == "cha")
        Opts.Analysis.CallGraph = CallGraphKind::CHA;
      else if (Kind == "trivial")
        Opts.Analysis.CallGraph = CallGraphKind::Trivial;
      else {
        std::cerr << "error: invalid --callgraph value '" << Kind
                  << "' (valid choices: pta, rta, cha, trivial)\n";
        return false;
      }
    } else if (Arg == "--baseline") {
      Opts.Analysis.TreatWritesAsLive = true;
    } else if (Arg == "--no-dealloc-exempt") {
      Opts.Analysis.ExemptDeallocationArgs = false;
    } else if (Arg == "--no-union-closure") {
      Opts.Analysis.UnionClosure = false;
    } else if (Arg.rfind("--sizeof=", 0) == 0) {
      std::string Policy = Arg.substr(9);
      if (Policy == "ignore")
        Opts.Analysis.Sizeof = SizeofPolicy::IgnoreAll;
      else if (Policy == "conservative")
        Opts.Analysis.Sizeof = SizeofPolicy::Conservative;
      else {
        std::cerr << "error: invalid --sizeof value '" << Policy
                  << "' (valid choices: ignore, conservative)\n";
        return false;
      }
    } else if (Arg.rfind("--downcasts=", 0) == 0) {
      std::string Policy = Arg.substr(12);
      if (Policy == "safe")
        Opts.Analysis.AssumeDowncastsSafe = true;
      else if (Policy == "conservative")
        Opts.Analysis.AssumeDowncastsSafe = false;
      else {
        std::cerr << "error: invalid --downcasts value '" << Policy
                  << "' (valid choices: safe, conservative)\n";
        return false;
      }
    } else if (Arg == "--show-live") {
      Opts.Report.ShowLiveMembers = true;
    } else if (Arg == "--stats") {
      Opts.ShowStats = true;
    } else if (Arg == "--run") {
      Opts.RunProgram = true;
    } else if (Arg == "--measure") {
      Opts.Measure = true;
    } else if (Arg == "--profile") {
      Opts.Profile = true;
    } else if (Arg.rfind("--engine=", 0) == 0) {
      std::string Kind = Arg.substr(9);
      if (Kind != "vm" && Kind != "tree") {
        std::cerr << "error: invalid --engine value '" << Kind
                  << "' (valid choices: vm, tree)\n";
        return false;
      }
      Opts.Engine = Kind;
    } else if (Arg == "--dump-callgraph") {
      Opts.DumpCallGraph = true;
    } else if (Arg == "--eliminate") {
      Opts.Eliminate = true;
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (Arg == "--dump-layout") {
      Opts.DumpLayout = true;
    } else if (Arg == "--check") {
      Opts.Check = true;
    } else if (Arg == "--dead-functions") {
      Opts.DeadFunctions = true;
    } else if (Arg == "--version") {
      Opts.Version = true;
    } else if (Arg == "--metrics") {
      Opts.Metrics = true;
    } else if (Arg.rfind("--metrics=", 0) == 0) {
      Opts.Metrics = true;
      Opts.MetricsFile = Arg.substr(10);
    } else if (Arg.rfind("--trace-json=", 0) == 0) {
      Opts.TraceJsonFile = Arg.substr(13);
      if (Opts.TraceJsonFile.empty()) {
        std::cerr << "error: --trace-json requires a file name\n";
        return false;
      }
    } else if (Arg.rfind("--stats-json=", 0) == 0) {
      Opts.StatsJsonFile = Arg.substr(13);
      if (Opts.StatsJsonFile.empty()) {
        std::cerr << "error: --stats-json requires a file name\n";
        return false;
      }
    } else if (Arg.rfind("--report=", 0) == 0) {
      Opts.ReportFile = Arg.substr(9);
      if (Opts.ReportFile.empty()) {
        std::cerr << "error: --report requires a file name\n";
        return false;
      }
    } else if (Arg.rfind("--from-stats=", 0) == 0) {
      Opts.FromStatsFile = Arg.substr(13);
      if (Opts.FromStatsFile.empty()) {
        std::cerr << "error: --from-stats requires a file name\n";
        return false;
      }
    } else if (Arg.rfind("--explain=", 0) == 0) {
      std::string Query = Arg.substr(10);
      if (Query.find("::") == std::string::npos) {
        std::cerr << "error: --explain expects a qualified member name "
                     "(Class::member), got '"
                  << Query << "'\n";
        return false;
      }
      Opts.Explain.push_back(std::move(Query));
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      std::string Value = Arg.substr(7);
      char *End = nullptr;
      unsigned long Jobs = std::strtoul(Value.c_str(), &End, 10);
      if (Value.empty() || *End || Jobs == 0) {
        std::cerr << "error: --jobs expects a positive integer, got '"
                  << Value << "'\n";
        return false;
      }
    } else if (Arg.rfind("--log-level=", 0) == 0) {
      std::string Value = Arg.substr(12);
      LogLevel Level;
      if (!parseLogLevel(Value, Level)) {
        std::cerr << "error: invalid --log-level value '" << Value
                  << "' (valid choices: error, warn, info, debug, "
                     "trace)\n";
        return false;
      }
      Opts.LogLevelFlag = Level;
    } else if (Arg.rfind("--log-json=", 0) == 0) {
      Opts.LogJsonFile = Arg.substr(11);
      if (Opts.LogJsonFile.empty()) {
        std::cerr << "error: --log-json requires a file name\n";
        return false;
      }
    } else if (Arg.rfind("--span-limit=", 0) == 0) {
      std::string Value = Arg.substr(13);
      char *End = nullptr;
      unsigned long long Limit = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || *End || Limit == 0) {
        std::cerr << "error: --span-limit expects a positive integer, "
                     "got '"
                  << Value << "'\n";
        return false;
      }
      Opts.SpanLimit = Limit;
    } else if (Arg.rfind("--inject-fault=", 0) == 0) {
      std::string Kind = Arg.substr(15);
      if (Kind != "crash" && Kind != "terminate") {
        std::cerr << "error: invalid --inject-fault value '" << Kind
                  << "' (valid choices: crash, terminate)\n";
        return false;
      }
      Opts.InjectFault = Kind;
    } else if (Arg.rfind("--inert=", 0) == 0) {
      Opts.Analysis.InertFunctions.insert(Arg.substr(8));
    } else if (Arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown option '" << Arg << "'\n";
      return false;
    } else if (!readFile(Argv[I], /*IsLibrary=*/false, Opts)) {
      return false;
    }
  }
  if (!Opts.FromStatsFile.empty() && Opts.ReportFile.empty()) {
    std::cerr << "error: --from-stats requires --report=<file.html>\n";
    return false;
  }
  return Opts.Version || !Opts.FromStatsFile.empty() || !Opts.Files.empty();
}

/// Writes one telemetry output to \p Path via \p Render, logging an
/// error (not failing the run) when the file cannot be opened.
template <typename RenderFn>
void writeOutputFile(const std::string &Path, RenderFn Render) {
  std::ofstream Out(Path);
  if (!Out)
    logError("cannot write output file", {kv("path", Path)});
  else
    Render(Out);
}

/// Emits the collected telemetry at scope exit (so early-error paths
/// still report whatever phases completed). Every output is rendered
/// from one stats document, built once.
struct TelemetryEmitter {
  const Telemetry &Tel;
  const DriverOptions &Opts;
  bool ToStderr; ///< DMM_METRICS env mode.
  /// Filled by the --profile run (Present stays false otherwise);
  /// spliced into the stats document so --stats-json/--report carry
  /// the profiler section.
  const stats::ProfilerSection *Profiler = nullptr;

  ~TelemetryEmitter() {
    if (!Opts.Metrics && !ToStderr && Opts.TraceJsonFile.empty() &&
        Opts.StatsJsonFile.empty() && Opts.ReportFile.empty())
      return;
    stats::StatsDocument Doc =
        stats::buildStats(Tel, std::string("deadmember ") + kToolVersion);
    if (Profiler && Profiler->Present)
      Doc.Profiler = *Profiler;
    auto Metrics = [&](std::ostream &OS) { stats::printMetrics(Doc, OS); };
    if (Opts.Metrics) {
      if (Opts.MetricsFile.empty()) {
        std::cout << "\n";
        Metrics(std::cout);
      } else {
        writeOutputFile(Opts.MetricsFile, Metrics);
      }
    }
    if (ToStderr)
      Metrics(std::cerr);
    if (!Opts.TraceJsonFile.empty())
      writeOutputFile(Opts.TraceJsonFile, [&](std::ostream &OS) {
        stats::printChromeTrace(Doc, OS);
      });
    if (!Opts.StatsJsonFile.empty())
      writeOutputFile(Opts.StatsJsonFile,
                      [&](std::ostream &OS) { stats::printStats(Doc, OS); });
    if (!Opts.ReportFile.empty())
      writeOutputFile(Opts.ReportFile, [&](std::ostream &OS) {
        stats::renderHtmlReport(Doc, OS);
      });
  }
};

/// --report --from-stats=FILE: render the HTML report from a stats
/// file written by an earlier run, without running the pipeline.
int renderReportFromStats(const DriverOptions &Opts) {
  std::ifstream In(Opts.FromStatsFile);
  if (!In) {
    logError("cannot open input file", {kv("path", Opts.FromStatsFile)});
    return 1;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  stats::StatsDocument Doc;
  std::string Error;
  if (!stats::parseStats(SS.str(), Doc, Error)) {
    logError("invalid stats file",
             {kv("path", Opts.FromStatsFile), kv("detail", Error)});
    return 1;
  }
  std::ofstream Out(Opts.ReportFile);
  if (!Out) {
    logError("cannot write output file", {kv("path", Opts.ReportFile)});
    return 1;
  }
  stats::renderHtmlReport(Doc, Out);
  return 0;
}

/// Prints the per-class member access heat table for --measure.
void printHeatReport(std::ostream &OS, const ASTContext &Ctx,
                     const FieldHeat &Heat) {
  struct ClassHeat {
    uint64_t Reads = 0;
    uint64_t Writes = 0;
  };
  std::map<std::string, ClassHeat> PerClass;
  for (const FieldDecl *F : Ctx.fields()) {
    uint64_t Reads = Heat.Reads[F->declID()];
    uint64_t Writes = Heat.Writes[F->declID()];
    if (Reads || Writes) {
      ClassHeat &H = PerClass[F->parent()->name()];
      H.Reads += Reads;
      H.Writes += Writes;
    }
  }
  if (PerClass.empty())
    return;
  std::vector<std::pair<std::string, ClassHeat>> Sorted(PerClass.begin(),
                                                        PerClass.end());
  std::sort(Sorted.begin(), Sorted.end(),
            [](const auto &A, const auto &B) {
              return A.second.Reads + A.second.Writes >
                     B.second.Reads + B.second.Writes;
            });
  OS << "\nmember access heat (per class):\n";
  for (const auto &[Name, H] : Sorted)
    OS << "  " << Name << ": " << H.Reads << " reads, " << H.Writes
       << " writes\n";
}

/// Prints the shadow-profiler summary and the dead-byte heat table
/// (allocation sites ranked by never-read member bytes).
void printProfileReport(std::ostream &OS, const ProfileSummary &P) {
  const DynamicMetrics &M = P.Metrics;
  OS << "\nshadow profiler:\n"
     << "  object space:           " << M.ObjectSpace << " bytes ("
     << M.NumObjects << " objects, " << P.AllocEvents
     << " allocation events)\n"
     << "  dead data member space: " << M.DeadMemberSpace << " bytes ("
     << M.deadSpacePercent() << "%)\n"
     << "  high water mark:        " << M.HighWaterMark
     << " bytes (first hit at allocation event " << P.PeakAllocEvent
     << ")\n"
     << "  high water mark w/o dead members: " << M.HighWaterMarkNoDead
     << " bytes (" << M.highWaterMarkReductionPercent()
     << "% reduction)\n"
     << "  frees: " << P.FreeEvents << " events, leaked objects: "
     << P.LeakedObjects << "\n"
     << "  member bytes: " << P.WrittenBytes << " written, "
     << P.ReadBytes << " read, " << P.AddrTakenBytes
     << " address-taken, " << P.NeverReadBytes << " never read\n"
     << "  snapshots: " << P.Snapshots.size() << " (stride "
     << P.SnapshotStride << ")\n";

  std::vector<const ProfileSiteRow *> Hot;
  for (const ProfileSiteRow &Row : P.Sites)
    if (Row.NeverReadBytes)
      Hot.push_back(&Row);
  if (Hot.empty())
    return;
  std::stable_sort(Hot.begin(), Hot.end(),
                   [](const ProfileSiteRow *A, const ProfileSiteRow *B) {
                     return A->NeverReadBytes > B->NeverReadBytes;
                   });
  constexpr size_t kMaxRows = 12;
  OS << "\ndead-byte heat (allocation sites by never-read member "
        "bytes):\n";
  for (size_t I = 0; I != Hot.size() && I != kMaxRows; ++I) {
    const ProfileSiteRow &Row = *Hot[I];
    OS << "  " << Row.File << ":" << Row.Line << " " << Row.Class
       << " " << Row.Member << ": " << Row.NeverReadBytes << "/"
       << Row.AllocBytes << " bytes never read";
    if (Row.StaticDead)
      OS << " [dead]";
    OS << "\n";
  }
  if (Hot.size() > kMaxRows)
    OS << "  ... (" << (Hot.size() - kMaxRows) << " more sites)\n";
}

} // namespace

int main(int Argc, char **Argv) {
  // Crash diagnostics come first so even option handling is covered:
  // the flight recorder captures log events and span markers, and the
  // signal/terminate handlers dump dmm-crash-<pid>.json from them.
  installCrashHandler(Argc, Argv, "deadmember", kToolVersion);
  FlightRecorder::install();
  DriverOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage();
  // Logging config: flag beats DMM_LOG_LEVEL (read at first use).
  if (Opts.LogLevelFlag)
    Logger::instance().setLevel(*Opts.LogLevelFlag);
  if (!Opts.LogJsonFile.empty()) {
    std::string Error;
    if (!Logger::instance().openJsonSink(Opts.LogJsonFile, Error)) {
      std::cerr << "error: " << Error << "\n";
      return 2;
    }
  }
  if (Opts.Version) {
    std::cout << VersionString;
    return 0;
  }
  if (!Opts.FromStatsFile.empty())
    return renderReportFromStats(Opts);

  // Telemetry: --metrics/--trace-json/--stats-json/--report, or the
  // DMM_METRICS env hook (metrics to stderr; lets benches and scripts
  // observe phase costs without flag plumbing).
  const char *MetricsEnv = std::getenv("DMM_METRICS");
  bool MetricsToStderr = MetricsEnv && *MetricsEnv &&
                         std::strcmp(MetricsEnv, "0") != 0 && !Opts.Metrics;
  // --profile also answers to the DMM_PROFILE env hook (same contract
  // as DMM_METRICS: set and not "0" enables it), so scripts and benches
  // can profile without flag plumbing.
  const char *ProfileEnv = std::getenv("DMM_PROFILE");
  if (ProfileEnv && *ProfileEnv && std::strcmp(ProfileEnv, "0") != 0)
    Opts.Profile = true;
  // Engine selection: --engine flag, then DMM_ENGINE, then the VM.
  if (Opts.Engine.empty())
    if (const char *EngineEnv = std::getenv("DMM_ENGINE");
        EngineEnv && *EngineEnv) {
      if (std::strcmp(EngineEnv, "vm") != 0 &&
          std::strcmp(EngineEnv, "tree") != 0) {
        std::cerr << "error: invalid DMM_ENGINE value '" << EngineEnv
                  << "' (valid choices: vm, tree)\n";
        return 2;
      }
      Opts.Engine = EngineEnv;
    }
  if (Opts.Engine.empty())
    Opts.Engine = "vm";
  Telemetry Tel;
  // --span-limit flag beats the DMM_SPAN_LIMIT env hook; unparsable
  // env values are reported and ignored.
  if (Opts.SpanLimit == 0)
    if (const char *Env = std::getenv("DMM_SPAN_LIMIT"); Env && *Env) {
      char *End = nullptr;
      unsigned long long Limit = std::strtoull(Env, &End, 10);
      if (*End || Limit == 0)
        logWarn("ignoring invalid DMM_SPAN_LIMIT", {kv("value", Env)});
      else
        Opts.SpanLimit = Limit;
    }
  if (Opts.SpanLimit)
    Tel.setSpanLimit(Opts.SpanLimit);
  std::optional<TelemetryScope> TelScope;
  if (Opts.Metrics || MetricsToStderr || !Opts.TraceJsonFile.empty() ||
      !Opts.StatsJsonFile.empty() || !Opts.ReportFile.empty())
    TelScope.emplace(Tel);
  // Outlives the emitter: filled after the profiled run finalizes.
  stats::ProfilerSection ProfSection;
  TelemetryEmitter Emitter{Tel, Opts, MetricsToStderr, &ProfSection};
  // The whole run is one root span; every phase nests under it. Closed
  // by destruction just before the emitter writes the outputs. Opened
  // even with telemetry off: the flight recorder tracks the span stack
  // for crash reports on every run.
  std::optional<Span> RootSpan;
  RootSpan.emplace("pipeline");

  // Provenance powers --explain and enriches --json.
  if (Opts.Json || !Opts.Explain.empty())
    Opts.Analysis.RecordProvenance = true;

  auto C = compileProgram(std::move(Opts.Files), &std::cerr);
  if (!C->Success)
    return 1;

  DeadMemberAnalysis Analysis(C->context(), C->hierarchy(), Opts.Analysis);
  DeadMemberResult Result = Analysis.run(C->mainFunction());
  logInfo("analysis complete",
          {kv("dead_members", Result.deadSet().size()),
           kv("callgraph", callGraphKindName(Opts.Analysis.CallGraph))});

  // PR-3-style harness self-validation: deliberately die mid-pipeline
  // so CI can assert the crash handler writes a schema-valid report
  // with the active span stack and flight-recorder tail.
  if (!Opts.InjectFault.empty()) {
    Span FaultSpan("inject.fault");
    logError("injected fault firing", {kv("kind", Opts.InjectFault)});
    if (Opts.InjectFault == "crash")
      std::raise(SIGSEGV);
    else
      std::terminate();
  }

  if (Opts.Eliminate) {
    EliminationResult Elim = eliminateDeadMembers(C->context(), Result,
                                                  Analysis.callGraph());
    std::cerr << "removed " << Elim.Removed.size() << " dead members ("
              << Elim.Kept.size() << " kept), stripped "
              << Elim.RemovedFunctions.size()
              << " unreachable function bodies\n";
    std::cout << Elim.Source;
    return 0;
  }

  if (!Opts.Explain.empty()) {
    // --explain replaces the default classification listing.
    bool AllFound = true;
    for (const std::string &Query : Opts.Explain) {
      if (!printExplainReport(std::cout, C->context(), Result, Query,
                              &C->SM)) {
        std::cerr << "error: no classifiable data member named '" << Query
                  << "'\n";
        AllFound = false;
      }
    }
    if (!AllFound)
      return 1;
  } else if (Opts.Json) {
    printJsonReport(std::cout, C->context(), Result, &C->SM);
  } else {
    printMemberReport(std::cout, C->context(), Result, &C->SM, Opts.Report);
  }

  if (Opts.DumpLayout) {
    std::cout << "\n";
    printLayoutReport(std::cout, C->context(), C->hierarchy(), Result);
  }

  if (Opts.ShowStats) {
    ProgramStats Stats = computeProgramStats(C->context(), Result, &C->SM,
                                             C->UserFileIDs);
    std::cout << "\n";
    printStatsReport(std::cout, Stats);
  }

  if (Opts.DeadFunctions) {
    std::cout << "\n";
    printDeadFunctionReport(std::cout, C->context(), Analysis.callGraph(),
                            &C->SM);
  }

  if (Opts.DumpCallGraph) {
    std::cout << "\nreachable functions ("
              << callGraphKindName(Opts.Analysis.CallGraph) << "):\n";
    for (const FunctionDecl *FD : Analysis.callGraph().reachableFunctions())
      std::cout << "  " << FD->qualifiedName() << "\n";
  }

  // All execution modes share one interpreter run: --check and
  // --measure read the member access heat, --measure also the allocation
  // trace, --run the program output — from the same execution.
  if (Opts.Check || Opts.RunProgram || Opts.Measure || Opts.Profile) {
    AllocationTrace Trace;
    FieldHeat Heat;
    std::optional<ShadowProfiler> Prof;
    InterpOptions IO;
    if (Opts.Check || Opts.Measure)
      IO.Heat = &Heat;
    if (Opts.Measure)
      IO.Trace = &Trace;
    if (Opts.Profile) {
      Prof.emplace(C->hierarchy(), Result.deadSet());
      IO.Profiler = &*Prof;
    }
    ExecResult Exec;
    if (Opts.Engine == "vm") {
      vm::VM Machine(C->context(), C->hierarchy(), IO);
      Exec = Machine.run(C->mainFunction());
    } else {
      Interpreter Interp(C->context(), C->hierarchy(), IO);
      Exec = Interp.run(C->mainFunction());
    }
    if (!Exec.Completed) {
      logError("runtime error",
               {kv("what", Exec.Error), kv("engine", Opts.Engine)});
      return 1;
    }

    if (Opts.Check) {
      unsigned Violations = 0;
      for (const FieldDecl *F : C->context().fields())
        if (Heat.Reads[F->declID()] && Result.isDead(F)) {
          ++Violations;
          std::cout << "UNSOUND: " << F->qualifiedName()
                    << " was read at run time but classified dead\n";
        }
      std::cout << "soundness check: " << Heat.FirstReads.size()
                << " members dynamically read, " << Violations
                << " violations"
                << (Violations == 0 ? " (OK)" : " (FAILED)") << "\n";
      if (Violations)
        return 1;
    }

    if (Opts.RunProgram) {
      std::cout << "\n--- program output ---\n"
                << Exec.Output << "--- exit code " << Exec.ExitCode
                << " ---\n";
    }

    std::optional<DynamicMetrics> TraceMetrics;
    if (Opts.Measure) {
      {
        Span Replay("trace.replay");
        TraceMetrics = computeDynamicMetrics(
            Trace, LayoutEngine(C->hierarchy()), Result.deadSet());
      }
      const DynamicMetrics &M = *TraceMetrics;
      std::cout << "\ndynamic measurements:\n"
                << "  object space:           " << M.ObjectSpace
                << " bytes (" << M.NumObjects << " objects)\n"
                << "  dead data member space: " << M.DeadMemberSpace
                << " bytes (" << M.deadSpacePercent() << "%)\n"
                << "  high water mark:        " << M.HighWaterMark
                << " bytes\n"
                << "  high water mark w/o dead members: "
                << M.HighWaterMarkNoDead << " bytes ("
                << M.highWaterMarkReductionPercent() << "% reduction)\n";
      printHeatReport(std::cout, C->context(), Heat);
    }

    if (Opts.Profile) {
      const ProfileSummary *P;
      {
        Span Finalize("profiler.finalize");
        P = &Prof->finalize(&C->SM);
      }
      Prof->emitCounters();
      printProfileReport(std::cout, *P);
      ProfSection = toProfilerSection(*P);
      // Differential check: the online shadow accounting must equal the
      // trace replay exactly on every execution (they implement the
      // same event arithmetic over the same layout).
      if (TraceMetrics) {
        if (P->Metrics != *TraceMetrics) {
          const DynamicMetrics &T = *TraceMetrics;
          const DynamicMetrics &S = P->Metrics;
          logError("shadow profiler diverges from the allocation-trace "
                   "replay");
          std::cerr << "  trace:    object_space=" << T.ObjectSpace
                    << " dead=" << T.DeadMemberSpace
                    << " hwm=" << T.HighWaterMark
                    << " hwm_no_dead=" << T.HighWaterMarkNoDead
                    << " objects=" << T.NumObjects << "\n"
                    << "  profiler: object_space=" << S.ObjectSpace
                    << " dead=" << S.DeadMemberSpace
                    << " hwm=" << S.HighWaterMark
                    << " hwm_no_dead=" << S.HighWaterMarkNoDead
                    << " objects=" << S.NumObjects << "\n";
          return 1;
        }
        std::cout << "\nprofiler agreement with trace metrics: OK\n";
      }
    }

    // --run mirrors a real execution: the interpreted program's exit
    // code becomes the process exit status (truncated to 8 bits, as
    // the OS would).
    if (Opts.RunProgram)
      return static_cast<int>(Exec.ExitCode & 0xff);
  }
  return 0;
}
