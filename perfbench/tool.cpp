//===-- perfbench/tool.cpp - Workload generator and traced layer run ------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled half of the end-to-end benchmark (perfbench/run.py is the
/// other half):
///
///   perfbench-tool info
///       Prints the build type and compiler as one JSON object.
///   perfbench-tool gen <workload> <seed> <outdir>
///       Writes the workload's programs, each split into ~8 files, plus
///       programs.txt (program order) and manifest.json (sizes and the
///       static references taken from the generating spec).
///   perfbench-tool trace <workload> <dir> <jobs> <seconds>
///       Runs deadmember's pipeline for the workload in-process, one pass
///       over every program per repetition, with the benchmark's own
///       spans around each layer's public call. Prints every
///       repetition's per-program sample as one JSON object.
///
/// The traced pass mirrors src/driver/Main.cpp for the flags each
/// workload uses; the layer calls below must follow its order.
///
//===----------------------------------------------------------------------===//

#include "analysis/DeadMemberAnalysis.h"
#include "analysis/ProgramStats.h"
#include "analysis/Report.h"
#include "benchgen/Synthesizer.h"
#include "callgraph/CallGraph.h"
#include "driver/Frontend.h"
#include "interp/Interpreter.h"
#include "profiler/ShadowProfiler.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"
#include "trace/DynamicMetrics.h"
#include "vm/VM.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace dmm;
namespace fs = std::filesystem;

namespace {

[[noreturn]] void fail(const std::string &Msg) {
  std::cerr << "perfbench-tool: " << Msg << "\n";
  std::exit(1);
}

enum class Workload { Static, Dynamic, Exec };

Workload parseWorkload(const std::string &Name) {
  if (Name == "static-suite")
    return Workload::Static;
  if (Name == "dynamic-suite")
    return Workload::Dynamic;
  if (Name == "exec-kernels")
    return Workload::Exec;
  fail("unknown workload '" + Name + "'");
}

/// Object-count scale of the synthesized suite on dynamic-suite: keeps
/// one --measure --profile pass under a second on four cores, so a run
/// has enough passes for its tail percentile. The static study does not
/// execute, so static-suite uses the paper scale.
constexpr double kDynamicScale = 0.2;

//===----------------------------------------------------------------------===//
// Program generation
//===----------------------------------------------------------------------===//

struct Program {
  std::string Name;
  std::string Kind; ///< "synthesized", "hand-port" or "kernel".
  std::string Text;
  long ExpectMembers = -1; ///< Static references (-1: not checked).
  long ExpectDead = -1;
};

/// Splits \p Text into about \p Parts files at blank lines between
/// top-level declarations (brace depth 0, outside literals and
/// comments), so the per-file parallel lex stage has units of work. The
/// parts concatenate back to \p Text.
std::vector<std::string> splitTopLevel(const std::string &Text,
                                       size_t Parts = 8) {
  std::vector<size_t> Boundaries;
  int Depth = 0;
  bool InString = false, InChar = false, InLine = false, InBlock = false;
  for (size_t I = 0; I + 1 < Text.size(); ++I) {
    char C = Text[I];
    if (InLine) {
      InLine = C != '\n';
    } else if (InBlock) {
      if (C == '*' && Text[I + 1] == '/') {
        InBlock = false;
        ++I;
      }
    } else if (InString || InChar) {
      if (C == '\\')
        ++I;
      else if (C == (InString ? '"' : '\''))
        InString = InChar = false;
    } else if (C == '"') {
      InString = true;
    } else if (C == '\'') {
      InChar = true;
    } else if (C == '{') {
      ++Depth;
    } else if (C == '}') {
      --Depth;
    } else if (C == '/' && (Text[I + 1] == '/' || Text[I + 1] == '*')) {
      (Text[I + 1] == '/' ? InLine : InBlock) = true;
      ++I;
    } else if (C == '\n' && Text[I + 1] == '\n' && Depth == 0) {
      Boundaries.push_back(I + 2);
    }
  }
  std::vector<size_t> Cuts;
  for (size_t P = 1; P < Parts && !Boundaries.empty(); ++P) {
    size_t Target = Text.size() * P / Parts;
    auto It = std::lower_bound(Boundaries.begin(), Boundaries.end(), Target);
    if (It == Boundaries.end() ||
        (It != Boundaries.begin() && Target - It[-1] < *It - Target))
      --It;
    if (*It < Text.size() && (Cuts.empty() || *It > Cuts.back()))
      Cuts.push_back(*It);
  }
  std::vector<std::string> Out;
  size_t Start = 0;
  for (size_t End : Cuts) {
    Out.push_back(Text.substr(Start, End - Start));
    Start = End;
  }
  Out.push_back(Text.substr(Start));
  return Out;
}

std::string replaceAll(std::string S, const std::string &From,
                       const std::string &To) {
  for (size_t Pos = S.find(From); Pos != std::string::npos;
       Pos = S.find(From, Pos + To.size()))
    S.replace(Pos, From.size(), To);
  return S;
}

/// Compute-bound kernels for exec-kernels. No arithmetic overflows.
constexpr const char *MemberKernel = R"(// Member-access loop.
class Acc {
 public:
  int lo;
  int hi;
  int fold(int x) {
    lo = lo + x;
    if (lo > 1000000) { hi = hi + 1; lo = lo - 1000000; }
    return lo;
  }
};

int main() {
  Acc a;
  a.lo = 0;
  a.hi = 0;
  int checksum = 0;
  int x = @SEED@;
  for (int outer = 0; outer < 60; outer = outer + 1) {
    for (int i = 0; i < 2000; i = i + 1) {
      x = (x * 75 + 74 + i) % 65537;
      checksum = (checksum + a.fold(x % 9973)) % 1000003;
    }
  }
  print_int(checksum);
  print_int(a.hi);
  return 0;
}
)";

constexpr const char *VirtualKernel = R"(// Virtual-dispatch loop.
class Op {
 public:
  int bias;
  Op(int b) : bias(b) {}
  virtual ~Op() {}
  virtual int apply(int x) = 0;
};

class AddOp : public Op {
 public:
  AddOp(int b) : Op(b) {}
  int apply(int x) { return (x + bias) % 65521; }
};

class MulOp : public Op {
 public:
  MulOp(int b) : Op(b) {}
  int apply(int x) { return (x * bias) % 65521 + 1; }
};

class SubOp : public Op {
 public:
  SubOp(int b) : Op(b) {}
  int apply(int x) { return (x + 65521 - bias) % 65521; }
};

int main() {
  Op *ops[4];
  ops[0] = new AddOp(@SEED@);
  ops[1] = new MulOp(@B1@);
  ops[2] = new SubOp(@B2@);
  ops[3] = new MulOp(@B3@);
  int x = 1;
  int sum = 0;
  for (int i = 0; i < 100000; i = i + 1) {
    x = ops[i % 4]->apply(x);
    sum = (sum + x) % 1000003;
  }
  for (int k = 0; k < 4; k = k + 1) {
    delete ops[k];
  }
  print_int(sum);
  return 0;
}
)";

constexpr const char *AllocKernel = R"(// Allocate/free churn loop.
class Node {
 public:
  Node *next;
  int val;
  Node(Node *n, int v) : next(n), val(v) {}
};

int main() {
  int total = 0;
  for (int round = 0; round < 60; round = round + 1) {
    Node *head = nullptr;
    for (int i = 0; i < 500; i = i + 1) {
      head = new Node(head, (i * @SEED@ + round) % 1009);
    }
    while (head != nullptr) {
      Node *n = head->next;
      total = (total + head->val) % 1000003;
      delete head;
      head = n;
    }
  }
  print_int(total);
  return 0;
}
)";

std::vector<Program> workloadPrograms(Workload W, unsigned Seed) {
  std::vector<Program> Out;
  if (W == Workload::Exec) {
    auto Hand = [&](const char *Name, const char *Text) {
      Out.push_back({Name, "hand-port", Text});
    };
    Hand("richards", richardsSource());
    Hand("deltablue", deltablueSource());
    // The seed picks the constants (1..97); trip counts are fixed so
    // that every seed asks for the same amount of work.
    unsigned K = Seed % 97 + 1;
    std::string V = replaceAll(VirtualKernel, "@B1@", std::to_string(K % 7 + 2));
    V = replaceAll(V, "@B2@", std::to_string(K % 13 + 3));
    V = replaceAll(V, "@B3@", std::to_string(K % 5 + 5));
    for (auto [Name, Text] : {std::pair<const char *, std::string>{
                                  "kmember", MemberKernel},
                              {"kvirtual", V},
                              {"kalloc", AllocKernel}})
      Out.push_back(
          {Name, "kernel", replaceAll(Text, "@SEED@", std::to_string(K))});
    return Out;
  }
  double Scale = W == Workload::Dynamic ? kDynamicScale : 1.0;
  for (BenchmarkSpec Spec : paperBenchmarks()) {
    Program P;
    P.Name = Spec.Name;
    if (Spec.HandWritten) {
      P.Kind = "hand-port";
      P.Text = Spec.Name == "richards" ? richardsSource() : deltablueSource();
      P.ExpectMembers = Spec.NumMembers;
      P.ExpectDead = 0;
    } else {
      P.Kind = "synthesized";
      Spec.Seed += Seed;
      GeneratedBenchmark G = synthesizeBenchmark(Spec, Scale);
      P.Text = std::move(G.Files[0].Text);
      P.ExpectMembers = Spec.NumMembers;
      P.ExpectDead = std::lround(Spec.TargetStaticDeadPct / 100.0 *
                                 Spec.NumMembers);
    }
    Out.push_back(std::move(P));
  }
  return Out;
}

void writeFile(const fs::path &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  if (!Out)
    fail("cannot write " + Path.string());
}

int cmdGen(const std::string &WorkloadName, unsigned Seed,
           const fs::path &Dir) {
  std::vector<Program> Programs =
      workloadPrograms(parseWorkload(WorkloadName), Seed);
  fs::create_directories(Dir);
  std::ostringstream Order, Manifest;
  Manifest << "{\"workload\": \"" << WorkloadName << "\", \"seed\": " << Seed
           << ", \"programs\": [";
  for (size_t I = 0; I != Programs.size(); ++I) {
    const Program &P = Programs[I];
    fs::create_directories(Dir / P.Name);
    std::vector<std::string> Parts = splitTopLevel(P.Text);
    std::vector<SourceFile> Files;
    Manifest << (I ? ", " : "") << "{\"name\": \"" << P.Name
             << "\", \"kind\": \"" << P.Kind << "\", \"files\": [";
    for (size_t J = 0; J != Parts.size(); ++J) {
      std::string Rel = P.Name + "/" + P.Name + ".part" + std::to_string(J) +
                        ".mcc";
      writeFile(Dir / Rel, Parts[J]);
      Files.push_back({Rel, Parts[J], /*IsLibrary=*/false});
      Manifest << (J ? ", " : "") << "\"" << Rel << "\"";
    }
    // Compile once: every program must be valid, and the token count
    // belongs in the result's context.
    Telemetry Tel;
    {
      TelemetryScope Scope(Tel);
      if (!compileProgram(std::move(Files), &std::cerr)->Success)
        fail("generated program '" + P.Name + "' does not compile");
    }
    Manifest << "], \"bytes\": " << P.Text.size()
             << ", \"loc\": " << std::count(P.Text.begin(), P.Text.end(), '\n')
             << ", \"tokens\": " << Tel.counter("lex.tokens")
             << ", \"expect_members\": " << P.ExpectMembers
             << ", \"expect_dead\": " << P.ExpectDead << "}";
    Order << P.Name << "\n";
  }
  Manifest << "]}\n";
  writeFile(Dir / "programs.txt", Order.str());
  writeFile(Dir / "manifest.json", Manifest.str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced in-process run
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

double nsSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - T0).count();
}

/// One program's measurements from one repetition. Times are in ns.
using Sample = std::map<std::string, double>;

std::vector<SourceFile> readProgram(const fs::path &Dir) {
  std::vector<fs::path> Paths;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".mcc")
      Paths.push_back(E.path());
  // partN order: sort by the number, not the string.
  auto PartNo = [](const fs::path &P) {
    std::string Stem = P.stem().string();
    return std::stoul(Stem.substr(Stem.rfind("part") + 4));
  };
  std::sort(Paths.begin(), Paths.end(),
            [&](const fs::path &A, const fs::path &B) {
              return PartNo(A) < PartNo(B);
            });
  std::vector<SourceFile> Files;
  for (const fs::path &P : Paths) {
    std::ifstream In(P, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    if (!In)
      fail("cannot read " + P.string());
    Files.push_back({P.string(), SS.str(), /*IsLibrary=*/false});
  }
  if (Files.empty())
    fail("no sources under " + Dir.string());
  return Files;
}

double phaseNs(const Telemetry &Tel, const char *Name) {
  const PhaseStat *P = Tel.phase(Name);
  return P ? static_cast<double>(P->Nanos) : 0.0;
}

/// The sinks deadmember attaches for the workload's flags.
struct Sinks {
  AllocationTrace Trace;
  FieldHeat Heat;
  std::optional<ShadowProfiler> Prof;
  InterpOptions IO;

  Sinks(Workload W, const Compilation &C, const DeadMemberResult &R) {
    if (W != Workload::Dynamic)
      return;
    IO.Trace = &Trace;
    IO.Heat = &Heat;
    Prof.emplace(C.hierarchy(), R.deadSet());
    IO.Profiler = &*Prof;
  }
};

void checkRun(const ExecResult &E, const std::string &What) {
  if (!E.Completed)
    fail(What + ": runtime error: " + E.Error);
}

/// One traced pass over one program, in deadmember's order. Layer spans
/// are the benchmark's own ("bench.*"); the program's finer spans and
/// counters land in the same registry.
Sample tracePass(Workload W, const std::vector<SourceFile> &Files) {
  Telemetry Tel;
  Sample S;
  {
    TelemetryScope Scope(Tel);
    // Declared before the pass starts so that teardown, which
    // deadmember does at exit, falls after the pass (M refers into C).
    std::unique_ptr<Compilation> C;
    std::optional<Sinks> K;
    std::optional<vm::VM> M;
    Clock::time_point T0 = Clock::now();
    {
      Span L("bench.frontend");
      C = compileProgram(Files, &std::cerr);
    }
    if (!C->Success)
      fail("program does not compile");
    std::optional<CallGraph> G;
    {
      Span L("bench.callgraph");
      G.emplace(buildCallGraph(C->context(), C->hierarchy(),
                               C->mainFunction(), CallGraphKind::RTA));
    }
    DeadMemberAnalysis A(C->context(), C->hierarchy(), {});
    A.setCallGraph(&*G);
    DeadMemberResult R;
    {
      Span L("bench.analysis");
      R = A.run(C->mainFunction());
    }
    ProgramStats Stats;
    {
      Span L("bench.report");
      std::ostringstream OS;
      printMemberReport(OS, C->context(), R, &C->SM, {});
      Stats = computeProgramStats(C->context(), R, &C->SM, C->UserFileIDs);
      if (W == Workload::Static) {
        OS << "\n";
        printStatsReport(OS, Stats);
      }
      S["report.bytes"] = static_cast<double>(OS.str().size());
    }
    S["callgraph.reachable_fns"] =
        static_cast<double>(G->reachableFunctions().size());
    S["callgraph.edges"] = static_cast<double>(G->numEdges());
    S["analysis.dead_used"] = Stats.NumDeadMembersInUsedClasses;
    if (W != Workload::Static) {
      K.emplace(W, *C, R);
      {
        Span L("bench.vm.compile");
        M.emplace(C->context(), C->hierarchy(), K->IO);
      }
      S["vm.compiled_fns"] = static_cast<double>(M->module().Functions.size());
      ExecResult E;
      {
        Span L("bench.vm.exec");
        E = M->run(C->mainFunction());
      }
      checkRun(E, "vm");
      if (W == Workload::Dynamic) {
        {
          Span L("bench.trace");
          LayoutEngine Layout(C->hierarchy());
          computeDynamicMetrics(K->Trace, Layout, R.deadSet());
        }
        S["trace.events"] = static_cast<double>(K->Trace.events().size());
        {
          Span L("bench.profiler.finalize");
          K->Prof->finalize(&C->SM);
          K->Prof->emitCounters();
        }
      }
    }
    S["pass"] = nsSince(T0);
  }
  for (const char *Name :
       {"bench.frontend", "bench.callgraph", "bench.analysis", "bench.report",
        "bench.vm.compile", "bench.vm.exec", "bench.trace",
        "bench.profiler.finalize", "lex", "parse", "sema"})
    S[Name] = phaseNs(Tel, Name);
  // Layers a workload does not run report 0; without hooks, the VM run
  // is its own hook-free run.
  for (const char *Name : {"vm.compiled_fns", "trace.events"})
    S.try_emplace(Name, 0.0);
  if (W != Workload::Dynamic)
    S["vm.exec_nohooks"] = S["bench.vm.exec"];
  for (const char *Name : {"lex.tokens", "sema.functions",
                           "analysis.exprs_visited", "interp.steps",
                           "interp.calls", "profiler.allocs"})
    S[Name] = static_cast<double>(Tel.counter(Name));
  return S;
}

/// Context runs outside the pass: the tree-walker with deadmember's
/// options, and (dynamic-suite) a hook-free VM run.
void contextRuns(Workload W, const std::vector<SourceFile> &Files,
                 Sample &S) {
  if (W == Workload::Static) {
    S["interp.exec"] = 0.0;
    return;
  }
  Telemetry Tel;
  TelemetryScope Scope(Tel);
  std::unique_ptr<Compilation> C = compileProgram(Files, nullptr);
  DeadMemberAnalysis A(C->context(), C->hierarchy(), {});
  DeadMemberResult R = A.run(C->mainFunction());
  {
    Sinks K(W, *C, R);
    Interpreter I(C->context(), C->hierarchy(), K.IO);
    Clock::time_point T0 = Clock::now();
    checkRun(I.run(C->mainFunction()), "tree-walker");
    S["interp.exec"] = nsSince(T0);
  }
  if (W == Workload::Dynamic) {
    vm::VM M(C->context(), C->hierarchy(), {});
    Clock::time_point T0 = Clock::now();
    checkRun(M.run(C->mainFunction()), "hook-free vm");
    S["vm.exec_nohooks"] = nsSince(T0);
  }
}

/// Peak heap growth of one sequential compileProgram: with one job every
/// allocation is charged to the calling thread's span. Deterministic, so
/// measured once per program.
double frontendPeakBytes(const std::vector<SourceFile> &Files,
                         unsigned Jobs) {
  setGlobalJobs(1);
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    Span L("bench.frontend.peak");
    compileProgram(Files, nullptr);
  }
  setGlobalJobs(Jobs);
  for (const SpanRecord &R : Tel.spans())
    if (R.Name == "bench.frontend.peak")
      return static_cast<double>(R.MemPeakBytes);
  return 0.0;
}

int cmdTrace(const std::string &WorkloadName, const fs::path &Dir,
             unsigned Jobs, double Seconds) {
  Workload W = parseWorkload(WorkloadName);
  setGlobalJobs(Jobs);
  std::vector<std::string> Names;
  {
    std::ifstream In(Dir / "programs.txt");
    for (std::string Line; std::getline(In, Line);)
      if (!Line.empty())
        Names.push_back(Line);
  }
  if (Names.empty())
    fail("no programs listed in " + (Dir / "programs.txt").string());

  std::vector<std::vector<Sample>> Samples(Names.size());
  std::vector<double> PeakBytes(Names.size());
  Clock::time_point Start = Clock::now();
  // At least three repetitions, however long they take.
  for (unsigned Rep = 0; Rep < 3 || nsSince(Start) < Seconds * 1e9; ++Rep) {
    for (size_t I = 0; I != Names.size(); ++I) {
      std::vector<SourceFile> Files = readProgram(Dir / Names[I]);
      if (Rep == 0)
        PeakBytes[I] = frontendPeakBytes(Files, Jobs);
      Sample S = tracePass(W, Files);
      S["frontend.peak_bytes"] = PeakBytes[I];
      contextRuns(W, Files, S);
      Samples[I].push_back(std::move(S));
    }
  }

  std::cout << "{\"reps\": " << Samples[0].size() << ", \"programs\": [";
  for (size_t I = 0; I != Names.size(); ++I) {
    std::cout << (I ? ", " : "") << "{\"name\": \"" << Names[I]
              << "\", \"samples\": [";
    for (size_t R = 0; R != Samples[I].size(); ++R) {
      const char *Sep = R ? ", {" : "{";
      for (const auto &[Key, Value] : Samples[I][R]) {
        char Buf[64];
        std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
        std::cout << Sep << "\"" << Key << "\": " << Buf;
        Sep = ", ";
      }
      std::cout << "}";
    }
    std::cout << "]}";
  }
  std::cout << "]}\n";
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench-tool info\n"
               "       perfbench-tool gen <workload> <seed> <outdir>\n"
               "       perfbench-tool trace <workload> <dir> <jobs> "
               "<seconds>\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.size() == 1 && Args[0] == "info") {
    std::cout << "{\"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"compiler\": \"" << PERFBENCH_COMPILER << "\"}\n";
    return 0;
  }
  try {
    if (Args.size() == 4 && Args[0] == "gen")
      return cmdGen(Args[1], static_cast<unsigned>(std::stoul(Args[2])),
                    Args[3]);
    if (Args.size() == 5 && Args[0] == "trace")
      return cmdTrace(Args[1], Args[2],
                      static_cast<unsigned>(std::stoul(Args[3])),
                      std::stod(Args[4]));
  } catch (const std::exception &E) {
    fail(E.what());
  }
  return usage();
}
