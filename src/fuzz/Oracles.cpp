//===-- fuzz/Oracles.cpp --------------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracles.h"

#include "driver/Frontend.h"
#include "interp/Interpreter.h"
#include "profiler/ShadowProfiler.h"
#include "telemetry/Telemetry.h"
#include "trace/DynamicMetrics.h"
#include "vm/VM.h"

#include <optional>
#include <set>
#include <sstream>

using namespace dmm;
using namespace dmm::fuzz;

namespace {

std::set<std::string> deadNames(const DeadMemberResult &R) {
  std::set<std::string> Names;
  for (const FieldDecl *F : R.deadMembers())
    Names.insert(F->qualifiedName());
  return Names;
}

/// Truncates program output for failure details.
std::string excerpt(const std::string &S, size_t Max = 160) {
  if (S.size() <= Max)
    return S;
  return S.substr(0, Max) + "...[" + std::to_string(S.size()) +
         " bytes total]";
}

OracleOutcome fail(const char *Oracle, std::string Detail) {
  Telemetry::count("fuzz.oracle.failures");
  OracleOutcome Out;
  Out.Passed = false;
  Out.FailedOracle = Oracle;
  Out.Detail = std::move(Detail);
  return Out;
}

/// Everything one engine exposes through the InterpOptions hook surface
/// on one execution — the comparison unit of the engine oracle.
/// ExecResult::Steps is deliberately absent: the engines count
/// different units (bytecode instructions vs AST visits).
struct EngineObservation {
  ExecResult R;
  std::set<const FieldDecl *> Reads;
  std::vector<const FieldDecl *> ReadOrder;
  std::set<const FieldDecl *> Writes;
  FieldHeat Heat;
  std::vector<TraceEvent> Events;
  ProfileSummary Prof;
};

/// Runs the program on one engine with the full hook surface armed.
EngineObservation runOnEngine(Compilation &C, bool UseVm,
                              const FieldSet &Dead,
                              const OracleConfig &Config) {
  EngineObservation Obs;
  AllocationTrace Trace;
  ShadowProfiler Prof(C.hierarchy(), Dead);
  InterpOptions IO;
  IO.ReadSet = &Obs.Reads;
  IO.ReadTrace = &Obs.ReadOrder;
  IO.WriteSet = &Obs.Writes;
  IO.Heat = &Obs.Heat;
  IO.Trace = &Trace;
  IO.TraceStackObjects = true;
  IO.Profiler = &Prof;
  IO.CountDeallocationReads = Config.CountDeallocationReads;
  if (UseVm) {
    vm::CompilerConfig CC;
    CC.FaultAddOffByOne = Config.VmMiscompile;
    vm::VM Machine(C.context(), C.hierarchy(), IO, CC);
    Obs.R = Machine.run(C.mainFunction());
  } else {
    Interpreter Interp(C.context(), C.hierarchy(), IO);
    Obs.R = Interp.run(C.mainFunction());
  }
  Obs.Events = Trace.events();
  Obs.Prof = Prof.finalize(&C.SM);
  return Obs;
}

/// First divergence between the tree-walker's and the VM's observations,
/// or std::nullopt when they agree byte for byte.
std::optional<std::string> firstEngineDivergence(const EngineObservation &T,
                                                 const EngineObservation &V) {
  auto Mismatch = [](const std::string &What, const std::string &Tree,
                     const std::string &Vm) {
    return What + ": tree " + Tree + " vs vm " + Vm;
  };
  if (T.R.Completed != V.R.Completed)
    return Mismatch("completion", T.R.Completed ? "completed" : "aborted",
                    V.R.Completed ? "completed" : "aborted");
  if (T.R.Error != V.R.Error)
    return Mismatch("error message", "\"" + T.R.Error + "\"",
                    "\"" + V.R.Error + "\"");
  if (T.R.Output != V.R.Output)
    return Mismatch("output", "\"" + excerpt(T.R.Output) + "\"",
                    "\"" + excerpt(V.R.Output) + "\"");
  if (T.R.ExitCode != V.R.ExitCode)
    return Mismatch("exit code", std::to_string(T.R.ExitCode),
                    std::to_string(V.R.ExitCode));
  if (T.ReadOrder.size() != V.ReadOrder.size())
    return Mismatch("first-read count", std::to_string(T.ReadOrder.size()),
                    std::to_string(V.ReadOrder.size()));
  for (size_t I = 0; I != T.ReadOrder.size(); ++I)
    if (T.ReadOrder[I] != V.ReadOrder[I])
      return Mismatch("first-read #" + std::string(std::to_string(I + 1)),
                      T.ReadOrder[I]->qualifiedName(),
                      V.ReadOrder[I]->qualifiedName());
  if (T.Reads != V.Reads)
    return Mismatch("read set size", std::to_string(T.Reads.size()),
                    std::to_string(V.Reads.size()));
  if (T.Writes != V.Writes)
    return Mismatch("write set size", std::to_string(T.Writes.size()),
                    std::to_string(V.Writes.size()));
  for (const auto &[F, N] : T.Heat.Reads) {
    auto It = V.Heat.Reads.find(F);
    uint64_t VN = It == V.Heat.Reads.end() ? 0 : It->second;
    if (VN != N)
      return Mismatch("read heat of " + F->qualifiedName(),
                      std::to_string(N), std::to_string(VN));
  }
  if (T.Heat.Reads.size() != V.Heat.Reads.size())
    return Mismatch("read-heat entries", std::to_string(T.Heat.Reads.size()),
                    std::to_string(V.Heat.Reads.size()));
  for (const auto &[F, N] : T.Heat.Writes) {
    auto It = V.Heat.Writes.find(F);
    uint64_t VN = It == V.Heat.Writes.end() ? 0 : It->second;
    if (VN != N)
      return Mismatch("write heat of " + F->qualifiedName(),
                      std::to_string(N), std::to_string(VN));
  }
  if (T.Heat.Writes.size() != V.Heat.Writes.size())
    return Mismatch("write-heat entries",
                    std::to_string(T.Heat.Writes.size()),
                    std::to_string(V.Heat.Writes.size()));
  if (T.Events.size() != V.Events.size())
    return Mismatch("trace length", std::to_string(T.Events.size()),
                    std::to_string(V.Events.size()));
  for (size_t I = 0; I != T.Events.size(); ++I) {
    const TraceEvent &A = T.Events[I], &B = V.Events[I];
    if (A.Kind != B.Kind || A.ObjectID != B.ObjectID ||
        A.Class != B.Class || A.Count != B.Count || A.Bytes != B.Bytes ||
        A.Time != B.Time)
      return "trace event #" + std::to_string(I + 1) + " differs";
  }
  const ProfileSummary &TP = T.Prof, &VP = V.Prof;
  if (TP.Metrics != VP.Metrics)
    return std::string("profiler metrics differ (high_water_mark ") +
           std::to_string(TP.Metrics.HighWaterMark) + " vs " +
           std::to_string(VP.Metrics.HighWaterMark) + ")";
  if (TP.AllocEvents != VP.AllocEvents || TP.FreeEvents != VP.FreeEvents ||
      TP.LeakedObjects != VP.LeakedObjects ||
      TP.PeakAllocEvent != VP.PeakAllocEvent ||
      TP.SnapshotStride != VP.SnapshotStride ||
      TP.ReadBytes != VP.ReadBytes || TP.WrittenBytes != VP.WrittenBytes ||
      TP.AddrTakenBytes != VP.AddrTakenBytes ||
      TP.NeverReadBytes != VP.NeverReadBytes)
    return std::string("profiler byte accounting differs (read ") +
           std::to_string(TP.ReadBytes) + " vs " +
           std::to_string(VP.ReadBytes) + ", written " +
           std::to_string(TP.WrittenBytes) + " vs " +
           std::to_string(VP.WrittenBytes) + ")";
  if (TP.Snapshots.size() != VP.Snapshots.size())
    return Mismatch("snapshot count", std::to_string(TP.Snapshots.size()),
                    std::to_string(VP.Snapshots.size()));
  for (size_t I = 0; I != TP.Snapshots.size(); ++I) {
    const ProfileSnapshot &A = TP.Snapshots[I], &B = VP.Snapshots[I];
    if (A.AllocEvent != B.AllocEvent || A.LiveBytes != B.LiveBytes ||
        A.LiveBytesNoDead != B.LiveBytesNoDead ||
        A.LiveObjects != B.LiveObjects)
      return "profiler snapshot #" + std::to_string(I + 1) + " differs";
  }
  if (TP.Sites.size() != VP.Sites.size())
    return Mismatch("site-table rows", std::to_string(TP.Sites.size()),
                    std::to_string(VP.Sites.size()));
  for (size_t I = 0; I != TP.Sites.size(); ++I) {
    const ProfileSiteRow &A = TP.Sites[I], &B = VP.Sites[I];
    if (A.File != B.File || A.Line != B.Line || A.Class != B.Class ||
        A.Member != B.Member || A.Objects != B.Objects ||
        A.AllocBytes != B.AllocBytes || A.WrittenBytes != B.WrittenBytes ||
        A.ReadBytes != B.ReadBytes || A.AddrTakenBytes != B.AddrTakenBytes ||
        A.NeverReadBytes != B.NeverReadBytes ||
        A.StaticDead != B.StaticDead)
      return "profiler site row " + A.File + ":" + std::to_string(A.Line) +
             " " + A.Class + "::" + A.Member + " differs";
  }
  return std::nullopt;
}

} // namespace

OracleOutcome fuzz::runOracles(const std::string &Source,
                               const OracleConfig &Config) {
  Telemetry::count("fuzz.oracle.checks");

  std::ostringstream Diag;
  auto C = compileString(Source, &Diag);
  if (!C->Success)
    return fail("frontend", "program does not compile: " + Diag.str());

  DeadMemberAnalysis Analysis(C->context(), C->hierarchy(),
                              Config.Analysis);
  DeadMemberResult Result = Analysis.run(C->mainFunction());

  std::set<const FieldDecl *> Reads;
  std::vector<const FieldDecl *> ReadOrder;
  AllocationTrace Trace;
  std::optional<ShadowProfiler> Prof;
  InterpOptions IO;
  IO.ReadSet = &Reads;
  IO.ReadTrace = &ReadOrder;
  IO.CountDeallocationReads = Config.CountDeallocationReads;
  if (Config.Profiler) {
    // The profiler oracle rides the same execution: trace and shadow
    // profiler observe the identical event stream.
    Prof.emplace(C->hierarchy(), Result.deadSet());
    IO.Trace = &Trace;
    IO.Profiler = &*Prof;
  }
  Interpreter Interp(C->context(), C->hierarchy(), IO);
  ExecResult Original = Interp.run(C->mainFunction());
  if (!Original.Completed)
    return fail("runtime", "original program aborted: " + Original.Error);

  // Oracle 4: profiler agreement. The shadow profiler's online
  // accounting and the trace replay compute the paper's dynamic
  // measurements by independent mechanisms; any divergence is a bug in
  // one of them.
  if (Config.Profiler) {
    Prof->finalize(&C->SM);
    LayoutEngine Layout(C->hierarchy());
    const DynamicMetrics Replayed =
        computeDynamicMetrics(Trace, Layout, Result.deadSet());
    const DynamicMetrics &Shadow = Prof->metrics();
    if (Shadow != Replayed) {
      std::ostringstream OS;
      OS << "shadow profiler diverges from the trace replay: "
         << "object_space " << Shadow.ObjectSpace << " vs "
         << Replayed.ObjectSpace << ", dead_member_space "
         << Shadow.DeadMemberSpace << " vs " << Replayed.DeadMemberSpace
         << ", high_water_mark " << Shadow.HighWaterMark << " vs "
         << Replayed.HighWaterMark << ", high_water_mark_no_dead "
         << Shadow.HighWaterMarkNoDead << " vs "
         << Replayed.HighWaterMarkNoDead << ", num_objects "
         << Shadow.NumObjects << " vs " << Replayed.NumObjects;
      return fail("profiler", OS.str());
    }
  }

  // Oracle 5: engine equivalence. The bytecode VM must reproduce the
  // tree-walker's full observable surface — output, exit code, error,
  // first-read order, read/write sets, heat, allocation trace, and
  // shadow-profiler summary — byte for byte. Steps is exempt (the
  // engines count different units), so a step-limit abort is compared
  // by error kind alone: the limit trips at engine-specific points.
  if (Config.Engine) {
    EngineObservation Tree =
        runOnEngine(*C, /*UseVm=*/false, Result.deadSet(), Config);
    EngineObservation Vm =
        runOnEngine(*C, /*UseVm=*/true, Result.deadSet(), Config);
    bool TreeLimited =
        Tree.R.Error.find("step limit exceeded") != std::string::npos;
    bool VmLimited =
        Vm.R.Error.find("step limit exceeded") != std::string::npos;
    if (TreeLimited || VmLimited) {
      if (TreeLimited != VmLimited)
        return fail("engine",
                    std::string("step limit hit on ") +
                        (TreeLimited ? "tree" : "vm") +
                        " only: tree \"" + Tree.R.Error + "\" vs vm \"" +
                        Vm.R.Error + "\"");
    } else if (std::optional<std::string> Div =
                   firstEngineDivergence(Tree, Vm)) {
      return fail("engine", "vm diverges from tree-walker: " + *Div);
    }
  }

  // Oracle 2: dynamic soundness. Checked in first-read order so the
  // detail names the earliest offending read.
  if (Config.Soundness) {
    for (size_t I = 0; I != ReadOrder.size(); ++I) {
      const FieldDecl *F = ReadOrder[I];
      if (Result.isDead(F))
        return fail("soundness",
                    F->qualifiedName() + " (dynamic read #" +
                        std::to_string(I + 1) +
                        ") was read at run time but classified dead");
    }
  }

  // Oracle 1: differential semantics of the eliminated program.
  if (Config.Semantics) {
    EliminationResult Elim = eliminateDeadMembers(
        C->context(), Result, Analysis.callGraph(), Config.Fault);
    std::ostringstream ElimDiag;
    auto CE = compileString(Elim.Source, &ElimDiag);
    if (!CE->Success)
      return fail("semantics", "eliminated program does not compile: " +
                                   ElimDiag.str());
    Interpreter ElimInterp(CE->context(), CE->hierarchy(), {});
    ExecResult Transformed = ElimInterp.run(CE->mainFunction());
    if (!Transformed.Completed)
      return fail("semantics",
                  "eliminated program aborted: " + Transformed.Error);
    if (Transformed.Output != Original.Output)
      return fail("semantics", "output mismatch: original \"" +
                                   excerpt(Original.Output) +
                                   "\" vs eliminated \"" +
                                   excerpt(Transformed.Output) + "\"");
    if (Transformed.ExitCode != Original.ExitCode)
      return fail("semantics",
                  "exit code mismatch: original " +
                      std::to_string(Original.ExitCode) + " vs eliminated " +
                      std::to_string(Transformed.ExitCode));
  }

  if (Config.Invariance) {
    // Monotonic precision: a more precise call graph never loses a
    // dead member, and the write-as-live baseline never beats the
    // paper's algorithm.
    auto DeadWith = [&](CallGraphKind K, bool Baseline) {
      AnalysisOptions Opts = Config.Analysis;
      Opts.CallGraph = K;
      Opts.TreatWritesAsLive = Baseline;
      DeadMemberAnalysis A(C->context(), C->hierarchy(), Opts);
      return deadNames(A.run(C->mainFunction()));
    };
    std::pair<const char *, std::set<std::string>> Chain[] = {
        {"trivial", DeadWith(CallGraphKind::Trivial, false)},
        {"cha", DeadWith(CallGraphKind::CHA, false)},
        {"rta", DeadWith(CallGraphKind::RTA, false)},
        {"pta", DeadWith(CallGraphKind::PTA, false)},
    };
    for (size_t I = 1; I != 4; ++I)
      for (const std::string &Name : Chain[I - 1].second)
        if (!Chain[I].second.count(Name))
          return fail("invariance-monotonic",
                      Name + " is dead under " + Chain[I - 1].first +
                          " but live under " + Chain[I].first);
    std::set<std::string> Baseline =
        DeadWith(Config.Analysis.CallGraph, true);
    std::set<std::string> Paper = deadNames(Result);
    for (const std::string &Name : Baseline)
      if (!Paper.count(Name))
        return fail("invariance-monotonic",
                    Name + " is dead under the write-as-live baseline "
                           "but live under the paper algorithm");
  }

  return {};
}
