//===-- analysis/DeadMemberAnalysis.cpp -----------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/DeadMemberAnalysis.h"

#include "analysis/Scanner.h"
#include "ast/ASTContext.h"
#include "hierarchy/ClassHierarchy.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <cassert>

using namespace dmm;

const char *dmm::livenessReasonName(LivenessReason Reason) {
  switch (Reason) {
  case LivenessReason::NotAccessed: return "not accessed (dead)";
  case LivenessReason::Read: return "value read";
  case LivenessReason::AddressTaken: return "address taken";
  case LivenessReason::PointerToMember: return "pointer-to-member constant";
  case LivenessReason::UnsafeCast: return "reached by unsafe cast";
  case LivenessReason::SizeofConservative: return "sizeof (conservative)";
  case LivenessReason::UnionClosure: return "union closure";
  case LivenessReason::VolatileWrite: return "volatile member written";
  case LivenessReason::Written: return "written (baseline mode)";
  }
  return "unknown";
}

const char *dmm::livenessReasonSlug(LivenessReason Reason) {
  switch (Reason) {
  case LivenessReason::NotAccessed: return "not_accessed";
  case LivenessReason::Read: return "read";
  case LivenessReason::AddressTaken: return "address_taken";
  case LivenessReason::PointerToMember: return "pointer_to_member";
  case LivenessReason::UnsafeCast: return "unsafe_cast";
  case LivenessReason::SizeofConservative: return "sizeof";
  case LivenessReason::UnionClosure: return "union_closure";
  case LivenessReason::VolatileWrite: return "volatile_write";
  case LivenessReason::Written: return "written";
  }
  return "unknown";
}

FieldSet DeadMemberResult::deadSet() const {
  FieldSet Dead;
  for (const FieldDecl *F : Classifiable)
    if (!Live.test(F->declID()))
      Dead.insert(F);
  return Dead;
}

std::vector<const FieldDecl *> DeadMemberResult::deadMembers() const {
  std::vector<const FieldDecl *> Dead;
  for (const FieldDecl *F : Classifiable)
    if (!Live.test(F->declID()))
      Dead.push_back(F);
  return Dead;
}

//===----------------------------------------------------------------------===//
// DeadMemberAnalysis: replay + closure
//===----------------------------------------------------------------------===//
//
// The statement/expression walker lives in analysis/Scanner.h
// (LivenessScanner).

DeadMemberAnalysis::DeadMemberAnalysis(const ASTContext &Ctx,
                                       const ClassHierarchy &CH,
                                       AnalysisOptions Options)
    : Ctx(Ctx), CH(CH), Options(Options) {}

DeadMemberResult DeadMemberAnalysis::run(const FunctionDecl *Main) {
  Span Timer("analysis");
  Result = DeadMemberResult();
  MarkVisited.clear();
  ProvLoc = SourceLocation();
  ProvVia = nullptr;
  ProvTrigger = nullptr;
  NumFunctionsProcessed = NumExprsVisited = NumUnionClosurePasses = 0;
  MarksPerReason.fill(0);

  // Line 3 of Fig. 2: all data members start dead. We track the live set;
  // classifiable members are enumerated here.
  for (const FieldDecl *F : Ctx.fields())
    if (Result.canClassify(F))
      Result.Classifiable.push_back(F);

  // Line 5: construct the call graph.
  if (InjectedGraph) {
    UsedGraph = InjectedGraph;
  } else {
    OwnedGraph = buildCallGraph(Ctx, CH, Main, Options.CallGraph);
    UsedGraph = &OwnedGraph;
  }

  // Lines 6-8, scan side: walk the global initializers and every
  // statement of every reachable function, collecting mark events. The
  // per-function scans are independent pure reads, so they fan out
  // across the pool.
  ScanOutput GlobalScan;
  std::vector<const FunctionDecl *> Fns;
  std::vector<ScanOutput> Scans;
  {
    Span ScanSpan("analysis.scan");
    LivenessScanner GlobalScanner(Options);
    for (const VarDecl *GV : Ctx.globals())
      GlobalScanner.scanGlobal(GV);
    GlobalScan = GlobalScanner.take();

    Fns = UsedGraph->reachableFunctions();
    Scans = globalThreadPool().parallelMap<ScanOutput>(
        Fns.size(), [&](size_t I) {
          LivenessScanner S(Options);
          S.scanFunction(Fns[I]);
          return S.take();
        });
    ScanSpan.arg("functions", Fns.size());
  }

  // Replay in deterministic order — globals first, then functions in
  // the (decl-ID sorted) reachable order — so first-cause-wins marks,
  // sweep dedup, and provenance are identical at any --jobs level.
  {
    Span ReplaySpan("analysis.replay");
    applyScan(GlobalScan);
    for (const ScanOutput &Scan : Scans) {
      ++NumFunctionsProcessed;
      applyScan(Scan);
    }
  }

  // Lines 9-11: union closure. A union must be closed when any member it
  // (transitively) contains is live: a write through one alternative can
  // otherwise change a live member's value unnoticed. Iterate to a fixed
  // point since closing one union may enliven members of another.
  if (Options.UnionClosure) {
    Span ClosureSpan("analysis.closure");
    bool Changed = true;
    while (Changed) {
      Changed = false;
      ++NumUnionClosurePasses;
      for (const ClassDecl *CD : Ctx.classes()) {
        if (!CD->isUnion() || MarkVisited.test(CD->declID()))
          continue;
        const FieldDecl *Trigger = containsLiveMember(CD);
        if (!Trigger)
          continue;
        if (Options.RecordProvenance) {
          ProvLoc = SourceLocation();
          ProvVia = CD;
          ProvTrigger = Trigger;
        }
        markAllContainedMembers(CD, LivenessReason::UnionClosure);
        ProvVia = nullptr;
        ProvTrigger = nullptr;
        Changed = true;
      }
    }
  }

  if (Telemetry *T = Telemetry::active()) {
    T->addCounter("analysis.functions_processed", NumFunctionsProcessed);
    T->addCounter("analysis.exprs_visited", NumExprsVisited);
    T->addCounter("analysis.union_closure_passes", NumUnionClosurePasses);
    T->addCounter("analysis.classifiable_members",
                  Result.Classifiable.size());
    T->addCounter("analysis.live_members", Result.Live.count());
    for (size_t I = 0; I != MarksPerReason.size(); ++I)
      if (MarksPerReason[I])
        T->addCounter(std::string("analysis.live.") +
                          livenessReasonSlug(static_cast<LivenessReason>(I)),
                      MarksPerReason[I]);
  }

  return Result;
}

void DeadMemberAnalysis::applyScan(const ScanOutput &Scan) {
  NumExprsVisited += Scan.ExprsVisited;
  for (const MarkEvent &E : Scan.Events) {
    if (Options.RecordProvenance) {
      ProvLoc = E.Loc;
      ProvVia = nullptr;
      ProvTrigger = nullptr;
    }
    if (E.Field) {
      markLive(E.Field, E.Reason);
      continue;
    }
    if (Options.RecordProvenance)
      ProvVia = E.Sweep;
    markAllContainedMembers(E.Sweep, E.Reason);
    ProvVia = nullptr;
  }
}

const FieldDecl *
DeadMemberAnalysis::containsLiveMember(const ClassDecl *CD) const {
  std::set<const ClassDecl *> Seen;
  struct Walker {
    const DeadMemberResult &Result;
    std::set<const ClassDecl *> &Seen;
    const FieldDecl *walk(const ClassDecl *C) const {
      if (!Seen.insert(C).second)
        return nullptr;
      for (const FieldDecl *F : C->fields()) {
        if (Result.isLive(F))
          return F;
        const Type *Ty = F->type();
        if (const auto *AT = dyn_cast<ArrayType>(Ty))
          Ty = AT->element();
        if (const ClassDecl *Nested = Ty->asClassDecl())
          if (const FieldDecl *Found = walk(Nested))
            return Found;
      }
      for (const BaseSpecifier &BS : C->bases())
        if (const FieldDecl *Found = walk(BS.Base))
          return Found;
      return nullptr;
    }
  };
  return Walker{Result, Seen}.walk(CD);
}

void DeadMemberAnalysis::markLive(const FieldDecl *F,
                                  LivenessReason Reason) {
  unsigned ID = F->declID();
  if (!Result.Live.set(ID))
    return; // First cause wins.
  if (Result.Reasons.size() <= ID)
    Result.Reasons.resize(ID + 1, 0);
  Result.Reasons[ID] = static_cast<uint8_t>(Reason);
  ++MarksPerReason[static_cast<size_t>(Reason)];
  if (Options.RecordProvenance)
    Result.Provenance[F] = {Reason, ProvLoc, ProvVia, ProvTrigger};
}

void DeadMemberAnalysis::markAllContainedMembers(const ClassDecl *CD,
                                                 LivenessReason Reason) {
  // Paper Fig. 2 lines 36-50, with the not-visited guard.
  if (!MarkVisited.set(CD->declID()))
    return;
  for (const FieldDecl *F : CD->fields()) {
    markLive(F, Reason);
    if (const ClassDecl *Nested = F->type()->asClassDecl())
      markAllContainedMembers(Nested, Reason);
    else if (const auto *AT = dyn_cast<ArrayType>(F->type()))
      if (const ClassDecl *Elem = AT->element()->asClassDecl())
        markAllContainedMembers(Elem, Reason);
  }
  for (const BaseSpecifier &BS : CD->bases())
    markAllContainedMembers(BS.Base, Reason);
}
