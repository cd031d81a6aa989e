//===-- analysis/Report.cpp -----------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"

#include "ast/ASTContext.h"
#include "callgraph/CallGraph.h"
#include "hierarchy/ObjectLayout.h"
#include "support/SourceManager.h"
#include "telemetry/Json.h"

#include <iomanip>

using namespace dmm;

static void printLocation(std::ostream &OS, const SourceManager *SM,
                          SourceLocation Loc) {
  if (!SM)
    return;
  PresumedLoc P = SM->presumedLoc(Loc);
  if (!P.isValid())
    return;
  OS << " [" << P.Filename << ":" << P.Line << ":" << P.Column << "]";
}

void dmm::printMemberReport(std::ostream &OS, const ASTContext &Ctx,
                            const DeadMemberResult &Result,
                            const SourceManager *SM, ReportOptions Options) {
  unsigned NumDead = 0;
  unsigned NumTotal = 0;
  for (const ClassDecl *CD : Ctx.classes()) {
    if (CD->isLibrary() || !CD->isComplete() || CD->fields().empty())
      continue;
    bool PrintedHeader = false;
    for (const FieldDecl *F : CD->fields()) {
      ++NumTotal;
      bool Dead = Result.isDead(F);
      if (Dead)
        ++NumDead;
      if (!Dead && !Options.ShowLiveMembers)
        continue;
      if (!PrintedHeader) {
        OS << CD->name() << ":\n";
        PrintedHeader = true;
      }
      OS << "  " << (Dead ? "dead" : "live") << "  " << F->name() << " : "
         << F->type()->str();
      if (!Dead)
        OS << "  (" << livenessReasonName(Result.reason(F)) << ")";
      printLocation(OS, SM, F->location());
      OS << "\n";
    }
  }
  OS << NumDead << " of " << NumTotal << " data members are dead";
  if (NumTotal)
    OS << " (" << std::fixed << std::setprecision(1)
       << 100.0 * NumDead / NumTotal << "%)";
  OS << "\n";
}

void dmm::printStatsReport(std::ostream &OS, const ProgramStats &Stats) {
  OS << "lines of code:            " << Stats.LinesOfCode << "\n"
     << "classes:                  " << Stats.NumClasses << " ("
     << Stats.NumUsedClasses << " used)\n"
     << "members in used classes:  " << Stats.NumMembersInUsedClasses << "\n"
     << "dead members:             " << Stats.NumDeadMembersInUsedClasses
     << " (" << std::fixed << std::setprecision(1) << Stats.percentDead()
     << "%)\n";
}

//===----------------------------------------------------------------------===//
// JSON report
//===----------------------------------------------------------------------===//

void dmm::printJsonReport(std::ostream &OS, const ASTContext &Ctx,
                          const DeadMemberResult &Result,
                          const SourceManager *SM) {
  unsigned Total = 0;
  unsigned Dead = 0;
  OS << "{\n  \"members\": [\n";
  bool First = true;
  for (const ClassDecl *CD : Ctx.classes()) {
    if (CD->isLibrary() || !CD->isComplete())
      continue;
    for (const FieldDecl *F : CD->fields()) {
      ++Total;
      bool IsDead = Result.isDead(F);
      if (IsDead)
        ++Dead;
      if (!First)
        OS << ",\n";
      First = false;
      OS << "    {\"class\": ";
      json::writeString(OS, CD->name());
      OS << ", \"name\": ";
      json::writeString(OS, F->name());
      OS << ", \"type\": ";
      json::writeString(OS, F->type()->str());
      OS << ", \"dead\": " << (IsDead ? "true" : "false");
      if (!IsDead) {
        OS << ", \"reason\": ";
        json::writeString(OS, livenessReasonName(Result.reason(F)));
      }
      if (SM) {
        PresumedLoc P = SM->presumedLoc(F->location());
        if (P.isValid()) {
          OS << ", \"file\": ";
          json::writeString(OS, P.Filename);
          OS << ", \"line\": " << P.Line << ", \"column\": " << P.Column;
        }
      }
      if (const LivenessProvenance *Prov = Result.provenance(F)) {
        if (SM && Prov->Loc.isValid()) {
          PresumedLoc P = SM->presumedLoc(Prov->Loc);
          if (P.isValid()) {
            OS << ", \"causeFile\": ";
            json::writeString(OS, P.Filename);
            OS << ", \"causeLine\": " << P.Line
               << ", \"causeColumn\": " << P.Column;
          }
        }
        if (Prov->Via) {
          OS << ", \"via\": ";
          json::writeString(OS, Prov->Via->name());
        }
        if (Prov->Trigger) {
          OS << ", \"propagatedFrom\": ";
          json::writeString(OS, Prov->Trigger->qualifiedName());
        }
      }
      OS << "}";
    }
  }
  OS << "\n  ],\n  \"summary\": {\"total\": " << Total
     << ", \"dead\": " << Dead << ", \"percentDead\": "
     << (Total ? 100.0 * Dead / Total : 0.0) << "}\n}\n";
}

//===----------------------------------------------------------------------===//
// Layout report
//===----------------------------------------------------------------------===//

void dmm::printLayoutReport(std::ostream &OS, const ASTContext &Ctx,
                            const ClassHierarchy &CH,
                            const DeadMemberResult &Result) {
  LayoutEngine Engine(CH);
  FieldSet Dead = Result.deadSet();
  for (const ClassDecl *CD : Ctx.classes()) {
    if (!CD->isComplete())
      continue;
    const ClassLayout &L = Engine.layout(CD);
    OS << (CD->isUnion() ? "union " : "class ") << CD->name()
       << " (size " << L.CompleteSize << ", align " << L.Align;
    if (L.HasOwnVPtr)
      OS << ", vptr";
    if (L.OverheadBytes)
      OS << ", " << L.OverheadBytes << " overhead bytes";
    OS << ")\n";
    for (const FieldSlot &Slot : L.AllFields) {
      OS << "  +" << Slot.Offset << "\t" << Slot.Field->qualifiedName()
         << " : " << Slot.Field->type()->str() << " (" << Slot.Size
         << " bytes)";
      if (Dead.count(Slot.Field))
        OS << "  [dead]";
      OS << "\n";
    }
    uint64_t Shrunk = Engine.sizeWithoutDead(CD, Dead);
    if (Shrunk != L.CompleteSize)
      OS << "  without dead members: " << Shrunk << " bytes\n";
  }
}

//===----------------------------------------------------------------------===//
// Provenance (--explain) report
//===----------------------------------------------------------------------===//

namespace {

/// Prints "\n  at file:line:col" or nothing when the location is
/// unavailable.
void printCauseLocation(std::ostream &OS, const SourceManager *SM,
                        SourceLocation Loc, unsigned Indent) {
  if (!SM || !Loc.isValid())
    return;
  PresumedLoc P = SM->presumedLoc(Loc);
  if (!P.isValid())
    return;
  OS << std::string(Indent, ' ') << "at " << P.Filename << ":" << P.Line
     << ":" << P.Column << "\n";
}

void explainMember(std::ostream &OS, const DeadMemberResult &Result,
                   const FieldDecl *F, const SourceManager *SM,
                   unsigned Indent, std::set<const FieldDecl *> &Seen) {
  std::string Pad(Indent, ' ');
  if (Result.isDead(F)) {
    OS << Pad << F->qualifiedName() << ": dead ("
       << livenessReasonName(LivenessReason::NotAccessed) << ")";
    printLocation(OS, SM, F->location());
    OS << "\n";
    return;
  }
  LivenessReason Reason = Result.reason(F);
  OS << Pad << F->qualifiedName() << ": live ("
     << livenessReasonName(Reason) << ")\n";
  const LivenessProvenance *Prov = Result.provenance(F);
  if (!Prov) {
    OS << Pad << "  (no provenance recorded; re-run with --explain to "
          "enable it)\n";
    return;
  }
  if (!Seen.insert(F).second) {
    OS << Pad << "  (cycle: already explained above)\n";
    return;
  }
  switch (Reason) {
  case LivenessReason::UnsafeCast:
    OS << Pad << "  swept: transitively contained in '"
       << (Prov->Via ? Prov->Via->name() : std::string("?"))
       << "', reached by an unsafe cast\n";
    printCauseLocation(OS, SM, Prov->Loc, Indent + 2);
    break;
  case LivenessReason::SizeofConservative:
    OS << Pad << "  swept: transitively contained in '"
       << (Prov->Via ? Prov->Via->name() : std::string("?"))
       << "', operand of a conservative sizeof\n";
    printCauseLocation(OS, SM, Prov->Loc, Indent + 2);
    break;
  case LivenessReason::UnionClosure:
    OS << Pad << "  swept: closing union '"
       << (Prov->Via ? Prov->Via->name() : std::string("?")) << "'\n";
    if (Prov->Trigger) {
      OS << Pad << "  triggered by live member '"
         << Prov->Trigger->qualifiedName() << "':\n";
      explainMember(OS, Result, Prov->Trigger, SM, Indent + 4, Seen);
    }
    break;
  default:
    // Direct marks: the marking expression's location is the root
    // cause; fall back to the declaration when unavailable.
    if (Prov->Loc.isValid())
      printCauseLocation(OS, SM, Prov->Loc, Indent + 2);
    else
      printCauseLocation(OS, SM, F->location(), Indent + 2);
    break;
  }
}

} // namespace

bool dmm::printExplainReport(std::ostream &OS, const ASTContext &Ctx,
                             const DeadMemberResult &Result,
                             const std::string &Query,
                             const SourceManager *SM) {
  for (const ClassDecl *CD : Ctx.classes()) {
    if (CD->isLibrary() || !CD->isComplete())
      continue;
    for (const FieldDecl *F : CD->fields()) {
      if (F->qualifiedName() != Query)
        continue;
      std::set<const FieldDecl *> Seen;
      explainMember(OS, Result, F, SM, 0, Seen);
      return true;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Dead function report
//===----------------------------------------------------------------------===//

unsigned dmm::printDeadFunctionReport(std::ostream &OS,
                                      const ASTContext &Ctx,
                                      const CallGraph &Graph,
                                      const SourceManager *SM) {
  unsigned NumDead = 0;
  unsigned NumTotal = 0;
  for (const FunctionDecl *FD : Ctx.functions()) {
    if (FD->isBuiltin() || !FD->isDefined())
      continue;
    ++NumTotal;
    if (Graph.isReachable(FD))
      continue;
    ++NumDead;
    OS << "dead function: " << FD->qualifiedName();
    printLocation(OS, SM, FD->location());
    OS << "\n";
  }
  OS << NumDead << " of " << NumTotal
     << " defined functions are unreachable\n";
  return NumDead;
}
