//===-- analysis/ProgramStats.cpp -----------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/ProgramStats.h"

#include "ast/ASTContext.h"
#include "support/SourceManager.h"

using namespace dmm;

/// Adds \p CD and (transitively) the classes of its member objects.
static void addUsedClass(const ClassDecl *CD,
                         std::set<const ClassDecl *> &Used) {
  if (!CD || !CD->isComplete() || !Used.insert(CD).second)
    return;
  for (const FieldDecl *F : CD->fields()) {
    const Type *Ty = F->type();
    if (const auto *AT = dyn_cast<ArrayType>(Ty))
      Ty = AT->element();
    if (const ClassDecl *Member = Ty->asClassDecl())
      addUsedClass(Member, Used);
  }
  // Base subobjects are constructed along with CD.
  for (const BaseSpecifier &BS : CD->bases())
    addUsedClass(BS.Base, Used);
}

std::set<const ClassDecl *> dmm::computeUsedClasses(const ASTContext &Ctx) {
  std::set<const ClassDecl *> Used;
  for (const ClassDecl *CD : Ctx.classes())
    if (CD->isInstantiated())
      addUsedClass(CD, Used);

  // Library classes are excluded from the application's statistics.
  std::set<const ClassDecl *> Result;
  for (const ClassDecl *CD : Used)
    if (!CD->isLibrary())
      Result.insert(CD);
  return Result;
}

ProgramStats dmm::computeProgramStats(
    const ASTContext &Ctx, const DeadMemberResult &Result,
    const SourceManager *SM, const std::vector<uint32_t> &UserFileIDs) {
  ProgramStats Stats;

  if (SM)
    for (uint32_t ID : UserFileIDs)
      Stats.LinesOfCode += SM->countCodeLines(ID);

  std::set<const ClassDecl *> Used = computeUsedClasses(Ctx);
  for (const ClassDecl *CD : Ctx.classes()) {
    if (CD->isLibrary() || !CD->isComplete())
      continue;
    ++Stats.NumClasses;
    if (!Used.count(CD))
      continue;
    ++Stats.NumUsedClasses;
    for (const FieldDecl *F : CD->fields()) {
      ++Stats.NumMembersInUsedClasses;
      if (Result.isDead(F))
        ++Stats.NumDeadMembersInUsedClasses;
    }
  }
  return Stats;
}
