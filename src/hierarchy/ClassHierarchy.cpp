//===-- hierarchy/ClassHierarchy.cpp --------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "hierarchy/ClassHierarchy.h"

#include "ast/ASTContext.h"

#include <cassert>

using namespace dmm;

const std::vector<const ClassDecl *> ClassHierarchy::Empty;

ClassHierarchy::ClassHierarchy(const ASTContext &Ctx) {
  for (const ClassDecl *CD : Ctx.classes())
    for (const BaseSpecifier &BS : CD->bases())
      Subclasses[BS.Base].push_back(CD);
}

bool ClassHierarchy::isDerivedFrom(const ClassDecl *Derived,
                                   const ClassDecl *Base) const {
  if (Derived == Base)
    return true;
  for (const BaseSpecifier &BS : Derived->bases())
    if (isDerivedFrom(BS.Base, Base))
      return true;
  return false;
}

const std::vector<const ClassDecl *> &
ClassHierarchy::directSubclasses(const ClassDecl *CD) const {
  auto It = Subclasses.find(CD);
  return It == Subclasses.end() ? Empty : It->second;
}

std::vector<const ClassDecl *>
ClassHierarchy::selfAndSubclasses(const ClassDecl *CD) const {
  std::vector<const ClassDecl *> Result;
  std::unordered_set<const ClassDecl *> Seen;
  std::vector<const ClassDecl *> Work{CD};
  while (!Work.empty()) {
    const ClassDecl *Cur = Work.back();
    Work.pop_back();
    if (!Seen.insert(Cur).second)
      continue;
    Result.push_back(Cur);
    for (const ClassDecl *Sub : directSubclasses(Cur))
      Work.push_back(Sub);
  }
  return Result;
}

void ClassHierarchy::collectBases(
    const ClassDecl *CD, std::vector<const ClassDecl *> &Out,
    std::unordered_set<const ClassDecl *> &Seen) const {
  for (const BaseSpecifier &BS : CD->bases()) {
    if (Seen.insert(BS.Base).second)
      Out.push_back(BS.Base);
    collectBases(BS.Base, Out, Seen);
  }
}

std::vector<const ClassDecl *>
ClassHierarchy::transitiveBases(const ClassDecl *CD) const {
  std::vector<const ClassDecl *> Out;
  std::unordered_set<const ClassDecl *> Seen;
  collectBases(CD, Out, Seen);
  return Out;
}

std::vector<const ClassDecl *>
ClassHierarchy::virtualBases(const ClassDecl *CD) const {
  std::vector<const ClassDecl *> Out;
  std::unordered_set<const ClassDecl *> Seen;
  // Walk all bases; a base reached through a virtual edge anywhere is a
  // virtual base of the complete object.
  std::vector<const ClassDecl *> Work{CD};
  std::unordered_set<const ClassDecl *> Visited;
  while (!Work.empty()) {
    const ClassDecl *Cur = Work.back();
    Work.pop_back();
    if (!Visited.insert(Cur).second)
      continue;
    for (const BaseSpecifier &BS : Cur->bases()) {
      if (BS.IsVirtual && Seen.insert(BS.Base).second)
        Out.push_back(BS.Base);
      Work.push_back(BS.Base);
    }
  }
  return Out;
}

void ClassHierarchy::lookupVisible(const ClassDecl *CD,
                                   std::string_view Name,
                                   std::unordered_set<Decl *> &Out) const {
  if (FieldDecl *F = CD->findField(Name)) {
    Out.insert(F);
    return; // Hides base members.
  }
  if (MethodDecl *M = CD->findMethod(Name)) {
    Out.insert(M);
    return;
  }
  for (const BaseSpecifier &BS : CD->bases())
    lookupVisible(BS.Base, Name, Out);
}

FieldDecl *ClassHierarchy::lookupField(const ClassDecl *CD,
                                       std::string_view Name,
                                       bool *Ambiguous) const {
  if (Ambiguous)
    *Ambiguous = false;
  std::unordered_set<Decl *> Found;
  lookupVisible(CD, Name, Found);
  if (Found.size() > 1) {
    if (Ambiguous)
      *Ambiguous = true;
    return nullptr;
  }
  if (Found.empty())
    return nullptr;
  return dyn_cast<FieldDecl>(*Found.begin());
}

MethodDecl *ClassHierarchy::lookupMethod(const ClassDecl *CD,
                                         std::string_view Name,
                                         bool *Ambiguous) const {
  if (Ambiguous)
    *Ambiguous = false;
  std::unordered_set<Decl *> Found;
  lookupVisible(CD, Name, Found);
  if (Found.size() > 1) {
    if (Ambiguous)
      *Ambiguous = true;
    return nullptr;
  }
  if (Found.empty())
    return nullptr;
  return dyn_cast<MethodDecl>(*Found.begin());
}

bool ClassHierarchy::isPolymorphic(const ClassDecl *CD) const {
  for (const MethodDecl *M : CD->methods())
    if (isVirtualMethod(M))
      return true;
  if (CD->destructor() && CD->destructor()->isVirtual())
    return true;
  for (const BaseSpecifier &BS : CD->bases()) {
    if (BS.IsVirtual || isPolymorphic(BS.Base))
      return true;
  }
  return false;
}

bool ClassHierarchy::isVirtualMethod(const MethodDecl *M) const {
  if (M->isVirtual())
    return true;
  // Overriding a virtual base method makes a method virtual even without
  // the keyword.
  for (const ClassDecl *Base : transitiveBases(M->parent()))
    if (MethodDecl *BaseM = Base->findMethod(M->name()))
      if (BaseM->isVirtual())
        return true;
  return false;
}

MethodDecl *
ClassHierarchy::resolveVirtualCall(const ClassDecl *DynamicClass,
                                   const MethodDecl *M) const {
  if (!isDerivedFrom(DynamicClass, M->parent()))
    return nullptr;
  // The most-derived override is found by ordinary lookup from the
  // dynamic class (MiniC++ has no overloading, so names identify
  // methods).
  if (MethodDecl *Found = lookupMethod(DynamicClass, M->name()))
    return Found;
  return const_cast<MethodDecl *>(M);
}

std::vector<MethodDecl *>
ClassHierarchy::overriders(const MethodDecl *M) const {
  std::vector<MethodDecl *> Result;
  for (const ClassDecl *Sub : selfAndSubclasses(M->parent())) {
    if (Sub == M->parent())
      continue;
    if (MethodDecl *Override = Sub->findMethod(M->name()))
      Result.push_back(Override);
  }
  return Result;
}
