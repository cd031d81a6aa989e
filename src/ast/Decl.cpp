//===-- ast/Decl.cpp ------------------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ast/Decl.h"
#include "ast/Stmt.h"

using namespace dmm;

FieldDecl *ClassDecl::findField(std::string_view FieldName) const {
  for (FieldDecl *F : Fields)
    if (F->name() == FieldName)
      return F;
  return nullptr;
}

MethodDecl *ClassDecl::findMethod(std::string_view MethodName) const {
  for (MethodDecl *M : Methods)
    if (M->name() == MethodName)
      return M;
  return nullptr;
}

std::string FunctionDecl::qualifiedName() const {
  if (const auto *M = dyn_cast<MethodDecl>(this))
    return M->parent()->name() + "::" + name();
  return name();
}
