//===-- sema/Sema.h - Resolution and type checking --------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis over the parsed AST: builds the class hierarchy,
/// propagates virtualness to overriding methods, resolves every name
/// (variables, implicit-this members, globals, functions), performs the
/// paper's Lookup operation for member accesses, selects constructors,
/// classifies cast safety, and computes the type of every expression.
///
/// Sema is lenient where full C++ conformance does not matter to the
/// analysis (implicit numeric conversions are accepted; argument types
/// are checked by count, not type), and strict where the analysis
/// depends on it (member resolution, cast classification, virtual
/// dispatch identification).
///
//===----------------------------------------------------------------------===//

#ifndef DMM_SEMA_SEMA_H
#define DMM_SEMA_SEMA_H

#include "ast/ASTContext.h"
#include "hierarchy/ClassHierarchy.h"

#include <memory>
#include <vector>

namespace dmm {

class DiagnosticsEngine;

/// Resolves and checks one program.
class Sema {
public:
  Sema(ASTContext &Ctx, DiagnosticsEngine &Diags);

  /// Runs the whole pass. Returns true if no errors were reported.
  bool run();

  /// The hierarchy built for this program (valid after run()).
  const ClassHierarchy &hierarchy() const { return *CH; }

  /// The program's `main` function; null if missing (diagnosed).
  FunctionDecl *mainFunction() const { return MainFn; }

private:
  void createBuiltins();
  void computeVirtualFlags();

  const FunctionType *functionTypeOf(const FunctionDecl *FD);
  ConstructorDecl *findCtorByArity(const ClassDecl *CD, size_t Arity) const;

  /// Resolves constructor selection for a variable declaration (local or
  /// global) and checks its initializer.
  void checkVarInit(VarDecl *V);

  void checkFunction(FunctionDecl *FD);
  void resolveCtorInitializers(ConstructorDecl *Ctor);

  /// \name Scopes
  /// A block binds its locals in NameBinding::Local and restores what
  /// they shadowed when it ends.
  /// @{
  void pushScope();
  void popScope();
  void declareLocal(VarDecl *V);
  /// @}

  /// \name Statement / expression checking
  /// @{
  void checkStmt(Stmt *S);
  /// Computes and stores the type of \p E (and of its children).
  /// Returns the stored type; never null (error recovery yields int).
  const Type *checkExpr(Expr *E);
  const Type *checkDeclRef(DeclRefExpr *E);
  const Type *checkMember(MemberExpr *E);
  const Type *checkCall(CallExpr *E);
  const Type *checkCast(CastExpr *E);
  const Type *checkUnary(UnaryExpr *E);
  const Type *checkBinary(BinaryExpr *E);
  /// @}

  ASTContext &Ctx;
  DiagnosticsEngine &Diags;
  std::unique_ptr<ClassHierarchy> CH;

  FunctionDecl *MainFn = nullptr;

  /// A local binding that a declaration in an open block replaced.
  struct Shadowed { SymbolID Name; VarDecl *Local; unsigned Depth; };
  std::vector<Shadowed> ShadowStack;
  std::vector<size_t> BlockStarts; ///< ShadowStack size at each open block.
  ClassDecl *CurClass = nullptr;
  FunctionDecl *CurFunction = nullptr;
};

} // namespace dmm

#endif // DMM_SEMA_SEMA_H
