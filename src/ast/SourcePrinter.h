//===-- ast/SourcePrinter.h - AST-to-source printer -------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints an AST back to parseable MiniC++ source. The output is
/// normalized, not a byte-for-byte copy: class bodies carry member
/// declarations only, every function body is emitted out-of-line after
/// all classes and prototypes (so forward references always resolve),
/// and expressions are parenthesized by structure.
///
/// Subclasses override the keep*/rewrite hooks to produce transformed
/// programs; the DeadMemberEliminator (src/transform) uses this to
/// implement the paper's space optimization as a source-to-source pass.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_AST_SOURCEPRINTER_H
#define DMM_AST_SOURCEPRINTER_H

#include "ast/ASTContext.h"

#include <string>
#include <string_view>

namespace dmm {

/// Prints (optionally filtered) MiniC++ source from an AST.
class SourcePrinter {
public:
  virtual ~SourcePrinter() = default;

  /// Prints the whole program.
  std::string print(const ASTContext &Ctx);

  /// How to emit one statement (used by the actOnStmt hook).
  enum class StmtAction {
    Keep,    ///< Print as is.
    Drop,    ///< Omit entirely.
    RhsOnly, ///< For assignment statements: keep only the RHS
             ///< (preserves its side effects).
  };

protected:
  /// \name Filtering hooks (default: keep everything)
  /// @{
  /// False removes the data member declaration.
  virtual bool keepField(const FieldDecl * /*F*/) { return true; }
  /// False removes the function/method/ctor/dtor entirely (declaration
  /// and body).
  virtual bool keepFunction(const FunctionDecl * /*FD*/) { return true; }
  /// False drops only the body, leaving the declaration (used to strip
  /// unreachable code without breaking static references).
  virtual bool keepBody(const FunctionDecl * /*FD*/) { return true; }
  /// False removes one constructor initializer.
  virtual bool keepCtorInit(const ConstructorDecl * /*Ctor*/,
                            const CtorInitializer & /*Init*/) {
    return true;
  }

  virtual StmtAction actOnStmt(const Stmt *S) {
    (void)S;
    return StmtAction::Keep;
  }
  /// @}

  /// \name Emission helpers (available to subclasses)
  /// @{
  void emit(std::string_view Text) { Out += Text; }
  void emitLine(const std::string &Text);
  void printExpr(const Expr *E);
  void printStmt(const Stmt *S, unsigned Indent);
  /// @}

private:
  void printClassHead(const ClassDecl *CD);
  void printMethodHead(const MethodDecl *M, bool InClass);
  void printParams(const FunctionDecl *FD);
  /// Prints "type name" handling array / function-pointer / member
  /// pointer declarator forms.
  std::string declarator(const Type *Ty, const std::string &Name);
  void printVarDecl(const VarDecl *V, unsigned Indent, bool AsStatement);
  void printFunctionBody(const FunctionDecl *FD, bool Qualified);
  void printCompound(const CompoundStmt *CS, unsigned Indent);
  void indent(unsigned Levels);

  std::string Out;
  const SymbolTable *Symbols = nullptr; ///< The printed program's names.
};

} // namespace dmm

#endif // DMM_AST_SOURCEPRINTER_H
