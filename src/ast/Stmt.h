//===-- ast/Stmt.h - MiniC++ statements -------------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statement nodes. The analysis of paper Figure 2 iterates over "each
/// statement s in each function f", then over "each expression e in s";
/// see ast/ASTWalker.h for the corresponding traversal helpers.
///
/// Every statement is trivially destructible: child lists are arena
/// arrays, set once the parser has read the whole list.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_AST_STMT_H
#define DMM_AST_STMT_H

#include "support/Casting.h"
#include "support/SourceLocation.h"

#include <span>

namespace dmm {

class Expr;
class VarDecl;

/// Base of the statement hierarchy.
class Stmt {
public:
  enum class Kind {
    Compound,
    Decl,
    Expr,
    If,
    While,
    For,
    Break,
    Continue,
    Return,
    Null,
  };

  Kind kind() const { return K; }
  SourceLocation location() const { return Loc; }

protected:
  Stmt(Kind K, SourceLocation Loc) : K(K), Loc(Loc) {}
  ~Stmt() = default;

private:
  Kind K;
  SourceLocation Loc;
};

/// `{ stmt... }`.
class CompoundStmt : public Stmt {
public:
  explicit CompoundStmt(SourceLocation Loc) : Stmt(Kind::Compound, Loc) {}

  void setStmts(std::span<Stmt *> List) { Stmts = List; }
  std::span<Stmt *const> stmts() const { return Stmts; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Compound; }

private:
  std::span<Stmt *> Stmts;
};

/// A local variable declaration statement; may declare several variables
/// (`int a = 1, b = 2;`).
class DeclStmt : public Stmt {
public:
  explicit DeclStmt(SourceLocation Loc) : Stmt(Kind::Decl, Loc) {}

  void setVars(std::span<VarDecl *> List) { Vars = List; }
  std::span<VarDecl *const> vars() const { return Vars; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Decl; }

private:
  std::span<VarDecl *> Vars;
};

/// An expression evaluated for its effects.
class ExprStmt : public Stmt {
public:
  ExprStmt(Expr *E, SourceLocation Loc) : Stmt(Kind::Expr, Loc), E(E) {}

  Expr *expr() const { return E; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Expr; }

private:
  Expr *E;
};

/// `if (Cond) Then else Else`.
class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else, SourceLocation Loc)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *cond() const { return Cond; }
  Stmt *thenStmt() const { return Then; }
  Stmt *elseStmt() const { return Else; } ///< May be null.

  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else;
};

/// `while (Cond) Body`.
class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, Stmt *Body, SourceLocation Loc)
      : Stmt(Kind::While, Loc), Cond(Cond), Body(Body) {}

  Expr *cond() const { return Cond; }
  Stmt *body() const { return Body; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::While; }

private:
  Expr *Cond;
  Stmt *Body;
};

/// `for (Init; Cond; Step) Body`. Init is a DeclStmt, ExprStmt, or
/// NullStmt; Cond/Step may be null.
class ForStmt : public Stmt {
public:
  ForStmt(Stmt *Init, Expr *Cond, Expr *Step, Stmt *Body, SourceLocation Loc)
      : Stmt(Kind::For, Loc), Init(Init), Cond(Cond), Step(Step), Body(Body) {
  }

  Stmt *init() const { return Init; }
  Expr *cond() const { return Cond; }
  Expr *step() const { return Step; }
  Stmt *body() const { return Body; }

  static bool classof(const Stmt *S) { return S->kind() == Kind::For; }

private:
  Stmt *Init;
  Expr *Cond;
  Expr *Step;
  Stmt *Body;
};

/// `break;`.
class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLocation Loc) : Stmt(Kind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Break; }
};

/// `continue;`.
class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLocation Loc) : Stmt(Kind::Continue, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Continue; }
};

/// `return;` or `return E;`.
class ReturnStmt : public Stmt {
public:
  ReturnStmt(Expr *Value, SourceLocation Loc)
      : Stmt(Kind::Return, Loc), Value(Value) {}

  Expr *value() const { return Value; } ///< May be null.

  static bool classof(const Stmt *S) { return S->kind() == Kind::Return; }

private:
  Expr *Value;
};

/// `;`.
class NullStmt : public Stmt {
public:
  explicit NullStmt(SourceLocation Loc) : Stmt(Kind::Null, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Null; }
};

} // namespace dmm

#endif // DMM_AST_STMT_H
