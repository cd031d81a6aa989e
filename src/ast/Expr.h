//===-- ast/Expr.h - MiniC++ expressions ------------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expression nodes. Expressions carry a type (filled in by Sema) and an
/// lvalue flag. The dead-member analysis dispatches on MemberExpr,
/// MemberPointerConstantExpr, MemberPointerAccessExpr, UnaryExpr(AddrOf),
/// AssignExpr, CallExpr (delete/free exemption), CastExpr (unsafe casts),
/// and SizeofExpr — exactly the cases of paper Figure 2.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_AST_EXPR_H
#define DMM_AST_EXPR_H

#include "ast/Type.h"
#include "support/Casting.h"
#include "support/SourceLocation.h"

#include <string>
#include <vector>

namespace dmm {

class ConstructorDecl;
class Decl;
class FieldDecl;
class FunctionDecl;
class MethodDecl;

/// Base of the expression hierarchy.
class Expr {
public:
  enum class Kind {
    IntLiteral,
    DoubleLiteral,
    BoolLiteral,
    CharLiteral,
    StringLiteral,
    NullptrLiteral,
    DeclRef,
    This,
    Member,
    MemberPointerConstant,
    MemberPointerAccess,
    Unary,
    Binary,
    Assign,
    Conditional,
    Comma,
    Subscript,
    Call,
    New,
    Delete,
    Cast,
    Sizeof,
  };

  Kind kind() const { return K; }
  SourceLocation location() const { return Loc; }

  /// The expression's type; null until Sema has run.
  const Type *type() const { return Ty; }
  void setType(const Type *T) { Ty = T; }

  bool isLValue() const { return LValue; }
  void setLValue(bool B = true) { LValue = B; }

  /// Height of this expression tree: 1 for a leaf, else one more than
  /// its tallest operand. Set by the parser, which bounds it by
  /// Parser::kMaxNestingDepth.
  unsigned height() const { return Height; }
  void setHeight(unsigned H) { Height = H; }

protected:
  Expr(Kind K, SourceLocation Loc) : K(K), Loc(Loc) {}
  ~Expr() = default;

private:
  Kind K;
  SourceLocation Loc;
  unsigned Height = 1;
  const Type *Ty = nullptr;
  bool LValue = false;
};

/// Integer literal.
class IntLiteralExpr : public Expr {
public:
  IntLiteralExpr(long long Value, SourceLocation Loc)
      : Expr(Kind::IntLiteral, Loc), Value(Value) {}
  long long value() const { return Value; }
  static bool classof(const Expr *E) { return E->kind() == Kind::IntLiteral; }

private:
  long long Value;
};

/// Floating-point literal.
class DoubleLiteralExpr : public Expr {
public:
  DoubleLiteralExpr(double Value, SourceLocation Loc)
      : Expr(Kind::DoubleLiteral, Loc), Value(Value) {}
  double value() const { return Value; }
  static bool classof(const Expr *E) {
    return E->kind() == Kind::DoubleLiteral;
  }

private:
  double Value;
};

/// `true` / `false`.
class BoolLiteralExpr : public Expr {
public:
  BoolLiteralExpr(bool Value, SourceLocation Loc)
      : Expr(Kind::BoolLiteral, Loc), Value(Value) {}
  bool value() const { return Value; }
  static bool classof(const Expr *E) {
    return E->kind() == Kind::BoolLiteral;
  }

private:
  bool Value;
};

/// Character literal.
class CharLiteralExpr : public Expr {
public:
  CharLiteralExpr(char Value, SourceLocation Loc)
      : Expr(Kind::CharLiteral, Loc), Value(Value) {}
  char value() const { return Value; }
  static bool classof(const Expr *E) {
    return E->kind() == Kind::CharLiteral;
  }

private:
  char Value;
};

/// String literal; has type char[N+1].
class StringLiteralExpr : public Expr {
public:
  StringLiteralExpr(std::string Value, SourceLocation Loc)
      : Expr(Kind::StringLiteral, Loc), Value(std::move(Value)) {}
  const std::string &value() const { return Value; }
  static bool classof(const Expr *E) {
    return E->kind() == Kind::StringLiteral;
  }

private:
  std::string Value;
};

/// `nullptr`.
class NullptrLiteralExpr : public Expr {
public:
  explicit NullptrLiteralExpr(SourceLocation Loc)
      : Expr(Kind::NullptrLiteral, Loc) {}
  static bool classof(const Expr *E) {
    return E->kind() == Kind::NullptrLiteral;
  }
};

/// A use of a named variable or function.
class DeclRefExpr : public Expr {
public:
  DeclRefExpr(std::string Name, SourceLocation Loc)
      : Expr(Kind::DeclRef, Loc), Name(std::move(Name)) {}

  const std::string &declName() const { return Name; }

  /// The referenced VarDecl or FunctionDecl; null until resolved by Sema.
  Decl *referent() const { return Referent; }
  void setReferent(Decl *D) { Referent = D; }

  static bool classof(const Expr *E) { return E->kind() == Kind::DeclRef; }

private:
  std::string Name;
  Decl *Referent = nullptr;
};

/// `this` inside a method body.
class ThisExpr : public Expr {
public:
  explicit ThisExpr(SourceLocation Loc) : Expr(Kind::This, Loc) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::This; }
};

/// Member access: `e.m`, `e->m`, and qualified forms `e.C::m` / `e->C::m`.
class MemberExpr : public Expr {
public:
  MemberExpr(Expr *Base, bool IsArrow, std::string MemberName,
             std::string Qualifier, SourceLocation Loc)
      : Expr(Kind::Member, Loc), Base(Base), Arrow(IsArrow),
        MemberName(std::move(MemberName)), Qualifier(std::move(Qualifier)) {}

  Expr *base() const { return Base; }
  bool isArrow() const { return Arrow; }
  const std::string &memberName() const { return MemberName; }

  /// Spelled qualifier for `e.C::m` forms; empty when unqualified.
  const std::string &qualifier() const { return Qualifier; }
  bool isQualified() const { return !Qualifier.empty(); }

  /// The member found by Lookup (a FieldDecl or MethodDecl); null until
  /// Sema runs. The declaring class may be a base of the base
  /// expression's class.
  Decl *member() const { return Member; }
  void setMember(Decl *D) { Member = D; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Member; }

private:
  Expr *Base;
  bool Arrow;
  std::string MemberName;
  std::string Qualifier;
  Decl *Member = nullptr;
};

/// Pointer-to-member constant `&C::m` (paper Fig. 2 lines 26-28: "the
/// offset of member m within class Z is computed").
class MemberPointerConstantExpr : public Expr {
public:
  MemberPointerConstantExpr(std::string ClassName, std::string MemberName,
                            SourceLocation Loc)
      : Expr(Kind::MemberPointerConstant, Loc),
        ClassName(std::move(ClassName)), MemberName(std::move(MemberName)) {}

  const std::string &className() const { return ClassName; }
  const std::string &memberName() const { return MemberName; }

  /// The member resolved by Lookup; null until Sema runs.
  FieldDecl *member() const { return Member; }
  void setMember(FieldDecl *F) { Member = F; }

  static bool classof(const Expr *E) {
    return E->kind() == Kind::MemberPointerConstant;
  }

private:
  std::string ClassName;
  std::string MemberName;
  FieldDecl *Member = nullptr;
};

/// Indirect member access through a pointer-to-member: `e.*pm`, `e->*pm`.
class MemberPointerAccessExpr : public Expr {
public:
  MemberPointerAccessExpr(Expr *Base, Expr *Pointer, bool IsArrow,
                          SourceLocation Loc)
      : Expr(Kind::MemberPointerAccess, Loc), Base(Base), Pointer(Pointer),
        Arrow(IsArrow) {}

  Expr *base() const { return Base; }
  Expr *pointer() const { return Pointer; }
  bool isArrow() const { return Arrow; }

  static bool classof(const Expr *E) {
    return E->kind() == Kind::MemberPointerAccess;
  }

private:
  Expr *Base;
  Expr *Pointer;
  bool Arrow;
};

/// Unary operator kinds.
enum class UnaryOpKind {
  Minus,
  Not,
  BitNot,
  Deref,
  AddrOf,
  PreInc,
  PreDec,
  PostInc,
  PostDec,
};

/// A unary operation. AddrOf on a MemberExpr is the `&e.m` case of the
/// analysis.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOpKind Op, Expr *Sub, SourceLocation Loc)
      : Expr(Kind::Unary, Loc), Op(Op), Sub(Sub) {}

  UnaryOpKind op() const { return Op; }
  Expr *sub() const { return Sub; }

  bool isIncDec() const {
    return Op == UnaryOpKind::PreInc || Op == UnaryOpKind::PreDec ||
           Op == UnaryOpKind::PostInc || Op == UnaryOpKind::PostDec;
  }

  static bool classof(const Expr *E) { return E->kind() == Kind::Unary; }

private:
  UnaryOpKind Op;
  Expr *Sub;
};

/// Binary operator kinds (excluding assignments).
enum class BinaryOpKind {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Shl,
  Shr,
  BitAnd,
  BitOr,
  BitXor,
  LT,
  GT,
  LE,
  GE,
  EQ,
  NE,
  LAnd,
  LOr,
};

/// A binary operation.
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOpKind Op, Expr *LHS, Expr *RHS, SourceLocation Loc)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}

  BinaryOpKind op() const { return Op; }
  Expr *lhs() const { return LHS; }
  Expr *rhs() const { return RHS; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }

private:
  BinaryOpKind Op;
  Expr *LHS;
  Expr *RHS;
};

/// Assignment operator kinds.
enum class AssignOpKind {
  Assign,
  AddAssign,
  SubAssign,
  MulAssign,
  DivAssign,
  RemAssign,
};

/// An assignment. Kept distinct from BinaryExpr because the analysis
/// classifies the LHS of a plain `=` as a write access (not live), while
/// compound assignments also read.
class AssignExpr : public Expr {
public:
  AssignExpr(AssignOpKind Op, Expr *LHS, Expr *RHS, SourceLocation Loc)
      : Expr(Kind::Assign, Loc), Op(Op), LHS(LHS), RHS(RHS) {}

  AssignOpKind op() const { return Op; }
  Expr *lhs() const { return LHS; }
  Expr *rhs() const { return RHS; }
  bool isCompound() const { return Op != AssignOpKind::Assign; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Assign; }

private:
  AssignOpKind Op;
  Expr *LHS;
  Expr *RHS;
};

/// `Cond ? Then : Else`.
class ConditionalExpr : public Expr {
public:
  ConditionalExpr(Expr *Cond, Expr *Then, Expr *Else, SourceLocation Loc)
      : Expr(Kind::Conditional, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *cond() const { return Cond; }
  Expr *thenExpr() const { return Then; }
  Expr *elseExpr() const { return Else; }

  static bool classof(const Expr *E) {
    return E->kind() == Kind::Conditional;
  }

private:
  Expr *Cond;
  Expr *Then;
  Expr *Else;
};

/// `LHS, RHS`.
class CommaExpr : public Expr {
public:
  CommaExpr(Expr *LHS, Expr *RHS, SourceLocation Loc)
      : Expr(Kind::Comma, Loc), LHS(LHS), RHS(RHS) {}

  Expr *lhs() const { return LHS; }
  Expr *rhs() const { return RHS; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Comma; }

private:
  Expr *LHS;
  Expr *RHS;
};

/// `Base[Index]`.
class SubscriptExpr : public Expr {
public:
  SubscriptExpr(Expr *Base, Expr *Index, SourceLocation Loc)
      : Expr(Kind::Subscript, Loc), Base(Base), Index(Index) {}

  Expr *base() const { return Base; }
  Expr *index() const { return Index; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Subscript; }

private:
  Expr *Base;
  Expr *Index;
};

/// A call: free function, method (callee is a MemberExpr), builtin, or
/// indirect through a function pointer.
class CallExpr : public Expr {
public:
  CallExpr(Expr *Callee, std::vector<Expr *> Args, SourceLocation Loc)
      : Expr(Kind::Call, Loc), Callee(Callee), Args(std::move(Args)) {}

  Expr *callee() const { return Callee; }
  const std::vector<Expr *> &args() const { return Args; }

  /// The statically known callee, if any; for virtual calls this is the
  /// statically resolved method (the dispatch target set comes from the
  /// call graph).
  FunctionDecl *directCallee() const { return Direct; }
  void setDirectCallee(FunctionDecl *F) { Direct = F; }

  /// True for unqualified calls to virtual methods through an object,
  /// pointer, or reference — subject to dynamic dispatch.
  bool isVirtualCall() const { return Virtual; }
  void setVirtualCall(bool B = true) { Virtual = B; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Call; }

private:
  Expr *Callee;
  std::vector<Expr *> Args;
  FunctionDecl *Direct = nullptr;
  bool Virtual = false;
};

/// `new T(args)`, `new T`, `new T[n]`.
class NewExpr : public Expr {
public:
  NewExpr(const Type *AllocType, std::vector<Expr *> CtorArgs,
          Expr *ArraySize, SourceLocation Loc)
      : Expr(Kind::New, Loc), AllocType(AllocType),
        CtorArgs(std::move(CtorArgs)), ArraySize(ArraySize) {}

  const Type *allocType() const { return AllocType; }
  const std::vector<Expr *> &ctorArgs() const { return CtorArgs; }
  Expr *arraySize() const { return ArraySize; } ///< Null if not an array.
  bool isArrayNew() const { return ArraySize != nullptr; }

  /// The constructor selected by Sema (null for non-class or ctor-less
  /// allocations).
  ConstructorDecl *constructor() const { return Ctor; }
  void setConstructor(ConstructorDecl *C) { Ctor = C; }

  static bool classof(const Expr *E) { return E->kind() == Kind::New; }

private:
  const Type *AllocType;
  std::vector<Expr *> CtorArgs;
  Expr *ArraySize;
  ConstructorDecl *Ctor = nullptr;
};

/// `delete e` / `delete[] e`. The analysis exempts member reads that
/// merely feed a delete operand (paper footnote: delete/free cannot
/// affect observable behaviour).
class DeleteExpr : public Expr {
public:
  DeleteExpr(Expr *Sub, bool IsArray, SourceLocation Loc)
      : Expr(Kind::Delete, Loc), Sub(Sub), Array(IsArray) {}

  Expr *sub() const { return Sub; }
  bool isArrayDelete() const { return Array; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Delete; }

private:
  Expr *Sub;
  bool Array;
};

/// Spelling of a cast.
enum class CastStyle { CStyle, Static, Reinterpret };

/// Structural safety of a cast, computed by Sema. The paper (§3) calls a
/// cast from S to T unsafe "if T is a derived class of S and the object
/// being cast cannot be guaranteed to be of type T at run-time"; the tool
/// user may assert that all down-casts are in fact safe (as the paper's
/// authors verified for their benchmarks), which is a policy knob of the
/// analysis, not of Sema.
enum class CastSafety {
  Safe,      ///< Identity, numeric, or pointer up-cast.
  Downcast,  ///< Pointer down-cast: unsafe unless the user asserts safety.
  Unrelated, ///< Reinterpretation between unrelated types: always unsafe.
};

/// An explicit cast. Unsafe casts trigger MarkAllContainedMembers on the
/// operand's type (paper Fig. 2 lines 29-32).
class CastExpr : public Expr {
public:
  CastExpr(CastStyle Style, const Type *TargetType, Expr *Sub,
           SourceLocation Loc)
      : Expr(Kind::Cast, Loc), Style(Style), TargetType(TargetType),
        Sub(Sub) {}

  CastStyle style() const { return Style; }
  const Type *targetType() const { return TargetType; }
  Expr *sub() const { return Sub; }

  CastSafety safety() const { return Safety; }
  void setSafety(CastSafety S) { Safety = S; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Cast; }

private:
  CastStyle Style;
  const Type *TargetType;
  Expr *Sub;
  CastSafety Safety = CastSafety::Safe;
};

/// `sizeof(T)` or `sizeof e`.
class SizeofExpr : public Expr {
public:
  SizeofExpr(const Type *TypeOperand, Expr *ExprOperand, SourceLocation Loc)
      : Expr(Kind::Sizeof, Loc), TypeOperand(TypeOperand),
        ExprOperand(ExprOperand) {}

  /// Exactly one of these is non-null.
  const Type *typeOperand() const { return TypeOperand; }
  Expr *exprOperand() const { return ExprOperand; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Sizeof; }

private:
  const Type *TypeOperand;
  Expr *ExprOperand;
};

} // namespace dmm

#endif // DMM_AST_EXPR_H
