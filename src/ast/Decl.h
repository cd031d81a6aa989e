//===-- ast/Decl.h - MiniC++ declarations -----------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declaration nodes: translation unit, classes/structs/unions, data
/// members, functions, methods, constructors/destructors, variables, and
/// parameters. Declarations are created by the Parser and completed
/// (resolved, type-checked) by Sema. All nodes live in an ASTContext arena.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_AST_DECL_H
#define DMM_AST_DECL_H

#include "ast/Type.h"
#include "support/Casting.h"
#include "support/SourceLocation.h"

#include <cassert>
#include <string>
#include <string_view>
#include <vector>

namespace dmm {

class ClassDecl;
class CompoundStmt;
class Expr;
class FieldDecl;
class MethodDecl;
class ConstructorDecl;
class DestructorDecl;

/// Base of the declaration hierarchy.
class Decl {
public:
  enum class Kind {
    TranslationUnit,
    Class,
    Field,
    Var,
    Param,
    // [functionsBegin, functionsEnd]
    Function,
    Method,
    Constructor,
    Destructor,
  };

  Kind kind() const { return K; }
  const std::string &name() const { return Name; }
  SourceLocation location() const { return Loc; }

  /// Dense per-context ID, assigned at creation; usable as a vector index.
  unsigned declID() const { return ID; }
  void setDeclID(unsigned NewID) { ID = NewID; }

protected:
  Decl(Kind K, std::string Name, SourceLocation Loc)
      : K(K), Name(std::move(Name)), Loc(Loc) {}
  ~Decl() = default;

private:
  Kind K;
  std::string Name;
  SourceLocation Loc;
  unsigned ID = 0;
};

/// The root of a parsed program: all top-level declarations in source
/// order.
class TranslationUnitDecl : public Decl {
public:
  TranslationUnitDecl() : Decl(Kind::TranslationUnit, "<program>", {}) {}

  void addDecl(Decl *D) { Decls.push_back(D); }
  const std::vector<Decl *> &decls() const { return Decls; }

  static bool classof(const Decl *D) {
    return D->kind() == Kind::TranslationUnit;
  }

private:
  std::vector<Decl *> Decls;
};

/// How a class was introduced. Unions get special treatment in the
/// analysis (live-member closure) and in object layout (overlapping
/// members).
enum class TagKind { Class, Struct, Union };

/// A base-class specifier on a ClassDecl.
struct BaseSpecifier {
  ClassDecl *Base = nullptr;
  bool IsVirtual = false;
  SourceLocation Loc;
};

/// A class, struct, or union definition.
class ClassDecl : public Decl {
public:
  ClassDecl(TagKind Tag, std::string Name, SourceLocation Loc)
      : Decl(Kind::Class, std::move(Name), Loc), Tag(Tag) {}

  TagKind tagKind() const { return Tag; }
  bool isUnion() const { return Tag == TagKind::Union; }

  /// True once the body has been parsed (forward declarations are
  /// incomplete until their definition is seen).
  bool isComplete() const { return Complete; }
  void setComplete() { Complete = true; }

  /// A library class: its full source is unavailable, so the analysis
  /// must not classify its members and must treat overrides of its
  /// virtual methods as reachable (paper §3.3).
  bool isLibrary() const { return Library; }
  void setLibrary(bool B = true) { Library = B; }

  /// True once Sema has seen an object of this class created in some
  /// function (`new`, a local) or as a global.
  bool isInstantiated() const { return Instantiated; }
  void setInstantiated() const { Instantiated = true; }

  void addBase(BaseSpecifier B) { Bases.push_back(B); }
  const std::vector<BaseSpecifier> &bases() const { return Bases; }

  void addField(FieldDecl *F) { Fields.push_back(F); }
  const std::vector<FieldDecl *> &fields() const { return Fields; }

  void addMethod(MethodDecl *M) { Methods.push_back(M); }
  const std::vector<MethodDecl *> &methods() const { return Methods; }

  void addConstructor(ConstructorDecl *C) { Ctors.push_back(C); }
  const std::vector<ConstructorDecl *> &constructors() const { return Ctors; }

  void setDestructor(DestructorDecl *D) { Dtor = D; }
  DestructorDecl *destructor() const { return Dtor; }

  /// Looks up a direct field of this class by name; no base lookup.
  FieldDecl *findField(std::string_view FieldName) const;

  /// Looks up a direct method of this class by name; no base lookup.
  MethodDecl *findMethod(std::string_view MethodName) const;

  static bool classof(const Decl *D) { return D->kind() == Kind::Class; }

private:
  friend class ASTContext; // Uniques the class type through TypeForDecl.
  TagKind Tag;
  bool Complete = false;
  bool Library = false;
  mutable bool Instantiated = false;
  mutable const ClassType *TypeForDecl = nullptr;
  std::vector<BaseSpecifier> Bases;
  std::vector<FieldDecl *> Fields;
  std::vector<MethodDecl *> Methods;
  std::vector<ConstructorDecl *> Ctors;
  DestructorDecl *Dtor = nullptr;
};

/// A data member (instance variable) of a class — the subject of the
/// analysis.
class FieldDecl : public Decl {
public:
  FieldDecl(std::string Name, const Type *Ty, bool IsVolatile,
            ClassDecl *Parent, unsigned Index, SourceLocation Loc)
      : Decl(Kind::Field, std::move(Name), Loc), Ty(Ty),
        Volatile(IsVolatile), Parent(Parent), Index(Index) {}

  const Type *type() const { return Ty; }
  bool isVolatile() const { return Volatile; }
  ClassDecl *parent() const { return Parent; }
  /// Position among the parent's direct fields (declaration order).
  unsigned index() const { return Index; }

  /// "C::m" spelling for reports.
  std::string qualifiedName() const {
    return Parent->name() + "::" + name();
  }

  static bool classof(const Decl *D) { return D->kind() == Kind::Field; }

private:
  const Type *Ty;
  bool Volatile;
  ClassDecl *Parent;
  unsigned Index;
};

/// A variable: global or local. Parameters use the ParamDecl subclass.
class VarDecl : public Decl {
public:
  VarDecl(std::string Name, const Type *Ty, SourceLocation Loc)
      : Decl(Kind::Var, std::move(Name), Loc), Ty(Ty) {}

  const Type *type() const { return Ty; }

  Expr *init() const { return Init; }
  void setInit(Expr *E) { Init = E; }

  /// Constructor-call arguments for class-typed variables declared with
  /// parenthesized initializers, e.g. `B b(1, 2);`.
  const std::vector<Expr *> &ctorArgs() const { return CtorArgs; }
  void setCtorArgs(std::vector<Expr *> Args) { CtorArgs = std::move(Args); }

  bool isGlobal() const { return Global; }
  void setGlobal(bool B = true) { Global = B; }

  /// For class-typed variables: the constructor Sema selected (default
  /// constructor when ctorArgs is empty; null if the class has none).
  ConstructorDecl *ctor() const { return Ctor; }
  void setCtor(ConstructorDecl *C) { Ctor = C; }

  static bool classof(const Decl *D) {
    return D->kind() == Kind::Var || D->kind() == Kind::Param;
  }

protected:
  VarDecl(Kind K, std::string Name, const Type *Ty, SourceLocation Loc)
      : Decl(K, std::move(Name), Loc), Ty(Ty) {}

private:
  const Type *Ty;
  Expr *Init = nullptr;
  std::vector<Expr *> CtorArgs;
  bool Global = false;
  ConstructorDecl *Ctor = nullptr;
};

/// A function parameter.
class ParamDecl : public VarDecl {
public:
  ParamDecl(std::string Name, const Type *Ty, SourceLocation Loc)
      : VarDecl(Kind::Param, std::move(Name), Ty, Loc) {}

  static bool classof(const Decl *D) { return D->kind() == Kind::Param; }
};

/// Identifies the compiler-provided builtin functions. `print_*` produce
/// observable output (so their arguments affect behaviour); `free` is the
/// deallocation special case of the analysis.
enum class BuiltinKind {
  None,
  PrintInt,
  PrintChar,
  PrintDouble,
  PrintStr,
  PrintBool,
  Free,
};

/// A free function. Methods, constructors, and destructors are
/// subclasses.
class FunctionDecl : public Decl {
public:
  FunctionDecl(std::string Name, const Type *ReturnTy, SourceLocation Loc)
      : FunctionDecl(Kind::Function, std::move(Name), ReturnTy, Loc) {}

  const Type *returnType() const { return ReturnTy; }

  BuiltinKind builtinKind() const { return Builtin; }
  void setBuiltinKind(BuiltinKind B) { Builtin = B; }
  bool isBuiltin() const { return Builtin != BuiltinKind::None; }

  void addParam(ParamDecl *P) { Params.push_back(P); }
  const std::vector<ParamDecl *> &params() const { return Params; }
  /// Replaces the parameter list; used when an out-of-line definition
  /// renames the parameters of an earlier declaration.
  void setParams(std::vector<ParamDecl *> NewParams) {
    Params = std::move(NewParams);
  }

  CompoundStmt *body() const { return Body; }
  void setBody(CompoundStmt *B) { Body = B; }
  bool isDefined() const { return Body != nullptr; }

  /// "f" or "C::f" spelling for reports and call-graph dumps.
  std::string qualifiedName() const;

  static bool classof(const Decl *D) {
    return D->kind() >= Kind::Function && D->kind() <= Kind::Destructor;
  }

protected:
  FunctionDecl(Kind K, std::string Name, const Type *ReturnTy,
               SourceLocation Loc)
      : Decl(K, std::move(Name), Loc), ReturnTy(ReturnTy) {}

private:
  const Type *ReturnTy;
  std::vector<ParamDecl *> Params;
  CompoundStmt *Body = nullptr;
  BuiltinKind Builtin = BuiltinKind::None;
};

/// A member function.
class MethodDecl : public FunctionDecl {
public:
  MethodDecl(std::string Name, const Type *ReturnTy, ClassDecl *Parent,
             bool IsVirtual, SourceLocation Loc)
      : MethodDecl(Kind::Method, std::move(Name), ReturnTy, Parent, IsVirtual,
                   Loc) {}

  ClassDecl *parent() const { return Parent; }

  /// True if declared `virtual` here or overriding a virtual base method
  /// (the latter is computed by Sema).
  bool isVirtual() const { return Virtual; }
  void setVirtual(bool B = true) { Virtual = B; }

  static bool classof(const Decl *D) {
    return D->kind() >= Kind::Method && D->kind() <= Kind::Destructor;
  }

protected:
  MethodDecl(Kind K, std::string Name, const Type *ReturnTy,
             ClassDecl *Parent, bool IsVirtual, SourceLocation Loc)
      : FunctionDecl(K, std::move(Name), ReturnTy, Loc), Parent(Parent),
        Virtual(IsVirtual) {}

private:
  ClassDecl *Parent;
  bool Virtual;
};

/// One element of a constructor initializer list: either a member
/// initializer `m(args)` or a base initializer `Base(args)`. The parser
/// records the spelled name; Sema resolves it to a field or base.
struct CtorInitializer {
  std::string Name;
  FieldDecl *Field = nullptr; ///< Set for member initializers (by Sema).
  ClassDecl *Base = nullptr;  ///< Set for base initializers (by Sema).
  /// For base initializers and class-typed member initializers: the
  /// constructor invoked (resolved by arity; null for default
  /// construction of a ctor-less class).
  ConstructorDecl *TargetCtor = nullptr;
  std::vector<Expr *> Args;
  SourceLocation Loc;
};

/// A constructor.
class ConstructorDecl : public MethodDecl {
public:
  ConstructorDecl(ClassDecl *Parent, const Type *VoidTy, SourceLocation Loc)
      : MethodDecl(Kind::Constructor, Parent->name(), VoidTy, Parent,
                   /*IsVirtual=*/false, Loc) {}

  void addInitializer(CtorInitializer Init) {
    Inits.push_back(std::move(Init));
  }
  const std::vector<CtorInitializer> &initializers() const { return Inits; }
  /// Mutable access for Sema's initializer resolution.
  std::vector<CtorInitializer> &initializers() { return Inits; }

  static bool classof(const Decl *D) {
    return D->kind() == Kind::Constructor;
  }

private:
  std::vector<CtorInitializer> Inits;
};

/// A destructor.
class DestructorDecl : public MethodDecl {
public:
  DestructorDecl(ClassDecl *Parent, const Type *VoidTy, bool IsVirtual,
                 SourceLocation Loc)
      : MethodDecl(Kind::Destructor, "~" + Parent->name(), VoidTy, Parent,
                   IsVirtual, Loc) {}

  static bool classof(const Decl *D) {
    return D->kind() == Kind::Destructor;
  }
};

} // namespace dmm

#endif // DMM_AST_DECL_H
