//===-- ast/Type.h - MiniC++ type representations ---------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniC++ type system: builtin types, class types, pointers,
/// references, fixed-size arrays, pointer-to-member types, and function
/// types. Types are immutable and uniqued by ASTContext, so pointer
/// equality is type equality.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_AST_TYPE_H
#define DMM_AST_TYPE_H

#include "support/Casting.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dmm {

class ASTContext;
class ClassDecl;
class PointerType;
class ReferenceType;

/// Base of the type hierarchy. Uniqued; compare with pointer equality.
class Type {
public:
  enum class Kind {
    Builtin,
    Class,
    Pointer,
    Reference,
    Array,
    MemberPointer,
    Function,
  };

  Kind kind() const { return K; }

  bool isVoid() const;
  bool isBool() const;
  bool isArithmetic() const; ///< bool, char, int, or double.
  bool isInteger() const;    ///< bool, char, or int.
  bool isClass() const { return K == Kind::Class; }
  bool isPointer() const { return K == Kind::Pointer; }
  bool isReference() const { return K == Kind::Reference; }
  bool isArray() const { return K == Kind::Array; }
  bool isMemberPointer() const { return K == Kind::MemberPointer; }
  bool isFunction() const { return K == Kind::Function; }
  /// Usable in a boolean context: arithmetic or pointer.
  bool isScalar() const { return isArithmetic() || isPointer(); }

  /// If this is a class type, its declaration; otherwise null.
  const ClassDecl *asClassDecl() const;

  /// Strips one level of reference, if any.
  const Type *nonReferenceType() const;

  /// Human-readable spelling, e.g. "int", "B*", "int A::*".
  std::string str() const;

protected:
  explicit Type(Kind K) : K(K) {}
  ~Type() = default;

private:
  friend class ASTContext; // Uniques T* and T& through these.
  Kind K;
  mutable const PointerType *PointerTo = nullptr;
  mutable const ReferenceType *ReferenceTo = nullptr;
};

/// The builtin scalar types.
class BuiltinType : public Type {
public:
  enum class BK { Void, Bool, Char, Int, Double, NullPtr };

  explicit BuiltinType(BK B) : Type(Kind::Builtin), B(B) {}

  BK builtinKind() const { return B; }

  static bool classof(const Type *T) { return T->kind() == Kind::Builtin; }

private:
  BK B;
};

/// A class, struct, or union type; identified by its declaration.
class ClassType : public Type {
public:
  explicit ClassType(const ClassDecl *Decl) : Type(Kind::Class), Decl(Decl) {}

  const ClassDecl *decl() const { return Decl; }

  static bool classof(const Type *T) { return T->kind() == Kind::Class; }

private:
  const ClassDecl *Decl;
};

/// T*.
class PointerType : public Type {
public:
  explicit PointerType(const Type *Pointee)
      : Type(Kind::Pointer), Pointee(Pointee) {}

  const Type *pointee() const { return Pointee; }

  static bool classof(const Type *T) { return T->kind() == Kind::Pointer; }

private:
  const Type *Pointee;
};

/// T&. Only valid for parameters and locals.
class ReferenceType : public Type {
public:
  explicit ReferenceType(const Type *Pointee)
      : Type(Kind::Reference), Pointee(Pointee) {}

  const Type *pointee() const { return Pointee; }

  static bool classof(const Type *T) { return T->kind() == Kind::Reference; }

private:
  const Type *Pointee;
};

/// T[N] with a compile-time constant extent.
class ArrayType : public Type {
public:
  ArrayType(const Type *Element, uint64_t Size)
      : Type(Kind::Array), Element(Element), Size(Size) {}

  const Type *element() const { return Element; }
  uint64_t size() const { return Size; }

  static bool classof(const Type *T) { return T->kind() == Kind::Array; }

private:
  const Type *Element;
  uint64_t Size;
};

/// T C::* — pointer to a data member of class C with type T.
class MemberPointerType : public Type {
public:
  MemberPointerType(const ClassDecl *Class, const Type *Pointee)
      : Type(Kind::MemberPointer), Class(Class), Pointee(Pointee) {}

  const ClassDecl *classDecl() const { return Class; }
  const Type *pointee() const { return Pointee; }

  static bool classof(const Type *T) {
    return T->kind() == Kind::MemberPointer;
  }

private:
  const ClassDecl *Class;
  const Type *Pointee;
};

/// Function type: return type and parameter types. Used through function
/// pointers for indirect calls (callbacks).
class FunctionType : public Type {
public:
  FunctionType(const Type *Result, std::vector<const Type *> Params)
      : Type(Kind::Function), Result(Result), Params(std::move(Params)) {}

  const Type *result() const { return Result; }
  const std::vector<const Type *> &params() const { return Params; }

  static bool classof(const Type *T) { return T->kind() == Kind::Function; }

private:
  const Type *Result;
  std::vector<const Type *> Params;
};

} // namespace dmm

#endif // DMM_AST_TYPE_H
