//===-- ast/ASTContext.h - AST ownership and type uniquing ------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns every AST node for a compilation (arena-allocated) and uniques
/// types so that pointer equality is type equality. Also maintains dense
/// registries of classes and functions for whole-program iteration.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_AST_ASTCONTEXT_H
#define DMM_AST_ASTCONTEXT_H

#include "ast/Decl.h"
#include "ast/Expr.h"
#include "ast/Stmt.h"
#include "ast/Type.h"
#include "support/Arena.h"

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace dmm {

/// The allocation and uniquing context for one program's AST.
class ASTContext {
public:
  ASTContext();
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;

  /// \name Node creation
  /// All AST nodes must be created through this factory so they live in
  /// the arena and (for decls) receive dense IDs.
  /// @{
  template <typename T, typename... Args> T *create(Args &&...A) {
    static_assert(!(std::is_base_of_v<Expr, T> || std::is_base_of_v<Stmt, T>) ||
                      std::is_trivially_destructible_v<T>,
                  "expressions and statements must not need a destructor");
    T *Node = Alloc.create<T>(std::forward<Args>(A)...);
    if constexpr (std::is_base_of_v<Decl, T>)
      registerDecl(Node);
    return Node;
  }

  /// Creates a node that is arena-owned but not registered in the
  /// class/function/field indices. Used for the parser's scratch decls
  /// (re-parsed parameter lists of out-of-line definitions), which must
  /// not shadow the real declarations during Sema.
  template <typename T, typename... Args> T *createDetached(Args &&...A) {
    return Alloc.create<T>(std::forward<Args>(A)...);
  }

  /// Copies \p Items into the arena (child lists of expressions and
  /// statements).
  template <typename T> std::span<T> copyArray(std::span<const T> Items) {
    T *Mem = Alloc.allocateArray<T>(Items.size());
    std::uninitialized_copy(Items.begin(), Items.end(), Mem);
    return {Mem, Items.size()};
  }

  /// Returns \p N bytes of uninitialized arena memory.
  char *allocateBytes(size_t N) { return Alloc.allocateArray<char>(N); }
  /// @}

  /// \name Builtin types
  /// @{
  const Type *voidType() const { return &VoidTy; }
  const Type *boolType() const { return &BoolTy; }
  const Type *charType() const { return &CharTy; }
  const Type *intType() const { return &IntTy; }
  const Type *doubleType() const { return &DoubleTy; }
  const Type *nullPtrType() const { return &NullPtrTy; }
  /// @}

  /// \name Derived types (uniqued)
  /// @{
  const Type *classType(const ClassDecl *CD);
  const PointerType *pointerType(const Type *Pointee);
  const ReferenceType *referenceType(const Type *Pointee);
  const ArrayType *arrayType(const Type *Element, uint64_t Size);
  const MemberPointerType *memberPointerType(const ClassDecl *Class,
                                             const Type *Pointee);
  const FunctionType *functionType(const Type *Result,
                                   std::vector<const Type *> Params);
  /// @}

  /// The root declaration.
  TranslationUnitDecl *translationUnit() { return TU; }
  const TranslationUnitDecl *translationUnit() const { return TU; }

  /// All class declarations, in creation order.
  const std::vector<ClassDecl *> &classes() const { return Classes; }
  /// All functions (free functions, methods, ctors, dtors), in creation
  /// order.
  const std::vector<FunctionDecl *> &functions() const { return Functions; }
  /// All data members, in creation order.
  const std::vector<FieldDecl *> &fields() const { return Fields; }
  /// All global variables.
  const std::vector<VarDecl *> &globals() const { return Globals; }
  void registerGlobal(VarDecl *V) { Globals.push_back(V); }

  unsigned numDecls() const { return NextDeclID; }

private:
  void registerDecl(Decl *D);

  Arena Alloc;

  BuiltinType VoidTy;
  BuiltinType BoolTy;
  BuiltinType CharTy;
  BuiltinType IntTy;
  BuiltinType DoubleTy;
  BuiltinType NullPtrTy;

  std::map<const ClassDecl *, const ClassType *> ClassTypes;
  std::map<const Type *, const PointerType *> PointerTypes;
  std::map<const Type *, const ReferenceType *> ReferenceTypes;
  std::map<std::pair<const Type *, uint64_t>, const ArrayType *> ArrayTypes;
  std::map<std::pair<const ClassDecl *, const Type *>,
           const MemberPointerType *>
      MemberPointerTypes;
  std::vector<const FunctionType *> FunctionTypes;

  TranslationUnitDecl *TU = nullptr;
  std::vector<ClassDecl *> Classes;
  std::vector<FunctionDecl *> Functions;
  std::vector<FieldDecl *> Fields;
  std::vector<VarDecl *> Globals;
  unsigned NextDeclID = 0;
};

} // namespace dmm

#endif // DMM_AST_ASTCONTEXT_H
