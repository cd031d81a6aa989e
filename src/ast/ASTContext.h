//===-- ast/ASTContext.h - AST ownership and type uniquing ------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns every AST node for a compilation (arena-allocated) and uniques
/// types so that pointer equality is type equality. Also maintains dense
/// registries of classes and functions for whole-program iteration, and
/// the program's one name table: the SymbolTable and what each symbol
/// is bound to.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_AST_ASTCONTEXT_H
#define DMM_AST_ASTCONTEXT_H

#include "ast/Decl.h"
#include "ast/Expr.h"
#include "ast/Stmt.h"
#include "ast/Type.h"
#include "lexer/SymbolTable.h"
#include "support/Arena.h"

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace dmm {

/// What one symbol denotes. The parser fills in classes and free
/// functions as it declares them, and Sema adds the builtins and global
/// variables; the other fields are scratch state of the pass that is
/// running.
struct NameBinding {
  ClassDecl *Class = nullptr; ///< Forward declarations included.
  /// The function, builtin or global variable of this name. A builtin
  /// replaces a user function; a global variable replaces whatever was
  /// there, after a "redefinition of global" error.
  Decl *Global = nullptr;
  /// The class whose body declared a member of this name last (the
  /// parser's duplicate-member check).
  const ClassDecl *MemberOf = nullptr;
  /// The innermost visible local variable of this name and the depth of
  /// its block; Sema keeps the ones it shadows on its scope stack.
  VarDecl *Local = nullptr;
  unsigned LocalDepth = 0;
};

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
  /// not become functions of the program.
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
  /// A class, pointer or reference type is cached on its ClassDecl or
  /// pointee; the rest are looked up in tables.
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

  /// \name Names
  /// @{
  SymbolTable &symbols() { return Symbols; }
  const SymbolTable &symbols() const { return Symbols; }
  NameBinding &binding(SymbolID S) {
    if (S >= Bindings.size())
      Bindings.resize(Symbols.size());
    return Bindings[S];
  }
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
  SymbolTable Symbols;
  std::vector<NameBinding> Bindings; ///< By SymbolID, grown on demand.

  BuiltinType VoidTy;
  BuiltinType BoolTy;
  BuiltinType CharTy;
  BuiltinType IntTy;
  BuiltinType DoubleTy;
  BuiltinType NullPtrTy;

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
