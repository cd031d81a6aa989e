//===-- hierarchy/ClassHierarchy.h - Class graph & lookup -------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program's class hierarchy: derivation queries, transitive base
/// enumeration, virtual-method override sets, and the member Lookup
/// operation the analysis relies on ("m may occur in a base class of X",
/// paper Fig. 2). Lookup follows C++ hiding rules: a member found in the
/// class itself hides base members; among bases, a member is ambiguous if
/// two distinct declarations are visible (the paper assumes programs
/// contain no ambiguous member lookups).
///
//===----------------------------------------------------------------------===//

#ifndef DMM_HIERARCHY_CLASSHIERARCHY_H
#define DMM_HIERARCHY_CLASSHIERARCHY_H

#include "ast/Decl.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace dmm {

class ASTContext;

/// Immutable view of the hierarchy of one program.
class ClassHierarchy {
public:
  explicit ClassHierarchy(const ASTContext &Ctx);

  /// True if \p Derived equals \p Base or transitively derives from it.
  bool isDerivedFrom(const ClassDecl *Derived, const ClassDecl *Base) const;

  /// Direct subclasses of \p CD.
  const std::vector<const ClassDecl *> &
  directSubclasses(const ClassDecl *CD) const;

  /// \p CD and all transitive subclasses.
  std::vector<const ClassDecl *>
  selfAndSubclasses(const ClassDecl *CD) const;

  /// All transitive bases of \p CD (each once; virtual bases deduped),
  /// not including \p CD itself.
  std::vector<const ClassDecl *> transitiveBases(const ClassDecl *CD) const;

  /// Transitive virtual bases of \p CD (each once).
  std::vector<const ClassDecl *> virtualBases(const ClassDecl *CD) const;

  /// Member lookup: finds the data member named \p Name visible in
  /// \p CD, searching \p CD then its bases with hiding. Returns null if
  /// not found or ambiguous (sets \p Ambiguous when provided).
  FieldDecl *lookupField(const ClassDecl *CD, std::string_view Name,
                         bool *Ambiguous = nullptr) const;

  /// Same as lookupField, for methods.
  MethodDecl *lookupMethod(const ClassDecl *CD, std::string_view Name,
                           bool *Ambiguous = nullptr) const;

  /// True if \p CD has any virtual method (declared or inherited) or any
  /// virtual base — i.e. its objects carry a vptr / vbase pointers.
  bool isPolymorphic(const ClassDecl *CD) const;

  /// True if \p M overrides a virtual method of a base class (or is
  /// itself declared virtual).
  bool isVirtualMethod(const MethodDecl *M) const;

  /// Resolves a virtual dispatch: the method that executes when \p M is
  /// invoked on an object whose dynamic class is \p DynamicClass.
  /// Returns \p M itself when no override exists; null when
  /// \p DynamicClass does not derive from \p M's class.
  MethodDecl *resolveVirtualCall(const ClassDecl *DynamicClass,
                                 const MethodDecl *M) const;

  /// All methods that override \p M in subclasses of \p M's class,
  /// excluding \p M itself.
  std::vector<MethodDecl *> overriders(const MethodDecl *M) const;

  /// Resolves the destructor executed for dynamic class \p CD (which is
  /// simply \p CD's destructor, if any).
  DestructorDecl *destructorFor(const ClassDecl *CD) const {
    return CD->destructor();
  }

private:
  void collectBases(const ClassDecl *CD,
                    std::vector<const ClassDecl *> &Out,
                    std::unordered_set<const ClassDecl *> &Seen) const;

  /// Collects the set of visible declarations of member \p Name in
  /// \p CD's scope (after hiding). Results are FieldDecl or MethodDecl.
  void lookupVisible(const ClassDecl *CD, std::string_view Name,
                     std::unordered_set<Decl *> &Out) const;

  std::unordered_map<const ClassDecl *, std::vector<const ClassDecl *>>
      Subclasses;
  static const std::vector<const ClassDecl *> Empty;
};

} // namespace dmm

#endif // DMM_HIERARCHY_CLASSHIERARCHY_H
