//===-- hierarchy/ObjectLayout.h - Object layout model ----------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A VisualAge-style object layout model: natural alignment, a vptr in
/// dynamic classes, one vbase pointer per direct virtual base, non-virtual
/// base subobjects in declaration order, and virtual base subobjects
/// appended once at the end of the complete object. Unions overlap all
/// members at offset zero.
///
/// The dynamic measurements of the paper (Table 2 / Figure 4) are
/// computed from this model: per-object dead-member bytes and re-laid-out
/// object sizes with dead members removed.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_HIERARCHY_OBJECTLAYOUT_H
#define DMM_HIERARCHY_OBJECTLAYOUT_H

#include "ast/Decl.h"
#include "ast/Type.h"

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace dmm {

class ClassHierarchy;

/// A set of data members (e.g. the analysis' dead set).
using FieldSet = std::unordered_set<const FieldDecl *>;

/// One directly declared field placed within a class' own layout region.
struct FieldSlot {
  const FieldDecl *Field = nullptr;
  uint64_t Offset = 0; ///< Within the complete object.
  uint64_t Size = 0;
};

/// Layout summary of a class.
struct ClassLayout {
  /// sizeof a complete (most-derived) object, padding included.
  uint64_t CompleteSize = 0;
  /// Size of the non-virtual subobject region (used when this class is a
  /// non-virtual base of another).
  uint64_t NonVirtualSize = 0;
  uint64_t Align = 1;
  bool HasOwnVPtr = false;
  /// vptr + vbase-pointer bytes across all subobjects of the complete
  /// object.
  uint64_t OverheadBytes = 0;
  /// All fields of the complete object (own + all base subobjects;
  /// virtual bases once), with their offsets.
  std::vector<FieldSlot> AllFields;
};

/// Computes sizes, alignments, and class layouts; caches per class.
class LayoutEngine {
public:
  explicit LayoutEngine(const ClassHierarchy &CH) : CH(CH) {}

  /// Size in bytes of any sizeof-able type. Class types use the complete
  /// object size. Incomplete classes yield 0.
  uint64_t sizeOf(const Type *T) const;
  uint64_t alignOf(const Type *T) const;

  /// Full layout of class \p CD (cached).
  const ClassLayout &layout(const ClassDecl *CD) const;

  /// Bytes of a complete \p CD object occupied by members in \p Dead,
  /// including dead members nested inside live class-typed members. For
  /// unions, occupancy is the size reduction achievable by removing the
  /// dead alternatives (overlapped bytes cannot be double-counted).
  uint64_t deadBytes(const ClassDecl *CD, const FieldSet &Dead) const;

  /// sizeof a complete \p CD object after removing all members in
  /// \p Dead and re-laying out (recursively, including members of
  /// member classes). Never larger than CompleteSize.
  uint64_t sizeWithoutDead(const ClassDecl *CD, const FieldSet &Dead) const;

  static constexpr uint64_t PointerSize = 8;

private:
  struct ShrinkKey {
    const ClassDecl *CD;
    const FieldSet *Dead;
    bool operator<(const ShrinkKey &O) const {
      return CD < O.CD || (CD == O.CD && Dead < O.Dead);
    }
  };

  /// Lays out \p CD's non-virtual region starting at \p Base offset,
  /// appending field slots to \p L. Returns the region size.
  uint64_t layoutNonVirtual(const ClassDecl *CD, uint64_t Base,
                            ClassLayout &L) const;

  uint64_t sizeOfField(const FieldDecl *F, const FieldSet &Dead) const;

  /// True if \p CD has a virtual method or virtual destructor, declared
  /// or inherited: its objects need a vptr somewhere (cached).
  bool isDynamic(const ClassDecl *CD) const;

  const ClassHierarchy &CH;
  mutable std::map<const ClassDecl *, ClassLayout> Cache;
  mutable std::unordered_map<const ClassDecl *, bool> DynamicCache;
  mutable std::map<ShrinkKey, uint64_t> ShrinkCache;
};

} // namespace dmm

#endif // DMM_HIERARCHY_OBJECTLAYOUT_H
