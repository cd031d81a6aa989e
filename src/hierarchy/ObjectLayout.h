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
/// object sizes with dead members removed. The dead-free layout is the
/// same routine run with a member filter, so the two layouts cannot
/// disagree on any rule but the filter itself.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_HIERARCHY_OBJECTLAYOUT_H
#define DMM_HIERARCHY_OBJECTLAYOUT_H

#include "ast/Decl.h"
#include "ast/Type.h"

#include <cstdint>
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
  uint64_t Align = 1;
  bool HasOwnVPtr = false;
  /// vptr + vbase-pointer bytes across all subobjects of the complete
  /// object.
  uint64_t OverheadBytes = 0;
  /// Under a dead-member filter, the bytes of the unfiltered complete
  /// object that the filtered members occupy (LayoutEngine::deadBytes);
  /// zero without a filter.
  uint64_t DeadBytes = 0;
  /// All fields of the complete object (own + all base subobjects;
  /// virtual bases once), with their offsets. A filtered layout lists
  /// only the surviving fields.
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

  /// Layout of class \p CD (cached). With a \p Dead filter, the members
  /// in \p Dead are dropped and every class-typed member (or array of
  /// class type, of any rank) takes its class' filtered layout; null
  /// keeps every member. Each call compares \p Dead with the engine's
  /// copy of the set last passed at its address (one pass over the set),
  /// so a set may change or die between calls.
  const ClassLayout &layout(const ClassDecl *CD,
                            const FieldSet *Dead = nullptr) const;

  /// Bytes of a complete \p CD object occupied by members in \p Dead,
  /// including dead members nested inside live class-typed members. For
  /// unions, occupancy is the size reduction achievable by removing the
  /// dead alternatives (overlapped bytes cannot be double-counted).
  uint64_t deadBytes(const ClassDecl *CD, const FieldSet &Dead) const {
    return layout(CD, &Dead).DeadBytes;
  }

  /// sizeof a complete \p CD object after removing all members in
  /// \p Dead and re-laying out (recursively, including members of
  /// member classes). Alignments are powers of two, so dropping members
  /// never moves one later: the result is at most CompleteSize.
  uint64_t sizeWithoutDead(const ClassDecl *CD, const FieldSet &Dead) const {
    return layout(CD, &Dead).CompleteSize;
  }

  static constexpr uint64_t PointerSize = 8;

private:
  /// The layouts under one dead-member filter: a copy of the caller's
  /// set and the layouts computed with it.
  struct Filter {
    FieldSet Members;
    std::unordered_map<const ClassDecl *, ClassLayout> Layouts;
  };

  /// How a live member of some type lays out under a filter.
  struct MemberShape {
    uint64_t Size = 0;
    uint64_t Align = 1;
    uint64_t DeadBytes = 0; ///< Dead bytes nested inside the member.
  };

  /// layout() under \p Dead, which is null for the full layout.
  const ClassLayout &layoutUnder(const ClassDecl *CD, Filter *Dead) const;

  MemberShape memberShape(const Type *T, Filter *Dead) const;

  /// Lays out \p CD's non-virtual region starting at \p Base offset,
  /// appending surviving field slots to \p L and adding dead bytes to
  /// L.DeadBytes. Returns the region size.
  uint64_t layoutNonVirtual(const ClassDecl *CD, uint64_t Base,
                            Filter *Dead, ClassLayout &L) const;

  /// True if \p CD has a virtual method or virtual destructor, declared
  /// or inherited: its objects need a vptr somewhere (cached).
  bool isDynamic(const ClassDecl *CD) const;
  /// True if \p CD is dynamic and no non-virtual base brings a vptr.
  bool ownsVPtr(const ClassDecl *CD) const;

  const ClassHierarchy &CH;
  mutable std::unordered_map<const ClassDecl *, ClassLayout> Full;
  mutable std::unordered_map<const FieldSet *, Filter> Filters;
  mutable std::unordered_map<const ClassDecl *, bool> DynamicCache;
};

} // namespace dmm

#endif // DMM_HIERARCHY_OBJECTLAYOUT_H
