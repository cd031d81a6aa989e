//===-- interp/ObjectModel.h - Slot layout of objects -----------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The object model both execution engines share (the tree-walking
/// Interpreter and the bytecode VM). Every FieldDecl gets one
/// program-wide *slot color* such that any two fields that co-occur in
/// some class's complete object (LayoutEngine::layout().AllFields) have
/// distinct colors. An object's Storage::Children vector is indexed by
/// color, so a member access is a bounds check, one indexed load and an
/// identity check (Storage::member), valid for any dynamic receiver
/// class since a field keeps its color in every class that embeds it.
/// Colors are reused across unrelated classes, which is what the
/// identity check is for.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_INTERP_OBJECTMODEL_H
#define DMM_INTERP_OBJECTMODEL_H

#include "ast/Decl.h"
#include "interp/Value.h"

#include <cstdint>
#include <vector>

namespace dmm {

class ASTContext;
class LayoutEngine;

/// The color of a field that no complete class lays out.
constexpr uint32_t NoColor = 0xFFFFFFFFu;
/// The class index of a node that is neither an object nor an array of
/// class type.
constexpr uint32_t NoClass = 0xFFFFFFFFu;

/// The value a scalar of type \p Ty holds before its first store: both
/// engines zero-initialize, for determinism.
Value zeroValue(const Type *Ty);

/// One class's complete-object slot layout.
struct ClassSlots {
  const ClassDecl *Decl = nullptr;
  /// Unique fields of the complete object in first-occurrence AllFields
  /// order (a repeated non-virtual base shares its first subobject);
  /// empty for an incomplete class. Memberwise copies walk this order.
  std::vector<const FieldDecl *> SlotFields;
  /// Parallel to SlotFields: each field's color.
  std::vector<uint32_t> SlotColors;
  /// Storage::Children size of an instance (1 + max color, 0 if none).
  uint32_t NumSlots = 0;
  uint64_t CompleteSize = 0; ///< Layout bytes, for the allocation trace.
};

/// The slot layout of every class of a program, indexed in
/// ASTContext::classes() order.
class ObjectModel {
public:
  ObjectModel() = default;
  ObjectModel(const ASTContext &Ctx, const LayoutEngine &Layout);

  size_t numClasses() const { return Classes.size(); }
  uint32_t classIndex(const ClassDecl *CD) const {
    return ClassIdx[CD->declID()];
  }
  const ClassSlots &slots(uint32_t ClassI) const { return Classes[ClassI]; }
  /// NoColor for a field no complete class lays out.
  uint32_t fieldColor(const FieldDecl *FD) const {
    return FD->declID() < FieldColors.size() ? FieldColors[FD->declID()]
                                             : NoColor;
  }

private:
  std::vector<ClassSlots> Classes;
  std::vector<uint32_t> ClassIdx;    ///< By declID(); NoClass elsewhere.
  std::vector<uint32_t> FieldColors; ///< By declID(); NoColor elsewhere.
};

} // namespace dmm

#endif // DMM_INTERP_OBJECTMODEL_H
