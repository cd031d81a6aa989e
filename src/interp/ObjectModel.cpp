//===-- interp/ObjectModel.cpp --------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/ObjectModel.h"

#include "ast/ASTContext.h"
#include "ast/Type.h"
#include "hierarchy/ObjectLayout.h"
#include "support/BitVector.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace dmm;

Value dmm::zeroValue(const Type *Ty) {
  if (Ty->isPointer()) {
    if (isa<FunctionType>(cast<PointerType>(Ty)->pointee()))
      return Value::ofFn(nullptr);
    return Value::nullPtr();
  }
  if (Ty->isMemberPointer())
    return Value::ofMemberPtr(nullptr);
  if (const auto *BT = dyn_cast<BuiltinType>(Ty)) {
    switch (BT->builtinKind()) {
    case BuiltinType::BK::Double:
      return Value::ofDouble(0.0);
    case BuiltinType::BK::Bool:
      return Value::ofBool(false);
    case BuiltinType::BK::Char:
      return Value::ofChar(0);
    case BuiltinType::BK::NullPtr:
      return Value::nullPtr();
    default:
      return Value::ofInt(0);
    }
  }
  return Value::ofInt(0);
}

ObjectModel::ObjectModel(const ASTContext &Ctx, const LayoutEngine &Layout) {
  // Interference: two fields conflict when they co-occur in some
  // complete class's unique field list. A base's list is contained in
  // each derived class's, so only the classes nothing derives from
  // (only complete classes have bases) need checking; each keeps the
  // set of colors it uses. Greedy coloring in global first-appearance
  // order.
  std::unordered_set<const ClassDecl *> Covered;
  for (const ClassDecl *CD : Ctx.classes())
    for (const BaseSpecifier &BS : CD->bases())
      Covered.insert(BS.Base);

  std::vector<BitVector> Used; // Per checked class.
  std::unordered_map<const FieldDecl *, std::vector<uint32_t>> FieldClasses;
  std::vector<const FieldDecl *> Order;
  for (const ClassDecl *CD : Ctx.classes()) {
    if (!CD->isComplete())
      continue;
    bool Checked = !Covered.count(CD);
    uint32_t CI = static_cast<uint32_t>(Used.size());
    for (const FieldSlot &Slot : Layout.layout(CD).AllFields) {
      auto [It, Fresh] = FieldClasses.try_emplace(Slot.Field);
      if (Fresh)
        Order.push_back(Slot.Field);
      if (Checked && (It->second.empty() || It->second.back() != CI))
        It->second.push_back(CI);
    }
    if (Checked)
      Used.emplace_back();
  }
  FieldColors.assign(Ctx.numDecls(), NoColor);
  for (const FieldDecl *FD : Order) {
    const std::vector<uint32_t> &In = FieldClasses[FD];
    uint32_t Color = 0;
    while (std::any_of(In.begin(), In.end(),
                       [&](uint32_t CI) { return Used[CI].test(Color); }))
      ++Color;
    for (uint32_t CI : In)
      Used[CI].set(Color);
    FieldColors[FD->declID()] = Color;
  }

  ClassIdx.assign(Ctx.numDecls(), NoClass);
  std::vector<uint32_t> SeenIn(Ctx.numDecls(), NoClass); // By field.
  for (const ClassDecl *CD : Ctx.classes()) {
    uint32_t CI = static_cast<uint32_t>(Classes.size());
    ClassIdx[CD->declID()] = CI;
    ClassSlots &CS = Classes.emplace_back();
    CS.Decl = CD;
    if (!CD->isComplete())
      continue;
    const ClassLayout &L = Layout.layout(CD);
    CS.CompleteSize = L.CompleteSize;
    for (const FieldSlot &Slot : L.AllFields) {
      uint32_t &Seen = SeenIn[Slot.Field->declID()];
      if (Seen == CI)
        continue; // Repeated non-virtual base: share the first subobject.
      Seen = CI;
      uint32_t Color = FieldColors[Slot.Field->declID()];
      CS.SlotFields.push_back(Slot.Field);
      CS.SlotColors.push_back(Color);
      CS.NumSlots = std::max(CS.NumSlots, Color + 1);
    }
  }
}
