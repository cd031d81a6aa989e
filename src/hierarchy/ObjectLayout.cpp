//===-- hierarchy/ObjectLayout.cpp ----------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "hierarchy/ObjectLayout.h"

#include "hierarchy/ClassHierarchy.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace dmm;

static uint64_t alignTo(uint64_t Value, uint64_t Align) {
  assert(Align != 0 && "zero alignment");
  return (Value + Align - 1) / Align * Align;
}

bool LayoutEngine::isDynamic(const ClassDecl *CD) const {
  auto It = DynamicCache.find(CD);
  if (It != DynamicCache.end())
    return It->second;
  bool Dynamic = CD->destructor() && CD->destructor()->isVirtual();
  for (const MethodDecl *M : CD->methods())
    Dynamic = Dynamic || CH.isVirtualMethod(M);
  for (const BaseSpecifier &BS : CD->bases())
    Dynamic = Dynamic || isDynamic(BS.Base);
  DynamicCache.emplace(CD, Dynamic);
  return Dynamic;
}

bool LayoutEngine::ownsVPtr(const ClassDecl *CD) const {
  if (!isDynamic(CD))
    return false;
  for (const BaseSpecifier &BS : CD->bases())
    if (!BS.IsVirtual && isDynamic(BS.Base))
      return false; // Shares that base's vptr.
  return true;
}

uint64_t LayoutEngine::sizeOf(const Type *T) const {
  switch (T->kind()) {
  case Type::Kind::Builtin:
    switch (cast<BuiltinType>(T)->builtinKind()) {
    case BuiltinType::BK::Void: return 0;
    case BuiltinType::BK::Bool: return 1;
    case BuiltinType::BK::Char: return 1;
    case BuiltinType::BK::Int: return 4;
    case BuiltinType::BK::Double: return 8;
    case BuiltinType::BK::NullPtr: return PointerSize;
    }
    return 0;
  case Type::Kind::Class: {
    const ClassDecl *CD = cast<ClassType>(T)->decl();
    if (!CD->isComplete())
      return 0;
    return layout(CD).CompleteSize;
  }
  case Type::Kind::Pointer:
  case Type::Kind::Reference:
  case Type::Kind::MemberPointer:
    return PointerSize;
  case Type::Kind::Array: {
    const auto *AT = cast<ArrayType>(T);
    return AT->size() * sizeOf(AT->element());
  }
  case Type::Kind::Function:
    return 0; // Not an object type.
  }
  return 0;
}

uint64_t LayoutEngine::alignOf(const Type *T) const {
  switch (T->kind()) {
  case Type::Kind::Builtin:
    return std::max<uint64_t>(1, sizeOf(T));
  case Type::Kind::Class: {
    const ClassDecl *CD = cast<ClassType>(T)->decl();
    if (!CD->isComplete())
      return 1;
    return layout(CD).Align;
  }
  case Type::Kind::Pointer:
  case Type::Kind::Reference:
  case Type::Kind::MemberPointer:
    return PointerSize;
  case Type::Kind::Array:
    return alignOf(cast<ArrayType>(T)->element());
  case Type::Kind::Function:
    return 1;
  }
  return 1;
}

LayoutEngine::MemberShape
LayoutEngine::memberShape(const Type *T, Filter *Dead) const {
  uint64_t Count = 1;
  const Type *Elem = T;
  while (const auto *AT = dyn_cast<ArrayType>(Elem)) {
    Count *= AT->size();
    Elem = AT->element();
  }
  const ClassDecl *CD = Elem->asClassDecl();
  if (!CD || !CD->isComplete())
    return {sizeOf(T), alignOf(T), 0};
  const ClassLayout &L = layoutUnder(CD, Dead);
  return {Count * L.CompleteSize, L.Align, Count * L.DeadBytes};
}

uint64_t LayoutEngine::layoutNonVirtual(const ClassDecl *CD, uint64_t Base,
                                        Filter *Dead, ClassLayout &L) const {
  // The shape of a surviving field; a dead one adds its full size to
  // the dead bytes instead.
  auto Survivor = [&](const FieldDecl *F) -> std::optional<MemberShape> {
    if (Dead && Dead->Members.count(F)) {
      L.DeadBytes += sizeOf(F->type());
      return std::nullopt;
    }
    MemberShape M = memberShape(F->type(), Dead);
    L.DeadBytes += M.DeadBytes;
    return M;
  };

  if (CD->isUnion()) {
    uint64_t Size = 0;
    for (const FieldDecl *F : CD->fields())
      if (std::optional<MemberShape> M = Survivor(F)) {
        L.AllFields.push_back({F, Base, M->Size});
        Size = std::max(Size, M->Size);
      }
    return Size;
  }

  uint64_t Offset = Base;
  if (ownsVPtr(CD)) {
    Offset += PointerSize; // vptr
    L.OverheadBytes += PointerSize;
  }

  // Non-virtual base subobjects, declaration order.
  for (const BaseSpecifier &BS : CD->bases()) {
    if (BS.IsVirtual)
      continue;
    Offset = alignTo(Offset, layoutUnder(BS.Base, Dead).Align);
    Offset += layoutNonVirtual(BS.Base, Offset, Dead, L);
  }

  // One vbase pointer per direct virtual base.
  for (const BaseSpecifier &BS : CD->bases()) {
    if (!BS.IsVirtual)
      continue;
    Offset = alignTo(Offset, PointerSize);
    Offset += PointerSize;
    L.OverheadBytes += PointerSize;
  }

  // Own fields.
  for (const FieldDecl *F : CD->fields())
    if (std::optional<MemberShape> M = Survivor(F)) {
      Offset = alignTo(Offset, M->Align);
      L.AllFields.push_back({F, Offset, M->Size});
      Offset += M->Size;
    }

  return Offset - Base;
}

const ClassLayout &LayoutEngine::layout(const ClassDecl *CD,
                                        const FieldSet *Dead) const {
  // A set that changed, or a new set at a freed one's address, starts
  // its filter over.
  Filter *F = Dead ? &Filters[Dead] : nullptr;
  if (F && F->Members != *Dead)
    *F = {*Dead, {}};
  return layoutUnder(CD, F);
}

const ClassLayout &LayoutEngine::layoutUnder(const ClassDecl *CD,
                                             Filter *Dead) const {
  auto &Cache = Dead ? Dead->Layouts : Full;
  auto It = Cache.find(CD);
  if (It != Cache.end())
    return It->second;

  ClassLayout L;

  // Alignment: max over vptr presence, bases, and surviving fields.
  uint64_t Align = 1;
  if (isDynamic(CD) || !CH.virtualBases(CD).empty())
    Align = PointerSize;
  for (const BaseSpecifier &BS : CD->bases())
    Align = std::max(Align, layoutUnder(BS.Base, Dead).Align);
  for (const FieldDecl *F : CD->fields())
    if (!Dead || !Dead->Members.count(F))
      Align = std::max(Align, memberShape(F->type(), Dead).Align);
  L.Align = Align;

  L.HasOwnVPtr = ownsVPtr(CD);

  uint64_t Offset = layoutNonVirtual(CD, 0, Dead, L);
  // Virtual base subobjects at the end of the complete object.
  for (const ClassDecl *VB : CH.virtualBases(CD)) {
    Offset = alignTo(Offset, layoutUnder(VB, Dead).Align);
    Offset += layoutNonVirtual(VB, Offset, Dead, L);
  }
  L.CompleteSize = alignTo(std::max<uint64_t>(Offset, 1), Align);

  // Union alternatives overlap: removing dead ones reclaims only the
  // size reduction, not the sum of their sizes.
  if (Dead && CD->isUnion())
    L.DeadBytes = layoutUnder(CD, nullptr).CompleteSize - L.CompleteSize;

  return Cache.emplace(CD, std::move(L)).first->second;
}
