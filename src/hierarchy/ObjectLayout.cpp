//===-- hierarchy/ObjectLayout.cpp ----------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "hierarchy/ObjectLayout.h"

#include "hierarchy/ClassHierarchy.h"

#include <algorithm>
#include <cassert>

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

uint64_t LayoutEngine::layoutNonVirtual(const ClassDecl *CD, uint64_t Base,
                                        ClassLayout &L) const {
  uint64_t Offset = Base;

  if (CD->isUnion()) {
    uint64_t Size = 0;
    for (const FieldDecl *F : CD->fields()) {
      uint64_t FieldSize = sizeOf(F->type());
      L.AllFields.push_back({F, Base, FieldSize});
      Size = std::max(Size, FieldSize);
    }
    return Size;
  }

  bool Dynamic = isDynamic(CD);
  bool BaseProvidesVPtr = false;
  for (const BaseSpecifier &BS : CD->bases())
    if (!BS.IsVirtual && isDynamic(BS.Base))
      BaseProvidesVPtr = true;

  if (Dynamic && !BaseProvidesVPtr) {
    Offset += PointerSize; // vptr
    L.OverheadBytes += PointerSize;
  }

  // Non-virtual base subobjects, declaration order.
  for (const BaseSpecifier &BS : CD->bases()) {
    if (BS.IsVirtual)
      continue;
    Offset = alignTo(Offset, layout(BS.Base).Align);
    Offset += layoutNonVirtual(BS.Base, Offset, L);
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
  for (const FieldDecl *F : CD->fields()) {
    uint64_t FieldSize = sizeOf(F->type());
    Offset = alignTo(Offset, alignOf(F->type()));
    L.AllFields.push_back({F, Offset, FieldSize});
    Offset += FieldSize;
  }

  return Offset - Base;
}

const ClassLayout &LayoutEngine::layout(const ClassDecl *CD) const {
  auto It = Cache.find(CD);
  if (It != Cache.end())
    return It->second;

  ClassLayout L;

  // Alignment: max over vptr presence, bases, and fields.
  uint64_t Align = 1;
  if (isDynamic(CD) || !CH.virtualBases(CD).empty())
    Align = PointerSize;
  for (const BaseSpecifier &BS : CD->bases())
    Align = std::max(Align, layout(BS.Base).Align);
  for (const FieldDecl *F : CD->fields())
    Align = std::max(Align, alignOf(F->type()));
  L.Align = Align;

  bool BaseProvidesVPtr = false;
  for (const BaseSpecifier &BS : CD->bases())
    if (!BS.IsVirtual && isDynamic(BS.Base))
      BaseProvidesVPtr = true;
  L.HasOwnVPtr = isDynamic(CD) && !BaseProvidesVPtr;

  uint64_t NVSize = layoutNonVirtual(CD, 0, L);
  L.NonVirtualSize = alignTo(std::max<uint64_t>(NVSize, 1), Align);

  // Virtual base subobjects at the end of the complete object.
  uint64_t Offset = NVSize;
  for (const ClassDecl *VB : CH.virtualBases(CD)) {
    Offset = alignTo(Offset, layout(VB).Align);
    Offset += layoutNonVirtual(VB, Offset, L);
  }
  L.CompleteSize = alignTo(std::max<uint64_t>(Offset, 1), Align);

  return Cache.emplace(CD, std::move(L)).first->second;
}

uint64_t LayoutEngine::deadBytes(const ClassDecl *CD,
                                 const FieldSet &Dead) const {
  if (CD->isUnion()) {
    uint64_t Full = layout(CD).CompleteSize;
    uint64_t Shrunk = sizeWithoutDead(CD, Dead);
    return Full - Shrunk;
  }
  uint64_t Bytes = 0;
  for (const FieldSlot &Slot : layout(CD).AllFields) {
    const Type *Ty = Slot.Field->type();
    if (Dead.count(Slot.Field)) {
      Bytes += Slot.Size;
      continue;
    }
    if (const ClassDecl *Nested = Ty->asClassDecl()) {
      Bytes += deadBytes(Nested, Dead);
      continue;
    }
    if (const auto *AT = dyn_cast<ArrayType>(Ty))
      if (const ClassDecl *Elem = AT->element()->asClassDecl())
        Bytes += AT->size() * deadBytes(Elem, Dead);
  }
  return Bytes;
}

uint64_t LayoutEngine::sizeOfField(const FieldDecl *F,
                                   const FieldSet &Dead) const {
  const Type *Ty = F->type();
  if (const ClassDecl *Nested = Ty->asClassDecl())
    return sizeWithoutDead(Nested, Dead);
  if (const auto *AT = dyn_cast<ArrayType>(Ty))
    if (const ClassDecl *Elem = AT->element()->asClassDecl())
      return AT->size() * sizeWithoutDead(Elem, Dead);
  return sizeOf(Ty);
}

uint64_t LayoutEngine::sizeWithoutDead(const ClassDecl *CD,
                                       const FieldSet &Dead) const {
  ShrinkKey Key{CD, &Dead};
  auto It = ShrinkCache.find(Key);
  if (It != ShrinkCache.end())
    return It->second;

  // Re-lay out with the same rules as layout()/layoutNonVirtual but
  // skipping dead fields, shrinking nested member objects, and
  // recomputing alignment from the surviving parts.
  struct Relayouter {
    const LayoutEngine &Engine;
    const ClassHierarchy &CH;
    const FieldSet &Dead;

    uint64_t align(const ClassDecl *C) const {
      uint64_t A = 1;
      if (Engine.isDynamic(C) || !CH.virtualBases(C).empty())
        A = LayoutEngine::PointerSize;
      for (const BaseSpecifier &BS : C->bases())
        A = std::max(A, align(BS.Base));
      for (const FieldDecl *F : C->fields()) {
        if (Dead.count(F))
          continue;
        if (const ClassDecl *Member = F->type()->asClassDecl())
          A = std::max(A, align(Member));
        else if (const auto *AT = dyn_cast<ArrayType>(F->type());
                 AT && AT->element()->asClassDecl())
          A = std::max(A, align(AT->element()->asClassDecl()));
        else
          A = std::max(A, Engine.alignOf(F->type()));
      }
      return A;
    }

    uint64_t fieldAlign(const FieldDecl *F) const {
      if (const ClassDecl *Member = F->type()->asClassDecl())
        return align(Member);
      if (const auto *AT = dyn_cast<ArrayType>(F->type()))
        if (const ClassDecl *Elem = AT->element()->asClassDecl())
          return align(Elem);
      return Engine.alignOf(F->type());
    }

    uint64_t nonVirtual(const ClassDecl *C, uint64_t Base) const {
      if (C->isUnion()) {
        uint64_t Size = 0;
        for (const FieldDecl *F : C->fields())
          if (!Dead.count(F))
            Size = std::max(Size, Engine.sizeOfField(F, Dead));
        return Size;
      }
      uint64_t Offset = Base;
      bool BaseProvidesVPtr = false;
      for (const BaseSpecifier &BS : C->bases())
        if (!BS.IsVirtual && Engine.isDynamic(BS.Base))
          BaseProvidesVPtr = true;
      if (Engine.isDynamic(C) && !BaseProvidesVPtr)
        Offset += LayoutEngine::PointerSize;
      for (const BaseSpecifier &BS : C->bases()) {
        if (BS.IsVirtual)
          continue;
        Offset = alignTo(Offset, align(BS.Base));
        Offset += nonVirtual(BS.Base, Offset);
      }
      for (const BaseSpecifier &BS : C->bases()) {
        if (!BS.IsVirtual)
          continue;
        Offset = alignTo(Offset, LayoutEngine::PointerSize);
        Offset += LayoutEngine::PointerSize;
      }
      for (const FieldDecl *F : C->fields()) {
        if (Dead.count(F))
          continue;
        Offset = alignTo(Offset, fieldAlign(F));
        Offset += Engine.sizeOfField(F, Dead);
      }
      return Offset - Base;
    }
  };

  Relayouter R{*this, CH, Dead};
  uint64_t Offset = R.nonVirtual(CD, 0);
  for (const ClassDecl *VB : CH.virtualBases(CD)) {
    Offset = alignTo(Offset, R.align(VB));
    Offset += R.nonVirtual(VB, Offset);
  }
  uint64_t Size = alignTo(std::max<uint64_t>(Offset, 1), R.align(CD));
  Size = std::min(Size, layout(CD).CompleteSize);
  ShrinkCache[Key] = Size;
  return Size;
}
