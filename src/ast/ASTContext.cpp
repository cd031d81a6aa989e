//===-- ast/ASTContext.cpp ------------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ast/ASTContext.h"

using namespace dmm;

ASTContext::ASTContext()
    : VoidTy(BuiltinType::BK::Void), BoolTy(BuiltinType::BK::Bool),
      CharTy(BuiltinType::BK::Char), IntTy(BuiltinType::BK::Int),
      DoubleTy(BuiltinType::BK::Double), NullPtrTy(BuiltinType::BK::NullPtr) {
  TU = create<TranslationUnitDecl>();
}

void ASTContext::registerDecl(Decl *D) {
  D->setDeclID(NextDeclID++);
  switch (D->kind()) {
  case Decl::Kind::Class:
    Classes.push_back(static_cast<ClassDecl *>(D));
    break;
  case Decl::Kind::Field:
    Fields.push_back(static_cast<FieldDecl *>(D));
    break;
  case Decl::Kind::Function:
  case Decl::Kind::Method:
  case Decl::Kind::Constructor:
  case Decl::Kind::Destructor:
    Functions.push_back(static_cast<FunctionDecl *>(D));
    break;
  default:
    break;
  }
}

const Type *ASTContext::classType(const ClassDecl *CD) {
  if (!CD->TypeForDecl)
    CD->TypeForDecl = Alloc.create<ClassType>(CD);
  return CD->TypeForDecl;
}

const PointerType *ASTContext::pointerType(const Type *Pointee) {
  if (!Pointee->PointerTo)
    Pointee->PointerTo = Alloc.create<PointerType>(Pointee);
  return Pointee->PointerTo;
}

const ReferenceType *ASTContext::referenceType(const Type *Pointee) {
  if (!Pointee->ReferenceTo)
    Pointee->ReferenceTo = Alloc.create<ReferenceType>(Pointee);
  return Pointee->ReferenceTo;
}

const ArrayType *ASTContext::arrayType(const Type *Element, uint64_t Size) {
  auto Key = std::make_pair(Element, Size);
  auto It = ArrayTypes.find(Key);
  if (It != ArrayTypes.end())
    return It->second;
  const ArrayType *T = Alloc.create<ArrayType>(Element, Size);
  ArrayTypes[Key] = T;
  return T;
}

const MemberPointerType *
ASTContext::memberPointerType(const ClassDecl *Class, const Type *Pointee) {
  auto Key = std::make_pair(Class, Pointee);
  auto It = MemberPointerTypes.find(Key);
  if (It != MemberPointerTypes.end())
    return It->second;
  const MemberPointerType *T =
      Alloc.create<MemberPointerType>(Class, Pointee);
  MemberPointerTypes[Key] = T;
  return T;
}

const FunctionType *
ASTContext::functionType(const Type *Result,
                         std::vector<const Type *> Params) {
  // Linear search: programs have few distinct function-pointer signatures.
  for (const FunctionType *FT : FunctionTypes)
    if (FT->result() == Result && FT->params() == Params)
      return FT;
  const FunctionType *T =
      Alloc.create<FunctionType>(Result, std::move(Params));
  FunctionTypes.push_back(T);
  return T;
}
