//===-- sema/Sema.cpp -----------------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sema/Sema.h"

#include "ast/ASTWalker.h"
#include "support/Diagnostics.h"

#include <cassert>

using namespace dmm;

Sema::Sema(ASTContext &Ctx, DiagnosticsEngine &Diags)
    : Ctx(Ctx), Diags(Diags) {}

bool Sema::run() {
  unsigned ErrorsBefore = Diags.errorCount();

  CH = std::make_unique<ClassHierarchy>(Ctx);
  for (ClassDecl *CD : Ctx.classes())
    if (!CD->isComplete() && !CD->isLibrary())
      Diags.warning(CD->location(), "class '" + CD->name() +
                                        "' is declared but never defined; "
                                        "treating it as a library class");

  computeVirtualFlags();
  // The parser bound the free functions; the builtins replace those of
  // their names, then the global variables are bound.
  createBuiltins();
  for (VarDecl *GV : Ctx.globals()) {
    NameBinding &B = Ctx.binding(Ctx.symbols().intern(GV->name()));
    if (B.Global)
      Diags.error(GV->location(),
                  "redefinition of global '" + GV->name() + "'");
    B.Global = GV;
  }

  // Global variable initializers are checked in a file-level context.
  CurClass = nullptr;
  CurFunction = nullptr;
  pushScope();
  for (VarDecl *GV : Ctx.globals())
    checkVarInit(GV);
  popScope();

  // Check every function with a body (and ctor initializer lists).
  for (FunctionDecl *FD : Ctx.functions())
    checkFunction(FD);

  // main().
  MainFn = dyn_cast_or_null<FunctionDecl>(
      Ctx.binding(Ctx.symbols().intern("main")).Global);
  if (!MainFn || !MainFn->isDefined())
    Diags.error(SourceLocation(), "program has no defined 'main' function");

  return Diags.errorCount() == ErrorsBefore;
}

void Sema::createBuiltins() {
  struct Spec {
    const char *Name;
    BuiltinKind Kind;
    const Type *ParamTy;
  };
  const Type *CharPtr = Ctx.pointerType(Ctx.charType());
  const Type *VoidPtr = Ctx.pointerType(Ctx.voidType());
  const Spec Specs[] = {
      {"print_int", BuiltinKind::PrintInt, Ctx.intType()},
      {"print_char", BuiltinKind::PrintChar, Ctx.charType()},
      {"print_double", BuiltinKind::PrintDouble, Ctx.doubleType()},
      {"print_str", BuiltinKind::PrintStr, CharPtr},
      {"print_bool", BuiltinKind::PrintBool, Ctx.boolType()},
      {"free", BuiltinKind::Free, VoidPtr},
  };
  for (const Spec &S : Specs) {
    auto *FD =
        Ctx.create<FunctionDecl>(S.Name, Ctx.voidType(), SourceLocation());
    FD->setBuiltinKind(S.Kind);
    FD->addParam(Ctx.create<ParamDecl>("value", S.ParamTy, SourceLocation()));
    Ctx.binding(Ctx.symbols().intern(S.Name)).Global = FD;
  }
}

void Sema::computeVirtualFlags() {
  for (ClassDecl *CD : Ctx.classes()) {
    for (MethodDecl *M : CD->methods())
      if (!M->isVirtual() && CH->isVirtualMethod(M))
        M->setVirtual();
    if (DestructorDecl *Dtor = CD->destructor())
      if (!Dtor->isVirtual())
        for (const ClassDecl *Base : CH->transitiveBases(CD))
          if (Base->destructor() && Base->destructor()->isVirtual())
            Dtor->setVirtual();
  }
}

const FunctionType *Sema::functionTypeOf(const FunctionDecl *FD) {
  std::vector<const Type *> Params;
  for (const ParamDecl *P : FD->params())
    Params.push_back(P->type());
  return Ctx.functionType(FD->returnType(), std::move(Params));
}

ConstructorDecl *Sema::findCtorByArity(const ClassDecl *CD,
                                       size_t Arity) const {
  for (ConstructorDecl *C : CD->constructors())
    if (C->params().size() == Arity)
      return C;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Scopes
//===----------------------------------------------------------------------===//

void Sema::pushScope() { BlockStarts.push_back(ShadowStack.size()); }

void Sema::popScope() {
  assert(!BlockStarts.empty() && "scope underflow");
  while (ShadowStack.size() > BlockStarts.back()) {
    const Shadowed &S = ShadowStack.back();
    NameBinding &B = Ctx.binding(S.Name);
    B.Local = S.Local;
    B.LocalDepth = S.Depth;
    ShadowStack.pop_back();
  }
  BlockStarts.pop_back();
}

void Sema::declareLocal(VarDecl *V) {
  assert(!BlockStarts.empty() && "no active scope");
  SymbolID Name = Ctx.symbols().intern(V->name());
  NameBinding &B = Ctx.binding(Name);
  if (B.Local && B.LocalDepth == BlockStarts.size()) {
    Diags.error(V->location(),
                "redefinition of variable '" + V->name() + "'");
    return;
  }
  ShadowStack.push_back({Name, B.Local, B.LocalDepth});
  B.Local = V;
  B.LocalDepth = static_cast<unsigned>(BlockStarts.size());
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

void Sema::checkVarInit(VarDecl *V) {
  for (Expr *Arg : V->ctorArgs())
    checkExpr(Arg);
  if (Expr *Init = V->init())
    checkExpr(Init);

  const Type *Ty = V->type()->nonReferenceType();
  const ClassDecl *CD = Ty->asClassDecl();
  if (!CD) {
    if (const auto *AT = dyn_cast<ArrayType>(Ty))
      CD = AT->element()->asClassDecl();
    if (!CD)
      return;
  }
  if (!CD->isComplete()) {
    Diags.error(V->location(), "variable '" + V->name() +
                                   "' has incomplete type '" + CD->name() +
                                   "'");
    return;
  }
  if (V->type()->isReference())
    return; // References bind; no construction.
  CD->setInstantiated();

  ConstructorDecl *Ctor = findCtorByArity(CD, V->ctorArgs().size());
  if (!Ctor && !V->ctorArgs().empty()) {
    Diags.error(V->location(), "no constructor of '" + CD->name() +
                                   "' takes " +
                                   std::to_string(V->ctorArgs().size()) +
                                   " arguments");
    return;
  }
  if (!Ctor && !CD->constructors().empty() && !V->init()) {
    Diags.error(V->location(),
                "class '" + CD->name() + "' has no default constructor");
    return;
  }
  V->setCtor(Ctor);
}

void Sema::checkFunction(FunctionDecl *FD) {
  if (!FD->body() && !isa<ConstructorDecl>(FD))
    return;

  CurFunction = FD;
  CurClass = nullptr;
  if (auto *M = dyn_cast<MethodDecl>(FD))
    CurClass = M->parent();

  pushScope();
  for (ParamDecl *P : FD->params())
    declareLocal(P);

  if (auto *Ctor = dyn_cast<ConstructorDecl>(FD))
    resolveCtorInitializers(Ctor);

  if (FD->body())
    checkStmt(FD->body());
  popScope();
  CurFunction = nullptr;
  CurClass = nullptr;
}

void Sema::resolveCtorInitializers(ConstructorDecl *Ctor) {
  ClassDecl *CD = Ctor->parent();
  for (CtorInitializer &Init : Ctor->initializers()) {
    for (Expr *Arg : Init.Args)
      checkExpr(Arg);

    // Direct (or virtual) base initializer?
    ClassDecl *Base = nullptr;
    for (const BaseSpecifier &BS : CD->bases())
      if (BS.Base->name() == Init.Name)
        Base = BS.Base;
    if (!Base) {
      // Virtual bases are initialized by the most-derived class even if
      // indirect.
      for (const ClassDecl *VB : CH->virtualBases(CD))
        if (VB->name() == Init.Name)
          Base = const_cast<ClassDecl *>(VB);
    }
    if (Base) {
      Init.Base = Base;
      Init.TargetCtor = findCtorByArity(Base, Init.Args.size());
      if (!Init.TargetCtor && !Init.Args.empty())
        Diags.error(Init.Loc, "no constructor of base '" + Base->name() +
                                  "' takes " +
                                  std::to_string(Init.Args.size()) +
                                  " arguments");
      continue;
    }

    FieldDecl *F = CD->findField(Init.Name);
    if (!F) {
      Diags.error(Init.Loc, "'" + Init.Name +
                                "' is not a member or base of '" +
                                CD->name() + "'");
      continue;
    }
    Init.Field = F;
    if (const ClassDecl *FieldClass = F->type()->asClassDecl()) {
      Init.TargetCtor = findCtorByArity(FieldClass, Init.Args.size());
      if (!Init.TargetCtor && !Init.Args.empty())
        Diags.error(Init.Loc, "no constructor of '" + FieldClass->name() +
                                  "' takes " +
                                  std::to_string(Init.Args.size()) +
                                  " arguments");
    } else if (Init.Args.size() > 1) {
      Diags.error(Init.Loc, "scalar member '" + Init.Name +
                                "' initialized with multiple values");
    }
  }
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void Sema::checkStmt(Stmt *S) {
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    pushScope();
    for (Stmt *Child : cast<CompoundStmt>(S)->stmts())
      checkStmt(Child);
    popScope();
    return;
  case Stmt::Kind::Decl:
    for (VarDecl *V : cast<DeclStmt>(S)->vars()) {
      checkVarInit(V);
      declareLocal(V);
    }
    return;
  case Stmt::Kind::Expr:
    checkExpr(cast<ExprStmt>(S)->expr());
    return;
  case Stmt::Kind::If: {
    auto *IS = cast<IfStmt>(S);
    checkExpr(IS->cond());
    checkStmt(IS->thenStmt());
    if (IS->elseStmt())
      checkStmt(IS->elseStmt());
    return;
  }
  case Stmt::Kind::While: {
    auto *WS = cast<WhileStmt>(S);
    checkExpr(WS->cond());
    checkStmt(WS->body());
    return;
  }
  case Stmt::Kind::For: {
    auto *FS = cast<ForStmt>(S);
    pushScope();
    if (FS->init())
      checkStmt(FS->init());
    if (FS->cond())
      checkExpr(FS->cond());
    if (FS->step())
      checkExpr(FS->step());
    checkStmt(FS->body());
    popScope();
    return;
  }
  case Stmt::Kind::Return:
    if (Expr *Value = cast<ReturnStmt>(S)->value())
      checkExpr(Value);
    return;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
  case Stmt::Kind::Null:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

const Type *Sema::checkExpr(Expr *E) {
  if (E->type())
    return E->type(); // Already checked (shared ctor-init args, etc.).

  const Type *Ty = nullptr;
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
    Ty = Ctx.intType();
    break;
  case Expr::Kind::DoubleLiteral:
    Ty = Ctx.doubleType();
    break;
  case Expr::Kind::BoolLiteral:
    Ty = Ctx.boolType();
    break;
  case Expr::Kind::CharLiteral:
    Ty = Ctx.charType();
    break;
  case Expr::Kind::StringLiteral:
    Ty = Ctx.pointerType(Ctx.charType());
    break;
  case Expr::Kind::NullptrLiteral:
    Ty = Ctx.nullPtrType();
    break;
  case Expr::Kind::DeclRef:
    Ty = checkDeclRef(cast<DeclRefExpr>(E));
    break;
  case Expr::Kind::This:
    if (!CurClass) {
      Diags.error(E->location(), "'this' outside of a method");
      Ty = Ctx.intType();
      break;
    }
    Ty = Ctx.pointerType(Ctx.classType(CurClass));
    break;
  case Expr::Kind::Member:
    Ty = checkMember(cast<MemberExpr>(E));
    break;
  case Expr::Kind::MemberPointerConstant: {
    auto *MPC = cast<MemberPointerConstantExpr>(E);
    ClassDecl *CD = Ctx.binding(MPC->className()).Class;
    assert(CD && "the parser makes `&C::m` only when C names a class");
    FieldDecl *F = CH->lookupField(CD, MPC->memberName());
    if (!F) {
      Diags.error(E->location(), "class '" + CD->name() +
                                     "' has no data member '" +
                                     std::string(MPC->memberName()) + "'");
      Ty = Ctx.intType();
      break;
    }
    MPC->setMember(F);
    Ty = Ctx.memberPointerType(CD, F->type());
    break;
  }
  case Expr::Kind::MemberPointerAccess: {
    auto *MPA = cast<MemberPointerAccessExpr>(E);
    const Type *BaseTy = checkExpr(MPA->base());
    const Type *PtrTy = checkExpr(MPA->pointer());
    const ClassDecl *BaseClass = nullptr;
    if (MPA->isArrow()) {
      if (const auto *PT = dyn_cast<PointerType>(BaseTy))
        BaseClass = PT->pointee()->asClassDecl();
    } else {
      BaseClass = BaseTy->asClassDecl();
    }
    if (!BaseClass)
      Diags.error(E->location(),
                  "left side of pointer-to-member access is not a class");
    const auto *MPT = dyn_cast<MemberPointerType>(PtrTy);
    if (!MPT) {
      Diags.error(E->location(),
                  "right side of '.*' is not a pointer to member");
      Ty = Ctx.intType();
      break;
    }
    if (BaseClass && !CH->isDerivedFrom(BaseClass, MPT->classDecl()))
      Diags.error(E->location(),
                  "pointer to member of unrelated class");
    E->setLValue();
    Ty = MPT->pointee();
    break;
  }
  case Expr::Kind::Unary:
    Ty = checkUnary(cast<UnaryExpr>(E));
    break;
  case Expr::Kind::Binary:
    Ty = checkBinary(cast<BinaryExpr>(E));
    break;
  case Expr::Kind::Assign: {
    auto *A = cast<AssignExpr>(E);
    const Type *LHSTy = checkExpr(A->lhs());
    checkExpr(A->rhs());
    if (!A->lhs()->isLValue())
      Diags.error(E->location(), "assignment to non-lvalue");
    Ty = LHSTy;
    break;
  }
  case Expr::Kind::Conditional: {
    auto *C = cast<ConditionalExpr>(E);
    checkExpr(C->cond());
    const Type *ThenTy = checkExpr(C->thenExpr());
    const Type *ElseTy = checkExpr(C->elseExpr());
    // Prefer the non-nullptr branch type for pointer conditionals.
    Ty = ThenTy;
    if (isa<BuiltinType>(ThenTy) &&
        cast<BuiltinType>(ThenTy)->builtinKind() == BuiltinType::BK::NullPtr)
      Ty = ElseTy;
    break;
  }
  case Expr::Kind::Comma: {
    auto *C = cast<CommaExpr>(E);
    checkExpr(C->lhs());
    Ty = checkExpr(C->rhs());
    break;
  }
  case Expr::Kind::Subscript: {
    auto *S = cast<SubscriptExpr>(E);
    const Type *BaseTy = checkExpr(S->base());
    checkExpr(S->index());
    if (const auto *PT = dyn_cast<PointerType>(BaseTy))
      Ty = PT->pointee();
    else if (const auto *AT = dyn_cast<ArrayType>(BaseTy))
      Ty = AT->element();
    else {
      Diags.error(E->location(), "subscripted value is not a pointer or "
                                 "array");
      Ty = Ctx.intType();
    }
    E->setLValue();
    break;
  }
  case Expr::Kind::Call:
    Ty = checkCall(cast<CallExpr>(E));
    break;
  case Expr::Kind::New: {
    auto *N = cast<NewExpr>(E);
    if (N->arraySize())
      checkExpr(N->arraySize());
    for (Expr *Arg : N->ctorArgs())
      checkExpr(Arg);
    if (const ClassDecl *CD = N->allocType()->asClassDecl()) {
      if (CurFunction) // computeUsedClasses counts `new` in functions only.
        CD->setInstantiated();
      if (!CD->isComplete()) {
        Diags.error(E->location(),
                    "allocation of incomplete type '" + CD->name() + "'");
      } else {
        ConstructorDecl *Ctor = findCtorByArity(CD, N->ctorArgs().size());
        if (!Ctor && !N->ctorArgs().empty())
          Diags.error(E->location(),
                      "no constructor of '" + CD->name() + "' takes " +
                          std::to_string(N->ctorArgs().size()) +
                          " arguments");
        N->setConstructor(Ctor);
      }
    } else if (!N->ctorArgs().empty() && N->ctorArgs().size() != 1) {
      Diags.error(E->location(),
                  "scalar 'new' initializer takes at most one value");
    }
    Ty = Ctx.pointerType(N->allocType());
    break;
  }
  case Expr::Kind::Delete: {
    auto *D = cast<DeleteExpr>(E);
    const Type *SubTy = checkExpr(D->sub());
    if (!SubTy->isPointer() && !isa<BuiltinType>(SubTy))
      Diags.error(E->location(), "'delete' operand is not a pointer");
    Ty = Ctx.voidType();
    break;
  }
  case Expr::Kind::Cast:
    Ty = checkCast(cast<CastExpr>(E));
    break;
  case Expr::Kind::Sizeof: {
    auto *SE = cast<SizeofExpr>(E);
    if (SE->exprOperand())
      checkExpr(SE->exprOperand());
    Ty = Ctx.intType();
    break;
  }
  }

  assert(Ty && "expression kind not handled");
  E->setType(Ty);
  return Ty;
}

const Type *Sema::checkDeclRef(DeclRefExpr *E) {
  const NameBinding &B = Ctx.binding(E->declName());
  std::string_view Name = Ctx.symbols().spelling(E->declName());

  // Locals and parameters.
  if (VarDecl *V = B.Local) {
    E->setReferent(V);
    E->setLValue();
    return V->type()->nonReferenceType();
  }

  // Implicit-this members.
  if (CurClass) {
    bool Ambiguous = false;
    if (FieldDecl *F = CH->lookupField(CurClass, Name, &Ambiguous)) {
      E->setReferent(F);
      E->setLValue();
      return F->type();
    }
    if (Ambiguous) {
      Diags.error(E->location(),
                  "ambiguous member reference '" + std::string(Name) + "'");
      return Ctx.intType();
    }
    if (MethodDecl *M = CH->lookupMethod(CurClass, Name)) {
      E->setReferent(M);
      return functionTypeOf(M);
    }
  }

  // Globals and functions.
  if (Decl *G = B.Global) {
    E->setReferent(G);
    if (auto *GV = dyn_cast<VarDecl>(G)) {
      E->setLValue();
      return GV->type()->nonReferenceType();
    }
    return functionTypeOf(cast<FunctionDecl>(G));
  }

  Diags.error(E->location(),
              "use of undeclared identifier '" + std::string(Name) + "'");
  return Ctx.intType();
}

const Type *Sema::checkMember(MemberExpr *E) {
  const Type *BaseTy = checkExpr(E->base());

  const ClassDecl *BaseClass = nullptr;
  if (E->isArrow()) {
    if (const auto *PT = dyn_cast<PointerType>(BaseTy))
      BaseClass = PT->pointee()->asClassDecl();
    if (!BaseClass) {
      Diags.error(E->location(),
                  "'->' applied to non-pointer-to-class type '" +
                      BaseTy->str() + "'");
      return Ctx.intType();
    }
  } else {
    BaseClass = BaseTy->asClassDecl();
    if (!BaseClass) {
      Diags.error(E->location(), "member access on non-class type '" +
                                     BaseTy->str() + "'");
      return Ctx.intType();
    }
  }

  // Qualified access `e.C::m`: look up in the named class (which must be
  // a base of, or equal to, the object's class).
  const ClassDecl *LookupClass = BaseClass;
  if (E->isQualified()) {
    ClassDecl *Q = Ctx.binding(E->qualifier()).Class;
    if (!Q) {
      Diags.error(E->location(),
                  "unknown class '" +
                      std::string(Ctx.symbols().spelling(E->qualifier())) +
                      "' in qualified member access");
      return Ctx.intType();
    }
    if (!CH->isDerivedFrom(BaseClass, Q))
      Diags.error(E->location(), "'" + Q->name() + "' is not a base of '" +
                                     BaseClass->name() + "'");
    LookupClass = Q;
  }

  bool Ambiguous = false;
  if (FieldDecl *F = CH->lookupField(LookupClass, E->memberName(),
                                     &Ambiguous)) {
    E->setMember(F);
    E->setLValue();
    return F->type();
  }
  if (Ambiguous) {
    Diags.error(E->location(),
                "ambiguous member '" + std::string(E->memberName()) +
                    "' in '" + LookupClass->name() + "'");
    return Ctx.intType();
  }
  if (MethodDecl *M = CH->lookupMethod(LookupClass, E->memberName())) {
    E->setMember(M);
    return functionTypeOf(M);
  }

  Diags.error(E->location(), "no member named '" +
                                 std::string(E->memberName()) + "' in '" +
                                 LookupClass->name() + "'");
  return Ctx.intType();
}

const Type *Sema::checkCall(CallExpr *E) {
  for (Expr *Arg : E->args())
    checkExpr(Arg);

  const Type *CalleeTy = checkExpr(E->callee());

  // Identify a direct callee when the callee names a function or method.
  FunctionDecl *Direct = nullptr;
  bool Qualified = false;
  if (auto *DRE = dyn_cast<DeclRefExpr>(E->callee()))
    Direct = dyn_cast_or_null<FunctionDecl>(DRE->referent());
  else if (auto *ME = dyn_cast<MemberExpr>(E->callee())) {
    Direct = dyn_cast_or_null<MethodDecl>(ME->member());
    Qualified = ME->isQualified();
  }

  if (Direct) {
    E->setDirectCallee(Direct);
    if (E->args().size() != Direct->params().size())
      Diags.error(E->location(),
                  "call to '" + Direct->name() + "' expects " +
                      std::to_string(Direct->params().size()) +
                      " arguments, got " +
                      std::to_string(E->args().size()));
    if (auto *M = dyn_cast<MethodDecl>(Direct))
      if (M->isVirtual() && !Qualified)
        E->setVirtualCall();
    return Direct->returnType();
  }

  // Indirect call through a function pointer (or a function-typed
  // expression).
  const Type *Fn = CalleeTy;
  if (const auto *PT = dyn_cast<PointerType>(Fn))
    Fn = PT->pointee();
  if (const auto *FT = dyn_cast<FunctionType>(Fn)) {
    if (E->args().size() != FT->params().size())
      Diags.error(E->location(),
                  "indirect call expects " +
                      std::to_string(FT->params().size()) +
                      " arguments, got " + std::to_string(E->args().size()));
    return FT->result();
  }

  Diags.error(E->location(), "called object is not a function");
  return Ctx.intType();
}

const Type *Sema::checkCast(CastExpr *E) {
  const Type *SrcTy = checkExpr(E->sub());
  const Type *DstTy = E->targetType();

  CastSafety Safety = CastSafety::Safe;
  if (SrcTy == DstTy || (SrcTy->isArithmetic() && DstTy->isArithmetic())) {
    Safety = CastSafety::Safe;
  } else if (const auto *DstPtr = dyn_cast<PointerType>(DstTy)) {
    if (isa<BuiltinType>(SrcTy) &&
        cast<BuiltinType>(SrcTy)->builtinKind() == BuiltinType::BK::NullPtr) {
      Safety = CastSafety::Safe;
    } else if (const auto *SrcPtr = dyn_cast<PointerType>(SrcTy)) {
      const ClassDecl *SrcClass = SrcPtr->pointee()->asClassDecl();
      const ClassDecl *DstClass = DstPtr->pointee()->asClassDecl();
      if (SrcClass && DstClass) {
        if (CH->isDerivedFrom(SrcClass, DstClass))
          Safety = CastSafety::Safe; // Up-cast (or identity).
        else if (CH->isDerivedFrom(DstClass, SrcClass))
          Safety = CastSafety::Downcast;
        else
          Safety = CastSafety::Unrelated;
      } else if (SrcPtr->pointee() == DstPtr->pointee() ||
                 SrcPtr->pointee()->isVoid() || DstPtr->pointee()->isVoid()) {
        Safety = CastSafety::Safe; // void* conversions.
      } else {
        Safety = CastSafety::Unrelated;
      }
    } else if (SrcTy->isInteger()) {
      Safety = CastSafety::Unrelated; // Integer reinterpreted as pointer.
    } else {
      Safety = CastSafety::Unrelated;
    }
  } else if (DstTy->isArithmetic() && SrcTy->isPointer()) {
    // Pointer observed as integer: does not grant access to members.
    Safety = CastSafety::Safe;
  } else if (DstTy->asClassDecl() || SrcTy->asClassDecl()) {
    Safety = DstTy == SrcTy ? CastSafety::Safe : CastSafety::Unrelated;
  } else {
    Safety = CastSafety::Safe;
  }

  E->setSafety(Safety);
  return DstTy;
}

const Type *Sema::checkUnary(UnaryExpr *E) {
  const Type *SubTy = checkExpr(E->sub());
  switch (E->op()) {
  case UnaryOpKind::Minus:
  case UnaryOpKind::BitNot:
    if (!SubTy->isArithmetic())
      Diags.error(E->location(), "operand of unary arithmetic operator is "
                                 "not numeric");
    return SubTy->isInteger() ? Ctx.intType() : SubTy;
  case UnaryOpKind::Not:
    return Ctx.boolType();
  case UnaryOpKind::Deref: {
    if (const auto *PT = dyn_cast<PointerType>(SubTy)) {
      E->setLValue();
      return PT->pointee();
    }
    if (const auto *AT = dyn_cast<ArrayType>(SubTy)) {
      E->setLValue();
      return AT->element();
    }
    Diags.error(E->location(), "dereference of non-pointer type '" +
                                   SubTy->str() + "'");
    return Ctx.intType();
  }
  case UnaryOpKind::AddrOf:
    if (!E->sub()->isLValue() && !isa<FunctionType>(SubTy))
      Diags.error(E->location(), "address of non-lvalue");
    return Ctx.pointerType(SubTy);
  case UnaryOpKind::PreInc:
  case UnaryOpKind::PreDec:
  case UnaryOpKind::PostInc:
  case UnaryOpKind::PostDec:
    if (!E->sub()->isLValue())
      Diags.error(E->location(), "increment/decrement of non-lvalue");
    if (E->op() == UnaryOpKind::PreInc || E->op() == UnaryOpKind::PreDec)
      E->setLValue();
    return SubTy;
  }
  return Ctx.intType();
}

const Type *Sema::checkBinary(BinaryExpr *E) {
  const Type *L = checkExpr(E->lhs());
  const Type *R = checkExpr(E->rhs());
  switch (E->op()) {
  case BinaryOpKind::LAnd:
  case BinaryOpKind::LOr:
  case BinaryOpKind::EQ:
  case BinaryOpKind::NE:
  case BinaryOpKind::LT:
  case BinaryOpKind::GT:
  case BinaryOpKind::LE:
  case BinaryOpKind::GE:
    return Ctx.boolType();
  case BinaryOpKind::Add:
  case BinaryOpKind::Sub:
    // Pointer arithmetic.
    if (L->isPointer() || L->isArray()) {
      if (L->isArray())
        return Ctx.pointerType(cast<ArrayType>(L)->element());
      if (E->op() == BinaryOpKind::Sub && R->isPointer())
        return Ctx.intType(); // Pointer difference.
      return L;
    }
    [[fallthrough]];
  case BinaryOpKind::Mul:
  case BinaryOpKind::Div: {
    const Type *DoubleTy = Ctx.doubleType();
    if (L == DoubleTy || R == DoubleTy)
      return DoubleTy;
    return Ctx.intType();
  }
  case BinaryOpKind::Rem:
  case BinaryOpKind::Shl:
  case BinaryOpKind::Shr:
  case BinaryOpKind::BitAnd:
  case BinaryOpKind::BitOr:
  case BinaryOpKind::BitXor:
    if (!L->isInteger() || !R->isInteger())
      Diags.error(E->location(), "bitwise operator requires integer "
                                 "operands");
    return Ctx.intType();
  }
  return Ctx.intType();
}
