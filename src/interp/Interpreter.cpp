//===-- interp/Interpreter.cpp --------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Error handling note: guest runtime errors (null dereference, step-limit
// exhaustion, division by zero, ...) unwind through the evaluator via a
// single internal exception type caught in run(). This keeps the ~40
// evaluation paths free of error plumbing; the exception never escapes
// this translation unit.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "ast/Expr.h"
#include "ast/Stmt.h"
#include "profiler/ShadowProfiler.h"
#include "telemetry/Log.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

using namespace dmm;

struct Interpreter::RuntimeError {
  std::string Message;
};

struct Interpreter::Flow {
  enum class FK { Normal, Return, Break, Continue };
  FK Kind = FK::Normal;
  Value Ret;

  static Flow normal() { return Flow(); }
  static Flow ret(Value V) {
    Flow F;
    F.Kind = FK::Return;
    F.Ret = V;
    return F;
  }
};

struct Interpreter::Frame {
  const FunctionDecl *Fn = nullptr;
  Storage *This = nullptr;
  /// Non-null while running a constructor or destructor of this class:
  /// virtual dispatch on the object under construction resolves against
  /// it, as in C++.
  const ClassDecl *DispatchClass = nullptr;
  std::unordered_map<const VarDecl *, Storage *> Locals;
};

Interpreter::Interpreter(const ASTContext &Ctx, const ClassHierarchy &CH,
                         InterpOptions Options)
    : Ctx(Ctx), CH(CH), Options(Options), Layout(CH), Objects(Ctx, Layout) {
  if (Options.Heat) {
    Options.Heat->Reads.resize(Ctx.numDecls());
    Options.Heat->Writes.resize(Ctx.numDecls());
  }
}

Interpreter::~Interpreter() = default;

void Interpreter::step() {
  if (++Steps > Options.MaxSteps)
    fail("step limit exceeded");
}

void Interpreter::fail(const std::string &Message) {
  throw RuntimeError{Message};
}

//===----------------------------------------------------------------------===//
// Storage construction
//===----------------------------------------------------------------------===//

Storage *Interpreter::allocateFieldStorage(const FieldDecl *F,
                                           uint64_t ObjectID) {
  const Type *Ty = F->type();
  if (const ClassDecl *CD = Ty->asClassDecl())
    return allocateObject(CD, F, ObjectID);
  if (const auto *AT = dyn_cast<ArrayType>(Ty)) {
    const ClassDecl *Elem = AT->element()->asClassDecl();
    Storage *Arr =
        Arena.createArray(Elem ? Objects.classIndex(Elem) : NoClass, F);
    Arr->ObjectID = ObjectID;
    for (uint64_t I = 0; I != AT->size(); ++I) {
      if (Elem) {
        Arr->Children.push_back(allocateObject(Elem, F, ObjectID));
      } else {
        Storage *S = Arena.createScalar(F);
        S->V = zeroValue(AT->element());
        S->ObjectID = ObjectID;
        Arr->Children.push_back(S);
      }
    }
    return Arr;
  }
  Storage *S = Arena.createScalar(F);
  S->V = zeroValue(Ty);
  S->ObjectID = ObjectID;
  return S;
}

Storage *Interpreter::allocateObject(const ClassDecl *CD,
                                     const FieldDecl *Owner,
                                     uint64_t ObjectID) {
  if (!CD->isComplete())
    fail("cannot create object of incomplete class '" + CD->name() + "'");
  if (!Owner)
    ++NumCompleteObjects;
  uint32_t CI = Objects.classIndex(CD);
  const ClassSlots &CS = Objects.slots(CI);
  Storage *Obj = Arena.createObject(CI, Owner);
  Obj->ObjectID = ObjectID;
  Obj->Children.assign(CS.NumSlots, nullptr);
  for (size_t K = 0; K != CS.SlotFields.size(); ++K)
    Obj->Children[CS.SlotColors[K]] =
        allocateFieldStorage(CS.SlotFields[K], ObjectID);
  return Obj;
}

void Interpreter::traceAlloc(Storage *Obj, const ClassDecl *CD,
                             uint64_t Count) {
  if (!Options.Trace)
    return;
  uint64_t Bytes = Count * Objects.slots(Objects.classIndex(CD)).CompleteSize;
  Options.Trace->recordAlloc(Obj->ObjectID, CD, Count, Bytes);
  Obj->Traced = true;
}

void Interpreter::traceFree(Storage *Obj) {
  if (!Obj->Traced)
    return;
  Options.Trace->recordFree(Obj->ObjectID);
  Obj->Traced = false;
}

//===----------------------------------------------------------------------===//
// Construction / destruction
//===----------------------------------------------------------------------===//

static ConstructorDecl *arityCtor(const ClassDecl *CD, size_t Arity) {
  for (ConstructorDecl *C : CD->constructors())
    if (C->params().size() == Arity)
      return C;
  return nullptr;
}

void Interpreter::defaultConstructBasesAndMembers(Storage *Obj,
                                                  const ClassDecl *CD,
                                                  bool MostDerived) {
  if (MostDerived)
    for (const ClassDecl *VB : CH.virtualBases(CD))
      construct(Obj, VB, arityCtor(VB, 0), {}, /*MostDerived=*/false);
  for (const BaseSpecifier &BS : CD->bases())
    if (!BS.IsVirtual)
      construct(Obj, BS.Base, arityCtor(BS.Base, 0), {},
                /*MostDerived=*/false);
  for (const FieldDecl *F : CD->fields()) {
    Storage *FS = memberOf(Obj, F);
    if (const ClassDecl *Member = F->type()->asClassDecl()) {
      construct(FS, Member, arityCtor(Member, 0), {}, /*MostDerived=*/true);
      continue;
    }
    if (const auto *AT = dyn_cast<ArrayType>(F->type()))
      if (const ClassDecl *Elem = AT->element()->asClassDecl())
        for (Storage *ES : FS->Children)
          construct(ES, Elem, arityCtor(Elem, 0), {}, /*MostDerived=*/true);
  }
}

void Interpreter::construct(Storage *Obj, const ClassDecl *CD,
                            const ConstructorDecl *Ctor,
                            std::vector<Value> Args, bool MostDerived) {
  step();
  if (!Ctor) {
    // Implicit default construction: bases and members only.
    defaultConstructBasesAndMembers(Obj, CD, MostDerived);
    return;
  }

  Frame F;
  F.Fn = Ctor;
  F.This = Obj;
  F.DispatchClass = CD;
  if (Args.size() != Ctor->params().size())
    fail("constructor argument count mismatch for '" + CD->name() + "'");
  for (size_t I = 0; I != Args.size(); ++I) {
    const ParamDecl *P = Ctor->params()[I];
    if (P->type()->isReference()) {
      if (Args[I].Kind != Value::VK::Ptr || Args[I].Ptr.isNull())
        fail("reference parameter bound to non-lvalue");
      F.Locals[P] = Args[I].Ptr.Pointee;
      continue;
    }
    Storage *PS = Arena.createScalar();
    PS->V = convertForStore(Args[I], P->type());
    F.Locals[P] = PS;
  }
  Stack.push_back(std::move(F));

  auto FindInit = [&](auto Pred) -> const CtorInitializer * {
    for (const CtorInitializer &Init : Ctor->initializers())
      if (Pred(Init))
        return &Init;
    return nullptr;
  };
  auto EvalArgs = [&](const CtorInitializer &Init) {
    std::vector<Value> Vals;
    const ConstructorDecl *Target = Init.TargetCtor;
    for (size_t I = 0; I != Init.Args.size(); ++I) {
      const Expr *Arg = Init.Args[I];
      bool ByRef = Target && I < Target->params().size() &&
                   Target->params()[I]->type()->isReference();
      if (ByRef)
        Vals.push_back(Value::ofPtr({evalLValue(Arg)}));
      else
        Vals.push_back(evalRValue(Arg));
    }
    return Vals;
  };

  // Virtual bases (most-derived object only), then direct non-virtual
  // bases, then members, as in C++.
  if (MostDerived) {
    for (const ClassDecl *VB : CH.virtualBases(CD)) {
      const CtorInitializer *Init = FindInit(
          [&](const CtorInitializer &I) { return I.Base == VB; });
      if (Init)
        construct(Obj, VB, Init->TargetCtor, EvalArgs(*Init), false);
      else
        construct(Obj, VB, arityCtor(VB, 0), {}, false);
    }
  }
  for (const BaseSpecifier &BS : CD->bases()) {
    if (BS.IsVirtual)
      continue;
    const CtorInitializer *Init = FindInit(
        [&](const CtorInitializer &I) { return I.Base == BS.Base; });
    if (Init)
      construct(Obj, BS.Base, Init->TargetCtor, EvalArgs(*Init), false);
    else
      construct(Obj, BS.Base, arityCtor(BS.Base, 0), {}, false);
  }
  for (const FieldDecl *Field : CD->fields()) {
    Storage *FS = memberOf(Obj, Field);
    const CtorInitializer *Init = FindInit(
        [&](const CtorInitializer &I) { return I.Field == Field; });
    if (const ClassDecl *Member = Field->type()->asClassDecl()) {
      if (Init)
        construct(FS, Member, Init->TargetCtor, EvalArgs(*Init), true);
      else
        construct(FS, Member, arityCtor(Member, 0), {}, true);
      continue;
    }
    if (const auto *AT = dyn_cast<ArrayType>(Field->type())) {
      if (const ClassDecl *Elem = AT->element()->asClassDecl())
        for (Storage *ES : FS->Children)
          construct(ES, Elem, arityCtor(Elem, 0), {}, true);
      continue;
    }
    if (Init && !Init->Args.empty())
      storeScalar(FS, evalRValue(Init->Args[0]), Field->type());
  }

  if (Ctor->body())
    execCompound(Ctor->body());
  Stack.pop_back();
}

void Interpreter::destroy(Storage *Obj, const ClassDecl *CD,
                          bool MostDerived) {
  step();
  if (DestructorDecl *Dtor = CD->destructor()) {
    if (Dtor->body()) {
      Frame F;
      F.Fn = Dtor;
      F.This = Obj;
      F.DispatchClass = CD;
      Stack.push_back(std::move(F));
      execCompound(Dtor->body());
      Stack.pop_back();
    }
  }
  // Members in reverse declaration order.
  const auto &Fields = CD->fields();
  for (auto It = Fields.rbegin(), E = Fields.rend(); It != E; ++It) {
    const FieldDecl *Field = *It;
    Storage *FS = memberOf(Obj, Field);
    if (const ClassDecl *Member = Field->type()->asClassDecl()) {
      destroy(FS, Member, true);
      continue;
    }
    if (const auto *AT = dyn_cast<ArrayType>(Field->type()))
      if (const ClassDecl *Elem = AT->element()->asClassDecl())
        for (auto EIt = FS->Children.rbegin(); EIt != FS->Children.rend();
             ++EIt)
          destroy(*EIt, Elem, true);
  }
  // Bases in reverse order.
  const auto &Bases = CD->bases();
  for (auto It = Bases.rbegin(), E = Bases.rend(); It != E; ++It)
    if (!It->IsVirtual)
      destroy(Obj, It->Base, false);
  if (MostDerived) {
    auto VBs = CH.virtualBases(CD);
    for (auto It = VBs.rbegin(), E = VBs.rend(); It != E; ++It)
      destroy(Obj, *It, false);
  }
}

/// Marks a storage tree dead so later reads/writes are diagnosed as
/// use-after-free.
static void markDeadRecursive(Storage *S) {
  S->Alive = false;
  for (Storage *C : S->Children)
    if (C)
      markDeadRecursive(C);
}

void Interpreter::destroyCompleteObject(Storage *Obj) {
  if (!Obj->Alive)
    fail("double destruction of object");
  if (Obj->Kind == Storage::SK::Object) {
    destroy(Obj, Objects.slots(Obj->ClassIdx).Decl, /*MostDerived=*/true);
  } else if (Obj->Kind == Storage::SK::Array && Obj->ClassIdx != NoClass) {
    const ClassDecl *Elem = Objects.slots(Obj->ClassIdx).Decl;
    for (auto It = Obj->Children.rbegin(); It != Obj->Children.rend(); ++It)
      destroy(*It, Elem, /*MostDerived=*/true);
  }
  traceFree(Obj);
  if (Options.Profiler)
    Options.Profiler->recordFree(Obj->ObjectID);
  markDeadRecursive(Obj);
}

void Interpreter::copyMembers(Storage *Dst, Storage *Src, bool InitForm) {
  if (Dst->Kind == Storage::SK::Scalar && Src->Kind == Storage::SK::Scalar) {
    if (Dst->OwnerField) {
      if (!InitForm && Options.Heat)
        Options.Heat->noteWrite(Dst->OwnerField);
      if (Options.Profiler)
        Options.Profiler->recordWrite(Dst->ObjectID, Dst->OwnerField);
    }
    Dst->V = loadScalar(Src);
    return;
  }
  if (Dst->Kind == Storage::SK::Object) {
    const ClassSlots &CS = Objects.slots(Dst->ClassIdx);
    for (size_t K = 0; K != CS.SlotFields.size(); ++K)
      if (Storage *From = Src->member(CS.SlotFields[K], CS.SlotColors[K]))
        copyMembers(Dst->Children[CS.SlotColors[K]], From, InitForm);
    return;
  }
  if (Dst->Kind == Storage::SK::Array && Src->Kind == Storage::SK::Array)
    for (size_t E = 0; E < Dst->Children.size() && E < Src->Children.size();
         ++E)
      copyMembers(Dst->Children[E], Src->Children[E], InitForm);
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

Value Interpreter::callBuiltin(const FunctionDecl *FD,
                               std::vector<Value> &Args) {
  char Buf[64];
  switch (FD->builtinKind()) {
  case BuiltinKind::PrintInt:
    std::snprintf(Buf, sizeof(Buf), "%lld", Args[0].asInt());
    Output += Buf;
    Output += '\n';
    return Value::unit();
  case BuiltinKind::PrintChar:
    Output += static_cast<char>(Args[0].asInt());
    return Value::unit();
  case BuiltinKind::PrintDouble:
    std::snprintf(Buf, sizeof(Buf), "%g", Args[0].asDouble());
    Output += Buf;
    Output += '\n';
    return Value::unit();
  case BuiltinKind::PrintBool:
    Output += Args[0].asBool() ? "true" : "false";
    Output += '\n';
    return Value::unit();
  case BuiltinKind::PrintStr: {
    Pointer P = Args[0].asPtr();
    if (!P.Array) {
      if (P.Pointee && P.Pointee->Kind == Storage::SK::Scalar)
        Output += static_cast<char>(loadScalar(P.Pointee).asInt());
      return Value::unit();
    }
    for (size_t I = static_cast<size_t>(P.Index); I < P.Array->Children.size();
         ++I) {
      char C = static_cast<char>(loadScalar(P.Array->Children[I]).asInt());
      if (C == 0)
        break;
      Output += C;
    }
    return Value::unit();
  }
  case BuiltinKind::Free: {
    Pointer P = Args[0].asPtr();
    if (P.isNull())
      return Value::unit();
    Storage *S = P.Array ? P.Array : P.Pointee;
    traceFree(S);
    if (Options.Profiler)
      Options.Profiler->recordFree(S->ObjectID);
    markDeadRecursive(S); // No destructors run, as with C free().
    return Value::unit();
  }
  case BuiltinKind::None:
    break;
  }
  fail("call to undefined function '" + FD->name() + "'");
}

Value Interpreter::callFunction(const FunctionDecl *FD, Storage *This,
                                std::vector<Value> Args,
                                const ClassDecl *DispatchClass) {
  step();
  ++NumCalls;
  // Keep the guest stack well below the host stack even when host
  // frames are inflated (sanitizer builds).
  if (Stack.size() > 1024)
    fail("interpreter stack overflow (recursion too deep)");
  if (FD->isBuiltin())
    return callBuiltin(FD, Args);
  if (!FD->isDefined())
    fail("call to undefined function '" + FD->qualifiedName() + "'");

  Frame F;
  F.Fn = FD;
  F.This = This;
  F.DispatchClass = DispatchClass;
  if (Args.size() != FD->params().size())
    fail("argument count mismatch calling '" + FD->qualifiedName() + "'");
  for (size_t I = 0; I != Args.size(); ++I) {
    const ParamDecl *P = FD->params()[I];
    if (P->type()->isReference()) {
      if (Args[I].Kind != Value::VK::Ptr || Args[I].Ptr.isNull())
        fail("reference parameter bound to non-lvalue");
      F.Locals[P] = Args[I].Ptr.Pointee;
      continue;
    }
    if (P->type()->asClassDecl()) {
      // By-value class parameter: bind to the argument object directly
      // (memberwise copy semantics are approximated by sharing; MiniC++
      // programs intended for measurement pass classes by pointer or
      // reference).
      if (Args[I].Kind != Value::VK::Ptr || Args[I].Ptr.isNull())
        fail("class argument is not an object");
      F.Locals[P] = Args[I].Ptr.Pointee;
      continue;
    }
    Storage *PS = Arena.createScalar();
    PS->V = convertForStore(Args[I], P->type());
    F.Locals[P] = PS;
  }
  Stack.push_back(std::move(F));
  Flow Result = execCompound(FD->body());
  Stack.pop_back();
  if (Result.Kind == Flow::FK::Return)
    return Result.Ret;
  return Value::unit();
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

Interpreter::Flow Interpreter::execCompound(const CompoundStmt *CS) {
  std::vector<Storage *> BlockObjects;
  Flow Result = Flow::normal();
  for (const Stmt *S : CS->stmts()) {
    if (const auto *DS = dyn_cast<DeclStmt>(S)) {
      for (const VarDecl *V : DS->vars())
        execVarDecl(V, BlockObjects);
      continue;
    }
    Result = execStmt(S);
    if (Result.Kind != Flow::FK::Normal)
      break;
  }
  for (auto It = BlockObjects.rbegin(); It != BlockObjects.rend(); ++It)
    destroyCompleteObject(*It);
  return Result;
}

void Interpreter::execVarDecl(const VarDecl *V,
                              std::vector<Storage *> &BlockObjects) {
  step();
  Frame &F = Stack.back();
  const Type *Ty = V->type();

  if (Ty->isReference()) {
    if (!V->init())
      fail("reference variable '" + V->name() + "' lacks an initializer");
    F.Locals[V] = evalLValue(V->init());
    return;
  }

  if (const ClassDecl *CD = Ty->asClassDecl()) {
    uint64_t ID = NextObjectID++;
    Storage *Obj = allocateObject(CD, nullptr, ID);
    if (Options.Profiler)
      Options.Profiler->registerObjects(CD, 1, ID, V->location());
    traceAlloc(Obj, CD, 1);
    if (Options.Profiler)
      Options.Profiler->recordAllocEvent(ID);
    F.Locals[V] = Obj;
    if (V->init()) {
      // Copy-initialization: memberwise copy from the source object.
      Value Src = evalRValue(V->init());
      if (Src.Kind == Value::VK::Ptr && !Src.Ptr.isNull())
        copyMembers(Obj, Src.Ptr.Pointee, /*InitForm=*/true);
    } else {
      std::vector<Value> Args;
      const ConstructorDecl *Ctor = V->ctor();
      for (size_t I = 0; I != V->ctorArgs().size(); ++I) {
        bool ByRef = Ctor && I < Ctor->params().size() &&
                     Ctor->params()[I]->type()->isReference();
        if (ByRef)
          Args.push_back(Value::ofPtr({evalLValue(V->ctorArgs()[I])}));
        else
          Args.push_back(evalRValue(V->ctorArgs()[I]));
      }
      construct(Obj, CD, Ctor, std::move(Args), /*MostDerived=*/true);
    }
    BlockObjects.push_back(Obj);
    return;
  }

  if (const auto *AT = dyn_cast<ArrayType>(Ty)) {
    const ClassDecl *Elem = AT->element()->asClassDecl();
    Storage *Arr =
        Arena.createArray(Elem ? Objects.classIndex(Elem) : NoClass, nullptr);
    // Each array element is a complete object of its own: reserve one
    // ID per element so the shadow profiler can track them separately.
    uint64_t ID = NextObjectID;
    NextObjectID += std::max<uint64_t>(AT->size(), 1);
    Arr->ObjectID = ID;
    if (Elem && Options.Profiler)
      Options.Profiler->registerObjects(Elem, AT->size(), ID, V->location());
    for (uint64_t I = 0; I != AT->size(); ++I) {
      if (Elem) {
        Storage *ES = allocateObject(Elem, nullptr, ID + I);
        construct(ES, Elem, arityCtor(Elem, 0), {}, true);
        Arr->Children.push_back(ES);
      } else {
        Storage *ES = Arena.createScalar();
        ES->V = zeroValue(AT->element());
        Arr->Children.push_back(ES);
      }
    }
    if (Elem) {
      traceAlloc(Arr, Elem, AT->size());
      if (Options.Profiler)
        Options.Profiler->recordAllocEvent(ID);
    }
    F.Locals[V] = Arr;
    if (Elem)
      BlockObjects.push_back(Arr);
    return;
  }

  Storage *S = Arena.createScalar();
  S->V = V->init() ? convertForStore(evalRValue(V->init()), Ty)
                   : zeroValue(Ty);
  F.Locals[V] = S;
}

Interpreter::Flow Interpreter::execStmt(const Stmt *S) {
  step();
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    return execCompound(cast<CompoundStmt>(S));
  case Stmt::Kind::Decl: {
    // Reached only for DeclStmts outside a CompoundStmt (for-init is
    // handled in For); treat as a degenerate block.
    std::vector<Storage *> Objects;
    for (const VarDecl *V : cast<DeclStmt>(S)->vars())
      execVarDecl(V, Objects);
    for (auto It = Objects.rbegin(); It != Objects.rend(); ++It)
      destroyCompleteObject(*It);
    return Flow::normal();
  }
  case Stmt::Kind::Expr:
    evalRValue(cast<ExprStmt>(S)->expr());
    return Flow::normal();
  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(S);
    if (evalRValue(IS->cond()).asBool())
      return execStmt(IS->thenStmt());
    if (IS->elseStmt())
      return execStmt(IS->elseStmt());
    return Flow::normal();
  }
  case Stmt::Kind::While: {
    const auto *WS = cast<WhileStmt>(S);
    while (evalRValue(WS->cond()).asBool()) {
      step();
      Flow F = execStmt(WS->body());
      if (F.Kind == Flow::FK::Return)
        return F;
      if (F.Kind == Flow::FK::Break)
        break;
    }
    return Flow::normal();
  }
  case Stmt::Kind::For: {
    const auto *FS = cast<ForStmt>(S);
    std::vector<Storage *> InitObjects;
    if (FS->init()) {
      if (const auto *DS = dyn_cast<DeclStmt>(FS->init())) {
        for (const VarDecl *V : DS->vars())
          execVarDecl(V, InitObjects);
      } else {
        execStmt(FS->init());
      }
    }
    Flow Result = Flow::normal();
    while (!FS->cond() || evalRValue(FS->cond()).asBool()) {
      step();
      Flow F = execStmt(FS->body());
      if (F.Kind == Flow::FK::Return) {
        Result = F;
        break;
      }
      if (F.Kind == Flow::FK::Break)
        break;
      if (FS->step())
        evalRValue(FS->step());
    }
    for (auto It = InitObjects.rbegin(); It != InitObjects.rend(); ++It)
      destroyCompleteObject(*It);
    return Result;
  }
  case Stmt::Kind::Break: {
    Flow F;
    F.Kind = Flow::FK::Break;
    return F;
  }
  case Stmt::Kind::Continue: {
    Flow F;
    F.Kind = Flow::FK::Continue;
    return F;
  }
  case Stmt::Kind::Return: {
    const auto *RS = cast<ReturnStmt>(S);
    Value V = RS->value() ? evalRValue(RS->value()) : Value::unit();
    return Flow::ret(V);
  }
  case Stmt::Kind::Null:
    return Flow::normal();
  }
  return Flow::normal();
}

//===----------------------------------------------------------------------===//
// Scalar access
//===----------------------------------------------------------------------===//

Value Interpreter::loadScalar(Storage *S) {
  if (!S->Alive)
    fail("read from destroyed object");
  if (S->Kind != Storage::SK::Scalar)
    fail("scalar read from aggregate storage");
  if (S->OwnerField) {
    if (Options.Heat)
      Options.Heat->noteRead(S->OwnerField);
    if (Options.Profiler)
      Options.Profiler->recordRead(S->ObjectID, S->OwnerField);
  }
  return S->V;
}

void Interpreter::storeScalar(Storage *S, const Value &V,
                              const Type *DeclaredTy) {
  if (!S->Alive)
    fail("write to destroyed object");
  if (S->Kind != Storage::SK::Scalar)
    fail("scalar write to aggregate storage");
  if (S->OwnerField) {
    if (Options.Heat)
      Options.Heat->noteWrite(S->OwnerField);
    if (Options.Profiler)
      Options.Profiler->recordWrite(S->ObjectID, S->OwnerField);
  }
  S->V = convertForStore(V, DeclaredTy);
}

Value Interpreter::convertForStore(const Value &V, const Type *Ty) const {
  if (!Ty)
    return V;
  if (const auto *BT = dyn_cast<BuiltinType>(Ty)) {
    switch (BT->builtinKind()) {
    case BuiltinType::BK::Int:
      return Value::ofInt(V.asInt());
    case BuiltinType::BK::Double:
      return Value::ofDouble(V.asDouble());
    case BuiltinType::BK::Bool:
      return Value::ofBool(V.asBool());
    case BuiltinType::BK::Char:
      return Value::ofChar(static_cast<char>(V.asInt()));
    default:
      return V;
    }
  }
  return V;
}

//===----------------------------------------------------------------------===//
// Lvalue evaluation
//===----------------------------------------------------------------------===//

Storage *Interpreter::evalObjectBase(const Expr *Base, bool IsArrow) {
  if (IsArrow) {
    Value V = evalRValue(Base);
    if (V.Kind != Value::VK::Ptr || V.Ptr.isNull())
      fail("member access through null or non-pointer");
    Storage *S = V.Ptr.Pointee;
    if (S->Kind != Storage::SK::Object)
      fail("'->' on pointer to non-object");
    return S;
  }
  if (Base->isLValue())
    return evalLValue(Base);
  Value V = evalRValue(Base);
  if (V.Kind == Value::VK::Ptr && !V.Ptr.isNull())
    return V.Ptr.Pointee;
  fail("member access on non-object value");
}

Storage *Interpreter::evalLValue(const Expr *E) {
  step();
  switch (E->kind()) {
  case Expr::Kind::DeclRef: {
    const auto *DRE = cast<DeclRefExpr>(E);
    Decl *D = DRE->referent();
    if (auto *V = dyn_cast_or_null<VarDecl>(D)) {
      if (!Stack.empty()) {
        auto It = Stack.back().Locals.find(V);
        if (It != Stack.back().Locals.end())
          return It->second;
      }
      if (V->isGlobal())
        return globalStorage(V);
      fail("variable '" + V->name() + "' is not in scope at run time");
    }
    if (auto *Field = dyn_cast_or_null<FieldDecl>(D)) {
      Storage *This = Stack.empty() ? nullptr : Stack.back().This;
      if (!This)
        fail("member '" + Field->name() + "' used outside a method");
      Storage *FS = memberOf(This, Field);
      if (!FS)
        fail("object has no storage for member '" + Field->name() + "'");
      return FS;
    }
    fail("cannot take the location of '" +
         std::string(Ctx.symbols().spelling(DRE->declName())) + "'");
  }
  case Expr::Kind::Member: {
    const auto *ME = cast<MemberExpr>(E);
    const auto *Field = dyn_cast_or_null<FieldDecl>(ME->member());
    if (!Field)
      fail("member expression does not name a data member");
    Storage *Obj = evalObjectBase(ME->base(), ME->isArrow());
    Storage *FS = memberOf(Obj, Field);
    if (!FS)
      fail("object has no storage for member '" + Field->name() + "'");
    return FS;
  }
  case Expr::Kind::MemberPointerAccess: {
    const auto *MPA = cast<MemberPointerAccessExpr>(E);
    Storage *Obj = evalObjectBase(MPA->base(), MPA->isArrow());
    Value PM = evalRValue(MPA->pointer());
    if (PM.Kind != Value::VK::MemberPtr || !PM.Member)
      fail("'.*' through null pointer-to-member");
    Storage *FS = memberOf(Obj, PM.Member);
    if (!FS)
      fail("object has no member for pointer-to-member access");
    return FS;
  }
  case Expr::Kind::Subscript: {
    const auto *SE = cast<SubscriptExpr>(E);
    long long Index = evalRValue(SE->index()).asInt();
    const Type *BaseTy = SE->base()->type();
    if (BaseTy && BaseTy->isArray()) {
      Storage *Arr = evalLValue(SE->base());
      if (Index < 0 || static_cast<size_t>(Index) >= Arr->Children.size())
        fail("array index out of bounds");
      return Arr->Children[static_cast<size_t>(Index)];
    }
    Value P = evalRValue(SE->base());
    if (P.Kind != Value::VK::Ptr || P.Ptr.isNull())
      fail("subscript of null pointer");
    if (!P.Ptr.Array) {
      if (Index == 0)
        return P.Ptr.Pointee;
      fail("pointer arithmetic on non-array pointer");
    }
    long long Absolute = intAdd(P.Ptr.Index, Index);
    if (Absolute < 0 ||
        static_cast<size_t>(Absolute) >= P.Ptr.Array->Children.size())
      fail("pointer subscript out of bounds");
    return P.Ptr.Array->Children[static_cast<size_t>(Absolute)];
  }
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    if (UE->op() == UnaryOpKind::Deref) {
      Value V = evalRValue(UE->sub());
      if (V.Kind != Value::VK::Ptr || V.Ptr.isNull())
        fail("dereference of null pointer");
      return V.Ptr.Pointee;
    }
    if (UE->op() == UnaryOpKind::PreInc || UE->op() == UnaryOpKind::PreDec) {
      evalRValue(E); // Perform the side effect.
      return evalLValue(UE->sub());
    }
    fail("expression is not an lvalue");
  }
  case Expr::Kind::Cast:
    // Pointer casts do not change the storage being referenced.
    return evalLValue(cast<CastExpr>(E)->sub());
  case Expr::Kind::This: {
    Storage *This = Stack.empty() ? nullptr : Stack.back().This;
    if (!This)
      fail("'this' used outside a method");
    return This;
  }
  default:
    fail("expression is not an lvalue");
  }
}

//===----------------------------------------------------------------------===//
// Rvalue evaluation
//===----------------------------------------------------------------------===//

Value Interpreter::evalRValue(const Expr *E) {
  step();
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
    return Value::ofInt(cast<IntLiteralExpr>(E)->value());
  case Expr::Kind::DoubleLiteral:
    return Value::ofDouble(cast<DoubleLiteralExpr>(E)->value());
  case Expr::Kind::BoolLiteral:
    return Value::ofBool(cast<BoolLiteralExpr>(E)->value());
  case Expr::Kind::CharLiteral:
    return Value::ofChar(cast<CharLiteralExpr>(E)->value());
  case Expr::Kind::NullptrLiteral:
    return Value::nullPtr();
  case Expr::Kind::StringLiteral: {
    Storage *Arr = stringStorage(cast<StringLiteralExpr>(E));
    Pointer P;
    P.Array = Arr;
    P.Index = 0;
    P.Pointee = Arr->Children.empty() ? nullptr : Arr->Children[0];
    return Value::ofPtr(P);
  }
  case Expr::Kind::This: {
    Storage *This = Stack.empty() ? nullptr : Stack.back().This;
    if (!This)
      fail("'this' used outside a method");
    return Value::ofPtr({This});
  }
  case Expr::Kind::DeclRef: {
    const auto *DRE = cast<DeclRefExpr>(E);
    if (auto *Fn = dyn_cast_or_null<FunctionDecl>(DRE->referent()))
      return Value::ofFn(Fn);
    Storage *S = evalLValue(E);
    return loadOrDecay(S);
  }
  case Expr::Kind::Member:
  case Expr::Kind::MemberPointerAccess:
  case Expr::Kind::Subscript:
    return loadOrDecay(evalLValue(E));
  case Expr::Kind::MemberPointerConstant:
    return Value::ofMemberPtr(
        cast<MemberPointerConstantExpr>(E)->member());
  case Expr::Kind::Unary:
    return evalUnary(cast<UnaryExpr>(E));
  case Expr::Kind::Binary:
    return evalBinary(cast<BinaryExpr>(E));
  case Expr::Kind::Assign:
    return evalAssign(cast<AssignExpr>(E));
  case Expr::Kind::Conditional: {
    const auto *CE = cast<ConditionalExpr>(E);
    return evalRValue(CE->cond()).asBool() ? evalRValue(CE->thenExpr())
                                           : evalRValue(CE->elseExpr());
  }
  case Expr::Kind::Comma: {
    const auto *CE = cast<CommaExpr>(E);
    evalRValue(CE->lhs());
    return evalRValue(CE->rhs());
  }
  case Expr::Kind::Call:
    return evalCall(cast<CallExpr>(E));
  case Expr::Kind::New:
    return evalNew(cast<NewExpr>(E));
  case Expr::Kind::Delete:
    evalDelete(cast<DeleteExpr>(E));
    return Value::unit();
  case Expr::Kind::Cast: {
    const auto *CE = cast<CastExpr>(E);
    Value V = evalRValue(CE->sub());
    const Type *Ty = CE->targetType();
    if (Ty->isArithmetic())
      return convertForStore(V, Ty);
    if (Ty->isPointer()) {
      if (V.Kind == Value::VK::Ptr || V.Kind == Value::VK::FnPtr)
        return V;
      if (V.asInt() == 0)
        return Value::nullPtr();
      fail("cannot materialize a pointer from an integer");
    }
    return V;
  }
  case Expr::Kind::Sizeof: {
    const auto *SE = cast<SizeofExpr>(E);
    const Type *Ty =
        SE->typeOperand() ? SE->typeOperand() : SE->exprOperand()->type();
    return Value::ofInt(static_cast<long long>(Layout.sizeOf(Ty)));
  }
  }
  fail("unhandled expression kind in evaluator");
}

//===----------------------------------------------------------------------===//
// Operators
//===----------------------------------------------------------------------===//

Value Interpreter::loadOrDecay(Storage *S) {
  switch (S->Kind) {
  case Storage::SK::Scalar:
    return loadScalar(S);
  case Storage::SK::Object:
    return Value::ofPtr({S});
  case Storage::SK::Array: {
    Pointer P;
    P.Array = S;
    P.Index = 0;
    P.Pointee = S->Children.empty() ? nullptr : S->Children[0];
    return Value::ofPtr(P);
  }
  }
  fail("corrupt storage node");
}

/// Adjusts an array-backed pointer by \p Delta elements, allowing the
/// one-past-the-end position.
static Pointer advancePointer(Pointer P, long long Delta) {
  if (!P.Array)
    return P; // Arithmetic on a non-array pointer: only +0 is meaningful.
  P.Index = intAdd(P.Index, Delta);
  P.Pointee = (P.Index >= 0 &&
               static_cast<size_t>(P.Index) < P.Array->Children.size())
                  ? P.Array->Children[static_cast<size_t>(P.Index)]
                  : nullptr;
  return P;
}

Value Interpreter::evalUnary(const UnaryExpr *E) {
  switch (E->op()) {
  case UnaryOpKind::Minus: {
    Value V = evalRValue(E->sub());
    if (V.Kind == Value::VK::Double)
      return Value::ofDouble(-V.asDouble());
    return Value::ofInt(intNeg(V.asInt()));
  }
  case UnaryOpKind::Not:
    return Value::ofBool(!evalRValue(E->sub()).asBool());
  case UnaryOpKind::BitNot:
    return Value::ofInt(~evalRValue(E->sub()).asInt());
  case UnaryOpKind::Deref:
    return loadOrDecay(evalLValue(E));
  case UnaryOpKind::AddrOf: {
    const Expr *Sub = E->sub();
    if (const auto *DRE = dyn_cast<DeclRefExpr>(Sub))
      if (auto *Fn = dyn_cast_or_null<FunctionDecl>(DRE->referent()))
        return Value::ofFn(Fn);
    // Keep array provenance for `&arr[i]` so pointer arithmetic works.
    if (const auto *SE = dyn_cast<SubscriptExpr>(Sub)) {
      const Type *BaseTy = SE->base()->type();
      long long Index = 0;
      Pointer P;
      if (BaseTy && BaseTy->isArray()) {
        Storage *Arr = evalLValue(SE->base());
        Index = evalRValue(SE->index()).asInt();
        P.Array = Arr;
      } else {
        Value BaseV = evalRValue(SE->base());
        if (BaseV.Kind != Value::VK::Ptr)
          fail("subscript of non-pointer");
        Index = intAdd(BaseV.Ptr.Index, evalRValue(SE->index()).asInt());
        P.Array = BaseV.Ptr.Array;
        if (!P.Array)
          return Value::ofPtr({BaseV.Ptr.Pointee});
      }
      P.Index = Index;
      P.Pointee = (Index >= 0 &&
                   static_cast<size_t>(Index) < P.Array->Children.size())
                      ? P.Array->Children[static_cast<size_t>(Index)]
                      : nullptr;
      if (Options.Profiler && P.Array->OwnerField)
        Options.Profiler->recordAddrTaken(P.Array->ObjectID,
                                          P.Array->OwnerField);
      return Value::ofPtr(P);
    }
    Storage *S = evalLValue(Sub);
    if (Options.Profiler && S->OwnerField)
      Options.Profiler->recordAddrTaken(S->ObjectID, S->OwnerField);
    return Value::ofPtr({S});
  }
  case UnaryOpKind::PreInc:
  case UnaryOpKind::PreDec:
  case UnaryOpKind::PostInc:
  case UnaryOpKind::PostDec: {
    Storage *S = evalLValue(E->sub());
    Value Old = loadScalar(S);
    long long Delta =
        (E->op() == UnaryOpKind::PreInc || E->op() == UnaryOpKind::PostInc)
            ? 1
            : -1;
    Value New;
    if (Old.Kind == Value::VK::Ptr)
      New = Value::ofPtr(advancePointer(Old.Ptr, Delta));
    else if (Old.Kind == Value::VK::Double)
      New = Value::ofDouble(Old.asDouble() + Delta);
    else
      New = Value::ofInt(intAdd(Old.asInt(), Delta));
    storeScalar(S, New, E->sub()->type());
    bool IsPre = E->op() == UnaryOpKind::PreInc ||
                 E->op() == UnaryOpKind::PreDec;
    return IsPre ? New : Old;
  }
  }
  fail("unhandled unary operator");
}

Value Interpreter::evalBinary(const BinaryExpr *E) {
  // Short-circuit forms first.
  if (E->op() == BinaryOpKind::LAnd)
    return Value::ofBool(evalRValue(E->lhs()).asBool() &&
                         evalRValue(E->rhs()).asBool());
  if (E->op() == BinaryOpKind::LOr)
    return Value::ofBool(evalRValue(E->lhs()).asBool() ||
                         evalRValue(E->rhs()).asBool());

  Value L = evalRValue(E->lhs());
  Value R = evalRValue(E->rhs());

  // Pointer arithmetic and comparisons.
  if (L.Kind == Value::VK::Ptr || R.Kind == Value::VK::Ptr ||
      L.Kind == Value::VK::FnPtr || R.Kind == Value::VK::FnPtr) {
    switch (E->op()) {
    case BinaryOpKind::Add:
      if (L.Kind == Value::VK::Ptr)
        return Value::ofPtr(advancePointer(L.Ptr, R.asInt()));
      return Value::ofPtr(advancePointer(R.asPtr(), L.asInt()));
    case BinaryOpKind::Sub:
      if (L.Kind == Value::VK::Ptr && R.Kind == Value::VK::Ptr) {
        if (L.Ptr.Array && L.Ptr.Array == R.Ptr.Array)
          return Value::ofInt(intSub(L.Ptr.Index, R.Ptr.Index));
        fail("difference of pointers into different arrays");
      }
      return Value::ofPtr(advancePointer(L.asPtr(), intNeg(R.asInt())));
    case BinaryOpKind::EQ:
      if (L.Kind == Value::VK::FnPtr || R.Kind == Value::VK::FnPtr)
        return Value::ofBool(L.asFn() == R.asFn());
      return Value::ofBool(L.asPtr().Pointee == R.asPtr().Pointee);
    case BinaryOpKind::NE:
      if (L.Kind == Value::VK::FnPtr || R.Kind == Value::VK::FnPtr)
        return Value::ofBool(L.asFn() != R.asFn());
      return Value::ofBool(L.asPtr().Pointee != R.asPtr().Pointee);
    case BinaryOpKind::LT:
    case BinaryOpKind::GT:
    case BinaryOpKind::LE:
    case BinaryOpKind::GE: {
      Pointer LP = L.asPtr(), RP = R.asPtr();
      if (LP.Array && LP.Array == RP.Array) {
        long long A = LP.Index, B = RP.Index;
        switch (E->op()) {
        case BinaryOpKind::LT: return Value::ofBool(A < B);
        case BinaryOpKind::GT: return Value::ofBool(A > B);
        case BinaryOpKind::LE: return Value::ofBool(A <= B);
        default: return Value::ofBool(A >= B);
        }
      }
      fail("relational comparison of unrelated pointers");
    }
    default:
      fail("invalid operator on pointers");
    }
  }

  bool UseDouble =
      L.Kind == Value::VK::Double || R.Kind == Value::VK::Double;
  switch (E->op()) {
  case BinaryOpKind::Add:
    return UseDouble ? Value::ofDouble(L.asDouble() + R.asDouble())
                     : Value::ofInt(intAdd(L.asInt(), R.asInt()));
  case BinaryOpKind::Sub:
    return UseDouble ? Value::ofDouble(L.asDouble() - R.asDouble())
                     : Value::ofInt(intSub(L.asInt(), R.asInt()));
  case BinaryOpKind::Mul:
    return UseDouble ? Value::ofDouble(L.asDouble() * R.asDouble())
                     : Value::ofInt(intMul(L.asInt(), R.asInt()));
  case BinaryOpKind::Div:
    if (UseDouble) {
      if (R.asDouble() == 0.0)
        fail("floating division by zero");
      return Value::ofDouble(L.asDouble() / R.asDouble());
    }
    if (R.asInt() == 0)
      fail("integer division by zero");
    if (intDivOverflows(L.asInt(), R.asInt()))
      fail("integer division overflow");
    return Value::ofInt(L.asInt() / R.asInt());
  case BinaryOpKind::Rem:
    if (R.asInt() == 0)
      fail("integer remainder by zero");
    return Value::ofInt(intRem(L.asInt(), R.asInt()));
  case BinaryOpKind::Shl:
    return Value::ofInt(L.asInt() << (R.asInt() & 63));
  case BinaryOpKind::Shr:
    return Value::ofInt(L.asInt() >> (R.asInt() & 63));
  case BinaryOpKind::BitAnd:
    return Value::ofInt(L.asInt() & R.asInt());
  case BinaryOpKind::BitOr:
    return Value::ofInt(L.asInt() | R.asInt());
  case BinaryOpKind::BitXor:
    return Value::ofInt(L.asInt() ^ R.asInt());
  case BinaryOpKind::LT:
    return Value::ofBool(UseDouble ? L.asDouble() < R.asDouble()
                                   : L.asInt() < R.asInt());
  case BinaryOpKind::GT:
    return Value::ofBool(UseDouble ? L.asDouble() > R.asDouble()
                                   : L.asInt() > R.asInt());
  case BinaryOpKind::LE:
    return Value::ofBool(UseDouble ? L.asDouble() <= R.asDouble()
                                   : L.asInt() <= R.asInt());
  case BinaryOpKind::GE:
    return Value::ofBool(UseDouble ? L.asDouble() >= R.asDouble()
                                   : L.asInt() >= R.asInt());
  case BinaryOpKind::EQ: {
    if (L.Kind == Value::VK::MemberPtr || R.Kind == Value::VK::MemberPtr)
      return Value::ofBool(L.asMember() == R.asMember());
    return Value::ofBool(UseDouble ? L.asDouble() == R.asDouble()
                                   : L.asInt() == R.asInt());
  }
  case BinaryOpKind::NE: {
    if (L.Kind == Value::VK::MemberPtr || R.Kind == Value::VK::MemberPtr)
      return Value::ofBool(L.asMember() != R.asMember());
    return Value::ofBool(UseDouble ? L.asDouble() != R.asDouble()
                                   : L.asInt() != R.asInt());
  }
  case BinaryOpKind::LAnd:
  case BinaryOpKind::LOr:
    break; // Handled above.
  }
  fail("unhandled binary operator");
}

Value Interpreter::evalAssign(const AssignExpr *E) {
  // Class assignment: memberwise copy.
  const Type *LHSTy = E->lhs()->type();
  if (LHSTy && LHSTy->asClassDecl()) {
    Storage *Dst = evalLValue(E->lhs());
    Value Src = evalRValue(E->rhs());
    if (Src.Kind != Value::VK::Ptr || Src.Ptr.isNull())
      fail("class assignment from non-object");
    copyMembers(Dst, Src.Ptr.Pointee, /*InitForm=*/false);
    return Src;
  }

  Storage *Dst = evalLValue(E->lhs());
  if (E->op() == AssignOpKind::Assign) {
    Value V = evalRValue(E->rhs());
    storeScalar(Dst, V, LHSTy);
    // Return the stored value without going through loadScalar: using the
    // assignment's result is not a read of the member.
    return Dst->V;
  }

  Value Old = loadScalar(Dst);
  Value R = evalRValue(E->rhs());
  Value New;
  if (Old.Kind == Value::VK::Ptr) {
    long long Delta = R.asInt();
    if (E->op() == AssignOpKind::SubAssign)
      Delta = intNeg(Delta);
    else if (E->op() != AssignOpKind::AddAssign)
      fail("invalid compound assignment on pointer");
    New = Value::ofPtr(advancePointer(Old.Ptr, Delta));
  } else {
    bool UseDouble =
        Old.Kind == Value::VK::Double || R.Kind == Value::VK::Double;
    switch (E->op()) {
    case AssignOpKind::AddAssign:
      New = UseDouble ? Value::ofDouble(Old.asDouble() + R.asDouble())
                      : Value::ofInt(intAdd(Old.asInt(), R.asInt()));
      break;
    case AssignOpKind::SubAssign:
      New = UseDouble ? Value::ofDouble(Old.asDouble() - R.asDouble())
                      : Value::ofInt(intSub(Old.asInt(), R.asInt()));
      break;
    case AssignOpKind::MulAssign:
      New = UseDouble ? Value::ofDouble(Old.asDouble() * R.asDouble())
                      : Value::ofInt(intMul(Old.asInt(), R.asInt()));
      break;
    case AssignOpKind::DivAssign:
      if (UseDouble) {
        if (R.asDouble() == 0.0)
          fail("floating division by zero");
        New = Value::ofDouble(Old.asDouble() / R.asDouble());
      } else {
        if (R.asInt() == 0)
          fail("integer division by zero");
        if (intDivOverflows(Old.asInt(), R.asInt()))
          fail("integer division overflow");
        New = Value::ofInt(Old.asInt() / R.asInt());
      }
      break;
    case AssignOpKind::RemAssign:
      if (R.asInt() == 0)
        fail("integer remainder by zero");
      New = Value::ofInt(intRem(Old.asInt(), R.asInt()));
      break;
    case AssignOpKind::Assign:
      fail("unreachable plain assignment");
    }
  }
  storeScalar(Dst, New, LHSTy);
  return New;
}

//===----------------------------------------------------------------------===//
// Calls, new, delete
//===----------------------------------------------------------------------===//

Value Interpreter::evalCall(const CallExpr *Call) {
  const FunctionDecl *Callee = Call->directCallee();
  Storage *This = nullptr;
  const ClassDecl *DispatchClass = nullptr;

  if (Callee) {
    if (const auto *M = dyn_cast<MethodDecl>(Callee)) {
      // Determine the receiver.
      if (const auto *ME = dyn_cast<MemberExpr>(Call->callee()))
        This = evalObjectBase(ME->base(), ME->isArrow());
      else
        This = Stack.empty() ? nullptr : Stack.back().This;
      if (!This)
        fail("method call without receiver object");

      if (Call->isVirtualCall()) {
        if (This->Kind != Storage::SK::Object)
          fail("virtual call of '" + M->qualifiedName() +
               "' on a non-object receiver");
        const ClassDecl *Dyn = Objects.slots(This->ClassIdx).Decl;
        // Virtual dispatch on the object currently being constructed or
        // destroyed resolves against that class, as in C++.
        if (!Stack.empty() && Stack.back().DispatchClass &&
            Stack.back().This == This)
          Dyn = Stack.back().DispatchClass;
        MethodDecl *Target =
            CH.resolveVirtualCall(Dyn, cast<MethodDecl>(Callee));
        if (!Target)
          fail("virtual dispatch failed for '" + M->qualifiedName() + "'");
        Callee = Target;
      }
    }
  } else {
    // Indirect call through a function pointer.
    Value FnV = evalRValue(Call->callee());
    if (FnV.Kind != Value::VK::FnPtr || !FnV.Fn)
      fail("indirect call through null function pointer");
    Callee = FnV.Fn;
  }

  bool IsFree = Callee->builtinKind() == BuiltinKind::Free;
  std::vector<Value> Args;
  Args.reserve(Call->args().size());
  for (size_t I = 0; I != Call->args().size(); ++I) {
    const Expr *Arg = Call->args()[I];
    bool ByRef = I < Callee->params().size() &&
                 Callee->params()[I]->type()->isReference();
    if (ByRef)
      Args.push_back(Value::ofPtr({evalLValue(Arg)}));
    else if (IsFree)
      Args.push_back(evalDeallocArg(Arg));
    else
      Args.push_back(evalRValue(Arg));
  }
  return callFunction(Callee, This, std::move(Args), DispatchClass);
}

Value Interpreter::evalNew(const NewExpr *N) {
  const Type *Ty = N->allocType();

  if (N->isArrayNew()) {
    long long Count = evalRValue(N->arraySize()).asInt();
    if (Count < 0)
      fail("negative array-new extent");
    const ClassDecl *Elem = Ty->asClassDecl();
    Storage *Arr =
        Arena.createArray(Elem ? Objects.classIndex(Elem) : NoClass, nullptr);
    // One ID per element (see execVarDecl's array case).
    uint64_t ID = NextObjectID;
    NextObjectID += std::max<uint64_t>(static_cast<uint64_t>(Count), 1);
    Arr->ObjectID = ID;
    if (Elem) {
      if (Options.Profiler)
        Options.Profiler->registerObjects(
            Elem, static_cast<uint64_t>(Count), ID, N->location());
      traceAlloc(Arr, Elem, static_cast<uint64_t>(Count));
      if (Options.Profiler)
        Options.Profiler->recordAllocEvent(ID);
    }
    for (long long I = 0; I != Count; ++I) {
      if (Elem) {
        Storage *ES =
            allocateObject(Elem, nullptr, ID + static_cast<uint64_t>(I));
        construct(ES, Elem, arityCtor(Elem, 0), {}, true);
        Arr->Children.push_back(ES);
      } else {
        Storage *ES = Arena.createScalar();
        ES->V = zeroValue(Ty);
        Arr->Children.push_back(ES);
      }
    }
    Pointer P;
    P.Array = Arr;
    P.Index = 0;
    P.Pointee = Arr->Children.empty() ? nullptr : Arr->Children[0];
    return Value::ofPtr(P);
  }

  if (const ClassDecl *CD = Ty->asClassDecl()) {
    uint64_t ID = NextObjectID++;
    Storage *Obj = allocateObject(CD, nullptr, ID);
    if (Options.Profiler)
      Options.Profiler->registerObjects(CD, 1, ID, N->location());
    traceAlloc(Obj, CD, 1);
    if (Options.Profiler)
      Options.Profiler->recordAllocEvent(ID);
    const ConstructorDecl *Ctor = N->constructor();
    std::vector<Value> Args;
    for (size_t I = 0; I != N->ctorArgs().size(); ++I) {
      bool ByRef = Ctor && I < Ctor->params().size() &&
                   Ctor->params()[I]->type()->isReference();
      if (ByRef)
        Args.push_back(Value::ofPtr({evalLValue(N->ctorArgs()[I])}));
      else
        Args.push_back(evalRValue(N->ctorArgs()[I]));
    }
    construct(Obj, CD, Ctor, std::move(Args), /*MostDerived=*/true);
    return Value::ofPtr({Obj});
  }

  // Scalar new.
  Storage *S = Arena.createScalar();
  S->V = N->ctorArgs().empty() ? zeroValue(Ty)
                               : convertForStore(evalRValue(N->ctorArgs()[0]),
                                                 Ty);
  return Value::ofPtr({S});
}

/// Strips explicit casts (value-preserving for pointers).
static const Expr *stripCastsForDealloc(const Expr *E) {
  while (const auto *CE = dyn_cast<CastExpr>(E))
    E = CE->sub();
  return E;
}

Value Interpreter::evalDeallocArg(const Expr *E) {
  if (Options.CountDeallocationReads)
    return evalRValue(E);
  const Expr *Stripped = stripCastsForDealloc(E);
  bool IsMember = false;
  if (const auto *ME = dyn_cast<MemberExpr>(Stripped))
    IsMember = dyn_cast_or_null<FieldDecl>(ME->member()) != nullptr;
  else if (const auto *DRE = dyn_cast<DeclRefExpr>(Stripped))
    IsMember = dyn_cast_or_null<FieldDecl>(DRE->referent()) != nullptr;
  if (!IsMember)
    return evalRValue(E);
  // Load without attributing a read: the value only feeds deallocation,
  // which cannot affect observable behaviour (paper footnote 3). The
  // base object expression is evaluated (and tracked) normally by
  // evalLValue.
  Storage *S = evalLValue(Stripped);
  if (!S->Alive)
    fail("read from destroyed object");
  if (S->Kind != Storage::SK::Scalar)
    fail("scalar read from aggregate storage");
  return S->V;
}

void Interpreter::evalDelete(const DeleteExpr *D) {
  Value V = evalDeallocArg(D->sub());
  if (V.Kind != Value::VK::Ptr)
    fail("delete of non-pointer");
  if (V.Ptr.isNull())
    return; // delete nullptr is a no-op.
  Storage *Target =
      (D->isArrayDelete() && V.Ptr.Array) ? V.Ptr.Array : V.Ptr.Pointee;
  if (Target->Kind == Storage::SK::Scalar) {
    if (!Target->Alive)
      fail("double delete");
    Target->Alive = false;
    return;
  }
  destroyCompleteObject(Target);
}

//===----------------------------------------------------------------------===//
// Globals, string literals, run
//===----------------------------------------------------------------------===//

Storage *Interpreter::stringStorage(const StringLiteralExpr *S) {
  auto It = StringLiterals.find(S);
  if (It != StringLiterals.end())
    return It->second;
  Storage *Arr = Arena.createArray(NoClass);
  for (char C : S->value()) {
    Storage *CS = Arena.createScalar();
    CS->V = Value::ofChar(C);
    Arr->Children.push_back(CS);
  }
  Storage *Nul = Arena.createScalar();
  Nul->V = Value::ofChar(0);
  Arr->Children.push_back(Nul);
  StringLiterals[S] = Arr;
  return Arr;
}

Storage *Interpreter::globalStorage(const VarDecl *GV) {
  auto It = Globals.find(GV);
  if (It == Globals.end())
    fail("global '" + GV->name() + "' used before initialization");
  return It->second;
}

ExecResult Interpreter::run(const FunctionDecl *Main) {
  Span Timer("interp");
  ExecResult Result;
  std::vector<Storage *> GlobalObjects;
  try {
    // A frame for global initialization expressions.
    Frame GlobalFrame;
    GlobalFrame.Fn = Main;
    Stack.push_back(std::move(GlobalFrame));
    for (const VarDecl *GV : Ctx.globals()) {
      std::vector<Storage *> Objects;
      execVarDecl(GV, Objects);
      Globals[GV] = Stack.back().Locals.at(GV);
      for (Storage *Obj : Objects)
        GlobalObjects.push_back(Obj);
    }
    Stack.pop_back();

    Value Exit = callFunction(Main, nullptr, {}, nullptr);

    // Destroy globals in reverse construction order.
    Stack.push_back(Frame{});
    for (auto It = GlobalObjects.rbegin(); It != GlobalObjects.rend(); ++It)
      destroyCompleteObject(*It);
    Stack.pop_back();

    Result.Completed = true;
    Result.ExitCode = Exit.asInt();
  } catch (const RuntimeError &E) {
    Result.Completed = false;
    Result.Error = E.Message;
    logDebug("interpreter run failed",
             {kv("error", E.Message), kv("steps", Steps)});
  }
  Result.Output = std::move(Output);
  Result.Steps = Steps;
  Telemetry::count("interp.steps", Steps);
  Telemetry::count("interp.calls", NumCalls);
  Telemetry::count("interp.objects", NumCompleteObjects);
  return Result;
}
