//===-- vm/VM.cpp - Bytecode virtual machine --------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dispatch loop and runtime support for the bytecode of
/// vm/Bytecode.h. Semantics are a line-for-line transcription of
/// interp/Interpreter.cpp: every hook (allocation trace, read/write
/// sets, heat, shadow profiler), every ObjectID, and every runtime
/// error message fires at the same point in the same order as the
/// tree-walker, so the differential `engine` oracle can demand
/// byte-identical results. Comments below that name Interpreter
/// methods mark the code they transcribe.
///
/// Execution model: one host-recursive invocation of execCode per
/// guest frame, over shared register/local stacks (frames occupy
/// [base, base+N) windows; the caller passes argument registers by
/// absolute index so callee-side resizing cannot invalidate them).
/// Dispatch is direct-threaded via computed goto under GCC/Clang and
/// a switch otherwise.
///
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "ast/Expr.h"
#include "profiler/ShadowProfiler.h"
#include "telemetry/Log.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cstdio>

namespace dmm {
namespace vm {

struct VM::VMError {
  std::string Message;
};

//===----------------------------------------------------------------------===//
// Construction: compile, then precompute allocation recipes
//===----------------------------------------------------------------------===//

/// The zero value of a declared type (Interpreter.cpp zeroValue).
static Value zeroValueOf(const Type *Ty) {
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

VM::VM(const ASTContext &Ctx, const ClassHierarchy &CH, InterpOptions Options,
       CompilerConfig Config)
    : CH(CH), Options(Options) {
  // InterpOptions is the behavioural contract; the compiler needs the
  // deallocation-read policy at lowering time, so mirror it rather than
  // making every caller thread the flag twice.
  Config.CountDeallocationReads |= Options.CountDeallocationReads;
  {
    Span Timer("vm.compile");
    Mod = compileModule(Ctx, CH, Config);
  }
  // Per-class recipe for allocateFieldStorage, one entry per unique
  // field slot in Fields-map insertion order.
  AllocPlans.resize(Mod.Classes.size());
  for (size_t CI = 0; CI != Mod.Classes.size(); ++CI) {
    const ClassPlan &P = Mod.Classes[CI];
    for (size_t K = 0; K != P.SlotFields.size(); ++K) {
      const FieldDecl *F = P.SlotFields[K];
      SlotAlloc SA;
      SA.Field = F;
      SA.Color = P.SlotColors[K];
      const Type *Ty = F->type();
      if (const ClassDecl *CD = Ty->asClassDecl()) {
        SA.Kind = SlotAlloc::K::Class;
        SA.ClassI = Mod.ClassIdx.at(CD);
      } else if (const auto *AT = dyn_cast<ArrayType>(Ty)) {
        SA.ElemType = AT->element();
        SA.Count = AT->size();
        if (const ClassDecl *Elem = AT->element()->asClassDecl()) {
          SA.Kind = SlotAlloc::K::ClassArray;
          SA.ClassI = Mod.ClassIdx.at(Elem);
        } else {
          SA.Kind = SlotAlloc::K::ScalarArray;
          SA.Zero = zeroValueOf(AT->element());
        }
      } else {
        SA.Kind = SlotAlloc::K::Scalar;
        SA.Zero = zeroValueOf(Ty);
      }
      AllocPlans[CI].push_back(SA);
    }
  }
}

VM::~VM() = default;

void VM::fail(const std::string &Message) { throw VMError{Message}; }

void VM::step() {
  if (++Steps > Options.MaxSteps)
    fail("step limit exceeded");
}

//===----------------------------------------------------------------------===//
// Storage construction and destruction
//===----------------------------------------------------------------------===//

Storage *VM::allocSlot(const SlotAlloc &SA, uint64_t ID) {
  switch (SA.Kind) {
  case SlotAlloc::K::Class:
    return allocObject(SA.ClassI, SA.Field, ID);
  case SlotAlloc::K::ClassArray: {
    Storage *Arr = Arena.createArray(SA.ElemType, SA.Field);
    Arr->ObjectID = ID;
    for (uint64_t J = 0; J != SA.Count; ++J)
      Arr->Elems.push_back(allocObject(SA.ClassI, SA.Field, ID));
    return Arr;
  }
  case SlotAlloc::K::ScalarArray: {
    Storage *Arr = Arena.createArray(SA.ElemType, SA.Field);
    Arr->ObjectID = ID;
    for (uint64_t J = 0; J != SA.Count; ++J) {
      Storage *S = Arena.createScalar(SA.Field);
      S->V = SA.Zero;
      S->ObjectID = ID;
      Arr->Elems.push_back(S);
    }
    return Arr;
  }
  case SlotAlloc::K::Scalar:
    break;
  }
  Storage *S = Arena.createScalar(SA.Field);
  S->V = SA.Zero;
  S->ObjectID = ID;
  return S;
}

Storage *VM::allocObject(uint32_t ClassI, const FieldDecl *Owner,
                         uint64_t ID) {
  const ClassPlan &P = Mod.Classes[ClassI];
  if (!P.Complete)
    fail(P.IncompleteMsg);
  if (!Owner)
    ++NumCompleteObjects;
  Storage *Obj = Arena.createObject(P.Decl, Owner);
  Obj->ObjectID = ID;
  Obj->Slots.assign(P.NumSlots, nullptr);
  for (const SlotAlloc &SA : AllocPlans[ClassI])
    Obj->Slots[SA.Color] = allocSlot(SA, ID);
  return Obj;
}

uint64_t VM::traceAlloc(uint32_t ClassI, uint64_t Count) {
  if (!Options.Trace)
    return 0;
  const ClassPlan &P = Mod.Classes[ClassI];
  return Options.Trace->recordAlloc(P.Decl, Count, Count * P.CompleteSize);
}

void VM::traceFree(Storage *Obj) {
  auto It = TraceIDs.find(Obj);
  if (It == TraceIDs.end())
    return;
  Options.Trace->recordFree(It->second);
  TraceIDs.erase(It);
}

void VM::markDead(Storage *S) {
  S->Alive = false;
  for (Storage *FS : S->Slots)
    if (FS)
      markDead(FS);
  for (Storage *ES : S->Elems)
    markDead(ES);
}

void VM::destroyObj(Storage *Obj, uint32_t ClassI, bool MostDerived) {
  step(); // Interpreter::destroy
  const ClassPlan &P = Mod.Classes[ClassI];
  if (P.DtorBody != NoFunc)
    execFunction(Mod.Functions[P.DtorBody], Obj, P.Decl,
                 /*MostDerived=*/false, /*ArgAbs=*/0, /*Argc=*/0);
  // Members in reverse declaration order, then bases in reverse.
  for (auto It = P.Members.rbegin(); It != P.Members.rend(); ++It) {
    if (It->Kind == MemberPlan::MK::Class) {
      destroyObj(Obj->Slots[It->SlotColor], It->ElemClassIdx, true);
    } else if (It->Kind == MemberPlan::MK::ClassArray) {
      Storage *FS = Obj->Slots[It->SlotColor];
      for (auto EI = FS->Elems.rbegin(); EI != FS->Elems.rend(); ++EI)
        destroyObj(*EI, It->ElemClassIdx, true);
    }
  }
  for (auto It = P.NVBases.rbegin(); It != P.NVBases.rend(); ++It)
    destroyObj(Obj, *It, false);
  if (MostDerived)
    for (auto It = P.VBases.rbegin(); It != P.VBases.rend(); ++It)
      destroyObj(Obj, *It, false);
}

void VM::destroyCompleteObject(Storage *Obj) {
  if (!Obj->Alive)
    fail("double destruction of object");
  if (Obj->Kind == Storage::SK::Object) {
    destroyObj(Obj, Mod.ClassIdx.at(Obj->Class), true);
  } else if (Obj->Kind == Storage::SK::Array && Obj->ElemType) {
    if (const ClassDecl *Elem = Obj->ElemType->asClassDecl()) {
      uint32_t CI = Mod.ClassIdx.at(Elem);
      for (auto It = Obj->Elems.rbegin(); It != Obj->Elems.rend(); ++It)
        destroyObj(*It, CI, true);
    }
  }
  traceFree(Obj);
  if (Options.Profiler)
    Options.Profiler->recordFree(Obj->ObjectID);
  markDead(Obj);
}

void VM::constructVia(Storage *Obj, uint32_t ClassI, uint32_t CtorIdx,
                      size_t ArgAbs, uint16_t Argc, bool MostDerived) {
  step(); // Interpreter::construct
  if (CtorIdx == NoFunc) {
    defaultConstructMembers(Obj, ClassI, MostDerived);
    return;
  }
  const FuncEntry &FE = Mod.Functions[CtorIdx];
  if (Argc != FE.Params.size())
    fail(FE.ArgCountMsg);
  // The constructor body carries the initializer prologue; its frame
  // dispatches virtuals against the class under construction.
  execFunction(FE, Obj, Mod.Classes[ClassI].Decl, MostDerived, ArgAbs, Argc);
}

void VM::defaultConstructMembers(Storage *Obj, uint32_t ClassI,
                                 bool MostDerived) {
  const ClassPlan &P = Mod.Classes[ClassI];
  if (MostDerived)
    for (uint32_t VB : P.VBases)
      constructVia(Obj, VB, Mod.Classes[VB].Arity0Ctor, 0, 0, false);
  for (uint32_t B : P.NVBases)
    constructVia(Obj, B, Mod.Classes[B].Arity0Ctor, 0, 0, false);
  for (const MemberPlan &MP : P.Members) {
    if (MP.Kind == MemberPlan::MK::Class) {
      constructVia(Obj->Slots[MP.SlotColor], MP.ElemClassIdx,
                   Mod.Classes[MP.ElemClassIdx].Arity0Ctor, 0, 0, true);
    } else if (MP.Kind == MemberPlan::MK::ClassArray) {
      Storage *FS = Obj->Slots[MP.SlotColor];
      uint32_t A0 = Mod.Classes[MP.ElemClassIdx].Arity0Ctor;
      for (Storage *ES : FS->Elems)
        constructVia(ES, MP.ElemClassIdx, A0, 0, 0, true);
    }
  }
}

//===----------------------------------------------------------------------===//
// Loads, stores, conversions
//===----------------------------------------------------------------------===//

Value VM::loadScalar(Storage *S) {
  if (!S->Alive)
    fail("read from destroyed object");
  if (S->Kind != Storage::SK::Scalar)
    fail("scalar read from aggregate storage");
  if (S->OwnerField) {
    if (Options.ReadSet)
      Options.ReadSet->insert(S->OwnerField);
    if (Options.ReadTrace && TracedReads.insert(S->OwnerField).second)
      Options.ReadTrace->push_back(S->OwnerField);
    if (Options.Heat)
      ++Options.Heat->Reads[S->OwnerField];
    if (Options.Profiler)
      Options.Profiler->recordRead(S->ObjectID, S->OwnerField);
  }
  return S->V;
}

void VM::storeScalar(Storage *S, const Value &V, Conv C) {
  if (!S->Alive)
    fail("write to destroyed object");
  if (S->Kind != Storage::SK::Scalar)
    fail("scalar write to aggregate storage");
  if (S->OwnerField) {
    if (Options.WriteSet)
      Options.WriteSet->insert(S->OwnerField);
    if (Options.Heat)
      ++Options.Heat->Writes[S->OwnerField];
    if (Options.Profiler)
      Options.Profiler->recordWrite(S->ObjectID, S->OwnerField);
  }
  S->V = convert(V, C);
}

Value VM::convert(const Value &V, Conv C) {
  switch (C) {
  case Conv::None:
    return V;
  case Conv::Int:
    return Value::ofInt(V.asInt());
  case Conv::Double:
    return Value::ofDouble(V.asDouble());
  case Conv::Bool:
    return Value::ofBool(V.asBool());
  case Conv::Char:
    return Value::ofChar(static_cast<char>(V.asInt()));
  }
  return V;
}

Value VM::loadOrDecay(Storage *S) {
  if (S->Kind == Storage::SK::Scalar)
    return loadScalar(S);
  if (S->Kind == Storage::SK::Object)
    return Value::ofPtr({S});
  Pointer P;
  P.Array = S;
  P.Index = 0;
  P.Pointee = S->Elems.empty() ? nullptr : S->Elems.front();
  return Value::ofPtr(P);
}

/// Interpreter::advancePointer — provenance-checked arithmetic.
static Pointer advancePtr(Pointer P, long long Delta) {
  if (!P.Array)
    return P;
  P.Index = intAdd(P.Index, Delta);
  if (P.Index >= 0 &&
      static_cast<size_t>(P.Index) < P.Array->Elems.size())
    P.Pointee = P.Array->Elems[static_cast<size_t>(P.Index)];
  else
    P.Pointee = nullptr;
  return P;
}

//===----------------------------------------------------------------------===//
// Memberwise copies
//===----------------------------------------------------------------------===//

void VM::ensureFields(Storage *S) {
  if (S->Kind != Storage::SK::Object || !S->Fields.empty() ||
      S->Slots.empty())
    return;
  // Insert in SlotFields (first-occurrence AllFields) order: the same
  // keys in the same order as the tree-walker's eager map, so hash-map
  // iteration — which is part of the observable event order — matches.
  const ClassPlan &P = Mod.Classes[Mod.ClassIdx.at(S->Class)];
  for (size_t K = 0; K != P.SlotFields.size(); ++K)
    if (Storage *FS = S->Slots[P.SlotColors[K]])
      S->Fields.emplace(P.SlotFields[K], FS);
}

void VM::copyTree(Storage *Dst, Storage *Src, bool InitForm) {
  if (Dst->Kind == Storage::SK::Scalar && Src->Kind == Storage::SK::Scalar) {
    if (Dst->OwnerField) {
      if (InitForm) {
        // Copy-initialization (execVarDecl): profiler write only.
        if (Options.Profiler)
          Options.Profiler->recordWrite(Dst->ObjectID, Dst->OwnerField);
      } else {
        // Class assignment (evalAssign): full write attribution.
        if (Options.WriteSet)
          Options.WriteSet->insert(Dst->OwnerField);
        if (Options.Heat)
          ++Options.Heat->Writes[Dst->OwnerField];
        if (Options.Profiler)
          Options.Profiler->recordWrite(Dst->ObjectID, Dst->OwnerField);
      }
    }
    Dst->V = loadScalar(Src);
    return;
  }
  if (Dst->Kind == Storage::SK::Object) {
    ensureFields(Dst);
    ensureFields(Src);
    for (auto &[Field, FS] : Dst->Fields)
      if (Src->Fields.count(Field))
        copyTree(FS, Src->Fields.at(Field), InitForm);
  }
  if (Dst->Kind == Storage::SK::Array)
    for (size_t E = 0; E < Dst->Elems.size() && E < Src->Elems.size(); ++E)
      copyTree(Dst->Elems[E], Src->Elems[E], InitForm);
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

Value VM::callBuiltin(const FuncEntry &FE, size_t ArgAbs) {
  // Sema guarantees builtin arity; the bounds guard only protects the
  // host from a hostile module, not a semantic path.
  const Value A0 = ArgAbs < Regs.size() ? Regs[ArgAbs] : Value::unit();
  char Buf[64];
  switch (FE.Builtin) {
  case BuiltinKind::PrintInt:
    std::snprintf(Buf, sizeof(Buf), "%lld", A0.asInt());
    Output += Buf;
    Output += '\n';
    return Value::unit();
  case BuiltinKind::PrintChar:
    Output += static_cast<char>(A0.asInt());
    return Value::unit();
  case BuiltinKind::PrintDouble:
    std::snprintf(Buf, sizeof(Buf), "%g", A0.asDouble());
    Output += Buf;
    Output += '\n';
    return Value::unit();
  case BuiltinKind::PrintBool:
    Output += A0.asBool() ? "true" : "false";
    Output += '\n';
    return Value::unit();
  case BuiltinKind::PrintStr: {
    Pointer P = A0.Ptr;
    if (!P.Array) {
      if (P.Pointee && P.Pointee->Kind == Storage::SK::Scalar)
        Output += static_cast<char>(loadScalar(P.Pointee).asInt());
      return Value::unit();
    }
    for (size_t I = static_cast<size_t>(P.Index); I < P.Array->Elems.size();
         ++I) {
      char C = static_cast<char>(loadScalar(P.Array->Elems[I]).asInt());
      if (C == 0)
        break;
      Output += C;
    }
    return Value::unit();
  }
  case BuiltinKind::Free: {
    Pointer P = A0.Ptr;
    if (P.isNull())
      return Value::unit();
    Storage *S = P.Array ? P.Array : P.Pointee;
    traceFree(S);
    if (Options.Profiler)
      Options.Profiler->recordFree(S->ObjectID);
    markDead(S); // No destructors run, as with C free().
    return Value::unit();
  }
  case BuiltinKind::None:
    break;
  }
  fail(FE.UndefinedMsg);
}

Value VM::doCall(uint32_t FnIdx, Storage *This, size_t ArgAbs,
                 uint16_t Argc) {
  step(); // Interpreter::callFunction
  ++NumCalls;
  if (Depth > 1024)
    fail("interpreter stack overflow (recursion too deep)");
  const FuncEntry &FE = Mod.Functions[FnIdx];
  if (FE.IsBuiltin)
    return callBuiltin(FE, ArgAbs);
  if (!FE.Defined)
    fail(FE.UndefinedMsg);
  if (Argc != FE.Params.size())
    fail(FE.ArgCountMsg);
  return execFunction(FE, This, /*DispatchClass=*/nullptr,
                      /*MostDerived=*/false, ArgAbs, Argc);
}

Value VM::execFunction(const FuncEntry &FE, Storage *This,
                       const ClassDecl *DispatchClass, bool MostDerived,
                       size_t ArgAbs, uint16_t Argc) {
  (void)Argc; // Arity is validated by the caller (doCall/constructVia).
  size_t RBase = Regs.size();
  size_t LBase = Locals.size();
  Regs.resize(RBase + FE.NumRegs);
  Locals.resize(LBase + FE.NumLocals, nullptr);
  for (size_t I = 0; I != FE.Params.size(); ++I) {
    const ParamPlan &PP = FE.Params[I];
    Value Arg = Regs[ArgAbs + I];
    switch (PP.Kind) {
    case ParamPlan::PK::RefBind:
      if (Arg.Kind != Value::VK::Ptr || Arg.Ptr.isNull())
        fail("reference parameter bound to non-lvalue");
      Locals[LBase + PP.Slot] = Arg.Ptr.Pointee;
      break;
    case ParamPlan::PK::ClassShare:
      if (Arg.Kind != Value::VK::Ptr || Arg.Ptr.isNull())
        fail("class argument is not an object");
      Locals[LBase + PP.Slot] = Arg.Ptr.Pointee;
      break;
    case ParamPlan::PK::ScalarStorage: {
      Storage *PS = Arena.createScalar();
      PS->V = convert(Arg, PP.ConvKind);
      Locals[LBase + PP.Slot] = PS;
      break;
    }
    case ParamPlan::PK::ScalarReg:
      Regs[RBase + PP.Slot] = convert(Arg, PP.ConvKind);
      break;
    }
  }
  ++Depth; // The tree-walker's Stack.push_back.
  Value Ret = execCode(FE, RBase, LBase, This, DispatchClass, MostDerived);
  --Depth;
  Regs.resize(RBase);
  Locals.resize(LBase);
  return Ret;
}

//===----------------------------------------------------------------------===//
// Operator helpers
//===----------------------------------------------------------------------===//

Value VM::binaryOp(const Value &L, unsigned OpKRaw, const Value &R) {
  // Interpreter::evalBinary after the short-circuit forms (which are
  // compiled to jumps).
  auto OpK = static_cast<BinaryOpKind>(OpKRaw);
  if (L.Kind == Value::VK::Ptr || R.Kind == Value::VK::Ptr ||
      L.Kind == Value::VK::FnPtr || R.Kind == Value::VK::FnPtr) {
    switch (OpK) {
    case BinaryOpKind::Add:
      if (L.Kind == Value::VK::Ptr)
        return Value::ofPtr(advancePtr(L.Ptr, R.asInt()));
      return Value::ofPtr(advancePtr(R.Ptr, L.asInt()));
    case BinaryOpKind::Sub:
      if (L.Kind == Value::VK::Ptr && R.Kind == Value::VK::Ptr) {
        if (L.Ptr.Array && L.Ptr.Array == R.Ptr.Array)
          return Value::ofInt(intSub(L.Ptr.Index, R.Ptr.Index));
        fail("difference of pointers into different arrays");
      }
      return Value::ofPtr(advancePtr(L.Ptr, intNeg(R.asInt())));
    case BinaryOpKind::EQ:
      if (L.Kind == Value::VK::FnPtr || R.Kind == Value::VK::FnPtr)
        return Value::ofBool(L.Fn == R.Fn);
      return Value::ofBool(L.Ptr.Pointee == R.Ptr.Pointee);
    case BinaryOpKind::NE:
      if (L.Kind == Value::VK::FnPtr || R.Kind == Value::VK::FnPtr)
        return Value::ofBool(L.Fn != R.Fn);
      return Value::ofBool(L.Ptr.Pointee != R.Ptr.Pointee);
    case BinaryOpKind::LT:
    case BinaryOpKind::GT:
    case BinaryOpKind::LE:
    case BinaryOpKind::GE: {
      if (L.Ptr.Array && L.Ptr.Array == R.Ptr.Array) {
        long long A = L.Ptr.Index, B = R.Ptr.Index;
        switch (OpK) {
        case BinaryOpKind::LT:
          return Value::ofBool(A < B);
        case BinaryOpKind::GT:
          return Value::ofBool(A > B);
        case BinaryOpKind::LE:
          return Value::ofBool(A <= B);
        default:
          return Value::ofBool(A >= B);
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
  switch (OpK) {
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
  case BinaryOpKind::EQ:
    if (L.Kind == Value::VK::MemberPtr || R.Kind == Value::VK::MemberPtr)
      return Value::ofBool(L.Member == R.Member);
    return Value::ofBool(UseDouble ? L.asDouble() == R.asDouble()
                                   : L.asInt() == R.asInt());
  case BinaryOpKind::NE:
    if (L.Kind == Value::VK::MemberPtr || R.Kind == Value::VK::MemberPtr)
      return Value::ofBool(L.Member != R.Member);
    return Value::ofBool(UseDouble ? L.asDouble() != R.asDouble()
                                   : L.asInt() != R.asInt());
  case BinaryOpKind::LAnd:
  case BinaryOpKind::LOr:
    break;
  }
  fail("unhandled binary operator");
}

Value VM::compoundCompute(const Value &Old, unsigned OpKRaw, const Value &R) {
  // Interpreter::evalAssign compound tail.
  auto OpK = static_cast<AssignOpKind>(OpKRaw);
  if (Old.Kind == Value::VK::Ptr) {
    long long Delta = R.asInt();
    if (OpK == AssignOpKind::SubAssign)
      Delta = intNeg(Delta);
    else if (OpK != AssignOpKind::AddAssign)
      fail("invalid compound assignment on pointer");
    return Value::ofPtr(advancePtr(Old.Ptr, Delta));
  }
  bool UseDouble =
      Old.Kind == Value::VK::Double || R.Kind == Value::VK::Double;
  switch (OpK) {
  case AssignOpKind::AddAssign:
    return UseDouble ? Value::ofDouble(Old.asDouble() + R.asDouble())
                     : Value::ofInt(intAdd(Old.asInt(), R.asInt()));
  case AssignOpKind::SubAssign:
    return UseDouble ? Value::ofDouble(Old.asDouble() - R.asDouble())
                     : Value::ofInt(intSub(Old.asInt(), R.asInt()));
  case AssignOpKind::MulAssign:
    return UseDouble ? Value::ofDouble(Old.asDouble() * R.asDouble())
                     : Value::ofInt(intMul(Old.asInt(), R.asInt()));
  case AssignOpKind::DivAssign:
    if (UseDouble) {
      if (R.asDouble() == 0.0)
        fail("floating division by zero");
      return Value::ofDouble(Old.asDouble() / R.asDouble());
    }
    if (R.asInt() == 0)
      fail("integer division by zero");
    if (intDivOverflows(Old.asInt(), R.asInt()))
      fail("integer division overflow");
    return Value::ofInt(Old.asInt() / R.asInt());
  case AssignOpKind::RemAssign:
    if (R.asInt() == 0)
      fail("integer remainder by zero");
    return Value::ofInt(intRem(Old.asInt(), R.asInt()));
  case AssignOpKind::Assign:
    break;
  }
  fail("unreachable plain assignment");
}

Storage *VM::stringStorage(uint32_t SiteIdx) {
  if (Storage *S = Strings[SiteIdx])
    return S;
  const StringLiteralExpr *SL = Mod.StringSites[SiteIdx];
  Storage *Arr = Arena.createArray(nullptr, nullptr);
  for (char C : SL->value()) {
    Storage *CS = Arena.createScalar();
    CS->V = Value::ofChar(C);
    Arr->Elems.push_back(CS);
  }
  Storage *Nul = Arena.createScalar();
  Nul->V = Value::ofChar(0);
  Arr->Elems.push_back(Nul);
  Strings[SiteIdx] = Arr;
  return Arr;
}

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//

#if defined(__GNUC__) || defined(__clang__)
#define DMM_VM_CGOTO 1
#else
#define DMM_VM_CGOTO 0
#endif

Value VM::execCode(const FuncEntry &FE, size_t RBase, size_t LBase,
                   Storage *This, const ClassDecl *DispatchClass,
                   bool MostDerived) {
  const Insn *Code = FE.Code.data();
  size_t PC = 0;
  // Cached frame windows; MUST be reloaded (VM_RELOAD) after any
  // handler that can recurse into execFunction and resize the stacks.
  Value *R = Regs.data() + RBase;
  Storage **LS = Locals.data() + LBase;
  const Insn *I = nullptr;

#define VM_RELOAD()                                                          \
  (R = Regs.data() + RBase, LS = Locals.data() + LBase)

#if DMM_VM_CGOTO
  // Direct-threaded dispatch: one indirect jump per instruction. The
  // table is in exact Op enum order.
  static const void *const JumpTable[] = {
      &&Lbl_LoadK,      &&Lbl_Move,       &&Lbl_ConvOp,    &&Lbl_Str,
      &&Lbl_BoolOp,     &&Lbl_Jmp,        &&Lbl_JmpF,      &&Lbl_JmpT,
      &&Lbl_JmpNMD,     &&Lbl_Fail,       &&Lbl_LocPtr,    &&Lbl_LdLoc,
      &&Lbl_LSet,       &&Lbl_DeclScalar, &&Lbl_DeclRefVar,
      &&Lbl_DestroyLoc, &&Lbl_GlobPtr,    &&Lbl_GlobPtrPub,
      &&Lbl_GDeclScalar, &&Lbl_GDeclRef,  &&Lbl_GBind,     &&Lbl_GPublish,
      &&Lbl_GMarkObj,   &&Lbl_ThisOp,     &&Lbl_ArrowChk,  &&Lbl_DotChk,
      &&Lbl_FieldPlace, &&Lbl_MemPtrPlace, &&Lbl_IdxArr,   &&Lbl_IdxPtr,
      &&Lbl_DerefP,     &&Lbl_Decay,      &&Lbl_LoadSc,    &&Lbl_LoadNA,
      &&Lbl_RawV,       &&Lbl_StoreAt,    &&Lbl_Neg,       &&Lbl_NotOp,
      &&Lbl_BitNot,     &&Lbl_AddrTake,   &&Lbl_AddrIdxA,  &&Lbl_AddrIdxP,
      &&Lbl_ChkSub,     &&Lbl_IncDec,     &&Lbl_Bin,       &&Lbl_AddII,
      &&Lbl_SubII,      &&Lbl_MulII,      &&Lbl_CmpII,     &&Lbl_Compound,
      &&Lbl_CompoundR,  &&Lbl_IncDecR,    &&Lbl_CastPtr,   &&Lbl_Call,
      &&Lbl_CallM,      &&Lbl_CallV,      &&Lbl_CallI,     &&Lbl_ChkFn,
      &&Lbl_VDisp,      &&Lbl_Ret,        &&Lbl_RetUnit,   &&Lbl_AllocObj,
      &&Lbl_CtorCall,   &&Lbl_CtorElems,  &&Lbl_ArrLocal,  &&Lbl_ArrNew,
      &&Lbl_NewScal0,   &&Lbl_NewScalI,   &&Lbl_DeleteOp,  &&Lbl_CopyInit,
      &&Lbl_CopyAsgn,   &&Lbl_JmpCmpII,   &&Lbl_LdFld,     &&Lbl_StFld,
      &&Lbl_DivII,      &&Lbl_RemII,
  };
#define VM_CASE(name) Lbl_##name
#define VM_NEXT()                                                            \
  do {                                                                       \
    if (++Steps > Options.MaxSteps)                                          \
      fail("step limit exceeded");                                           \
    I = &Code[PC++];                                                         \
    goto *JumpTable[static_cast<size_t>(I->Opcode)];                         \
  } while (0)
  VM_NEXT();
#else
#define VM_CASE(name) case Op::name
#define VM_NEXT() continue
  for (;;) {
    if (++Steps > Options.MaxSteps)
      fail("step limit exceeded");
    I = &Code[PC++];
    switch (I->Opcode) {
#endif

  VM_CASE(LoadK) : { R[I->A] = Mod.Consts[I->X]; }
  VM_NEXT();

  VM_CASE(Move) : { R[I->A] = R[I->B]; }
  VM_NEXT();

  VM_CASE(ConvOp) : { R[I->A] = convert(R[I->B], static_cast<Conv>(I->C)); }
  VM_NEXT();

  VM_CASE(Str) : {
    Storage *Arr = stringStorage(I->X);
    Pointer P;
    P.Array = Arr;
    P.Index = 0;
    P.Pointee = Arr->Elems.front();
    R[I->A] = Value::ofPtr(P);
  }
  VM_NEXT();

  VM_CASE(BoolOp) : { R[I->A] = Value::ofBool(R[I->B].asBool()); }
  VM_NEXT();

  VM_CASE(Jmp) : { PC = I->X; }
  VM_NEXT();

  VM_CASE(JmpF) : {
    if (!R[I->A].asBool())
      PC = I->X;
  }
  VM_NEXT();

  VM_CASE(JmpT) : {
    if (R[I->A].asBool())
      PC = I->X;
  }
  VM_NEXT();

  VM_CASE(JmpNMD) : {
    if (!MostDerived)
      PC = I->X;
  }
  VM_NEXT();

  VM_CASE(Fail) : { fail(Mod.Msgs[I->X]); }
  VM_NEXT();

  VM_CASE(LocPtr) : { R[I->A] = Value::ofPtr({LS[I->B]}); }
  VM_NEXT();

  VM_CASE(LdLoc) : { R[I->A] = loadOrDecay(LS[I->B]); }
  VM_NEXT();

  VM_CASE(LSet) : { LS[I->A] = R[I->B].Ptr.Pointee; }
  VM_NEXT();

  VM_CASE(DeclScalar) : {
    Storage *S = Arena.createScalar();
    S->V = convert(R[I->B], static_cast<Conv>(I->C));
    LS[I->A] = S;
  }
  VM_NEXT();

  VM_CASE(DeclRefVar) : { LS[I->A] = R[I->B].Ptr.Pointee; }
  VM_NEXT();

  VM_CASE(DestroyLoc) : {
    destroyCompleteObject(LS[I->A]);
    VM_RELOAD();
  }
  VM_NEXT();

  VM_CASE(GlobPtr) : {
    Storage *S = GS[I->B];
    if (!S)
      fail(Mod.Msgs[I->X]);
    R[I->A] = Value::ofPtr({S});
  }
  VM_NEXT();

  VM_CASE(GlobPtrPub) : {
    Storage *S = GP[I->B];
    if (!S)
      fail(Mod.Msgs[I->X]);
    R[I->A] = Value::ofPtr({S});
  }
  VM_NEXT();

  VM_CASE(GDeclScalar) : {
    Storage *S = Arena.createScalar();
    S->V = convert(R[I->B], static_cast<Conv>(I->C));
    GS[I->A] = S;
  }
  VM_NEXT();

  VM_CASE(GDeclRef) : { GS[I->A] = R[I->B].Ptr.Pointee; }
  VM_NEXT();

  VM_CASE(GBind) : { GS[I->A] = R[I->B].Ptr.Pointee; }
  VM_NEXT();

  VM_CASE(GPublish) : { GP[I->A] = GS[I->A]; }
  VM_NEXT();

  VM_CASE(GMarkObj) : { GlobalObjects.push_back(R[I->A].Ptr.Pointee); }
  VM_NEXT();

  VM_CASE(ThisOp) : {
    if (!This)
      fail(Mod.Msgs[I->X]);
    R[I->A] = Value::ofPtr({This});
  }
  VM_NEXT();

  VM_CASE(ArrowChk) : {
    const Value &V = R[I->A];
    if (V.Kind != Value::VK::Ptr || V.Ptr.isNull())
      fail("member access through null or non-pointer");
    if (V.Ptr.Pointee->Kind != Storage::SK::Object)
      fail("'->' on pointer to non-object");
  }
  VM_NEXT();

  VM_CASE(DotChk) : {
    // Dot on an rvalue base: any non-null pointer passes (the tree
    // does not require object kind here).
    const Value &V = R[I->A];
    if (V.Kind != Value::VK::Ptr || V.Ptr.isNull())
      fail("member access on non-object value");
  }
  VM_NEXT();

  VM_CASE(FieldPlace) : {
    Storage *S = R[I->B].Ptr.Pointee;
    Storage *FS = nullptr;
    if (S && S->Kind == Storage::SK::Object && I->C < S->Slots.size()) {
      Storage *Cand = S->Slots[I->C];
      // Colors are shared across unrelated classes: the slot must
      // actually realize the requested field.
      if (Cand && Cand->OwnerField == Mod.FieldTable[I->D])
        FS = Cand;
    }
    if (!FS)
      fail(Mod.Msgs[I->X]);
    R[I->A] = Value::ofPtr({FS});
  }
  VM_NEXT();

  VM_CASE(MemPtrPlace) : {
    const Value &PM = R[I->C];
    if (PM.Kind != Value::VK::MemberPtr || !PM.Member)
      fail("'.*' through null pointer-to-member");
    Storage *S = R[I->B].Ptr.Pointee;
    Storage *FS = nullptr;
    if (S && S->Kind == Storage::SK::Object) {
      auto It = Mod.FieldColor.find(PM.Member);
      if (It != Mod.FieldColor.end() && It->second < S->Slots.size()) {
        Storage *Cand = S->Slots[It->second];
        if (Cand && Cand->OwnerField == PM.Member)
          FS = Cand;
      }
    }
    if (!FS)
      fail("object has no member for pointer-to-member access");
    R[I->A] = Value::ofPtr({FS});
  }
  VM_NEXT();

  VM_CASE(IdxArr) : {
    Storage *Arr = R[I->B].Ptr.Pointee;
    long long Index = R[I->C].asInt();
    if (Index < 0 || static_cast<size_t>(Index) >= Arr->Elems.size())
      fail("array index out of bounds");
    R[I->A] = Value::ofPtr({Arr->Elems[static_cast<size_t>(Index)]});
  }
  VM_NEXT();

  VM_CASE(IdxPtr) : {
    const Value &P = R[I->B];
    if (P.Kind != Value::VK::Ptr || P.Ptr.isNull())
      fail("subscript of null pointer");
    long long Index = R[I->C].asInt();
    if (!P.Ptr.Array) {
      if (Index != 0)
        fail("pointer arithmetic on non-array pointer");
      R[I->A] = Value::ofPtr({P.Ptr.Pointee});
    } else {
      long long Abs = intAdd(P.Ptr.Index, Index);
      if (Abs < 0 ||
          static_cast<size_t>(Abs) >= P.Ptr.Array->Elems.size())
        fail("pointer subscript out of bounds");
      R[I->A] =
          Value::ofPtr({P.Ptr.Array->Elems[static_cast<size_t>(Abs)]});
    }
  }
  VM_NEXT();

  VM_CASE(DerefP) : {
    const Value &V = R[I->B];
    if (V.Kind != Value::VK::Ptr || V.Ptr.isNull())
      fail("dereference of null pointer");
    R[I->A] = Value::ofPtr({V.Ptr.Pointee});
  }
  VM_NEXT();

  VM_CASE(Decay) : { R[I->A] = loadOrDecay(R[I->B].Ptr.Pointee); }
  VM_NEXT();

  VM_CASE(LoadSc) : { R[I->A] = loadScalar(R[I->B].Ptr.Pointee); }
  VM_NEXT();

  VM_CASE(LoadNA) : {
    // Deallocation-argument load: alive/kind checked, no attribution
    // (Interpreter::evalDeallocArg).
    Storage *S = R[I->B].Ptr.Pointee;
    if (!S->Alive)
      fail("read from destroyed object");
    if (S->Kind != Storage::SK::Scalar)
      fail("scalar read from aggregate storage");
    R[I->A] = S->V;
  }
  VM_NEXT();

  VM_CASE(RawV) : { R[I->A] = R[I->B].Ptr.Pointee->V; }
  VM_NEXT();

  VM_CASE(StoreAt) : {
    storeScalar(R[I->A].Ptr.Pointee, R[I->B], static_cast<Conv>(I->C));
  }
  VM_NEXT();

  VM_CASE(Neg) : {
    const Value &V = R[I->B];
    R[I->A] = V.Kind == Value::VK::Double ? Value::ofDouble(-V.asDouble())
                                          : Value::ofInt(intNeg(V.asInt()));
  }
  VM_NEXT();

  VM_CASE(NotOp) : { R[I->A] = Value::ofBool(!R[I->B].asBool()); }
  VM_NEXT();

  VM_CASE(BitNot) : { R[I->A] = Value::ofInt(~R[I->B].asInt()); }
  VM_NEXT();

  VM_CASE(AddrTake) : {
    Storage *S = R[I->A].Ptr.Pointee;
    if (Options.Profiler && S->OwnerField)
      Options.Profiler->recordAddrTaken(S->ObjectID, S->OwnerField);
  }
  VM_NEXT();

  VM_CASE(AddrIdxA) : {
    // &arr[i] keeps array provenance; the address-taken event fires
    // even for an out-of-bounds index (evalUnary AddrOf).
    Storage *Arr = R[I->B].Ptr.Pointee;
    long long Index = R[I->C].asInt();
    Pointer P;
    P.Array = Arr;
    P.Index = Index;
    P.Pointee = (Index >= 0 &&
                 static_cast<size_t>(Index) < Arr->Elems.size())
                    ? Arr->Elems[static_cast<size_t>(Index)]
                    : nullptr;
    if (Options.Profiler && Arr->OwnerField)
      Options.Profiler->recordAddrTaken(Arr->ObjectID, Arr->OwnerField);
    R[I->A] = Value::ofPtr(P);
  }
  VM_NEXT();

  VM_CASE(AddrIdxP) : {
    const Value &BaseV = R[I->B];
    long long Index = intAdd(BaseV.Ptr.Index, R[I->C].asInt());
    if (!BaseV.Ptr.Array) {
      R[I->A] = Value::ofPtr({BaseV.Ptr.Pointee});
    } else {
      Pointer P;
      P.Array = BaseV.Ptr.Array;
      P.Index = Index;
      P.Pointee = (Index >= 0 &&
                   static_cast<size_t>(Index) < P.Array->Elems.size())
                      ? P.Array->Elems[static_cast<size_t>(Index)]
                      : nullptr;
      if (Options.Profiler && P.Array->OwnerField)
        Options.Profiler->recordAddrTaken(P.Array->ObjectID,
                                          P.Array->OwnerField);
      R[I->A] = Value::ofPtr(P);
    }
  }
  VM_NEXT();

  VM_CASE(ChkSub) : {
    if (R[I->A].Kind != Value::VK::Ptr)
      fail("subscript of non-pointer");
  }
  VM_NEXT();

  VM_CASE(IncDec) : {
    Storage *S = R[I->B].Ptr.Pointee;
    Value Old = loadScalar(S);
    long long Delta = (I->C & 1) ? 1 : -1;
    Value New;
    if (Old.Kind == Value::VK::Ptr)
      New = Value::ofPtr(advancePtr(Old.Ptr, Delta));
    else if (Old.Kind == Value::VK::Double)
      New = Value::ofDouble(Old.asDouble() + Delta);
    else
      New = Value::ofInt(intAdd(Old.asInt(), Delta));
    storeScalar(S, New, static_cast<Conv>(I->D));
    R[I->A] = (I->C & 2) ? New : Old;
  }
  VM_NEXT();

  VM_CASE(Bin) : { R[I->A] = binaryOp(R[I->B], I->C, R[I->D]); }
  VM_NEXT();

  // The int fast-path handlers write Kind/IntVal in place instead of
  // constructing a full Value: stale Double/Ptr fields are unobservable
  // once Kind says Int/Bool, and the destination may alias an operand,
  // so the result is computed before anything is stored.

  VM_CASE(AddII) : {
    long long V = intAdd(
        intAdd(R[I->B].IntVal,
               (I->C & 1) ? Mod.Consts[I->X].IntVal : R[I->D].IntVal),
        I->E);
    Value &Dv = R[I->A];
    Dv.Kind = Value::VK::Int;
    Dv.IntVal = V;
  }
  VM_NEXT();

  VM_CASE(SubII) : {
    long long V = intSub(
        R[I->B].IntVal,
        (I->C & 1) ? Mod.Consts[I->X].IntVal : R[I->D].IntVal);
    Value &Dv = R[I->A];
    Dv.Kind = Value::VK::Int;
    Dv.IntVal = V;
  }
  VM_NEXT();

  VM_CASE(MulII) : {
    long long V = intMul(
        R[I->B].IntVal,
        (I->C & 1) ? Mod.Consts[I->X].IntVal : R[I->D].IntVal);
    Value &Dv = R[I->A];
    Dv.Kind = Value::VK::Int;
    Dv.IntVal = V;
  }
  VM_NEXT();

  VM_CASE(CmpII) : {
    long long A = R[I->B].IntVal;
    long long B = (I->E & 1) ? Mod.Consts[I->X].IntVal : R[I->D].IntVal;
    bool V = false;
    switch (I->C) {
    case 0: V = A < B; break;
    case 1: V = A > B; break;
    case 2: V = A <= B; break;
    case 3: V = A >= B; break;
    case 4: V = A == B; break;
    default: V = A != B; break;
    }
    Value &Dv = R[I->A];
    Dv.Kind = Value::VK::Bool;
    Dv.IntVal = V ? 1 : 0;
  }
  VM_NEXT();

  VM_CASE(Compound) : {
    Storage *S = R[I->B].Ptr.Pointee;
    Value New = compoundCompute(R[I->C], I->E, R[I->D]);
    storeScalar(S, New, static_cast<Conv>(I->X));
    R[I->A] = New;
  }
  VM_NEXT();

  VM_CASE(CompoundR) : {
    Value New = compoundCompute(R[I->C], I->E, R[I->D]);
    R[I->B] = convert(New, static_cast<Conv>(I->X));
    R[I->A] = New;
  }
  VM_NEXT();

  VM_CASE(IncDecR) : {
    Value Old = R[I->B];
    long long Delta = (I->C & 1) ? 1 : -1;
    Value New;
    if (Old.Kind == Value::VK::Ptr)
      New = Value::ofPtr(advancePtr(Old.Ptr, Delta));
    else if (Old.Kind == Value::VK::Double)
      New = Value::ofDouble(Old.asDouble() + Delta);
    else
      New = Value::ofInt(intAdd(Old.asInt(), Delta));
    R[I->B] = convert(New, static_cast<Conv>(I->D));
    R[I->A] = (I->C & 2) ? New : Old;
  }
  VM_NEXT();

  VM_CASE(CastPtr) : {
    const Value &V = R[I->B];
    if (V.Kind == Value::VK::Ptr || V.Kind == Value::VK::FnPtr)
      R[I->A] = V;
    else if (V.asInt() == 0)
      R[I->A] = Value::nullPtr();
    else
      fail("cannot materialize a pointer from an integer");
  }
  VM_NEXT();

  VM_CASE(Call) : {
    Value Ret = doCall(I->X, nullptr, RBase + I->B, I->C);
    VM_RELOAD();
    R[I->A] = Ret;
  }
  VM_NEXT();

  VM_CASE(CallM) : {
    Storage *Recv = R[I->D].Ptr.Pointee;
    Value Ret = doCall(I->X, Recv, RBase + I->B, I->C);
    VM_RELOAD();
    R[I->A] = Ret;
  }
  VM_NEXT();

  VM_CASE(CallV) : {
    Storage *Recv = R[I->D].Ptr.Pointee;
    auto FnIdx = static_cast<uint32_t>(R[I->E].IntVal);
    Value Ret = doCall(FnIdx, Recv, RBase + I->B, I->C);
    VM_RELOAD();
    R[I->A] = Ret;
  }
  VM_NEXT();

  VM_CASE(CallI) : {
    const FunctionDecl *FD = R[I->D].Fn;
    auto It = Mod.FuncIdx.find(FD);
    if (It == Mod.FuncIdx.end())
      fail("indirect call through null function pointer");
    Value Ret = doCall(It->second, nullptr, RBase + I->B, I->C);
    VM_RELOAD();
    R[I->A] = Ret;
  }
  VM_NEXT();

  VM_CASE(ChkFn) : {
    const Value &V = R[I->A];
    if (V.Kind != Value::VK::FnPtr || !V.Fn)
      fail("indirect call through null function pointer");
  }
  VM_NEXT();

  VM_CASE(VDisp) : {
    Storage *Recv = R[I->B].Ptr.Pointee;
    const ClassDecl *Dyn = Recv->Class;
    // A method body calling a virtual on its own receiver dispatches
    // against the construction/destruction class.
    if (DispatchClass && This == Recv)
      Dyn = DispatchClass;
    VCache &C = VCaches[I->X];
    if (C.Class != Dyn) {
      const VCallSite &Site = Mod.VSites[I->X];
      const MethodDecl *Target = CH.resolveVirtualCall(Dyn, Site.Method);
      if (!Target)
        fail(Site.FailMsg);
      C.Class = Dyn;
      C.Fn = Mod.FuncIdx.at(Target);
    }
    R[I->A] = Value::ofInt(C.Fn);
  }
  VM_NEXT();

  VM_CASE(Ret) : { return R[I->A]; }

  VM_CASE(RetUnit) : { return Value::unit(); }

  VM_CASE(AllocObj) : {
    uint64_t ID = NextObjectID++;
    Storage *Obj = allocObject(I->X, nullptr, ID);
    if (!I->C || Options.TraceStackObjects) {
      const ClassPlan &P = Mod.Classes[I->X];
      if (Options.Profiler)
        Options.Profiler->registerObjects(P.Decl, 1, ID, Mod.Sites[I->B]);
      if (uint64_t TID = traceAlloc(I->X, 1))
        TraceIDs[Obj] = TID;
      if (Options.Profiler)
        Options.Profiler->recordAllocEvent(ID);
    }
    R[I->A] = Value::ofPtr({Obj});
  }
  VM_NEXT();

  VM_CASE(CtorCall) : {
    Storage *Obj = R[I->A].Ptr.Pointee;
    uint32_t CtorIdx = I->E == NoFunc16 ? NoFunc : I->E;
    constructVia(Obj, I->X, CtorIdx, RBase + I->B, I->C, I->D != 0);
    VM_RELOAD();
  }
  VM_NEXT();

  VM_CASE(CtorElems) : {
    Storage *Arr = R[I->A].Ptr.Pointee;
    uint32_t A0 = Mod.Classes[I->X].Arity0Ctor;
    for (Storage *ES : Arr->Elems)
      constructVia(ES, I->X, A0, 0, 0, true);
    VM_RELOAD();
  }
  VM_NEXT();

  VM_CASE(ArrLocal) : {
    // Interpreter::execVarDecl array branch (Gate always set): the
    // ObjectID range reserves one ID per element; hooks apply to
    // class-element arrays only, registration before the element
    // loop, trace/alloc-event after.
    const ArrayDesc &D = Mod.ArrayDescs[I->X];
    Storage *Arr = Arena.createArray(D.ElemType, nullptr);
    uint64_t ID = NextObjectID;
    NextObjectID += std::max<uint64_t>(D.Count, 1);
    Arr->ObjectID = ID;
    bool Hooks = !D.Gate || Options.TraceStackObjects;
    if (D.ElemClassIdx >= 0 && Hooks && Options.Profiler)
      Options.Profiler->registerObjects(
          Mod.Classes[D.ElemClassIdx].Decl, D.Count, ID,
          Mod.Sites[D.SiteIdx]);
    for (uint64_t J = 0; J != D.Count; ++J) {
      if (D.ElemClassIdx >= 0) {
        Storage *ES =
            allocObject(static_cast<uint32_t>(D.ElemClassIdx), nullptr,
                        ID + J);
        Arr->Elems.push_back(ES);
        constructVia(ES, static_cast<uint32_t>(D.ElemClassIdx),
                     Mod.Classes[D.ElemClassIdx].Arity0Ctor, 0, 0, true);
      } else {
        Storage *ES = Arena.createScalar();
        ES->V = Mod.Consts[D.ZeroConstIdx];
        Arr->Elems.push_back(ES);
      }
    }
    if (D.ElemClassIdx >= 0 && Hooks) {
      if (uint64_t TID =
              traceAlloc(static_cast<uint32_t>(D.ElemClassIdx), D.Count))
        TraceIDs[Arr] = TID;
      if (Options.Profiler)
        Options.Profiler->recordAllocEvent(ID);
    }
    VM_RELOAD();
    R[I->A] = Value::ofPtr({Arr});
  }
  VM_NEXT();

  VM_CASE(ArrNew) : {
    // Interpreter::evalNew array branch: hooks are ungated and fire
    // BEFORE the element constructor loop.
    long long Count = R[I->B].asInt();
    if (Count < 0)
      fail("negative array-new extent");
    const ArrayDesc &D = Mod.ArrayDescs[I->X];
    Storage *Arr = Arena.createArray(D.ElemType, nullptr);
    uint64_t ID = NextObjectID;
    NextObjectID += std::max<uint64_t>(static_cast<uint64_t>(Count), 1);
    Arr->ObjectID = ID;
    if (D.ElemClassIdx >= 0) {
      if (Options.Profiler)
        Options.Profiler->registerObjects(
            Mod.Classes[D.ElemClassIdx].Decl,
            static_cast<uint64_t>(Count), ID, Mod.Sites[D.SiteIdx]);
      if (uint64_t TID = traceAlloc(static_cast<uint32_t>(D.ElemClassIdx),
                                    static_cast<uint64_t>(Count)))
        TraceIDs[Arr] = TID;
      if (Options.Profiler)
        Options.Profiler->recordAllocEvent(ID);
    }
    for (long long J = 0; J != Count; ++J) {
      if (D.ElemClassIdx >= 0) {
        Storage *ES =
            allocObject(static_cast<uint32_t>(D.ElemClassIdx), nullptr,
                        ID + static_cast<uint64_t>(J));
        Arr->Elems.push_back(ES);
        constructVia(ES, static_cast<uint32_t>(D.ElemClassIdx),
                     Mod.Classes[D.ElemClassIdx].Arity0Ctor, 0, 0, true);
      } else {
        Storage *ES = Arena.createScalar();
        ES->V = Mod.Consts[D.ZeroConstIdx];
        Arr->Elems.push_back(ES);
      }
    }
    VM_RELOAD();
    Pointer P;
    P.Array = Arr;
    P.Index = 0;
    P.Pointee = Arr->Elems.empty() ? nullptr : Arr->Elems.front();
    R[I->A] = Value::ofPtr(P);
  }
  VM_NEXT();

  VM_CASE(NewScal0) : {
    Storage *S = Arena.createScalar();
    S->V = Mod.Consts[I->X];
    R[I->A] = Value::ofPtr({S});
  }
  VM_NEXT();

  VM_CASE(NewScalI) : {
    Storage *S = Arena.createScalar();
    S->V = convert(R[I->B], static_cast<Conv>(I->C));
    R[I->A] = Value::ofPtr({S});
  }
  VM_NEXT();

  VM_CASE(DeleteOp) : {
    Value V = R[I->A];
    if (V.Kind != Value::VK::Ptr)
      fail("delete of non-pointer");
    if (!V.Ptr.isNull()) {
      Storage *Target =
          (I->B && V.Ptr.Array) ? V.Ptr.Array : V.Ptr.Pointee;
      if (Target->Kind == Storage::SK::Scalar) {
        if (!Target->Alive)
          fail("double delete");
        Target->Alive = false;
      } else {
        destroyCompleteObject(Target);
        VM_RELOAD();
      }
    }
  }
  VM_NEXT();

  VM_CASE(CopyInit) : {
    // Copy-initialization silently skips a non-object source
    // (execVarDecl class branch).
    Storage *Obj = R[I->A].Ptr.Pointee;
    const Value &Src = R[I->B];
    if (Src.Kind == Value::VK::Ptr && !Src.Ptr.isNull())
      copyTree(Obj, Src.Ptr.Pointee, /*InitForm=*/true);
  }
  VM_NEXT();

  VM_CASE(CopyAsgn) : {
    const Value &Src = R[I->C];
    if (Src.Kind != Value::VK::Ptr || Src.Ptr.isNull())
      fail("class assignment from non-object");
    copyTree(R[I->B].Ptr.Pointee, Src.Ptr.Pointee, /*InitForm=*/false);
    R[I->A] = R[I->C];
  }
  VM_NEXT();

  VM_CASE(JmpCmpII) : {
    long long A = R[I->A].IntVal;
    long long B = (I->E & 2) ? Mod.Consts[I->D].IntVal : R[I->D].IntVal;
    bool V = false;
    switch (I->C) {
    case 0: V = A < B; break;
    case 1: V = A > B; break;
    case 2: V = A <= B; break;
    case 3: V = A >= B; break;
    case 4: V = A == B; break;
    default: V = A != B; break;
    }
    if (V == ((I->E & 1) != 0))
      PC = I->X;
  }
  VM_NEXT();

  // LdFld/StFld repeat FieldPlace's slot check verbatim: colors are
  // shared across unrelated classes, so the slot must realize the
  // requested field.

  VM_CASE(LdFld) : {
    Storage *S = R[I->B].Ptr.Pointee;
    Storage *FS = nullptr;
    if (S && S->Kind == Storage::SK::Object && I->C < S->Slots.size()) {
      Storage *Cand = S->Slots[I->C];
      if (Cand && Cand->OwnerField == Mod.FieldTable[I->D])
        FS = Cand;
    }
    if (!FS)
      fail(Mod.Msgs[I->X]);
    R[I->A] = loadOrDecay(FS);
  }
  VM_NEXT();

  VM_CASE(StFld) : {
    Storage *S = R[I->B].Ptr.Pointee;
    Storage *FS = nullptr;
    if (S && S->Kind == Storage::SK::Object && I->C < S->Slots.size()) {
      Storage *Cand = S->Slots[I->C];
      if (Cand && Cand->OwnerField == Mod.FieldTable[I->D])
        FS = Cand;
    }
    if (!FS)
      fail(Mod.Msgs[I->X]);
    storeScalar(FS, R[I->A], static_cast<Conv>(I->E));
  }
  VM_NEXT();

  VM_CASE(DivII) : {
    long long B =
        (I->C & 1) ? Mod.Consts[I->X].IntVal : R[I->D].IntVal;
    if (B == 0)
      fail("integer division by zero");
    if (intDivOverflows(R[I->B].IntVal, B))
      fail("integer division overflow");
    long long V = R[I->B].IntVal / B;
    Value &Dv = R[I->A];
    Dv.Kind = Value::VK::Int;
    Dv.IntVal = V;
  }
  VM_NEXT();

  VM_CASE(RemII) : {
    long long B =
        (I->C & 1) ? Mod.Consts[I->X].IntVal : R[I->D].IntVal;
    if (B == 0)
      fail("integer remainder by zero");
    long long V = intRem(R[I->B].IntVal, B);
    Value &Dv = R[I->A];
    Dv.Kind = Value::VK::Int;
    Dv.IntVal = V;
  }
  VM_NEXT();

#if !DMM_VM_CGOTO
    }
    fail("vm: corrupt opcode");
  }
#endif
#undef VM_CASE
#undef VM_NEXT
#undef VM_RELOAD
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

ExecResult VM::run(const FunctionDecl *Main) {
  Span Timer("interp"); // Same span name as the tree-walker.
  ExecResult Result;
  GS.assign(Mod.Globals.size(), nullptr);
  GP.assign(Mod.Globals.size(), nullptr);
  Strings.assign(Mod.StringSites.size(), nullptr);
  VCaches.assign(Mod.VSites.size(), VCache{});
  try {
    // Global initialization runs inside one synthetic guest frame,
    // like the tree-walker's global-init frame.
    if (Mod.GlobalInitIdx != NoFunc)
      execFunction(Mod.Functions[Mod.GlobalInitIdx], nullptr, nullptr,
                   /*MostDerived=*/false, /*ArgAbs=*/0, /*Argc=*/0);
    auto It = Mod.FuncIdx.find(Main);
    if (It == Mod.FuncIdx.end())
      fail("call to undefined function '" + Main->qualifiedName() + "'");
    Value Exit = doCall(It->second, nullptr, /*ArgAbs=*/0, /*Argc=*/0);
    // Global teardown runs inside a frame of its own.
    ++Depth;
    for (auto OI = GlobalObjects.rbegin(); OI != GlobalObjects.rend(); ++OI)
      destroyCompleteObject(*OI);
    --Depth;
    Result.Completed = true;
    Result.ExitCode = Exit.asInt();
  } catch (const VMError &E) {
    Result.Completed = false;
    Result.Error = E.Message;
    logDebug("vm run failed", {kv("error", E.Message), kv("steps", Steps)});
  }
  Result.Output = std::move(Output);
  Result.Steps = Steps;
  Telemetry::count("interp.steps", Steps);
  Telemetry::count("interp.calls", NumCalls);
  Telemetry::count("interp.objects", NumCompleteObjects);
  return Result;
}

} // namespace vm
} // namespace dmm
