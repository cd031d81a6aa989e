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
#include <stdexcept>

namespace dmm {
namespace vm {

struct VM::VMError {
  std::string Message;
};

/// Dispatch-table entries: not yet resolved, and resolution failed.
constexpr uint32_t VUnfilled = NoFunc;
constexpr uint32_t VFailed = NoFunc - 1;

//===----------------------------------------------------------------------===//
// Construction: module-level compile, then allocation recipes
//===----------------------------------------------------------------------===//

VM::VM(const ASTContext &Ctx, const ClassHierarchy &CH, InterpOptions Options,
       CompilerConfig Config)
    : CH(CH), Options(Options) {
  if (Options.Heat) {
    Options.Heat->Reads.resize(Ctx.numDecls());
    Options.Heat->Writes.resize(Ctx.numDecls());
  }
  {
    // Module-level work only: each function body compiles when
    // execFunction first enters it, and that time falls in "interp".
    Span Timer("vm.compile");
    try {
      Comp.emplace(Ctx, CH, Mod, Options.CountDeallocationReads, Config);
    } catch (const std::runtime_error &E) {
      CompileError = E.what(); // Reported by run() as a runtime error.
    }
  }
  // Per-class recipe for allocateFieldStorage, parallel to the class's
  // ClassSlots::SlotFields.
  AllocPlans.resize(Mod.Classes.size());
  for (uint32_t CI = 0; CI != Mod.Classes.size(); ++CI) {
    const ClassSlots &CS = Mod.Objects.slots(CI);
    for (const FieldDecl *F : CS.SlotFields) {
      SlotAlloc SA;
      const Type *Ty = F->type();
      if (const ClassDecl *CD = Ty->asClassDecl()) {
        SA.Kind = SlotAlloc::K::Class;
        SA.ClassI = Mod.Objects.classIndex(CD);
      } else if (const auto *AT = dyn_cast<ArrayType>(Ty)) {
        SA.Count = AT->size();
        if (const ClassDecl *Elem = AT->element()->asClassDecl()) {
          SA.Kind = SlotAlloc::K::ClassArray;
          SA.ClassI = Mod.Objects.classIndex(Elem);
        } else {
          SA.Kind = SlotAlloc::K::ScalarArray;
          SA.Zero = zeroValue(AT->element());
        }
      } else {
        SA.Kind = SlotAlloc::K::Scalar;
        SA.Zero = zeroValue(Ty);
      }
      AllocPlans[CI].push_back(SA);
    }
  }
  DispatchTables.resize(Mod.Classes.size());
}

VM::~VM() = default;

void VM::fail(const std::string &Message) { throw VMError{Message}; }

/// Interpreter::callFunction's message for a call without a body.
static std::string undefinedMsg(const FuncEntry &FE) {
  return "call to undefined function '" +
         (FE.IsBuiltin ? FE.Decl->name() : FE.Decl->qualifiedName()) + "'";
}

/// The tree-walker's argument-count mismatch message for \p FE.
static std::string argCountMsg(const FuncEntry &FE) {
  if (FE.IsCtor)
    return "constructor argument count mismatch for '" +
           cast<ConstructorDecl>(FE.Decl)->parent()->name() + "'";
  return "argument count mismatch calling '" + FE.Decl->qualifiedName() +
         "'";
}

void VM::step() {
  if (++Steps > Options.MaxSteps)
    fail("step limit exceeded");
}

//===----------------------------------------------------------------------===//
// Storage construction and destruction
//===----------------------------------------------------------------------===//

Storage *VM::allocSlot(const SlotAlloc &SA, const FieldDecl *Field,
                       uint64_t ID) {
  switch (SA.Kind) {
  case SlotAlloc::K::Class:
    return allocObject(SA.ClassI, Field, ID);
  case SlotAlloc::K::ClassArray: {
    Storage *Arr = Arena.createArray(SA.ClassI, Field);
    Arr->ObjectID = ID;
    for (uint64_t J = 0; J != SA.Count; ++J)
      Arr->Children.push_back(allocObject(SA.ClassI, Field, ID));
    return Arr;
  }
  case SlotAlloc::K::ScalarArray: {
    Storage *Arr = Arena.createArray(NoClass, Field);
    Arr->ObjectID = ID;
    for (uint64_t J = 0; J != SA.Count; ++J) {
      Storage *S = Arena.createScalar(Field);
      S->V = SA.Zero;
      S->ObjectID = ID;
      Arr->Children.push_back(S);
    }
    return Arr;
  }
  case SlotAlloc::K::Scalar:
    break;
  }
  Storage *S = Arena.createScalar(Field);
  S->V = SA.Zero;
  S->ObjectID = ID;
  return S;
}

Storage *VM::allocObject(uint32_t ClassI, const FieldDecl *Owner,
                         uint64_t ID) {
  const std::string &IncompleteMsg = Mod.Classes[ClassI].IncompleteMsg;
  if (!IncompleteMsg.empty())
    fail(IncompleteMsg);
  if (!Owner)
    ++NumCompleteObjects;
  Storage *Obj = Arena.createObject(ClassI, Owner);
  Obj->ObjectID = ID;
  const ClassSlots &CS = Mod.Objects.slots(ClassI);
  const std::vector<SlotAlloc> &Plan = AllocPlans[ClassI];
  Obj->Children.assign(CS.NumSlots, nullptr);
  for (size_t K = 0; K != Plan.size(); ++K)
    Obj->Children[CS.SlotColors[K]] = allocSlot(Plan[K], CS.SlotFields[K], ID);
  return Obj;
}

void VM::traceAlloc(Storage *Obj, uint32_t ClassI, uint64_t Count) {
  if (!Options.Trace)
    return;
  const ClassSlots &CS = Mod.Objects.slots(ClassI);
  Options.Trace->recordAlloc(Obj->ObjectID, CS.Decl, Count,
                             Count * CS.CompleteSize);
  Obj->Traced = true;
}

void VM::traceFree(Storage *Obj) {
  if (!Obj->Traced)
    return;
  Options.Trace->recordFree(Obj->ObjectID);
  Obj->Traced = false;
}

void VM::markDead(Storage *S) {
  S->Alive = false;
  for (Storage *C : S->Children)
    if (C)
      markDead(C);
}

void VM::destroyObj(Storage *Obj, uint32_t ClassI, bool MostDerived) {
  step(); // Interpreter::destroy
  const ClassPlan &P = Mod.Classes[ClassI];
  if (P.DtorBody != NoFunc)
    execFunction(Mod.Functions[P.DtorBody], Obj, ClassI,
                 /*MostDerived=*/false, /*ArgAbs=*/0, /*Argc=*/0);
  // Members in reverse declaration order, then bases in reverse.
  for (auto It = P.Members.rbegin(); It != P.Members.rend(); ++It) {
    if (It->Kind == MemberPlan::MK::Class) {
      destroyObj(Obj->Children[It->SlotColor], It->ElemClassIdx, true);
    } else if (It->Kind == MemberPlan::MK::ClassArray) {
      Storage *FS = Obj->Children[It->SlotColor];
      for (auto EI = FS->Children.rbegin(); EI != FS->Children.rend(); ++EI)
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
    destroyObj(Obj, Obj->ClassIdx, true);
  } else if (Obj->Kind == Storage::SK::Array && Obj->ClassIdx != NoClass) {
    for (auto It = Obj->Children.rbegin(); It != Obj->Children.rend(); ++It)
      destroyObj(*It, Obj->ClassIdx, true);
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
  if (Argc != FE.Decl->params().size())
    fail(argCountMsg(FE));
  // The constructor body carries the initializer prologue; its frame
  // dispatches virtuals against the class under construction.
  execFunction(FE, Obj, ClassI, MostDerived, ArgAbs, Argc);
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
      constructVia(Obj->Children[MP.SlotColor], MP.ElemClassIdx,
                   Mod.Classes[MP.ElemClassIdx].Arity0Ctor, 0, 0, true);
    } else if (MP.Kind == MemberPlan::MK::ClassArray) {
      Storage *FS = Obj->Children[MP.SlotColor];
      uint32_t A0 = Mod.Classes[MP.ElemClassIdx].Arity0Ctor;
      for (Storage *ES : FS->Children)
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
    if (Options.Heat)
      Options.Heat->noteRead(S->OwnerField);
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
    if (Options.Heat)
      Options.Heat->noteWrite(S->OwnerField);
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
  P.Pointee = S->Children.empty() ? nullptr : S->Children.front();
  return Value::ofPtr(P);
}

/// Interpreter::advancePointer — provenance-checked arithmetic.
static Pointer advancePtr(Pointer P, long long Delta) {
  if (!P.Array)
    return P;
  P.Index = intAdd(P.Index, Delta);
  if (P.Index >= 0 &&
      static_cast<size_t>(P.Index) < P.Array->Children.size())
    P.Pointee = P.Array->Children[static_cast<size_t>(P.Index)];
  else
    P.Pointee = nullptr;
  return P;
}

//===----------------------------------------------------------------------===//
// Memberwise copies
//===----------------------------------------------------------------------===//

void VM::copyTree(Storage *Dst, Storage *Src, bool InitForm) {
  if (Dst->Kind == Storage::SK::Scalar && Src->Kind == Storage::SK::Scalar) {
    if (Dst->OwnerField) {
      if (InitForm) {
        // Copy-initialization (execVarDecl): profiler write only.
        if (Options.Profiler)
          Options.Profiler->recordWrite(Dst->ObjectID, Dst->OwnerField);
      } else {
        // Class assignment (evalAssign): full write attribution.
        if (Options.Heat)
          Options.Heat->noteWrite(Dst->OwnerField);
        if (Options.Profiler)
          Options.Profiler->recordWrite(Dst->ObjectID, Dst->OwnerField);
      }
    }
    Dst->V = loadScalar(Src);
    return;
  }
  if (Dst->Kind == Storage::SK::Object) {
    const ClassSlots &CS = Mod.Objects.slots(Dst->ClassIdx);
    for (size_t K = 0; K != CS.SlotFields.size(); ++K)
      if (Storage *From = Src->member(CS.SlotFields[K], CS.SlotColors[K]))
        copyTree(Dst->Children[CS.SlotColors[K]], From, InitForm);
    return;
  }
  if (Dst->Kind == Storage::SK::Array && Src->Kind == Storage::SK::Array)
    for (size_t E = 0; E < Dst->Children.size() && E < Src->Children.size();
         ++E)
      copyTree(Dst->Children[E], Src->Children[E], InitForm);
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
    Pointer P = A0.asPtr();
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
    Pointer P = A0.asPtr();
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
  fail(undefinedMsg(FE));
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
    fail(undefinedMsg(FE));
  if (Argc != FE.Decl->params().size())
    fail(argCountMsg(FE));
  return execFunction(FE, This, NoClass, /*MostDerived=*/false, ArgAbs,
                      Argc);
}

void VM::compile(const FuncEntry &FE) {
  try {
    Comp->compileFunction(static_cast<uint32_t>(&FE - Mod.Functions.data()));
  } catch (const std::runtime_error &E) {
    fail(E.what());
  }
  ++NumCompiled;
  // The new body may name string literals.
  Strings.resize(Mod.StringSites.size(), nullptr);
}

uint32_t VM::resolveVirtual(uint32_t ClassI, uint32_t MethodI) {
  std::vector<uint32_t> &Table = DispatchTables[ClassI];
  if (Table.size() <= MethodI)
    Table.resize(Mod.VMethods.size(), VUnfilled);
  const VMethod &VMeth = Mod.VMethods[MethodI];
  if (Table[MethodI] == VUnfilled) {
    ++NumVResolves;
    const MethodDecl *Target =
        CH.resolveVirtualCall(Mod.Objects.slots(ClassI).Decl, VMeth.Method);
    Table[MethodI] = Target ? Mod.funcIndex(Target) : VFailed;
  }
  if (Table[MethodI] == VFailed)
    fail(VMeth.FailMsg);
  return Table[MethodI];
}

Value VM::execFunction(const FuncEntry &FE, Storage *This,
                       uint32_t DispatchClass, bool MostDerived,
                       size_t ArgAbs, uint16_t Argc) {
  (void)Argc; // Arity is validated by the caller (doCall/constructVia).
  if (!FE.Compiled)
    compile(FE);
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
      return Value::ofPtr(advancePtr(R.asPtr(), L.asInt()));
    case BinaryOpKind::Sub:
      if (L.Kind == Value::VK::Ptr && R.Kind == Value::VK::Ptr) {
        if (L.Ptr.Array && L.Ptr.Array == R.Ptr.Array)
          return Value::ofInt(intSub(L.Ptr.Index, R.Ptr.Index));
        fail("difference of pointers into different arrays");
      }
      return Value::ofPtr(advancePtr(L.asPtr(), intNeg(R.asInt())));
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
      return Value::ofBool(L.asMember() == R.asMember());
    return Value::ofBool(UseDouble ? L.asDouble() == R.asDouble()
                                   : L.asInt() == R.asInt());
  case BinaryOpKind::NE:
    if (L.Kind == Value::VK::MemberPtr || R.Kind == Value::VK::MemberPtr)
      return Value::ofBool(L.asMember() != R.asMember());
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
  Storage *Arr = Arena.createArray(NoClass);
  for (char C : SL->value()) {
    Storage *CS = Arena.createScalar();
    CS->V = Value::ofChar(C);
    Arr->Children.push_back(CS);
  }
  Storage *Nul = Arena.createScalar();
  Nul->V = Value::ofChar(0);
  Arr->Children.push_back(Nul);
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
                   Storage *This, uint32_t DispatchClass, bool MostDerived) {
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
    P.Pointee = Arr->Children.front();
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
    Storage *FS = S ? S->member(Mod.FieldTable[I->D], I->C) : nullptr;
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
    Storage *FS =
        S ? S->member(PM.Member, Mod.Objects.fieldColor(PM.Member)) : nullptr;
    if (!FS)
      fail("object has no member for pointer-to-member access");
    R[I->A] = Value::ofPtr({FS});
  }
  VM_NEXT();

  VM_CASE(IdxArr) : {
    Storage *Arr = R[I->B].Ptr.Pointee;
    long long Index = R[I->C].asInt();
    if (Index < 0 || static_cast<size_t>(Index) >= Arr->Children.size())
      fail("array index out of bounds");
    R[I->A] = Value::ofPtr({Arr->Children[static_cast<size_t>(Index)]});
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
          static_cast<size_t>(Abs) >= P.Ptr.Array->Children.size())
        fail("pointer subscript out of bounds");
      R[I->A] =
          Value::ofPtr({P.Ptr.Array->Children[static_cast<size_t>(Abs)]});
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
                 static_cast<size_t>(Index) < Arr->Children.size())
                    ? Arr->Children[static_cast<size_t>(Index)]
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
                   static_cast<size_t>(Index) < P.Array->Children.size())
                      ? P.Array->Children[static_cast<size_t>(Index)]
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
  // constructing a full Value. The rest of the payload keeps whatever
  // the register held before, which no accessor reads once Kind says
  // Int/Bool (asPtr and friends check Kind first). The destination may
  // alias an operand, so the result is computed before anything is
  // stored.

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
    // ChkFn has checked that R[D] is a non-null function pointer.
    uint32_t FnIdx = Mod.funcIndex(R[I->D].Fn);
    if (FnIdx == NoFunc)
      fail("indirect call through null function pointer");
    Value Ret = doCall(FnIdx, nullptr, RBase + I->B, I->C);
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
    if (Recv->Kind != Storage::SK::Object)
      fail("virtual call of '" + Mod.VMethods[I->X].Method->qualifiedName() +
           "' on a non-object receiver");
    // A constructor or destructor body calling a virtual on its own
    // receiver dispatches against the class under construction or
    // destruction.
    uint32_t Dyn = DispatchClass != NoClass && This == Recv
                       ? DispatchClass
                       : Recv->ClassIdx;
    const std::vector<uint32_t> &Table = DispatchTables[Dyn];
    uint32_t Fn = I->X < Table.size() ? Table[I->X] : VUnfilled;
    if (Fn >= VFailed)
      Fn = resolveVirtual(Dyn, I->X);
    R[I->A] = Value::ofInt(Fn);
  }
  VM_NEXT();

  VM_CASE(Ret) : { return R[I->A]; }

  VM_CASE(RetUnit) : { return Value::unit(); }

  VM_CASE(AllocObj) : {
    uint64_t ID = NextObjectID++;
    Storage *Obj = allocObject(I->X, nullptr, ID);
    if (Options.Profiler)
      Options.Profiler->registerObjects(Mod.Objects.slots(I->X).Decl, 1, ID,
                                        Mod.Sites[I->B]);
    traceAlloc(Obj, I->X, 1);
    if (Options.Profiler)
      Options.Profiler->recordAllocEvent(ID);
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
    for (Storage *ES : Arr->Children)
      constructVia(ES, I->X, A0, 0, 0, true);
    VM_RELOAD();
  }
  VM_NEXT();

  VM_CASE(ArrLocal) : {
    // Interpreter::execVarDecl array branch: the ObjectID range
    // reserves one ID per element; hooks apply to class-element arrays
    // only, registration before the element loop, trace/alloc-event
    // after.
    // A copy: constructors compiled in the loop may grow ArrayDescs.
    const ArrayDesc D = Mod.ArrayDescs[I->X];
    bool ClassElems = D.ElemClassIdx != NoClass;
    Storage *Arr = Arena.createArray(D.ElemClassIdx, nullptr);
    uint64_t ID = NextObjectID;
    NextObjectID += std::max<uint64_t>(D.Count, 1);
    Arr->ObjectID = ID;
    if (ClassElems && Options.Profiler)
      Options.Profiler->registerObjects(Mod.Objects.slots(D.ElemClassIdx).Decl,
                                        D.Count, ID, Mod.Sites[D.SiteIdx]);
    for (uint64_t J = 0; J != D.Count; ++J) {
      if (ClassElems) {
        Storage *ES = allocObject(D.ElemClassIdx, nullptr, ID + J);
        Arr->Children.push_back(ES);
        constructVia(ES, D.ElemClassIdx,
                     Mod.Classes[D.ElemClassIdx].Arity0Ctor, 0, 0, true);
      } else {
        Storage *ES = Arena.createScalar();
        ES->V = Mod.Consts[D.ZeroConstIdx];
        Arr->Children.push_back(ES);
      }
    }
    if (ClassElems) {
      traceAlloc(Arr, D.ElemClassIdx, D.Count);
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
    const ArrayDesc D = Mod.ArrayDescs[I->X]; // See ArrLocal.
    bool ClassElems = D.ElemClassIdx != NoClass;
    Storage *Arr = Arena.createArray(D.ElemClassIdx, nullptr);
    uint64_t ID = NextObjectID;
    NextObjectID += std::max<uint64_t>(static_cast<uint64_t>(Count), 1);
    Arr->ObjectID = ID;
    if (ClassElems) {
      if (Options.Profiler)
        Options.Profiler->registerObjects(
            Mod.Objects.slots(D.ElemClassIdx).Decl,
            static_cast<uint64_t>(Count), ID, Mod.Sites[D.SiteIdx]);
      traceAlloc(Arr, D.ElemClassIdx, static_cast<uint64_t>(Count));
      if (Options.Profiler)
        Options.Profiler->recordAllocEvent(ID);
    }
    for (long long J = 0; J != Count; ++J) {
      if (ClassElems) {
        Storage *ES = allocObject(D.ElemClassIdx, nullptr,
                                  ID + static_cast<uint64_t>(J));
        Arr->Children.push_back(ES);
        constructVia(ES, D.ElemClassIdx,
                     Mod.Classes[D.ElemClassIdx].Arity0Ctor, 0, 0, true);
      } else {
        Storage *ES = Arena.createScalar();
        ES->V = Mod.Consts[D.ZeroConstIdx];
        Arr->Children.push_back(ES);
      }
    }
    VM_RELOAD();
    Pointer P;
    P.Array = Arr;
    P.Index = 0;
    P.Pointee = Arr->Children.empty() ? nullptr : Arr->Children.front();
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

  // LdFld/StFld do FieldPlace's slot check (Storage::member).

  VM_CASE(LdFld) : {
    Storage *S = R[I->B].Ptr.Pointee;
    Storage *FS = S ? S->member(Mod.FieldTable[I->D], I->C) : nullptr;
    if (!FS)
      fail(Mod.Msgs[I->X]);
    R[I->A] = loadOrDecay(FS);
  }
  VM_NEXT();

  VM_CASE(StFld) : {
    Storage *S = R[I->B].Ptr.Pointee;
    Storage *FS = S ? S->member(Mod.FieldTable[I->D], I->C) : nullptr;
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
  try {
    if (!CompileError.empty())
      fail(CompileError);
    // Global initialization runs inside one synthetic guest frame,
    // like the tree-walker's global-init frame.
    if (Mod.GlobalInitIdx != NoFunc)
      execFunction(Mod.Functions[Mod.GlobalInitIdx], nullptr, NoClass,
                   /*MostDerived=*/false, /*ArgAbs=*/0, /*Argc=*/0);
    uint32_t MainIdx = Mod.funcIndex(Main);
    if (MainIdx == NoFunc)
      fail("call to undefined function '" + Main->qualifiedName() + "'");
    Value Exit = doCall(MainIdx, nullptr, /*ArgAbs=*/0, /*Argc=*/0);
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
  Telemetry::count("vm.functions_compiled", NumCompiled);
  Telemetry::count("vm.vcall_resolves", NumVResolves);
  return Result;
}

} // namespace vm
} // namespace dmm
