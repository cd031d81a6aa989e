//===-- vm/VM.h - Bytecode virtual machine ----------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode execution engine: compiles each function on its first
/// entry (vm/BytecodeCompiler.h) and runs it with a direct-threaded
/// dispatch loop (computed goto under GCC/Clang, a switch otherwise).
/// The VM is a drop-in replacement for the tree-walking Interpreter:
/// it takes the same InterpOptions, fires the same allocation-trace /
/// read-write / profiler hooks at the same points in the same order,
/// produces the same output, exit code, and runtime-error messages, and
/// emits the same "interp" span and telemetry counters. Only
/// ExecResult::Steps differs (bytecode instructions, not AST visits) —
/// the differential `engine` fuzz oracle compares everything else byte
/// for byte.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_VM_VM_H
#define DMM_VM_VM_H

#include "interp/Interpreter.h"
#include "interp/Memory.h"
#include "vm/BytecodeCompiler.h"

#include <optional>
#include <string>
#include <vector>

namespace dmm {
namespace vm {

class VM {
public:
  /// Does the module-level compile under a "vm.compile" span; function
  /// bodies compile on first entry, inside "interp" (the span the
  /// tree-walker also runs in). A capacity limit of the bytecode ends
  /// the run as a runtime error, never the host.
  VM(const ASTContext &Ctx, const ClassHierarchy &CH,
     InterpOptions Options = {}, CompilerConfig Config = {});
  ~VM();

  /// Executes the program starting at \p Main. Single-shot, like
  /// Interpreter::run.
  ExecResult run(const FunctionDecl *Main);

  /// The module (tests inspect constant interning, jump targets, and
  /// member-slot resolution). Before run() only the global initializer
  /// has code.
  const Module &module() const { return Mod; }

private:
  struct VMError;

  /// How to create the storage of one field slot at allocation time
  /// (Interpreter::allocateFieldStorage, precompiled per class); the
  /// field and its color are the ClassSlots entry at the same index.
  struct SlotAlloc {
    enum class K : uint8_t { Scalar, Class, ClassArray, ScalarArray } Kind =
        K::Scalar;
    uint32_t ClassI = NoClass; ///< Class/ClassArray: Classes[] index.
    uint64_t Count = 0;        ///< Arrays: static extent.
    Value Zero;                ///< Scalar(+array) zero value.
  };

  [[noreturn]] void fail(const std::string &Message);
  void step();

  Storage *allocObject(uint32_t ClassI, const FieldDecl *Owner, uint64_t ID);
  Storage *allocSlot(const SlotAlloc &SA, const FieldDecl *Field,
                     uint64_t ID);
  void traceAlloc(Storage *Obj, uint32_t ClassI, uint64_t Count);
  void traceFree(Storage *Obj);
  void markDead(Storage *S);
  void destroyCompleteObject(Storage *Obj);
  void destroyObj(Storage *Obj, uint32_t ClassI, bool MostDerived);
  void constructVia(Storage *Obj, uint32_t ClassI, uint32_t CtorIdx,
                    size_t ArgAbs, uint16_t Argc, bool MostDerived);
  void defaultConstructMembers(Storage *Obj, uint32_t ClassI,
                               bool MostDerived);

  Value loadScalar(Storage *S);
  void storeScalar(Storage *S, const Value &V, Conv C);
  Value loadOrDecay(Storage *S);
  static Value convert(const Value &V, Conv C);

  /// Interpreter::copyMembers.
  void copyTree(Storage *Dst, Storage *Src, bool InitForm);

  /// Compiles FE's body; a capacity limit fails the run.
  void compile(const FuncEntry &FE);
  Value doCall(uint32_t FnIdx, Storage *This, size_t ArgAbs, uint16_t Argc);
  Value callBuiltin(const FuncEntry &FE, size_t ArgAbs);
  /// DispatchClass is the Classes index a constructor or destructor
  /// body dispatches its own receiver's virtual calls against, NoClass
  /// in every other frame.
  Value execFunction(const FuncEntry &FE, Storage *This,
                     uint32_t DispatchClass, bool MostDerived, size_t ArgAbs,
                     uint16_t Argc);
  Value execCode(const FuncEntry &FE, size_t RBase, size_t LBase,
                 Storage *This, uint32_t DispatchClass, bool MostDerived);
  /// Fills (or re-reads) class ClassI's dispatch-table entry for
  /// VMethods[MethodI]; fails with the method's message when the call
  /// cannot resolve.
  uint32_t resolveVirtual(uint32_t ClassI, uint32_t MethodI);

  Value binaryOp(const Value &L, unsigned OpK, const Value &R);
  Value compoundCompute(const Value &Old, unsigned OpK, const Value &R);
  Storage *stringStorage(uint32_t SiteIdx);

  const ClassHierarchy &CH;
  InterpOptions Options;
  Module Mod;
  std::optional<ModuleCompiler> Comp;
  std::string CompileError; ///< Module-level compile failure, if any.
  MemoryArena Arena;
  /// By class index, parallel to its ClassSlots::SlotFields.
  std::vector<std::vector<SlotAlloc>> AllocPlans;

  /// Shared register/local stacks (frames take [base, base+N) windows).
  std::vector<Value> Regs;
  std::vector<Storage *> Locals;

  std::vector<Storage *> GS; ///< Globals bound mid-declaration.
  std::vector<Storage *> GP; ///< Globals published after declaration.
  std::vector<Storage *> GlobalObjects; ///< Teardown list.
  std::vector<Storage *> Strings;       ///< Parallel to StringSites.
  /// Parallel to Classes: VMethods index -> Functions index, filled on
  /// the first virtual call of that method on that class.
  std::vector<std::vector<uint32_t>> DispatchTables;

  std::string Output;
  uint64_t Steps = 0;
  uint64_t NumCalls = 0;
  uint64_t NumCompleteObjects = 0;
  uint64_t NextObjectID = 1;
  uint64_t NumCompiled = 0; ///< Functions compiled on first entry.
  uint64_t NumVResolves = 0; ///< Dispatch-table entries filled.
  size_t Depth = 0; ///< Guest frame count (the tree-walker's Stack.size()).
};

} // namespace vm
} // namespace dmm

#endif // DMM_VM_VM_H
