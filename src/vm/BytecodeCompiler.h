//===-- vm/BytecodeCompiler.h - AST to bytecode lowering --------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a resolved MiniC++ AST to the register bytecode of
/// vm/Bytecode.h. The compiler mirrors the tree-walking interpreter's
/// evaluation order exactly — every observable event (member
/// read/write attribution, allocation-trace records, profiler events,
/// ObjectID assignment, runtime-error messages) happens at the same
/// point in the same order, which is what lets the `engine` fuzz
/// oracle demand byte-identical behaviour from both executors.
///
/// Key lowering decisions (docs/VM.md):
///  - member accesses compile to the fields' slot colors in the shared
///    object model (interp/ObjectModel.h), dense Storage::Children
///    indices valid for any receiver class;
///  - scalar locals whose address is never taken (no AddrOf, never
///    bound to a reference) live in registers; everything else is
///    storage-backed so use-after-free and attribution semantics match
///    the interpreter;
///  - constructors compile to bytecode functions carrying the
///    initializer prologue (virtual bases behind a most-derived guard,
///    then non-virtual bases, then members); destructor bodies compile
///    to plain functions invoked by the runtime destruction walk;
///  - global initialization compiles to one synthetic function using
///    a two-stage binding (bound vs. published) that reproduces the
///    interpreter's global-frame visibility rules.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_VM_BYTECODECOMPILER_H
#define DMM_VM_BYTECODECOMPILER_H

#include "vm/Bytecode.h"

#include <memory>

namespace dmm {

class ASTContext;
class ClassHierarchy;

namespace vm {

struct CompilerConfig {
  /// Deliberate miscompile for harness self-validation: integer `+`
  /// lowers to an off-by-one add (docs/TESTING.md fault injection).
  bool FaultAddOffByOne = false;
};

class Compiler;

/// Compiles a program into a Module one function at a time. The
/// constructor does the module-level work: the function index (every
/// entry, none of them compiled yet), the globals, the object model,
/// class plans and the global-initializer function. compileFunction
/// then lowers one function body when the VM first enters it (Alive2's
/// `Interpreter::start(IR::Function&)` shape). Total: any construct the
/// interpreter would reject at run time lowers to code failing with the
/// identical message at the identical point. A capacity limit of the
/// bytecode (registers, locals, fields, allocation sites, a 16-bit ctor
/// index) throws std::runtime_error and leaves the entry uncompiled.
/// When \p CountDeallocationReads is set
/// (InterpOptions::CountDeallocationReads), delete/free arguments are
/// loaded with normal read attribution.
class ModuleCompiler {
public:
  ModuleCompiler(const ASTContext &Ctx, const ClassHierarchy &CH, Module &M,
                 bool CountDeallocationReads,
                 const CompilerConfig &Config = {});
  ~ModuleCompiler();

  /// Compiles the body of M.Functions[FnIdx], a defined non-builtin
  /// function, unless it is already compiled; sets FuncEntry::Compiled.
  void compileFunction(uint32_t FnIdx);

private:
  std::unique_ptr<Compiler> Impl;
};

} // namespace vm
} // namespace dmm

#endif // DMM_VM_BYTECODECOMPILER_H
