//===-- interp/Interpreter.h - MiniC++ interpreter --------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree-walking interpreter for MiniC++. It plays the role of the
/// paper's instrumented execution (§4.3): while running a program it can
/// record an allocation trace (for the dynamic measurements of Table 2 /
/// Figure 4) and how often each data member is read or written
/// (FieldHeat, the ground truth for the analysis-soundness tests).
///
/// Semantics notes:
///  - objects are modeled as storage graphs, not flat bytes; union
///    members therefore do not alias each other (reads of a member other
///    than the last one written return that member's own last value);
///  - virtual dispatch during construction/destruction uses the class of
///    the constructor/destructor being run, as in C++;
///  - scalars are zero-initialized for determinism;
///  - execution is bounded by a step budget so runaway guest programs
///    terminate with an error instead of hanging the host.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_INTERP_INTERPRETER_H
#define DMM_INTERP_INTERPRETER_H

#include "ast/ASTContext.h"
#include "ast/Expr.h"
#include "hierarchy/ClassHierarchy.h"
#include "hierarchy/ObjectLayout.h"
#include "interp/Memory.h"
#include "interp/ObjectModel.h"
#include "interp/Value.h"
#include "trace/AllocationTrace.h"

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace dmm {

class ShadowProfiler;

/// The one record of member accesses at run time, indexed by
/// FieldDecl::declID(). Feeds the --check soundness test, the --measure
/// "heat" report, and the fuzz oracles. Both engines size an attached
/// record to ASTContext::numDecls() when they are constructed.
struct FieldHeat {
  std::vector<uint64_t> Reads;
  std::vector<uint64_t> Writes;
  /// Every member read at least once, in order of first read. The
  /// soundness oracle (src/fuzz) cites this order, so an unsound
  /// classification is tied to the earliest offending read.
  std::vector<const FieldDecl *> FirstReads;

  void noteRead(const FieldDecl *F) {
    if (Reads[F->declID()]++ == 0)
      FirstReads.push_back(F);
  }
  void noteWrite(const FieldDecl *F) { ++Writes[F->declID()]; }

  bool operator==(const FieldHeat &) const = default;
};

/// Execution configuration and instrumentation sinks.
struct InterpOptions {
  /// Abort with an error after this many evaluation steps.
  uint64_t MaxSteps = 100'000'000;

  /// When set, object allocations/deallocations are recorded here. Stack
  /// and global objects are included (the paper's measurements cover all
  /// objects created during execution).
  AllocationTrace *Trace = nullptr;

  /// Record member loads that only feed delete/free. Off by default:
  /// such loads are exempt from read attribution, mirroring the
  /// analysis' deallocation exemption (paper footnote 3).
  bool CountDeallocationReads = false;
  /// When set, receives every member read and write at run time. Reads
  /// feeding only delete/free follow CountDeallocationReads.
  FieldHeat *Heat = nullptr;
  /// When set, the shadow-memory profiler is driven on every object
  /// allocation/deallocation, member read/write, and address-take
  /// (profiler/ShadowProfiler.h), so the profiler and the trace see
  /// identical event streams. Null costs one branch per event.
  ShadowProfiler *Profiler = nullptr;
};

/// The outcome of an execution.
struct ExecResult {
  bool Completed = false; ///< main returned (vs. runtime error).
  std::string Error;      ///< Error message when !Completed.
  long long ExitCode = 0; ///< main's return value.
  std::string Output;     ///< Everything written by print_* builtins.
  uint64_t Steps = 0;
};

/// Executes a resolved MiniC++ program.
class Interpreter {
public:
  Interpreter(const ASTContext &Ctx, const ClassHierarchy &CH,
              InterpOptions Options = {});
  ~Interpreter(); // Out of line: Frame is incomplete here.

  /// Runs the program: global initialization, \p Main, global teardown.
  ExecResult run(const FunctionDecl *Main);

private:
  struct Frame;
  struct Flow;
  struct RuntimeError;

  /// \name Object lifecycle
  /// @{
  Storage *allocateObject(const ClassDecl *CD, const FieldDecl *Owner,
                          uint64_t ObjectID);
  Storage *allocateFieldStorage(const FieldDecl *F, uint64_t ObjectID);
  /// Storage::member at F's slot color.
  Storage *memberOf(Storage *Obj, const FieldDecl *F) const {
    return Obj->member(F, Objects.fieldColor(F));
  }
  void traceAlloc(Storage *Obj, const ClassDecl *CD, uint64_t Count);
  void traceFree(Storage *Obj);
  void construct(Storage *Obj, const ClassDecl *CD,
                 const ConstructorDecl *Ctor, std::vector<Value> Args,
                 bool MostDerived);
  void defaultConstructBasesAndMembers(Storage *Obj, const ClassDecl *CD,
                                       bool MostDerived);
  void destroy(Storage *Obj, const ClassDecl *CD, bool MostDerived);
  /// Runs the full destruction (dynamic dispatch from the object's
  /// class) and records the trace event.
  void destroyCompleteObject(Storage *Obj);
  /// Memberwise copy of Src into Dst: each slot of Dst's class is copied
  /// from the node at the same color of Src only when that node realizes
  /// the same field. \p InitForm (copy-initialization) attributes each
  /// scalar write to the profiler only; class assignment also counts it
  /// in FieldHeat.
  void copyMembers(Storage *Dst, Storage *Src, bool InitForm);
  /// @}

  /// \name Execution
  /// @{
  Value callFunction(const FunctionDecl *FD, Storage *This,
                     std::vector<Value> Args,
                     const ClassDecl *DispatchClass);
  Flow execStmt(const Stmt *S);
  Flow execCompound(const CompoundStmt *CS);
  void execVarDecl(const VarDecl *V, std::vector<Storage *> &BlockObjects);
  /// @}

  /// \name Expression evaluation
  /// @{
  Value evalRValue(const Expr *E);
  Storage *evalLValue(const Expr *E);
  /// Evaluates the object of a member access (handles `.` vs `->`).
  Storage *evalObjectBase(const Expr *Base, bool IsArrow);
  Value loadScalar(Storage *S);
  void storeScalar(Storage *S, const Value &V, const Type *DeclaredTy);
  Value callBuiltin(const FunctionDecl *FD, std::vector<Value> &Args);
  Value evalCall(const CallExpr *Call);
  Value evalNew(const NewExpr *N);
  void evalDelete(const DeleteExpr *D);
  /// Evaluates a delete/free argument: a (cast-stripped) direct member
  /// access is loaded without read attribution.
  Value evalDeallocArg(const Expr *E);
  Value evalUnary(const UnaryExpr *E);
  Value evalBinary(const BinaryExpr *E);
  Value evalAssign(const AssignExpr *E);
  /// Loads a scalar, or decays an object/array storage to a pointer.
  Value loadOrDecay(Storage *S);
  Value convertForStore(const Value &V, const Type *Ty) const;
  /// @}

  void step();
  [[noreturn]] void fail(const std::string &Message);

  Storage *stringStorage(const StringLiteralExpr *S);
  Storage *globalStorage(const VarDecl *GV);

  const ASTContext &Ctx;
  const ClassHierarchy &CH;
  InterpOptions Options;
  LayoutEngine Layout;
  ObjectModel Objects;

  MemoryArena Arena;
  /// A deque so references to a frame stay valid while nested calls
  /// push and pop deeper frames (vector reallocation would dangle).
  std::deque<Frame> Stack;
  std::unordered_map<const VarDecl *, Storage *> Globals;
  std::unordered_map<const Expr *, Storage *> StringLiterals;

  std::string Output;
  uint64_t Steps = 0;
  /// Telemetry tallies (plain members so the per-event cost is an
  /// increment; flushed to the active Telemetry when run() finishes).
  uint64_t NumCalls = 0;
  uint64_t NumCompleteObjects = 0;
  uint64_t NextObjectID = 1;
};

} // namespace dmm

#endif // DMM_INTERP_INTERPRETER_H
