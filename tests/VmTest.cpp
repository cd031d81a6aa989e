//===-- tests/VmTest.cpp - Bytecode VM differential + unit tests ----------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode engine's correctness suite (docs/VM.md):
///
///  - unit tests over the compiled Module: constant-pool interning,
///    jump patching, member-offset (slot color) resolution, and
///    first-call compilation (VmLazy);
///  - differential tests running the same Compilation through the
///    tree-walking Interpreter and the VM, asserting byte-identical
///    output, exit code, error message, the FieldHeat access record
///    (first-read order, read and write counts), allocation-trace
///    events, and the full shadow-profiler summary. ExecResult::Steps
///    is deliberately NOT compared: the VM counts bytecode
///    instructions, the tree counts AST visits.
///  - virtual-dispatch tables (VmDispatch): differential runs that
///    also pin how many table entries vm.vcall_resolves counts.
///  - a sweep of the tests/corpus/ programs through both engines.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "callgraph/CallGraph.h"
#include "profiler/ShadowProfiler.h"
#include "telemetry/Telemetry.h"
#include "vm/VM.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace dmm;
using namespace dmm::test;

namespace {

//===----------------------------------------------------------------------===//
// Differential harness
//===----------------------------------------------------------------------===//

enum class Engine { Tree, Vm };

/// Everything one engine's execution makes observable.
struct EngineRun {
  ExecResult R;
  FieldHeat Heat;
  std::vector<TraceEvent> Events;
  ProfileSummary Prof;
};

EngineRun runEngine(Compilation &C, Engine E, const FieldSet &Dead) {
  EngineRun Run;
  AllocationTrace Trace;
  ShadowProfiler Prof(C.hierarchy(), Dead);
  InterpOptions IO;
  IO.Heat = &Run.Heat;
  IO.Trace = &Trace;
  IO.Profiler = &Prof;
  if (E == Engine::Vm) {
    vm::VM M(C.context(), C.hierarchy(), IO);
    Run.R = M.run(C.mainFunction());
  } else {
    Interpreter I(C.context(), C.hierarchy(), IO);
    Run.R = I.run(C.mainFunction());
  }
  Run.Events = Trace.events();
  Run.Prof = Prof.finalize(&C.SM);
  return Run;
}

/// Asserts that the tree-walker's run (\p T) and the VM's run (\p V)
/// are observationally identical (everything except Steps).
void expectSameRun(const EngineRun &T, const EngineRun &V) {
  EXPECT_EQ(T.R.Completed, V.R.Completed)
      << "tree error: " << T.R.Error << "\nvm error:   " << V.R.Error;
  EXPECT_EQ(T.R.Error, V.R.Error);
  EXPECT_EQ(T.R.ExitCode, V.R.ExitCode);
  EXPECT_EQ(T.R.Output, V.R.Output);

  const std::vector<const FieldDecl *> &TF = T.Heat.FirstReads,
                                       &VF = V.Heat.FirstReads;
  ASSERT_EQ(TF.size(), VF.size());
  for (size_t I = 0; I != TF.size(); ++I)
    EXPECT_EQ(TF[I], VF[I])
        << "first-read order diverges at #" << I << ": tree read "
        << TF[I]->qualifiedName() << ", vm read " << VF[I]->qualifiedName();
  EXPECT_EQ(T.Heat.Reads, V.Heat.Reads);
  EXPECT_EQ(T.Heat.Writes, V.Heat.Writes);

  ASSERT_EQ(T.Events.size(), V.Events.size());
  for (size_t I = 0; I != T.Events.size(); ++I) {
    const TraceEvent &A = T.Events[I], &B = V.Events[I];
    EXPECT_EQ(A.Kind, B.Kind) << "trace event #" << I;
    EXPECT_EQ(A.ObjectID, B.ObjectID) << "trace event #" << I;
    EXPECT_EQ(A.Class, B.Class) << "trace event #" << I;
    EXPECT_EQ(A.Count, B.Count) << "trace event #" << I;
    EXPECT_EQ(A.Bytes, B.Bytes) << "trace event #" << I;
    EXPECT_EQ(A.Time, B.Time) << "trace event #" << I;
  }

  EXPECT_TRUE(T.Prof.Metrics == V.Prof.Metrics)
      << "profiler dynamic metrics diverge: object_space "
      << T.Prof.Metrics.ObjectSpace << " vs " << V.Prof.Metrics.ObjectSpace
      << ", hwm " << T.Prof.Metrics.HighWaterMark << " vs "
      << V.Prof.Metrics.HighWaterMark;
  EXPECT_EQ(T.Prof.AllocEvents, V.Prof.AllocEvents);
  EXPECT_EQ(T.Prof.FreeEvents, V.Prof.FreeEvents);
  EXPECT_EQ(T.Prof.LeakedObjects, V.Prof.LeakedObjects);
  EXPECT_EQ(T.Prof.PeakAllocEvent, V.Prof.PeakAllocEvent);
  EXPECT_EQ(T.Prof.SnapshotStride, V.Prof.SnapshotStride);
  EXPECT_EQ(T.Prof.ReadBytes, V.Prof.ReadBytes);
  EXPECT_EQ(T.Prof.WrittenBytes, V.Prof.WrittenBytes);
  EXPECT_EQ(T.Prof.AddrTakenBytes, V.Prof.AddrTakenBytes);
  EXPECT_EQ(T.Prof.NeverReadBytes, V.Prof.NeverReadBytes);
  ASSERT_EQ(T.Prof.Snapshots.size(), V.Prof.Snapshots.size());
  for (size_t I = 0; I != T.Prof.Snapshots.size(); ++I) {
    const ProfileSnapshot &A = T.Prof.Snapshots[I], &B = V.Prof.Snapshots[I];
    EXPECT_EQ(A.AllocEvent, B.AllocEvent) << "snapshot #" << I;
    EXPECT_EQ(A.LiveBytes, B.LiveBytes) << "snapshot #" << I;
    EXPECT_EQ(A.LiveBytesNoDead, B.LiveBytesNoDead) << "snapshot #" << I;
    EXPECT_EQ(A.LiveObjects, B.LiveObjects) << "snapshot #" << I;
  }
  ASSERT_EQ(T.Prof.Sites.size(), V.Prof.Sites.size());
  for (size_t I = 0; I != T.Prof.Sites.size(); ++I) {
    const ProfileSiteRow &A = T.Prof.Sites[I], &B = V.Prof.Sites[I];
    EXPECT_EQ(A.File, B.File) << "site row #" << I;
    EXPECT_EQ(A.Line, B.Line) << "site row #" << I;
    EXPECT_EQ(A.Class, B.Class) << "site row #" << I;
    EXPECT_EQ(A.Member, B.Member) << "site row #" << I;
    EXPECT_EQ(A.Objects, B.Objects) << "site row #" << I;
    EXPECT_EQ(A.AllocBytes, B.AllocBytes) << "site row #" << I;
    EXPECT_EQ(A.WrittenBytes, B.WrittenBytes) << "site row #" << I;
    EXPECT_EQ(A.ReadBytes, B.ReadBytes) << "site row #" << I;
    EXPECT_EQ(A.AddrTakenBytes, B.AddrTakenBytes) << "site row #" << I;
    EXPECT_EQ(A.NeverReadBytes, B.NeverReadBytes) << "site row #" << I;
    EXPECT_EQ(A.StaticDead, B.StaticDead) << "site row #" << I;
  }
}

/// Compiles once, runs both engines over the same Compilation, and
/// asserts the runs are identical. The program must complete.
void expectEnginesAgree(const std::string &Source) {
  auto C = compileOK(Source);
  if (!C->Success)
    return;
  DeadMemberResult Dead = analyze(*C);
  EngineRun T = runEngine(*C, Engine::Tree, Dead.deadSet());
  EngineRun V = runEngine(*C, Engine::Vm, Dead.deadSet());
  EXPECT_TRUE(T.R.Completed) << "tree-walker aborted: " << T.R.Error;
  expectSameRun(T, V);
}

/// As expectEnginesAgree, but the program must abort at run time with
/// an error containing \p ErrorNeedle; the output prefix written before
/// the abort must also be byte-identical.
void expectEnginesAgreeOnError(const std::string &Source,
                               const std::string &ErrorNeedle) {
  auto C = compileOK(Source);
  if (!C->Success)
    return;
  DeadMemberResult Dead = analyze(*C);
  EngineRun T = runEngine(*C, Engine::Tree, Dead.deadSet());
  EngineRun V = runEngine(*C, Engine::Vm, Dead.deadSet());
  EXPECT_FALSE(T.R.Completed) << "expected a runtime error, got exit "
                              << T.R.ExitCode;
  EXPECT_NE(T.R.Error.find(ErrorNeedle), std::string::npos)
      << "tree error was: " << T.R.Error;
  expectSameRun(T, V);
}

//===----------------------------------------------------------------------===//
// Bytecode-compiler unit tests
//===----------------------------------------------------------------------===//

TEST(VmBytecode, ConstantPoolInternsLiterals) {
  auto C = compileOK(R"(
    double half() { return 2.5; }
    int main() {
      int a = 42;
      int b = 42;
      int c = 42;
      double d = 2.5;
      return a + b + c + (int)(d + half());
    }
  )");
  vm::VM M(C->context(), C->hierarchy());
  // Bodies compile on first entry: run so main and half have code.
  ASSERT_TRUE(M.run(C->mainFunction()).Completed);
  const vm::Module &Mod = M.module();
  int Int42 = 0, Double25 = 0;
  for (const Value &V : Mod.Consts) {
    if (V.Kind == Value::VK::Int && V.IntVal == 42)
      ++Int42;
    if (V.Kind == Value::VK::Double && V.DoubleVal == 2.5)
      ++Double25;
  }
  EXPECT_EQ(Int42, 1) << "the literal 42 must be pooled once";
  EXPECT_EQ(Double25, 1) << "the literal 2.5 must be pooled once, even "
                            "across functions";
}

TEST(VmBytecode, JumpTargetsArePatchedAndInBounds) {
  auto C = compileOK(R"(
    class K { public: int v; K() { v = 0; } };
    int pick(int n) {
      if (n < 0) { return -1; } else { return 1; }
    }
    int main() {
      K k;
      int total = 0;
      for (int i = 0; i < 4; i = i + 1) {
        int j = 0;
        while (j < i) {
          total = total + pick(j - 1);
          j = j + 1;
        }
      }
      bool both = total > 0 && total < 100;
      bool either = total < 0 || both;
      return either ? total : 0;
    }
  )");
  vm::VM M(C->context(), C->hierarchy());
  // Bodies compile on first entry: run so every function has code.
  ASSERT_TRUE(M.run(C->mainFunction()).Completed);
  size_t NumJumps = 0;
  for (const vm::FuncEntry &F : M.module().Functions) {
    for (const vm::Insn &I : F.Code) {
      switch (I.Opcode) {
      case vm::Op::Jmp:
      case vm::Op::JmpF:
      case vm::Op::JmpT:
      case vm::Op::JmpNMD:
      case vm::Op::JmpCmpII:
        ++NumJumps;
        EXPECT_NE(I.X, vm::NoTarget) << "unpatched jump in "
                                     << (F.Decl ? F.Decl->name()
                                                : "<global-init>");
        EXPECT_LT(I.X, F.Code.size())
            << "jump past end of " << (F.Decl ? F.Decl->name()
                                              : "<global-init>");
        break;
      default:
        break;
      }
    }
  }
  EXPECT_GT(NumJumps, 8u) << "the control-flow soup above must lower to "
                             "a healthy number of jumps";
}

TEST(VmBytecode, MemberOffsetsResolveToStableSlotColors) {
  auto C = compileOK(R"(
    class B { public: int b1; int b2; };
    class D : public B { public: int d1; };
    class Unrelated { public: int u1; };
    int main() {
      D d;
      d.b1 = 1; d.b2 = 2; d.d1 = 3;
      Unrelated u;
      u.u1 = 4;
      return d.b1 + d.b2 + d.d1 + u.u1;
    }
  )");
  vm::VM M(C->context(), C->hierarchy());
  const ObjectModel &OM = M.module().Objects;

  const FieldDecl *B1 = findField(*C, "B", "b1");
  const FieldDecl *B2 = findField(*C, "B", "b2");
  const FieldDecl *D1 = findField(*C, "D", "d1");
  ASSERT_TRUE(B1 && B2 && D1);

  // Every field referenced by the program has a module-wide color, and
  // co-located fields have distinct colors.
  ASSERT_NE(OM.fieldColor(B1), NoColor);
  ASSERT_NE(OM.fieldColor(B2), NoColor);
  ASSERT_NE(OM.fieldColor(D1), NoColor);
  uint32_t CB1 = OM.fieldColor(B1);
  uint32_t CB2 = OM.fieldColor(B2);
  uint32_t CD1 = OM.fieldColor(D1);
  EXPECT_NE(CB1, CB2);
  EXPECT_NE(CB1, CD1);
  EXPECT_NE(CB2, CD1);

  // The derived class's slot layout covers the inherited fields under
  // the SAME colors the base's layout uses — a compiled access through a
  // B* works unchanged on a D receiver.
  const ClassDecl *BD = findClass(*C, "B");
  const ClassDecl *DD = findClass(*C, "D");
  ASSERT_TRUE(BD && DD);
  ASSERT_TRUE(OM.classIndex(BD) != NoClass && OM.classIndex(DD) != NoClass);
  const ClassSlots &BP = OM.slots(OM.classIndex(BD));
  const ClassSlots &DP = OM.slots(OM.classIndex(DD));
  auto colorIn = [](const ClassSlots &P, const FieldDecl *F,
                    uint32_t &Out) {
    for (size_t I = 0; I != P.SlotFields.size(); ++I)
      if (P.SlotFields[I] == F) {
        Out = P.SlotColors[I];
        return true;
      }
    return false;
  };
  uint32_t InB = 0, InD = 0;
  ASSERT_TRUE(colorIn(BP, B1, InB));
  ASSERT_TRUE(colorIn(DP, B1, InD));
  EXPECT_EQ(InB, CB1);
  EXPECT_EQ(InD, CB1);

  // Slot vectors are dense: NumSlots covers the maximum color in use.
  uint32_t MaxD = 0;
  for (uint32_t Col : DP.SlotColors)
    MaxD = std::max(MaxD, Col);
  EXPECT_EQ(DP.NumSlots, MaxD + 1);
  EXPECT_EQ(DP.SlotFields.size(), 3u) << "b1, b2, d1";
}

//===----------------------------------------------------------------------===//
// First-call compilation
//===----------------------------------------------------------------------===//

/// Code sizes by qualified name of every function with a body, after a
/// VM run of \p Source (Before: after construction, without a run).
/// Both engines must first agree on the program's output and exit.
std::map<std::string, size_t> codeSizes(const std::string &Source,
                                        bool Before = false) {
  expectEnginesAgree(Source);
  auto C = compileOK(Source);
  vm::VM M(C->context(), C->hierarchy());
  if (!Before) {
    EXPECT_TRUE(M.run(C->mainFunction()).Completed);
  }
  std::map<std::string, size_t> Out;
  for (const vm::FuncEntry &F : M.module().Functions) {
    if (!F.Decl || F.IsBuiltin || !F.Defined)
      continue;
    EXPECT_EQ(F.Compiled, !F.Code.empty()) << F.Decl->qualifiedName();
    Out[F.Decl->qualifiedName()] = F.Code.size();
  }
  return Out;
}

TEST(VmLazy, NothingButTheGlobalInitializerCompilesBeforeRun) {
  const char *Source = R"(
    int g = 2;
    int twice(int x) { return x * 2; }
    int main() { return twice(g); }
  )";
  auto C = compileOK(Source);
  vm::VM M(C->context(), C->hierarchy());
  const vm::Module &Mod = M.module();
  ASSERT_NE(Mod.GlobalInitIdx, vm::NoFunc);
  EXPECT_TRUE(Mod.Functions[Mod.GlobalInitIdx].Compiled);
  EXPECT_FALSE(Mod.Functions[Mod.GlobalInitIdx].Code.empty());
  for (const auto &[Name, Size] : codeSizes(Source, /*Before=*/true))
    EXPECT_EQ(Size, 0u) << Name << " compiled before run";
}

TEST(VmLazy, DirectCallCompilesOnlyTheCallee) {
  auto Sizes = codeSizes(R"(
    int unused(int x) { return x * 3; }
    int used(int x) { return x + 1; }
    int main() { print_int(used(6)); return 0; }
  )");
  EXPECT_GT(Sizes.at("main"), 0u);
  EXPECT_GT(Sizes.at("used"), 0u);
  EXPECT_EQ(Sizes.at("unused"), 0u);
}

TEST(VmLazy, VirtualCallCompilesTheDispatchTarget) {
  auto Sizes = codeSizes(R"(
    class B { public: int x; virtual int f() { return 1; } };
    class D : public B { public: virtual int f() { return 2; } };
    int main() {
      B *p = new D();
      print_int(p->f());
      delete p;
      return 0;
    }
  )");
  EXPECT_GT(Sizes.at("D::f"), 0u);
  EXPECT_EQ(Sizes.at("B::f"), 0u);
}

TEST(VmLazy, NewCompilesTheConstructor) {
  auto Sizes = codeSizes(R"(
    class A { public: int v; A(int x) { v = x; } int get() { return v; } };
    int main() {
      A *a = new A(5);
      print_int(a->v);
      delete a;
      return 0;
    }
  )");
  EXPECT_GT(Sizes.at("A::A"), 0u);
  EXPECT_EQ(Sizes.at("A::get"), 0u);
}

TEST(VmLazy, MemberSubobjectConstructorCompiles) {
  // Out has no constructor of its own: the implicit default
  // construction enters In's constructor for the member.
  auto Sizes = codeSizes(R"(
    class In { public: int v; In() { v = 3; print_int(v); } };
    class Out { public: In in; int w; };
    class Holder { public: In in; Holder() { print_int(in.v + 1); } };
    int main() {
      Out o;
      Holder h;
      return o.in.v;
    }
  )");
  EXPECT_GT(Sizes.at("In::In"), 0u);
  EXPECT_GT(Sizes.at("Holder::Holder"), 0u);
}

TEST(VmLazy, DeleteCompilesTheDestructor) {
  auto Sizes = codeSizes(R"(
    class R { public: int v; ~R() { print_int(v); } };
    class Never { public: int n; ~Never() { print_int(n); } };
    int main() {
      R *r = new R();
      r->v = 8;
      delete r;
      return 0;
    }
  )");
  EXPECT_GT(Sizes.at("R::~R"), 0u);
  EXPECT_EQ(Sizes.at("Never::~Never"), 0u);
}

TEST(VmLazy, ScopeExitCompilesTheDestructor) {
  auto Sizes = codeSizes(R"(
    class S { public: int v; ~S() { print_int(v); } };
    int main() {
      {
        S s;
        s.v = 9;
      }
      print_int(1);
      return 0;
    }
  )");
  EXPECT_GT(Sizes.at("S::~S"), 0u);
}

TEST(VmLazy, GlobalInitializerCompilesWhatItCalls) {
  auto Sizes = codeSizes(R"(
    class G { public: int v; G(int x) : v(x) { print_int(v); } };
    int seed() { return 4; }
    int g = seed();
    G obj(7);
    int main() { return g + obj.v; }
  )");
  EXPECT_GT(Sizes.at("seed"), 0u);
  EXPECT_GT(Sizes.at("G::G"), 0u);
}

TEST(VmLazy, FunctionPointerCallCompilesTheTarget) {
  auto Sizes = codeSizes(R"(
    int one() { return 1; }
    int two() { return 2; }
    int main() {
      int (*f)() = &two;
      print_int(f());
      return 0;
    }
  )");
  EXPECT_GT(Sizes.at("two"), 0u);
  EXPECT_EQ(Sizes.at("one"), 0u);
}

TEST(VmLazy, FunctionsCompiledCounterMatchesTheCompiledEntries) {
  auto C = compileOK(R"(
    int a() { return 1; }
    int b() { return a() + 1; }
    int c() { return 3; }
    int main() { return b() + b(); }
  )");
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    vm::VM M(C->context(), C->hierarchy());
    ASSERT_TRUE(M.run(C->mainFunction()).Completed);
  }
  EXPECT_EQ(Tel.counter("vm.functions_compiled"), 3u) << "main, b and a";
}

//===----------------------------------------------------------------------===//
// Differential tests: both engines on the same Compilation
//===----------------------------------------------------------------------===//

TEST(VmDifferential, ArithmeticAndBuiltins) {
  expectEnginesAgree(R"(
    int main() {
      int i = 7;
      double d = 3.5;
      char c = 'A';
      bool b = true;
      print_int(i * 6 - 2 / 2 + 9 % 4);
      print_double(d * 2.0 - 0.25);
      print_char(c);
      print_char('\n');
      print_bool(b && !false);
      print_int(i << 2);
      print_int(i >> 1);
      print_int(i & 5);
      print_int(i | 8);
      print_int(i ^ 3);
      print_int(~i);
      print_int(-i);
      i += 3; i -= 1; i *= 2; i /= 3; i %= 4;
      print_int(i);
      int pre = ++i;
      int post = i++;
      print_int(pre);
      print_int(post);
      print_int(i--);
      print_int(--i);
      return i;
    }
  )");
}

TEST(VmDifferential, ControlFlowAndShortCircuit) {
  expectEnginesAgree(R"(
    int side(int v) { print_int(v); return v; }
    int main() {
      int total = 0;
      for (int i = 0; i < 5; i = i + 1) {
        if (i == 2) { continue; }
        if (i == 4) { break; }
        total = total + i;
      }
      while (total > 0) { total = total - 2; }
      // Short-circuit evaluation order is observable via side().
      bool x = side(0) != 0 && side(1) != 0;
      bool y = side(2) != 0 || side(3) != 0;
      print_bool(x);
      print_bool(y);
      return total >= 0 ? total : -total;
    }
  )");
}

TEST(VmDifferential, ConstructionDestructionOrder) {
  expectEnginesAgree(R"(
    class Top { public: int t; Top() { print_int(0); } ~Top() { print_int(10); } };
    class L : public virtual Top { public: int l; L() { print_int(1); } ~L() { print_int(11); } };
    class R : public virtual Top { public: int r; R() { print_int(2); } ~R() { print_int(12); } };
    class B : public L, public R {
    public:
      int b;
      B() { print_int(3); }
      ~B() { print_int(13); }
    };
    int main() { B x; x.t = 5; return x.t; }
  )");
}

TEST(VmDifferential, VirtualDispatchAndInlineCache) {
  expectEnginesAgree(R"(
    class Shape { public: int pad; virtual int area() { return 0; } virtual ~Shape() {} };
    class Sq : public Shape { public: int s; Sq(int v) : s(v) {} virtual int area() { return s * s; } };
    class Tri : public Shape { public: int b; int h; Tri(int x, int y) : b(x), h(y) {} virtual int area() { return b * h / 2; } };
    int main() {
      Shape *shapes[4];
      shapes[0] = new Sq(3);
      shapes[1] = new Tri(4, 6);
      shapes[2] = new Sq(5);
      shapes[3] = new Tri(2, 2);
      int total = 0;
      // A polymorphic call site: the receiver class flips every
      // iteration, and each class's dispatch table answers for it.
      for (int i = 0; i < 4; i = i + 1) {
        total = total + shapes[i]->area();
      }
      for (int i = 0; i < 4; i = i + 1) {
        delete shapes[i];
      }
      print_int(total);
      return 0;
    }
  )");
}

TEST(VmDifferential, DispatchDuringDestruction) {
  expectEnginesAgree(R"(
    class B {
    public:
      int x;
      virtual int tag() { return 1; }
      virtual ~B() { print_int(tag()); }
    };
    class D : public B {
    public:
      virtual int tag() { return 2; }
      ~D() { print_int(tag()); }
    };
    int main() {
      B *p = new D();
      delete p;
      return 0;
    }
  )");
}

TEST(VmDifferential, HeapArraysAndLeaks) {
  expectEnginesAgree(R"(
    class Cell { public: int v; Cell() { v = 1; } ~Cell() { print_int(v); } };
    int main() {
      Cell *cells = new Cell[3];
      cells[1].v = 7;
      int *nums = new int[4];
      nums[2] = 9;
      print_int(nums[2] + cells[1].v);
      delete[] cells;
      delete[] nums;
      int *scalar = new int(41);
      print_int(*scalar + 1);
      Cell *leaked = new Cell();   // Deliberate leak: profiler must agree
      leaked->v = 3;               // on leaked-object accounting.
      return 0;
    }
  )");
}

TEST(VmDifferential, PointerArithmeticAndStrings) {
  expectEnginesAgree(R"(
    int main() {
      int a[5];
      for (int i = 0; i < 5; i = i + 1) { a[i] = i * i; }
      int *p = &a[1];
      int *q = p + 3;
      print_int(*q);
      print_int((int)(q - p));
      print_bool(p < q);
      q = q - 2;
      print_int(*q);
      print_str("hello vm\n");
      char buf[3];
      buf[0] = 'o'; buf[1] = 'k'; buf[2] = (char)0;
      print_str(buf);
      print_char('\n');
      return a[4];
    }
  )");
}

TEST(VmDifferential, MemberAndFunctionPointers) {
  expectEnginesAgree(R"(
    class P { public: int x; int y; };
    int one() { return 1; }
    int two() { return 2; }
    int main() {
      P p;
      p.x = 10;
      p.y = 20;
      int P::* pm = &P::x;
      print_int(p.*pm);
      pm = &P::y;
      p.*pm = 25;
      print_int(p.y);
      int (*f)() = &one;
      if (f == &one) { print_int(f()); }
      f = &two;
      print_int(f());
      return 0;
    }
  )");
}

TEST(VmDifferential, GlobalsLifetimeAndSharedState) {
  expectEnginesAgree(R"(
    class G {
    public:
      int v;
      G(int anId) : v(anId) { print_int(v); }
      ~G() { print_int(-v); }
    };
    G first(1);
    int counter = 100;
    G second(2);
    int bump() { counter = counter + 1; return counter; }
    int main() {
      print_int(bump());
      print_int(bump());
      print_int(first.v + second.v);
      return 0;
    }
  )");
}

TEST(VmDifferential, CopySemanticsAndByValueParams) {
  expectEnginesAgree(R"(
    class Pair { public: int a; int b; };
    int sum(Pair p) { return p.a + p.b; }
    int bySum(Pair &p) { p.a = p.a + 1; return p.a + p.b; }
    int main() {
      Pair x;
      x.a = 3; x.b = 4;
      Pair y = x;        // copy-init
      y.b = 40;
      Pair z;
      z = y;             // copy-assign
      print_int(sum(x));
      print_int(sum(y));
      print_int(sum(z));
      print_int(bySum(x));
      print_int(x.a);
      return 0;
    }
  )");
}

// A memberwise copy that is the first read of its source's members
// reads them in the slot layout's order (ClassSlots::SlotFields), on
// both engines: base members first, then the class's own, each in
// declaration order.
TEST(VmDifferential, MemberwiseCopyFirstReadsFollowTheSlotLayout) {
  auto C = compileOK(R"(
    class B { public: int b2; int b1; };
    class D : public B { public: int d2; int d1; };
    int main() {
      D s;
      s.d1 = 1; s.d2 = 2; s.b1 = 3; s.b2 = 4;
      D t = s;
      D u;
      u = t;
      return u.d1 + u.b2 - 5;
    }
  )");
  DeadMemberResult Dead = analyze(*C);
  EngineRun T = runEngine(*C, Engine::Tree, Dead.deadSet());
  EngineRun V = runEngine(*C, Engine::Vm, Dead.deadSet());
  ASSERT_TRUE(T.R.Completed) << T.R.Error;
  expectSameRun(T, V);
  std::vector<const FieldDecl *> Expected = {
      findField(*C, "B", "b2"), findField(*C, "B", "b1"),
      findField(*C, "D", "d2"), findField(*C, "D", "d1")};
  EXPECT_EQ(T.Heat.FirstReads, Expected);
  EXPECT_EQ(V.Heat.FirstReads, Expected);

  vm::VM M(C->context(), C->hierarchy());
  const ObjectModel &OM = M.module().Objects;
  EXPECT_EQ(OM.slots(OM.classIndex(findClass(*C, "D"))).SlotFields, Expected);
}

TEST(VmDifferential, RecursionDepthMatches) {
  expectEnginesAgree(R"(
    int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
    int main() {
      print_int(fib(12));
      return 0;
    }
  )");
}

TEST(VmDifferential, DeallocationReadExemption) {
  // A member loaded only to be freed is exempt from read attribution
  // (paper footnote 3) — both engines must apply the exemption at the
  // same loads.
  expectEnginesAgree(R"(
    class Node { public: int *payload; int tag; };
    int main() {
      Node n;
      n.payload = new int(5);
      n.tag = 9;
      free(n.payload);   // exempt load of n.payload
      print_int(n.tag);  // attributed read of n.tag
      return 0;
    }
  )");
}

TEST(VmDifferential, UnionsAndCasts) {
  expectEnginesAgree(R"(
    union U { public: int a; double d; };
    int main() {
      U u;
      u.a = 7;
      u.d = 2.5;
      print_int(u.a);        // storage-graph model: no aliasing
      print_double(u.d);
      print_int((int)u.d);
      print_int((int)'A');
      print_char((char)66);
      print_char('\n');
      double d = (double)3;
      print_double(d / 2.0);
      return 0;
    }
  )");
}

//===----------------------------------------------------------------------===//
// Differential tests: runtime errors stop at the same event
//===----------------------------------------------------------------------===//

TEST(VmDifferentialError, NullDereference) {
  expectEnginesAgreeOnError(R"(
    int main() {
      print_int(1);
      int *p = 0;
      print_int(*p);
      return 0;
    }
  )",
                            "null pointer");
}

TEST(VmDifferentialError, DoubleDelete) {
  expectEnginesAgreeOnError(R"(
    class C { public: int v; };
    int main() {
      C *p = new C();
      print_int(2);
      delete p;
      delete p;
      return 0;
    }
  )",
                            "double destruction");
}

TEST(VmDifferentialError, UndefinedFunctionCall) {
  expectEnginesAgreeOnError(R"(
    int missing(int x);
    int main() {
      print_int(3);
      return missing(1);
    }
  )",
                            "undefined function");
}

TEST(VmDifferentialError, StackOverflow) {
  expectEnginesAgreeOnError(R"(
    int spin(int n) { return spin(n + 1); }
    int main() { return spin(0); }
  )",
                            "stack overflow");
}

TEST(VmDifferentialError, NullVirtualCall) {
  expectEnginesAgreeOnError(R"(
    class B { public: int x; virtual int f() { return 1; } };
    int main() {
      B *p = 0;
      print_int(4);
      return p->f();
    }
  )",
                            "null");
}

//===----------------------------------------------------------------------===//
// Virtual dispatch tables: one entry per (class, method), filled once
//===----------------------------------------------------------------------===//

/// Runs both engines on \p Source, asserts the runs are identical, and
/// returns the VM's run; \p Resolves receives vm.vcall_resolves.
EngineRun vmRunAgreeingWithTree(const std::string &Source,
                                uint64_t &Resolves) {
  auto C = compileOK(Source);
  EXPECT_TRUE(C->Success);
  if (!C->Success)
    return {};
  DeadMemberResult Dead = analyze(*C);
  EngineRun T = runEngine(*C, Engine::Tree, Dead.deadSet());
  Telemetry Tel;
  EngineRun V;
  {
    TelemetryScope Scope(Tel);
    V = runEngine(*C, Engine::Vm, Dead.deadSet());
  }
  Resolves = Tel.counter("vm.vcall_resolves");
  expectSameRun(T, V);
  return V;
}

TEST(VmDispatch, OneSiteCyclesThroughFourReceiverClasses) {
  uint64_t Resolves = 0;
  EngineRun V = vmRunAgreeingWithTree(R"(
    class S { public: int k; virtual int f(int x) { return x + 1; } };
    class T : public S { public: int f(int x) { return x * 2; } };
    class U : public S { public: int f(int x) { return x - 3; } };
    class W : public T { public: int f(int x) { return x % 7 + 10; } };
    int main() {
      S *objs[4];
      objs[0] = new S();
      objs[1] = new T();
      objs[2] = new U();
      objs[3] = new W();
      int acc = 1;
      for (int i = 0; i < 400; i = i + 1) {
        acc = (objs[i % 4]->f(acc) + 1000) % 9973;
      }
      print_int(acc);
      return 0;
    }
  )",
                                      Resolves);
  EXPECT_TRUE(V.R.Completed) << V.R.Error;
  // One fill per receiver class; the 396 later calls read the tables.
  EXPECT_EQ(Resolves, 4u);
}

TEST(VmDispatch, ConstructorAndDestructorDispatchShareTheSiteWithMostDerived) {
  // The same site in B's constructor (and in its destructor) resolves
  // against D when the receiver is another, finished D, and against B
  // when it is the object under construction or destruction; the
  // calls alternate between the two.
  uint64_t Resolves = 0;
  EngineRun V = vmRunAgreeingWithTree(R"(
    class B {
    public:
      int x;
      B *peer;
      B(B *p) {
        peer = p;
        B *r = p;
        if (r == nullptr) r = this;
        print_int(r->tag());
      }
      virtual int tag() { return 1; }
      virtual ~B() {
        B *r = peer;
        if (r == nullptr) r = this;
        print_int(r->tag() + 10);
      }
    };
    class D : public B {
    public:
      int y;
      D(B *p) : B(p) {}
      virtual int tag() { return 2; }
      ~D() {}
    };
    int main() {
      B *a = new D(nullptr);
      D *b = new D(a);
      D *c = new D(nullptr);
      D *d = new D(a);
      print_int(a->tag());
      delete b;
      delete c;
      delete d;
      delete a;
      return 0;
    }
  )",
                                      Resolves);
  EXPECT_TRUE(V.R.Completed) << V.R.Error;
  EXPECT_EQ(V.R.Output, "1\n2\n1\n2\n2\n12\n11\n12\n11\n");
  // (B, tag) and (D, tag), shared by the three sites.
  EXPECT_EQ(Resolves, 2u);
}

TEST(VmDispatch, PureVirtualCallAfterSuccessfulCallsAtTheSameSite) {
  uint64_t Resolves = 0;
  EngineRun V = vmRunAgreeingWithTree(R"(
    class Op {
    public:
      int bias;
      Op(Op *p, bool self) {
        Op *r = p;
        if (self) r = this;
        if (r != nullptr) print_int(r->apply());
      }
      virtual int apply() = 0;
      virtual ~Op() {}
    };
    class Add : public Op {
    public:
      Add(Op *p, bool self) : Op(p, self) {}
      int apply() { return 5; }
    };
    int main() {
      Add first(nullptr, false);
      Op *second = new Add(&first, false);
      Add *third = new Add(second, false);
      Add *bad = new Add(nullptr, true);
      return 0;
    }
  )",
                                      Resolves);
  EXPECT_FALSE(V.R.Completed);
  EXPECT_EQ(V.R.Error, "call to undefined function 'Op::apply'");
  EXPECT_EQ(V.R.Output, "5\n5\n");
}

TEST(VmDispatch, UnrelatedReceiverFailsAfterSuccessfulCalls) {
  uint64_t Resolves = 0;
  EngineRun V = vmRunAgreeingWithTree(R"(
    class Op { public: int bias; virtual int apply() { return 1; } };
    class Sq : public Op { public: int apply() { return 4; } };
    class Other { public: int z; virtual int apply() { return 9; } };
    int call(Op *o) { return o->apply(); }
    int main() {
      Op *a = new Op();
      Op *b = new Sq();
      print_int(call(a));
      print_int(call(b));
      print_int(call(a));
      Other *o = new Other();
      print_int(call(reinterpret_cast<Op *>(o)));
      return 0;
    }
  )",
                                      Resolves);
  EXPECT_FALSE(V.R.Completed);
  EXPECT_EQ(V.R.Error, "virtual dispatch failed for 'Op::apply'");
  EXPECT_EQ(V.R.Output, "1\n4\n1\n");
  EXPECT_EQ(Resolves, 3u) << "Op, Sq, and the failed Other";
}

TEST(VmDispatch, KernelShapedLoopResolvesOncePerClass) {
  // perfbench's kvirtual kernel: 100,000 calls at one site over four
  // receivers of three classes.
  uint64_t Resolves = 0;
  EngineRun V = vmRunAgreeingWithTree(R"(
    class Op {
    public:
      int bias;
      Op(int b) : bias(b) {}
      virtual ~Op() {}
      virtual int apply(int x) = 0;
    };
    class AddOp : public Op {
    public:
      AddOp(int b) : Op(b) {}
      int apply(int x) { return (x + bias) % 65521; }
    };
    class MulOp : public Op {
    public:
      MulOp(int b) : Op(b) {}
      int apply(int x) { return (x * bias) % 65521 + 1; }
    };
    class SubOp : public Op {
    public:
      SubOp(int b) : Op(b) {}
      int apply(int x) { return (x + 65521 - bias) % 65521; }
    };
    int main() {
      Op *ops[4];
      ops[0] = new AddOp(8);
      ops[1] = new MulOp(3);
      ops[2] = new SubOp(11);
      ops[3] = new MulOp(8);
      int x = 1;
      int sum = 0;
      for (int i = 0; i < 100000; i = i + 1) {
        x = ops[i % 4]->apply(x);
        sum = (sum + x) % 1000003;
      }
      for (int k = 0; k < 4; k = k + 1) {
        delete ops[k];
      }
      print_int(sum);
      return 0;
    }
  )",
                                      Resolves);
  EXPECT_TRUE(V.R.Completed) << V.R.Error;
  EXPECT_EQ(Resolves, 3u) << "(AddOp|MulOp|SubOp, apply)";
}

//===----------------------------------------------------------------------===//
// Corpus sweep: every tests/corpus/ program, both engines
//===----------------------------------------------------------------------===//

struct CorpusFile {
  const char *Name;
  bool IsLibrary = false;
};

struct CorpusEntry {
  const char *Name;
  std::vector<CorpusFile> Files;
};

/// Without this, gtest prints the parameter as raw bytes, pointer
/// values included, so the listed test names change from run to run.
void PrintTo(const CorpusEntry &Entry, std::ostream *OS) {
  *OS << '"' << Entry.Name << '"';
}

const CorpusEntry kCorpus[] = {
    {"basics", {{"basics.mcc"}}},
    {"inheritance", {{"inheritance.mcc"}}},
    {"unions", {{"unions.mcc"}}},
    {"casts", {{"casts.mcc"}}},
    {"sizeof", {{"sizeof.mcc"}}},
    {"ptrmember", {{"ptrmember.mcc"}}},
    {"dealloc", {{"dealloc.mcc"}}},
    {"volatile", {{"volatile.mcc"}}},
    {"deadcode", {{"deadcode.mcc"}}},
    {"overloads", {{"overloads.mcc"}}},
    {"multifile", {{"multifile_lib.mcc"}, {"multifile_app.mcc"}}},
    {"library", {{"library_vendor.mcc", /*IsLibrary=*/true},
                 {"library_app.mcc"}}},
};

std::string readCorpusFile(const char *Name) {
  std::filesystem::path Path = std::filesystem::path(DMM_CORPUS_DIR) / Name;
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// Two members of one complete object never share a slot color, and
/// every class's slot vector is exactly as long as its largest color.
void expectDistinctSlotColors(Compilation &C, const std::string &Program) {
  vm::VM M(C.context(), C.hierarchy());
  const ObjectModel &OM = M.module().Objects;
  for (uint32_t CI = 0; CI != OM.numClasses(); ++CI) {
    const ClassSlots &P = OM.slots(CI);
    if (!P.Decl->isComplete())
      continue;
    std::set<uint32_t> Seen;
    uint32_t Max = 0;
    for (uint32_t Col : P.SlotColors) {
      EXPECT_TRUE(Seen.insert(Col).second)
          << Program << ": " << P.Decl->name() << " reuses color " << Col;
      Max = std::max(Max, Col);
    }
    EXPECT_EQ(P.NumSlots, P.SlotColors.empty() ? 0 : Max + 1)
        << Program << ": " << P.Decl->name();
  }
}

TEST(VmBytecode, SlotColorsAreDistinctInEveryCompleteClass) {
  for (const CorpusEntry &Entry : kCorpus) {
    std::vector<SourceFile> Files;
    for (const CorpusFile &F : Entry.Files)
      Files.push_back({F.Name, readCorpusFile(F.Name), F.IsLibrary});
    std::ostringstream Diag;
    auto C = compileProgram(std::move(Files), &Diag);
    ASSERT_TRUE(C->Success) << Entry.Name << ": " << Diag.str();
    expectDistinctSlotColors(*C, Entry.Name);
  }
  for (const auto &File : std::filesystem::directory_iterator(
           std::filesystem::path(DMM_CORPUS_DIR) / "fuzzed")) {
    if (File.path().extension() != ".mcc")
      continue;
    std::string Name = "fuzzed/" + File.path().filename().string();
    auto C = compileOK(readCorpusFile(Name.c_str()));
    ASSERT_TRUE(C->Success) << Name;
    expectDistinctSlotColors(*C, Name);
  }
  // Virtual bases (a diamond) and a repeated non-virtual base.
  auto C = compileOK(R"(
    class Top { public: int t; virtual int f() { return t; } };
    class Left : public virtual Top { public: int l; };
    class Right : public virtual Top { public: int r; };
    class Bottom : public Left, public Right { public: int b; };
    class Leaf : public Left { public: int lf; };
    class NV { public: int n; };
    class A1 : public NV { public: int a1; };
    class A2 : public NV { public: int a2; };
    class Rep : public A1, public A2 { public: int rep; };
    class Solo { public: int s; double d; };
    int main() {
      Bottom b;
      Leaf lf;
      Rep r;
      Solo s;
      return b.l + lf.lf + r.rep + s.s;
    }
  )");
  ASSERT_TRUE(C->Success);
  expectDistinctSlotColors(*C, "diamond");
}

class VmCorpusTest : public ::testing::TestWithParam<CorpusEntry> {};

TEST_P(VmCorpusTest, EnginesAgreeAtEveryJobsLevel) {
  const CorpusEntry &Entry = GetParam();
  std::vector<SourceFile> Files;
  for (const CorpusFile &F : Entry.Files)
    Files.push_back({F.Name, readCorpusFile(F.Name), F.IsLibrary});
  std::ostringstream Diag;
  auto C = compileProgram(std::move(Files), &Diag);
  ASSERT_TRUE(C->Success) << Entry.Name
                          << " does not compile: " << Diag.str();

  DeadMemberResult Dead = analyze(*C);
  EngineRun T = runEngine(*C, Engine::Tree, Dead.deadSet());
  EngineRun V = runEngine(*C, Engine::Vm, Dead.deadSet());
  // Some corpus programs abort at run time by design (casts exercises
  // an invalid downcast); the engines must still agree byte-for-byte on
  // everything up to and including the error.
  expectSameRun(T, V);
}

/// First-call compilation compiles no more than RTA finds reachable:
/// every entered function is one the call graph reaches from main.
TEST(VmLazy, FunctionsCompiledStayWithinRtaReachable) {
  for (const CorpusEntry &Entry : kCorpus) {
    std::vector<SourceFile> Files;
    for (const CorpusFile &F : Entry.Files)
      Files.push_back({F.Name, readCorpusFile(F.Name), F.IsLibrary});
    std::ostringstream Diag;
    auto C = compileProgram(std::move(Files), &Diag);
    ASSERT_TRUE(C->Success) << Entry.Name << ": " << Diag.str();
    CallGraph G = buildCallGraph(C->context(), C->hierarchy(),
                                 C->mainFunction(), CallGraphKind::RTA);
    Telemetry Tel;
    {
      TelemetryScope Scope(Tel);
      vm::VM M(C->context(), C->hierarchy());
      M.run(C->mainFunction()); // casts aborts by design; still counts.
    }
    const uint64_t Compiled = Tel.counter("vm.functions_compiled");
    EXPECT_GT(Compiled, 0u) << Entry.Name;
    EXPECT_LE(Compiled, G.reachableFunctions().size()) << Entry.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, VmCorpusTest, ::testing::ValuesIn(kCorpus),
                         [](const ::testing::TestParamInfo<CorpusEntry> &I) {
                           return std::string(I.param.Name);
                         });

} // namespace
