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
///    jump patching, and member-offset (slot color) resolution;
///  - differential tests running the same Compilation through the
///    tree-walking Interpreter and the VM, asserting byte-identical
///    output, exit code, error message, ReadTrace first-read order,
///    read/write sets, heat counts, allocation-trace events, and the
///    full shadow-profiler summary. ExecResult::Steps is deliberately
///    NOT compared: the VM counts bytecode instructions, the tree
///    counts AST visits.
///  - a sweep of the tests/corpus/ programs through both engines.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "profiler/ShadowProfiler.h"
#include "vm/VM.h"

#include <filesystem>
#include <fstream>
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
  std::set<const FieldDecl *> Reads;
  std::vector<const FieldDecl *> ReadOrder;
  std::set<const FieldDecl *> Writes;
  FieldHeat Heat;
  std::vector<TraceEvent> Events;
  ProfileSummary Prof;
};

EngineRun runEngine(Compilation &C, Engine E, const FieldSet &Dead) {
  EngineRun Run;
  AllocationTrace Trace;
  ShadowProfiler Prof(C.hierarchy(), Dead);
  InterpOptions IO;
  IO.ReadSet = &Run.Reads;
  IO.ReadTrace = &Run.ReadOrder;
  IO.WriteSet = &Run.Writes;
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

  EXPECT_EQ(T.Reads, V.Reads);
  EXPECT_EQ(T.Writes, V.Writes);
  ASSERT_EQ(T.ReadOrder.size(), V.ReadOrder.size());
  for (size_t I = 0; I != T.ReadOrder.size(); ++I)
    EXPECT_EQ(T.ReadOrder[I], V.ReadOrder[I])
        << "first-read order diverges at #" << I << ": tree read "
        << T.ReadOrder[I]->qualifiedName() << ", vm read "
        << V.ReadOrder[I]->qualifiedName();
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
  const vm::Module &Mod = M.module();

  const FieldDecl *B1 = findField(*C, "B", "b1");
  const FieldDecl *B2 = findField(*C, "B", "b2");
  const FieldDecl *D1 = findField(*C, "D", "d1");
  ASSERT_TRUE(B1 && B2 && D1);

  // Every field referenced by the program has a module-wide color, and
  // co-located fields have distinct colors.
  ASSERT_TRUE(Mod.FieldColor.count(B1));
  ASSERT_TRUE(Mod.FieldColor.count(B2));
  ASSERT_TRUE(Mod.FieldColor.count(D1));
  uint32_t CB1 = Mod.FieldColor.at(B1);
  uint32_t CB2 = Mod.FieldColor.at(B2);
  uint32_t CD1 = Mod.FieldColor.at(D1);
  EXPECT_NE(CB1, CB2);
  EXPECT_NE(CB1, CD1);
  EXPECT_NE(CB2, CD1);

  // The derived class's plan covers the inherited fields under the SAME
  // colors the base's plan uses — a compiled access through a B* works
  // unchanged on a D receiver.
  const ClassDecl *BD = findClass(*C, "B");
  const ClassDecl *DD = findClass(*C, "D");
  ASSERT_TRUE(BD && DD);
  ASSERT_TRUE(Mod.ClassIdx.count(BD) && Mod.ClassIdx.count(DD));
  const vm::ClassPlan &BP = Mod.Classes[Mod.ClassIdx.at(BD)];
  const vm::ClassPlan &DP = Mod.Classes[Mod.ClassIdx.at(DD)];
  auto colorIn = [](const vm::ClassPlan &P, const FieldDecl *F,
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
      // A polymorphic call site: the VM's inline cache must stay
      // transparent when the receiver class flips every iteration.
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

INSTANTIATE_TEST_SUITE_P(Programs, VmCorpusTest, ::testing::ValuesIn(kCorpus),
                         [](const ::testing::TestParamInfo<CorpusEntry> &I) {
                           return std::string(I.param.Name);
                         });

} // namespace
