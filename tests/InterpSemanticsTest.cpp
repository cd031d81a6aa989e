//===-- tests/InterpSemanticsTest.cpp - C++ semantics fidelity ------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Construction/destruction ordering, virtual-base sharing, dispatch
// during destruction, global object lifetime, and other C++ semantics
// the paper's measurements implicitly depend on.
//
// Every case runs on BOTH execution engines — the tree-walking
// Interpreter and the bytecode VM (docs/VM.md) — via the EngineKind
// test parameter: the expected output, exit code, and (for the
// runtime-error cases) the output prefix written before the abort are
// engine-independent contracts.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace dmm;
using namespace dmm::test;

namespace {

class InterpSemantics : public ::testing::TestWithParam<EngineKind> {
protected:
  std::string outputOf(const std::string &Source) {
    auto C = compileOK(Source);
    return runWithOK(*C, GetParam()).Output;
  }

  /// Runs a program expected to abort; checks the error message and the
  /// output prefix written before the engine stopped. Both are
  /// engine-independent: the VM must fail at the same event index as
  /// the tree-walker, having produced the same partial output.
  void expectRuntimeError(const std::string &Source,
                          const std::string &ErrorNeedle,
                          const std::string &OutputPrefix) {
    auto C = compileOK(Source);
    ExecResult R = runWith(*C, GetParam());
    EXPECT_FALSE(R.Completed)
        << engineName(GetParam()) << " unexpectedly completed with exit "
        << R.ExitCode;
    EXPECT_NE(R.Error.find(ErrorNeedle), std::string::npos)
        << engineName(GetParam()) << " error was: " << R.Error;
    EXPECT_EQ(R.Output, OutputPrefix) << engineName(GetParam());
  }
};

TEST_P(InterpSemantics, ConstructionOrderBasesThenMembersThenBody) {
  EXPECT_EQ(outputOf(R"(
    class Base { public: int b; Base() { print_int(1); } };
    class Member { public: int m; Member() { print_int(2); } };
    class Outer : public Base {
    public:
      Member member;
      Outer() { print_int(3); }
    };
    int main() { Outer o; return o.b + o.member.m; }
  )"),
            "1\n2\n3\n");
}

TEST_P(InterpSemantics, VirtualBaseConstructedOnceAndFirst) {
  EXPECT_EQ(outputOf(R"(
    class Top { public: int t; Top() { print_int(0); } };
    class L : public virtual Top { public: int l; L() { print_int(1); } };
    class R : public virtual Top { public: int r; R() { print_int(2); } };
    class B : public L, public R {
    public:
      int b;
      B() { print_int(3); }
    };
    int main() { B x; return 0; }
  )"),
            "0\n1\n2\n3\n"); // Top once, most-derived first.
}

TEST_P(InterpSemantics, DestructionIsReverseOfConstruction) {
  EXPECT_EQ(outputOf(R"(
    class Base { public: int b; Base() { print_int(1); } ~Base() { print_int(-1); } };
    class Member { public: int m; Member() { print_int(2); } ~Member() { print_int(-2); } };
    class Outer : public Base {
    public:
      Member member;
      Outer() { print_int(3); }
      ~Outer() { print_int(-3); }
    };
    int main() { Outer o; return 0; }
  )"),
            "1\n2\n3\n-3\n-2\n-1\n");
}

TEST_P(InterpSemantics, DispatchDuringDestructionUsesStaticType) {
  EXPECT_EQ(outputOf(R"(
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
  )"),
            "2\n1\n"); // D's dtor sees D::tag, B's dtor sees B::tag.
}

TEST_P(InterpSemantics, GlobalObjectsConstructedBeforeMainDestroyedAfter) {
  EXPECT_EQ(outputOf(R"(
    class G {
    public:
      int v;
      G(int anId) : v(anId) { print_int(v); }
      ~G() { print_int(-v); }
    };
    G first(1);
    G second(2);
    int main() { print_int(0); return 0; }
  )"),
            "1\n2\n0\n-2\n-1\n");
}

TEST_P(InterpSemantics, MemberArrayElementsConstructedInOrder) {
  EXPECT_EQ(outputOf(R"(
    int nextId = 0;
    class Elem {
    public:
      int id;
      Elem() { nextId = nextId + 1; id = nextId; }
    };
    class Holder { public: Elem cells[3]; };
    int main() {
      Holder h;
      print_int(h.cells[0].id);
      print_int(h.cells[2].id);
      return 0;
    }
  )"),
            "1\n3\n");
}

TEST_P(InterpSemantics, BlockScopedObjectsDestroyedAtBlockExit) {
  EXPECT_EQ(outputOf(R"(
    class Noisy {
    public:
      int id;
      Noisy(int i) : id(i) {}
      ~Noisy() { print_int(id); }
    };
    int main() {
      Noisy outer(1);
      {
        Noisy inner(2);
      }
      print_int(0);
      return 0;
    }
  )"),
            "2\n0\n1\n");
}

TEST_P(InterpSemantics, LoopBodyObjectsDestroyedEachIteration) {
  EXPECT_EQ(outputOf(R"(
    class Tick {
    public:
      int n;
      Tick(int i) : n(i) {}
      ~Tick() { print_int(n); }
    };
    int main() {
      for (int i = 0; i < 2; i = i + 1) {
        Tick t(i);
      }
      return 0;
    }
  )"),
            "0\n1\n");
}

TEST_P(InterpSemantics, EarlyReturnStillDestroysLocals) {
  EXPECT_EQ(outputOf(R"(
    class Noisy {
    public:
      int id;
      Noisy(int i) : id(i) {}
      ~Noisy() { print_int(id); }
    };
    int f(bool early) {
      Noisy a(1);
      if (early) {
        Noisy b(2);
        return 10;
      }
      return 20;
    }
    int main() { print_int(f(true)); return 0; }
  )"),
            "2\n1\n10\n");
}

TEST_P(InterpSemantics, CtorInitializerOrderFollowsDeclarationOrder) {
  // As in C++: member initialization order is declaration order, not
  // initializer-list order.
  EXPECT_EQ(outputOf(R"(
    int trace(int v) { print_int(v); return v; }
    class A {
    public:
      int first;
      int second;
      A() : second(trace(2)), first(trace(1)) {}
    };
    int main() { A a; return a.first + a.second; }
  )"),
            "1\n2\n");
}

TEST_P(InterpSemantics, SharedVirtualBaseStateIsVisibleThroughBothPaths) {
  EXPECT_EQ(outputOf(R"(
    class Top { public: int t; };
    class L : public virtual Top { public: int l; };
    class R : public virtual Top { public: int r; };
    class B : public L, public R { public: int b; };
    int main() {
      B x;
      L *lp = &x;
      R *rp = &x;
      lp->t = 41;
      rp->t = rp->t + 1;
      print_int(x.t);
      return 0;
    }
  )"),
            "42\n");
}

TEST_P(InterpSemantics, FunctionPointersCompareAndSwap) {
  EXPECT_EQ(outputOf(R"(
    int one() { return 1; }
    int two() { return 2; }
    int main() {
      int (*f)() = &one;
      int (*g)() = &two;
      if (f == &one) { print_int(f()); }
      f = g;
      if (f != &one) { print_int(f()); }
      return 0;
    }
  )"),
            "1\n2\n");
}

TEST_P(InterpSemantics, PointerEqualityAndOrderingInArrays) {
  EXPECT_EQ(outputOf(R"(
    int main() {
      int a[4];
      int *p = &a[1];
      int *q = &a[3];
      print_bool(p < q);
      print_bool(p == q - 2);
      print_int((int)(q - p));
      return 0;
    }
  )"),
            "true\ntrue\n2\n");
}

TEST_P(InterpSemantics, MemberPointersAreReseatable) {
  EXPECT_EQ(outputOf(R"(
    class P { public: int x; int y; };
    int main() {
      P p;
      p.x = 10;
      p.y = 20;
      int P::* pm = &P::x;
      print_int(p.*pm);
      pm = &P::y;
      print_int(p.*pm);
      return 0;
    }
  )"),
            "10\n20\n");
}

TEST_P(InterpSemantics, WritesThroughMemberPointerAttributeMember) {
  auto C = compileOK(R"(
    class P { public: int x; };
    int main() {
      P p;
      int P::* pm = &P::x;
      p.*pm = 5;
      return p.x;
    }
  )");
  std::set<const FieldDecl *> Writes;
  InterpOptions IO;
  IO.WriteSet = &Writes;
  ExecResult R = runWithOK(*C, GetParam(), IO);
  EXPECT_EQ(R.ExitCode, 5);
  EXPECT_TRUE(Writes.count(findField(*C, "P", "x")));
}

TEST_P(InterpSemantics, UnionMembersHaveIndependentStorageInThisModel) {
  // Documented divergence from real C++ (see interp/Interpreter.h):
  // union alternatives do not alias. The analysis' union closure is what
  // makes this safe for dead-member classification.
  EXPECT_EQ(outputOf(R"(
    union U { public: int a; int b; };
    int main() {
      U u;
      u.a = 7;
      u.b = 9;
      print_int(u.a);
      return 0;
    }
  )"),
            "7\n");
}

TEST_P(InterpSemantics, QualifiedBaseCallFromOverride) {
  EXPECT_EQ(outputOf(R"(
    class B { public: int bv; virtual int f() { return 10; } };
    class D : public B {
    public:
      virtual int f() { return this->B::f() + 1; }
    };
    int main() {
      D d;
      B *p = &d;
      print_int(p->f());
      return 0;
    }
  )"),
            "11\n");
}

TEST_P(InterpSemantics, FreeDoesNotRunDestructors) {
  EXPECT_EQ(outputOf(R"(
    class Loud { public: int v; ~Loud() { print_int(v); } };
    int main() {
      Loud *a = new Loud();
      a->v = 1;
      free(a);       // No destructor output.
      Loud *b = new Loud();
      b->v = 2;
      delete b;      // Destructor runs.
      return 0;
    }
  )"),
            "2\n");
}

//===----------------------------------------------------------------------===//
// Runtime errors: both engines stop at the same event with the same
// message, having produced the same output prefix.
//===----------------------------------------------------------------------===//

TEST_P(InterpSemantics, NullDereferenceStopsMidProgram) {
  expectRuntimeError(R"(
    int main() {
      print_int(1);
      print_int(2);
      int *p = 0;
      print_int(*p);
      print_int(3);
      return 0;
    }
  )",
                     "null pointer", "1\n2\n");
}

TEST_P(InterpSemantics, DoubleDeleteIsDiagnosedAfterFirstDelete) {
  expectRuntimeError(R"(
    class C { public: int v; ~C() { print_int(v); } };
    int main() {
      C *p = new C();
      p->v = 7;
      delete p;
      delete p;
      return 0;
    }
  )",
                     "double destruction", "7\n");
}

TEST_P(InterpSemantics, UndefinedFunctionCallAbortsAtTheCall) {
  expectRuntimeError(R"(
    int missing(int x);
    int main() {
      print_int(9);
      return missing(1);
    }
  )",
                     "undefined function", "9\n");
}

TEST_P(InterpSemantics, RunawayRecursionOverflowsTheGuestStack) {
  expectRuntimeError(R"(
    int spin(int n) { print_int(n); return spin(n + 1); }
    int main() { return spin(-3); }
  )",
                     "stack overflow", [] {
                       // The guest frame limit is engine-independent:
                       // 1024 frames counting main, so spin prints
                       // -3..1019 before the 1024th call is refused.
                       std::string S;
                       for (int I = -3; I <= 1019; ++I)
                         S += std::to_string(I) + "\n";
                       return S;
                     }());
}

TEST_P(InterpSemantics, MemberAccessThroughNullObjectPointer) {
  expectRuntimeError(R"(
    class B { public: int x; virtual int f() { return 1; } };
    int main() {
      print_int(5);
      B *p = 0;
      return p->f();
    }
  )",
                     "null", "5\n");
}

// LLONG_MIN / -1 overflows (the host CPU traps on it), so it is a guest
// runtime error; LLONG_MIN % -1 is 0. Each form is pinned: register
// operands (the VM's DivII/RemII fast path), a member operand (the
// generic binary operator), and compound assignment to a local and to
// a member.
const char *const kIntMinPrelude = R"(
    class O { public: int v; };
    int main() {
      O o;
      o.v = -9223372036854775807 - 1;
      int m = -9223372036854775807 - 1;
      int d = -1;
      int r = m;
      print_int(1);
)";

TEST_P(InterpSemantics, IntMinDividedByMinusOneIsARuntimeError) {
  for (const char *Form :
       {"r = m / d;", "r = o.v / d;", "r /= d;", "o.v /= d;"}) {
    SCOPED_TRACE(Form);
    expectRuntimeError(std::string(kIntMinPrelude) + Form +
                           "\n print_int(2);\n return 0;\n }\n",
                       "integer division overflow", "1\n");
  }
}

TEST_P(InterpSemantics, IntMinRemainderMinusOneIsZero) {
  EXPECT_EQ(outputOf(std::string(kIntMinPrelude) + R"(
      print_int(m % d);
      print_int(o.v % d);
      r %= d;
      print_int(r);
      o.v %= d;
      print_int(o.v);
      return 0;
    }
  )"),
            "1\n0\n0\n0\n0\n");
}

// Integer + - * and negation wrap in two's complement (docs/
// LANGUAGE.md). Each edge is pinned through register operands (the
// VM's AddII/SubII/MulII fast paths, with a folded literal and with two
// registers), a member operand (the generic operator), compound
// assignment, and ++/-- on a local and on a member.
TEST_P(InterpSemantics, IntegerArithmeticWrapsInTwosComplement) {
  EXPECT_EQ(outputOf(R"(
    class O { public: int v; };
    int main() {
      int max = 9223372036854775807;
      int min = -9223372036854775807 - 1;
      int one = 1;
      int three = 3;
      O o;
      o.v = max;
      print_int(max + 1);
      print_int(max + one);
      print_int(min - 1);
      print_int(min - one);
      print_int(max * 3);
      print_int(max * three);
      print_int(-min);
      print_int(o.v + 1);
      print_int(o.v * 3);
      int x = max;
      x += 1;
      print_int(x);
      x = min;
      x -= 1;
      print_int(x);
      x = max;
      x *= 3;
      print_int(x);
      x = max;
      x++;
      print_int(x);
      ++o.v;
      print_int(o.v);
      o.v--;
      print_int(o.v);
      o.v = min;
      print_int(-o.v);
      return 0;
    }
  )"),
            "-9223372036854775808\n-9223372036854775808\n"
            "9223372036854775807\n9223372036854775807\n"
            "9223372036854775805\n9223372036854775805\n"
            "-9223372036854775808\n"
            "-9223372036854775808\n9223372036854775805\n"
            "-9223372036854775808\n9223372036854775807\n"
            "9223372036854775805\n-9223372036854775808\n"
            "-9223372036854775808\n9223372036854775807\n"
            "-9223372036854775808\n");
}

INSTANTIATE_TEST_SUITE_P(
    Engines, InterpSemantics,
    ::testing::Values(EngineKind::Tree, EngineKind::Vm),
    [](const ::testing::TestParamInfo<EngineKind> &I) {
      return std::string(engineName(I.param));
    });

} // namespace
