//===-- tests/InterpreterTest.cpp - MiniC++ interpreter tests -------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace dmm;
using namespace dmm::test;

namespace {

long long exitOf(const std::string &Source) {
  auto C = compileOK(Source);
  ExecResult R = runOK(*C);
  return R.ExitCode;
}

std::string outputOf(const std::string &Source) {
  auto C = compileOK(Source);
  ExecResult R = runOK(*C);
  return R.Output;
}

//===----------------------------------------------------------------------===//
// Scalars, operators, control flow
//===----------------------------------------------------------------------===//

TEST(Interp, ArithmeticAndPrecedence) {
  EXPECT_EQ(exitOf("int main() { return 2 + 3 * 4; }"), 14);
  EXPECT_EQ(exitOf("int main() { return (2 + 3) * 4; }"), 20);
  EXPECT_EQ(exitOf("int main() { return 17 % 5 + 20 / 4; }"), 7);
  EXPECT_EQ(exitOf("int main() { return 1 << 4; }"), 16);
  EXPECT_EQ(exitOf("int main() { return (6 & 3) | (8 ^ 12); }"), 6);
}

TEST(Interp, ComparisonAndLogical) {
  EXPECT_EQ(exitOf("int main() { if (3 < 4 && 4 <= 4) { return 1; } "
                   "return 0; }"),
            1);
  EXPECT_EQ(exitOf("int main() { if (3 > 4 || 4 != 4) { return 1; } "
                   "return 0; }"),
            0);
  EXPECT_EQ(exitOf("int main() { return !false == true ? 7 : 8; }"), 7);
}

TEST(Interp, ShortCircuitEvaluation) {
  // The second operand must not run (it would divide by zero).
  EXPECT_EQ(exitOf("int main() { int z = 0; "
                   "if (z != 0 && 10 / z > 0) { return 1; } return 2; }"),
            2);
}

TEST(Interp, DoubleArithmetic) {
  EXPECT_EQ(exitOf("int main() { double d = 1.5; d = d * 4.0; "
                   "return (int)d; }"),
            6);
  EXPECT_EQ(outputOf("int main() { print_double(2.5); return 0; }"),
            "2.5\n");
}

TEST(Interp, CharsAndStrings) {
  EXPECT_EQ(exitOf("int main() { char c = 'A'; return (int)c; }"), 65);
  EXPECT_EQ(outputOf(R"(int main() { print_str("hi\n"); return 0; })"),
            "hi\n");
  EXPECT_EQ(outputOf("int main() { print_char('x'); print_char('y'); "
                     "return 0; }"),
            "xy");
}

TEST(Interp, WhileAndForLoops) {
  EXPECT_EQ(exitOf("int main() { int s = 0; int i = 0; "
                   "while (i < 5) { s = s + i; i = i + 1; } return s; }"),
            10);
  EXPECT_EQ(exitOf("int main() { int s = 0; "
                   "for (int i = 0; i < 5; i = i + 1) { s = s + i; } "
                   "return s; }"),
            10);
}

TEST(Interp, BreakAndContinue) {
  EXPECT_EQ(exitOf("int main() { int s = 0; "
                   "for (int i = 0; i < 10; i = i + 1) { "
                   "if (i == 3) { continue; } "
                   "if (i == 6) { break; } s = s + i; } return s; }"),
            0 + 1 + 2 + 4 + 5);
}

TEST(Interp, IncrementDecrementSemantics) {
  EXPECT_EQ(exitOf("int main() { int i = 5; int a = i++; return a * 10 + "
                   "i; }"),
            56);
  EXPECT_EQ(exitOf("int main() { int i = 5; int a = ++i; return a * 10 + "
                   "i; }"),
            66);
  EXPECT_EQ(exitOf("int main() { int i = 5; return i--; }"), 5);
}

TEST(Interp, CompoundAssignments) {
  EXPECT_EQ(exitOf("int main() { int x = 10; x += 5; x -= 3; x *= 2; "
                   "x /= 4; x %= 5; return x; }"),
            1);
}

TEST(Interp, ConditionalAndComma) {
  EXPECT_EQ(exitOf("int main() { int a = 1 < 2 ? 10 : 20; return a; }"),
            10);
  EXPECT_EQ(exitOf("int main() { int a; int b; a = (b = 3, b + 1); "
                   "return a * 10 + b; }"),
            43);
}

//===----------------------------------------------------------------------===//
// Functions
//===----------------------------------------------------------------------===//

TEST(Interp, RecursionAndPrototypes) {
  EXPECT_EQ(exitOf(R"(
    int fib(int n);
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    int main() { return fib(10); }
  )"),
            55);
}

TEST(Interp, MutualRecursionViaPrototype) {
  EXPECT_EQ(exitOf(R"(
    int isOdd(int n);
    int isEven(int n) { if (n == 0) { return 1; } return isOdd(n - 1); }
    int isOdd(int n) { if (n == 0) { return 0; } return isEven(n - 1); }
    int main() { return isEven(10) * 10 + isOdd(7); }
  )"),
            11);
}

TEST(Interp, ReferenceParametersMutateCaller) {
  EXPECT_EQ(exitOf(R"(
    void bump(int &x) { x = x + 1; }
    int main() { int v = 41; bump(v); return v; }
  )"),
            42);
}

TEST(Interp, FunctionPointers) {
  EXPECT_EQ(exitOf(R"(
    int add(int a, int b) { return a + b; }
    int mul(int a, int b) { return a * b; }
    int apply(int (*op)(int, int), int x, int y) { return op(x, y); }
    int main() { return apply(&add, 3, 4) * 10 + apply(&mul, 3, 4); }
  )"),
            82);
}

TEST(Interp, GlobalVariablesAndInitOrder) {
  EXPECT_EQ(exitOf(R"(
    int base = 10;
    int derived = base + 5;
    int main() { return derived; }
  )"),
            15);
}

//===----------------------------------------------------------------------===//
// Objects, constructors, destructors
//===----------------------------------------------------------------------===//

TEST(Interp, ConstructorInitializerList) {
  EXPECT_EQ(exitOf(R"(
    class A {
    public:
      int x; int y;
      A(int v) : x(v), y(v * 2) {}
    };
    int main() { A a(21); return a.y - a.x; }
  )"),
            21);
}

TEST(Interp, BaseConstructorChaining) {
  EXPECT_EQ(exitOf(R"(
    class Base {
    public:
      int b;
      Base(int v) : b(v) {}
    };
    class Derived : public Base {
    public:
      int d;
      Derived(int v) : Base(v + 1), d(v) {}
    };
    int main() { Derived x(10); return x.b * 100 + x.d; }
  )"),
            1110);
}

TEST(Interp, MemberObjectConstruction) {
  EXPECT_EQ(exitOf(R"(
    class Inner {
    public:
      int v;
      Inner() : v(7) {}
    };
    class Outer {
    public:
      Inner inner;
      int w;
      Outer() : w(3) {}
    };
    int main() { Outer o; return o.inner.v * 10 + o.w; }
  )"),
            73);
}

TEST(Interp, DestructorOrderIsReverse) {
  EXPECT_EQ(outputOf(R"(
    class Noisy {
    public:
      int id;
      Noisy(int i) : id(i) {}
      ~Noisy() { print_int(id); }
    };
    int main() {
      Noisy a(1);
      Noisy b(2);
      return 0;
    }
  )"),
            "2\n1\n");
}

TEST(Interp, MemberAndBaseDestructorChain) {
  EXPECT_EQ(outputOf(R"(
    class Member {
    public:
      int id;
      Member() : id(10) {}
      ~Member() { print_int(id); }
    };
    class Base {
    public:
      int b;
      ~Base() { print_int(1); }
    };
    class Derived : public Base {
    public:
      Member m;
      ~Derived() { print_int(2); }
    };
    int main() { Derived d; return d.b + d.m.id * 0; }
  )"),
            "2\n10\n1\n"); // Own dtor, then members, then bases.
}

TEST(Interp, VirtualDispatchThroughBasePointer) {
  EXPECT_EQ(exitOf(R"(
    class Shape { public: virtual int area() { return 0; } };
    class Square : public Shape {
    public:
      int side;
      Square(int s) : side(s) {}
      virtual int area() { return side * side; }
    };
    int main() {
      Shape *s = new Square(6);
      int a = s->area();
      delete s;
      return a;
    }
  )"),
            36);
}

TEST(Interp, VirtualDispatchOnReferenceParameter) {
  EXPECT_EQ(exitOf(R"(
    class B { public: virtual int id() { return 1; } };
    class D : public B { public: virtual int id() { return 2; } };
    int probe(B &b) { return b.id(); }
    int main() { D d; return probe(d); }
  )"),
            2);
}

TEST(Interp, QualifiedCallBypassesDispatch) {
  EXPECT_EQ(exitOf(R"(
    class B { public: virtual int id() { return 1; } };
    class D : public B { public: virtual int id() { return 2; } };
    int main() { D d; return d.id() * 10 + d.B::id(); }
  )"),
            21);
}

TEST(Interp, DispatchDuringConstructionUsesStaticType) {
  // As in C++: a virtual call from a base constructor runs the base
  // version, not the derived override.
  EXPECT_EQ(outputOf(R"(
    class B {
    public:
      int x;
      B() { print_int(tag()); }
      virtual int tag() { return 1; }
    };
    class D : public B {
    public:
      virtual int tag() { return 2; }
    };
    int main() { D d; print_int(d.tag()); return d.x; }
  )"),
            "1\n2\n");
}

TEST(Interp, VirtualDestructorRunsDerivedChain) {
  EXPECT_EQ(outputOf(R"(
    class B {
    public:
      int b;
      virtual ~B() { print_int(1); }
    };
    class D : public B {
    public:
      ~D() { print_int(2); }
    };
    int main() {
      B *p = new D();
      delete p;
      return 0;
    }
  )"),
            "2\n1\n");
}

TEST(Interp, VirtualInheritanceSharesOneBase) {
  EXPECT_EQ(exitOf(R"(
    class Top { public: int t; };
    class Left : public virtual Top { public: int l; };
    class Right : public virtual Top { public: int r; };
    class Bottom : public Left, public Right { public: int b; };
    int main() {
      Bottom x;
      x.t = 5;
      Left *lp = &x;
      Right *rp = &x;
      return lp->t + rp->t; // One shared Top subobject: 10.
    }
  )"),
            10);
}

TEST(Interp, ImplicitThisMemberAccess) {
  EXPECT_EQ(exitOf(R"(
    class Counter {
    public:
      int n;
      Counter() : n(0) {}
      void bump() { n = n + 1; }
      int get() { return n; }
    };
    int main() {
      Counter c;
      c.bump();
      c.bump();
      c.bump();
      return c.get();
    }
  )"),
            3);
}

TEST(Interp, ThisPointerExplicit) {
  EXPECT_EQ(exitOf(R"(
    class A {
    public:
      int v;
      A *self() { return this; }
    };
    int main() { A a; a.v = 9; return a.self()->v; }
  )"),
            9);
}

TEST(Interp, ClassAssignmentCopiesMembers) {
  EXPECT_EQ(exitOf(R"(
    class P { public: int x; int y; };
    int main() {
      P a; a.x = 3; a.y = 4;
      P b; b = a;
      a.x = 100;
      return b.x * 10 + b.y;
    }
  )"),
            34);
}

//===----------------------------------------------------------------------===//
// Pointers, arrays, new/delete
//===----------------------------------------------------------------------===//

TEST(Interp, PointerArithmeticOverArray) {
  EXPECT_EQ(exitOf(R"(
    int main() {
      int a[5];
      for (int i = 0; i < 5; i = i + 1) { a[i] = i * i; }
      int *p = &a[1];
      p = p + 2;
      return *p; // a[3] == 9
    }
  )"),
            9);
}

TEST(Interp, HeapArrayOfObjects) {
  EXPECT_EQ(exitOf(R"(
    class Cell {
    public:
      int v;
      Cell() : v(5) {}
    };
    int main() {
      Cell *cells = new Cell[4];
      int s = 0;
      for (int i = 0; i < 4; i = i + 1) { s = s + cells[i].v; }
      delete[] cells;
      return s;
    }
  )"),
            20);
}

TEST(Interp, LinkedListTraversal) {
  EXPECT_EQ(exitOf(R"(
    class Node {
    public:
      int value;
      Node *next;
      Node(int v, Node *n) : value(v), next(n) {}
    };
    int main() {
      Node *head = nullptr;
      for (int i = 1; i <= 4; i = i + 1) { head = new Node(i, head); }
      int sum = 0;
      Node *cur = head;
      while (cur != nullptr) { sum = sum + cur->value; cur = cur->next; }
      while (head != nullptr) { Node *n = head->next; delete head; head = n; }
      return sum;
    }
  )"),
            10);
}

TEST(Interp, MemberPointerAccess) {
  EXPECT_EQ(exitOf(R"(
    class A { public: int x; int y; };
    int main() {
      A a; a.x = 11; a.y = 22;
      int A::* pm = &A::y;
      return a.*pm;
    }
  )"),
            22);
}

TEST(Interp, DeleteNullIsNoOp) {
  EXPECT_EQ(exitOf(R"(
    class A { public: int v; };
    int main() { A *p = nullptr; delete p; return 7; }
  )"),
            7);
}

TEST(Interp, SizeofMatchesLayout) {
  auto C = compileOK(R"(
    class A { public: int x; double d; };
    int main() { return sizeof(A); }
  )");
  ExecResult R = runOK(*C);
  LayoutEngine L(C->hierarchy());
  const ClassDecl *A = findClass(*C, "A");
  EXPECT_EQ(static_cast<uint64_t>(R.ExitCode), L.layout(A).CompleteSize);
}

//===----------------------------------------------------------------------===//
// Runtime errors
//===----------------------------------------------------------------------===//

TEST(Interp, NullDereferenceIsAnError) {
  auto C = compileOK(R"(
    class A { public: int v; };
    int main() { A *p = nullptr; return p->v; }
  )");
  Interpreter I(C->context(), C->hierarchy(), {});
  ExecResult R = I.run(C->mainFunction());
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Error.find("null"), std::string::npos);
}

TEST(Interp, DivisionByZeroIsAnError) {
  auto C = compileOK("int main() { int z = 0; return 5 / z; }");
  Interpreter I(C->context(), C->hierarchy(), {});
  ExecResult R = I.run(C->mainFunction());
  EXPECT_FALSE(R.Completed);
}

TEST(Interp, StepLimitTerminatesInfiniteLoop) {
  auto C = compileOK("int main() { while (true) { } return 0; }");
  InterpOptions Opts;
  Opts.MaxSteps = 10000;
  Interpreter I(C->context(), C->hierarchy(), Opts);
  ExecResult R = I.run(C->mainFunction());
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(Interp, UseAfterDeleteIsAnError) {
  auto C = compileOK(R"(
    class A { public: int v; };
    int main() {
      A *p = new A();
      delete p;
      return p->v;
    }
  )");
  Interpreter I(C->context(), C->hierarchy(), {});
  ExecResult R = I.run(C->mainFunction());
  EXPECT_FALSE(R.Completed);
}

TEST(Interp, ArrayIndexOutOfBoundsIsAnError) {
  auto C = compileOK(R"(
    int main() { int a[3]; return a[5]; }
  )");
  Interpreter I(C->context(), C->hierarchy(), {});
  ExecResult R = I.run(C->mainFunction());
  EXPECT_FALSE(R.Completed);
}

//===----------------------------------------------------------------------===//
// Instrumentation: trace and member access heat
//===----------------------------------------------------------------------===//

TEST(Interp, TraceRecordsAllocationsAndFrees) {
  auto C = compileOK(R"(
    class A { public: int v; };
    int main() {
      A stack;
      A *heap = new A();
      delete heap;
      return 0;
    }
  )");
  AllocationTrace T;
  InterpOptions Opts;
  Opts.Trace = &T;
  runOK(*C, Opts);
  // stack alloc + free, heap alloc + free.
  EXPECT_EQ(T.events().size(), 4u);
  EXPECT_EQ(T.numLeaked(), 0u);
}

TEST(Interp, TraceDetectsLeaks) {
  auto C = compileOK(R"(
    class A { public: int v; };
    int main() { A *leaked = new A(); return 0; }
  )");
  AllocationTrace T;
  InterpOptions Opts;
  Opts.Trace = &T;
  runOK(*C, Opts);
  EXPECT_EQ(T.numLeaked(), 1u);
}

TEST(Interp, HeatCapturesOnlyReadMembers) {
  auto C = compileOK(R"(
    class A { public: int readMe; int writeMe; };
    int main() { A a; a.writeMe = 1; return a.readMe; }
  )");
  FieldHeat Heat;
  InterpOptions Opts;
  Opts.Heat = &Heat;
  runOK(*C, Opts);
  EXPECT_TRUE(Heat.Reads[findField(*C, "A", "readMe")->declID()]);
  EXPECT_FALSE(Heat.Reads[findField(*C, "A", "writeMe")->declID()]);
  EXPECT_TRUE(Heat.Writes[findField(*C, "A", "writeMe")->declID()]);
}

TEST(Interp, ReadThroughTakenAddressAttributesMember) {
  // Reads through a pointer to a member's storage are still attributed
  // to the member (the instrumented-trace precision the analysis lacks).
  auto C = compileOK(R"(
    class A { public: int x; };
    int deref(int *p) { return *p; }
    int main() { A a; a.x = 5; return deref(&a.x); }
  )");
  FieldHeat Heat;
  InterpOptions Opts;
  Opts.Heat = &Heat;
  runOK(*C, Opts);
  EXPECT_TRUE(Heat.Reads[findField(*C, "A", "x")->declID()]);
}

TEST(Interp, OutputAndExitCodeArePropagated) {
  auto C = compileOK(R"(
    int main() {
      print_str("value=");
      print_int(42);
      print_bool(true);
      return 3;
    }
  )");
  ExecResult R = runOK(*C);
  EXPECT_EQ(R.Output, "value=42\ntrue\n");
  EXPECT_EQ(R.ExitCode, 3);
}

} // namespace
