//===-- tests/SemaTest.cpp - Semantic analysis tests ----------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ast/ASTWalker.h"

using namespace dmm;
using namespace dmm::test;

namespace {

/// Finds the first expression matching a predicate anywhere in a
/// function body.
template <typename Pred>
const Expr *findExpr(Compilation &C, const std::string &FnName, Pred P) {
  for (const FunctionDecl *FD : C.context().functions()) {
    if (FD->name() != FnName)
      continue;
    const Expr *Found = nullptr;
    forEachExprInFunction(FD, [&](const Expr *E) {
      if (!Found && P(E))
        Found = E;
    });
    return Found;
  }
  return nullptr;
}

TEST(Sema, UndeclaredIdentifierIsAnError) {
  std::string Err = compileError("int main() { return nothere; }");
  EXPECT_NE(Err.find("undeclared identifier"), std::string::npos);
}

TEST(Sema, UnknownMemberIsAnError) {
  std::string Err = compileError(R"(
    class A { public: int x; };
    int main() { A a; return a.nope; }
  )");
  EXPECT_NE(Err.find("no member named"), std::string::npos);
}

TEST(Sema, MemberAccessOnNonClassIsAnError) {
  std::string Err = compileError("int main() { int i; return i.x; }");
  EXPECT_NE(Err.find("non-class"), std::string::npos);
}

TEST(Sema, ArrowOnValueIsAnError) {
  std::string Err = compileError(R"(
    class A { public: int x; };
    int main() { A a; return a->x; }
  )");
  EXPECT_NE(Err.find("'->'"), std::string::npos);
}

TEST(Sema, ArgumentCountMismatchIsAnError) {
  std::string Err = compileError(R"(
    int f(int a, int b) { return a + b; }
    int main() { return f(1); }
  )");
  EXPECT_NE(Err.find("expects 2 arguments"), std::string::npos);
}

TEST(Sema, MissingMainIsAnError) {
  std::string Err = compileError("int notmain() { return 0; }");
  EXPECT_NE(Err.find("no defined 'main'"), std::string::npos);
}

TEST(Sema, DuplicateLocalIsAnError) {
  std::string Err = compileError(R"(
    int main() { int x; int x; return 0; }
  )");
  EXPECT_NE(Err.find("redefinition of variable"), std::string::npos);
}

TEST(Sema, ShadowingInNestedScopeIsAllowed) {
  compileOK(R"(
    int main() {
      int x = 1;
      { int x = 2; if (x != 2) { return 9; } }
      return x;
    }
  )");
}

TEST(Sema, NoDefaultConstructorIsAnError) {
  std::string Err = compileError(R"(
    class A { public: int v; A(int x) : v(x) {} };
    int main() { A a; return 0; }
  )");
  EXPECT_NE(Err.find("no default constructor"), std::string::npos);
}

TEST(Sema, WrongCtorArityIsAnError) {
  std::string Err = compileError(R"(
    class A { public: int v; A(int x) : v(x) {} };
    int main() { A a(1, 2); return 0; }
  )");
  EXPECT_NE(Err.find("takes 2 arguments"), std::string::npos);
}

TEST(Sema, CtorInitializerMustNameMemberOrBase) {
  std::string Err = compileError(R"(
    class A {
    public:
      int v;
      A() : nothere(1) {}
    };
    int main() { A a; return 0; }
  )");
  EXPECT_NE(Err.find("not a member or base"), std::string::npos);
}

TEST(Sema, AmbiguousMemberLookupIsAnError) {
  std::string Err = compileError(R"(
    class L { public: int m; };
    class R { public: int m; };
    class B : public L, public R { public: int other; };
    int main() { B b; return b.m; }
  )");
  EXPECT_NE(Err.find("ambiguous"), std::string::npos);
}

TEST(Sema, DiamondThroughVirtualBasesIsNotAmbiguous) {
  compileOK(R"(
    class Top { public: int m; };
    class L : public virtual Top { public: int l; };
    class R : public virtual Top { public: int r; };
    class B : public L, public R { public: int b; };
    int main() { B x; return x.m; }
  )");
}

TEST(Sema, DerivedMemberHidesBase) {
  auto C = compileOK(R"(
    class A { public: int m; };
    class B : public A { public: int m; };
    int main() { B b; return b.m; }
  )");
  const Expr *Access = findExpr(*C, "main", [](const Expr *E) {
    return isa<MemberExpr>(E);
  });
  ASSERT_NE(Access, nullptr);
  const auto *ME = cast<MemberExpr>(Access);
  EXPECT_EQ(cast<FieldDecl>(ME->member())->parent()->name(), "B");
}

TEST(Sema, VirtualnessPropagatesToOverrides) {
  auto C = compileOK(R"(
    class A { public: virtual int f() { return 1; } };
    class B : public A { public: int f() { return 2; } };
    int main() { B b; return b.f(); }
  )");
  // B::f is virtual even without the keyword.
  EXPECT_TRUE(findClass(*C, "B")->findMethod("f")->isVirtual());
}

TEST(Sema, VirtualDestructorPropagates) {
  auto C = compileOK(R"(
    class A { public: int a; virtual ~A() {} };
    class B : public A { public: int b; ~B() {} };
    int main() { A *p = new B(); delete p; return 0; }
  )");
  EXPECT_TRUE(findClass(*C, "B")->destructor()->isVirtual());
}

TEST(Sema, VirtualCallFlagIsSet) {
  auto C = compileOK(R"(
    class A { public: virtual int f() { return 1; } int g() { return 2; } };
    int main() {
      A a;
      A *p = &a;
      return p->f() + p->g();
    }
  )");
  const Expr *VirtCall = findExpr(*C, "main", [](const Expr *E) {
    const auto *Call = dyn_cast<CallExpr>(E);
    return Call && Call->directCallee() &&
           Call->directCallee()->name() == "f";
  });
  const Expr *PlainCall = findExpr(*C, "main", [](const Expr *E) {
    const auto *Call = dyn_cast<CallExpr>(E);
    return Call && Call->directCallee() &&
           Call->directCallee()->name() == "g";
  });
  ASSERT_NE(VirtCall, nullptr);
  ASSERT_NE(PlainCall, nullptr);
  EXPECT_TRUE(cast<CallExpr>(VirtCall)->isVirtualCall());
  EXPECT_FALSE(cast<CallExpr>(PlainCall)->isVirtualCall());
}

TEST(Sema, QualifiedCallIsNotVirtual) {
  auto C = compileOK(R"(
    class A { public: virtual int f() { return 1; } };
    class B : public A { public: virtual int f() { return 2; } };
    int main() { B b; return b.A::f(); }
  )");
  const Expr *Call = findExpr(*C, "main", [](const Expr *E) {
    return isa<CallExpr>(E);
  });
  ASSERT_NE(Call, nullptr);
  EXPECT_FALSE(cast<CallExpr>(Call)->isVirtualCall());
  EXPECT_EQ(cast<CallExpr>(Call)->directCallee()->qualifiedName(), "A::f");
}

TEST(Sema, CastSafetyClassification) {
  auto C = compileOK(R"(
    class A { public: int a; };
    class B : public A { public: int b; };
    class X { public: int x; };
    int main() {
      B b;
      A *up = (A*)&b;
      B *down = (B*)up;
      X *far = reinterpret_cast<X*>(up);
      int n = (int)2.5;
      return n;
    }
  )");
  std::vector<CastSafety> Seen;
  for (const FunctionDecl *FD : C->context().functions())
    if (FD->name() == "main")
      forEachExprInFunction(FD, [&](const Expr *E) {
        if (const auto *CE = dyn_cast<CastExpr>(E))
          Seen.push_back(CE->safety());
      });
  ASSERT_EQ(Seen.size(), 4u);
  EXPECT_EQ(Seen[0], CastSafety::Safe);      // up-cast
  EXPECT_EQ(Seen[1], CastSafety::Downcast);  // down-cast
  EXPECT_EQ(Seen[2], CastSafety::Unrelated); // reinterpret
  EXPECT_EQ(Seen[3], CastSafety::Safe);      // numeric
}

TEST(Sema, NullptrToPointerCastIsSafe) {
  auto C = compileOK(R"(
    class A { public: int a; };
    int main() { A *p = (A*)nullptr; return p == nullptr ? 0 : 1; }
  )");
  const Expr *Cast = findExpr(*C, "main", [](const Expr *E) {
    return isa<CastExpr>(E);
  });
  ASSERT_NE(Cast, nullptr);
  EXPECT_EQ(cast<CastExpr>(Cast)->safety(), CastSafety::Safe);
}

TEST(Sema, VoidPointerConversionsAreSafe) {
  auto C = compileOK(R"(
    class A { public: int a; };
    int main() {
      A a;
      void *v = (void*)&a;
      A *back = (A*)v;
      return back != nullptr ? 0 : 1;
    }
  )");
  for (const FunctionDecl *FD : C->context().functions()) {
    if (FD->name() != "main")
      continue;
    forEachExprInFunction(FD, [&](const Expr *E) {
      if (const auto *CE = dyn_cast<CastExpr>(E)) {
        EXPECT_EQ(CE->safety(), CastSafety::Safe);
      }
    });
  }
}

TEST(Sema, ExpressionTypesAreAssigned) {
  auto C = compileOK(R"(
    class A { public: int x; double d; };
    int main() { A a; a.x = 1; a.d = 2.0; return a.x; }
  )");
  unsigned Untyped = 0;
  for (const FunctionDecl *FD : C->context().functions())
    forEachExprInFunction(FD, [&](const Expr *E) {
      if (!E->type())
        ++Untyped;
    });
  EXPECT_EQ(Untyped, 0u);
}

TEST(Sema, ThisOutsideMethodIsAnError) {
  std::string Err = compileError("int main() { return this != nullptr; }");
  EXPECT_NE(Err.find("'this'"), std::string::npos);
}

TEST(Sema, MemberPointerOfUnknownMemberIsAnError) {
  std::string Err = compileError(R"(
    class A { public: int x; };
    int main() { int A::* pm = &A::nope; return 0; }
  )");
  EXPECT_NE(Err.find("no data member"), std::string::npos);
}

TEST(Sema, GlobalsVisibleInAllFunctions) {
  compileOK(R"(
    int counter = 5;
    int readIt() { return counter; }
    int main() { counter = counter + 1; return readIt(); }
  )");
}

TEST(Sema, BuiltinsAreAvailable) {
  compileOK(R"(
    int main() {
      print_int(1);
      print_char('c');
      print_double(1.5);
      print_str("s");
      print_bool(true);
      int *p = new int[2];
      free(p);
      return 0;
    }
  )");
}

TEST(Sema, MemberLookupThroughDeepBaseChain) {
  auto C = compileOK(R"(
    class A { public: int deep; };
    class B : public A { public: int b; };
    class D : public B { public: int d; };
    int main() { D x; return x.deep; }
  )");
  const Expr *Access = findExpr(*C, "main", [](const Expr *E) {
    return isa<MemberExpr>(E);
  });
  ASSERT_NE(Access, nullptr);
  EXPECT_EQ(cast<FieldDecl>(cast<MemberExpr>(Access)->member())
                ->parent()
                ->name(),
            "A");
}

TEST(Sema, SubscriptRequiresPointerOrArray) {
  std::string Err = compileError("int main() { int i; return i[0]; }");
  EXPECT_NE(Err.find("subscripted"), std::string::npos);
}

TEST(Sema, IndirectCallArityIsChecked) {
  std::string Err = compileError(R"(
    int f(int a) { return a; }
    int main() {
      int (*fp)(int) = &f;
      return fp(1, 2);
    }
  )");
  EXPECT_NE(Err.find("indirect call expects 1"), std::string::npos);
}

// A name resolves to a local (innermost block first), then to a member
// of the enclosing class through implicit `this`, then to a global. An
// inner block's local shadows only until the block ends. A user
// function named like a builtin is accepted, but the name stays bound to
// the builtin. The program prints which binding each use took, on both
// engines.
TEST(Sema, NameResolutionOrder) {
  auto C = compileOK(R"(
    int v = 1;
    void print_int(int x) { print_char('U'); }
    class K {
    public:
      int v;
      int member() { return v; }
      int local() { int v = 3; return v; }
      int shadow() {
        int v = 4;
        { int v = 5; print_int(v); }
        return v;
      }
    };
    int global() { return v; }
    int param(int v) { int v = 6; return v; }
    int main() {
      K k;
      k.v = 2;
      print_int(global());
      print_int(k.member());
      print_int(k.local());
      print_int(k.shadow());
      print_int(param(0));
      return 0;
    }
  )");
  for (EngineKind E : {EngineKind::Tree, EngineKind::Vm}) {
    ExecResult R = runWithOK(*C, E);
    EXPECT_EQ(R.Output, "1\n2\n3\n5\n4\n6\n") << engineName(E);
  }
  const Expr *Call = findExpr(*C, "main", [](const Expr *E) {
    return isa<CallExpr>(E);
  });
  ASSERT_NE(Call, nullptr);
  const auto *Callee = dyn_cast_or_null<FunctionDecl>(
      cast<DeclRefExpr>(cast<CallExpr>(Call)->callee())->referent());
  ASSERT_NE(Callee, nullptr);
  EXPECT_EQ(Callee->name(), "print_int");
  EXPECT_TRUE(Callee->isBuiltin());
}

} // namespace
