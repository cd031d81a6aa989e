//===-- tests/SupportTest.cpp - Support library & AST walker tests --------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ast/ASTWalker.h"
#include "support/Arena.h"

using namespace dmm;
using namespace dmm::test;

namespace {

//===----------------------------------------------------------------------===//
// SourceManager
//===----------------------------------------------------------------------===//

TEST(SourceManager, PresumedLocationsAcrossBuffers) {
  SourceManager SM;
  uint32_t A = SM.addBuffer("a.mcc", "one\ntwo\n");
  uint32_t B = SM.addBuffer("b.mcc", "alpha");
  EXPECT_EQ(SM.numBuffers(), 2u);

  PresumedLoc P1 = SM.presumedLoc(SourceLocation(A, 4)); // 't' of "two"
  EXPECT_EQ(P1.Filename, "a.mcc");
  EXPECT_EQ(P1.Line, 2u);
  EXPECT_EQ(P1.Column, 1u);

  PresumedLoc P2 = SM.presumedLoc(SourceLocation(B, 2));
  EXPECT_EQ(P2.Filename, "b.mcc");
  EXPECT_EQ(P2.Line, 1u);
  EXPECT_EQ(P2.Column, 3u);
}

TEST(SourceManager, InvalidLocationYieldsInvalidPresumed) {
  SourceManager SM;
  EXPECT_FALSE(SM.presumedLoc(SourceLocation()).isValid());
}

TEST(SourceManager, CodeLineCounting) {
  SourceManager SM;
  uint32_t ID = SM.addBuffer("x.mcc", "a\n\n  \nb\nc");
  EXPECT_EQ(SM.countCodeLines(ID), 3u);
  uint32_t Empty = SM.addBuffer("e.mcc", "");
  EXPECT_EQ(SM.countCodeLines(Empty), 0u);
}

// Tokens and AST names are views into buffer text, so registering more
// buffers must not move it; a 5-byte text is stored inline in its string.
TEST(SourceManager, BufferTextIsAddressStable) {
  SourceManager SM;
  uint32_t ID = SM.addBuffer("s.mcc", "short");
  std::string_view View = SM.bufferText(ID);
  for (int I = 0; I != 100; ++I)
    SM.addBuffer("f" + std::to_string(I) + ".mcc", "x");
  EXPECT_EQ(View.data(), SM.bufferText(ID).data());
  EXPECT_EQ(View, "short");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CountsAndFormatting) {
  SourceManager SM;
  uint32_t ID = SM.addBuffer("d.mcc", "xyz\n");
  DiagnosticsEngine Diags(SM);
  Diags.error(SourceLocation(ID, 1), "something broke");
  Diags.warning(SourceLocation(ID, 0), "looks odd");
  Diags.note(SourceLocation(), "for context");

  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.warningCount(), 1u);
  EXPECT_TRUE(Diags.hasErrors());
  ASSERT_EQ(Diags.diagnostics().size(), 3u);

  EXPECT_EQ(Diags.format(Diags.diagnostics()[0]),
            "d.mcc:1:2: error: something broke");
  // Locationless diagnostics omit the position prefix.
  EXPECT_EQ(Diags.format(Diags.diagnostics()[2]), "note: for context");
}

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, RunsDestructorsInReverseOrder) {
  std::vector<int> Order;
  struct Tracker {
    std::vector<int> *Order;
    int ID;
    Tracker(std::vector<int> *Order, int ID) : Order(Order), ID(ID) {}
    ~Tracker() { Order->push_back(ID); }
  };
  {
    Arena A;
    A.create<Tracker>(&Order, 1);
    A.create<Tracker>(&Order, 2);
    A.create<Tracker>(&Order, 3);
  }
  EXPECT_EQ(Order, (std::vector<int>{3, 2, 1}));
}

TEST(Arena, LargeAllocationsGetTheirOwnSlabs) {
  Arena A;
  struct Big {
    char Data[256 * 1024];
  };
  Big *B = A.create<Big>();
  B->Data[0] = 'x';
  B->Data[sizeof(B->Data) - 1] = 'y';
  EXPECT_GE(A.bytesAllocated(), sizeof(Big));
}

//===----------------------------------------------------------------------===//
// AST walkers
//===----------------------------------------------------------------------===//

TEST(Walker, PreorderVisitsEveryExpression) {
  auto C = compileOK(R"(
    int main() {
      int a = 1 + 2 * 3;
      return a > 4 ? a : -a;
    }
  )");
  unsigned Count = 0;
  for (const FunctionDecl *FD : C->context().functions())
    if (FD->name() == "main")
      forEachExprInFunction(FD, [&](const Expr *) { ++Count; });
  // init: 1, 2, 3, 2*3, 1+... = 5 nodes;
  // return: cond, a, 4, a>4, a, -a, a = 7 nodes.
  EXPECT_EQ(Count, 12u);
}

TEST(Walker, CtorInitializerArgsAreVisited) {
  auto C = compileOK(R"(
    class A {
    public:
      int x;
      A(int v) : x(v + 1) {}
    };
    int main() { A a(5); return 0; }
  )");
  bool SawAdd = false;
  for (const FunctionDecl *FD : C->context().functions())
    if (isa<ConstructorDecl>(FD))
      forEachExprInFunction(FD, [&](const Expr *E) {
        if (const auto *BE = dyn_cast<BinaryExpr>(E))
          SawAdd |= BE->op() == BinaryOpKind::Add;
      });
  EXPECT_TRUE(SawAdd);
}

TEST(Walker, StmtPreorderReachesNestedStatements) {
  auto C = compileOK(R"(
    int main() {
      for (int i = 0; i < 3; i = i + 1) {
        if (i == 1) {
          while (false) { break; }
        } else {
          continue;
        }
      }
      return 0;
    }
  )");
  unsigned Fors = 0, Ifs = 0, Whiles = 0, Breaks = 0, Continues = 0;
  for (const FunctionDecl *FD : C->context().functions()) {
    if (!FD->body())
      continue;
    forEachStmtPreorder(FD->body(), [&](const Stmt *S) {
      switch (S->kind()) {
      case Stmt::Kind::For: ++Fors; break;
      case Stmt::Kind::If: ++Ifs; break;
      case Stmt::Kind::While: ++Whiles; break;
      case Stmt::Kind::Break: ++Breaks; break;
      case Stmt::Kind::Continue: ++Continues; break;
      default: break;
      }
    });
  }
  EXPECT_EQ(Fors, 1u);
  EXPECT_EQ(Ifs, 1u);
  EXPECT_EQ(Whiles, 1u);
  EXPECT_EQ(Breaks, 1u);
  EXPECT_EQ(Continues, 1u);
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST(Types, UniquingGivesPointerEquality) {
  auto C = compileOK("int main() { return 0; }");
  ASTContext &Ctx = C->context();
  EXPECT_EQ(Ctx.pointerType(Ctx.intType()), Ctx.pointerType(Ctx.intType()));
  EXPECT_EQ(Ctx.arrayType(Ctx.charType(), 8),
            Ctx.arrayType(Ctx.charType(), 8));
  EXPECT_NE(Ctx.arrayType(Ctx.charType(), 8),
            Ctx.arrayType(Ctx.charType(), 9));
  EXPECT_EQ(Ctx.functionType(Ctx.intType(), {Ctx.intType()}),
            Ctx.functionType(Ctx.intType(), {Ctx.intType()}));
  EXPECT_NE(Ctx.functionType(Ctx.intType(), {Ctx.intType()}),
            Ctx.functionType(Ctx.intType(), {}));
}

TEST(Types, Spellings) {
  auto C = compileOK(R"(
    class A { public: int m; };
    int main() { A a; return a.m; }
  )");
  ASTContext &Ctx = C->context();
  const ClassDecl *A = findClass(*C, "A");
  EXPECT_EQ(Ctx.pointerType(Ctx.classType(A))->str(), "A*");
  EXPECT_EQ(Ctx.referenceType(Ctx.intType())->str(), "int&");
  EXPECT_EQ(Ctx.memberPointerType(A, Ctx.intType())->str(), "int A::*");
  EXPECT_EQ(
      Ctx.functionType(Ctx.voidType(), {Ctx.intType(), Ctx.charType()})
          ->str(),
      "void(int, char)");
}

TEST(Types, Predicates) {
  auto C = compileOK("int main() { return 0; }");
  ASTContext &Ctx = C->context();
  EXPECT_TRUE(Ctx.intType()->isArithmetic());
  EXPECT_TRUE(Ctx.intType()->isInteger());
  EXPECT_FALSE(Ctx.doubleType()->isInteger());
  EXPECT_TRUE(Ctx.doubleType()->isArithmetic());
  EXPECT_TRUE(Ctx.pointerType(Ctx.voidType())->isScalar());
  EXPECT_FALSE(Ctx.voidType()->isScalar());
  EXPECT_EQ(Ctx.referenceType(Ctx.intType())->nonReferenceType(),
            Ctx.intType());
}

} // namespace
