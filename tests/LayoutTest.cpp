//===-- tests/LayoutTest.cpp - Object layout tests ------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace dmm;
using namespace dmm::test;

namespace {

TEST(Layout, ScalarSizes) {
  auto C = compileOK("int main() { return 0; }");
  LayoutEngine L(C->hierarchy());
  EXPECT_EQ(L.sizeOf(C->context().boolType()), 1u);
  EXPECT_EQ(L.sizeOf(C->context().charType()), 1u);
  EXPECT_EQ(L.sizeOf(C->context().intType()), 4u);
  EXPECT_EQ(L.sizeOf(C->context().doubleType()), 8u);
  EXPECT_EQ(L.sizeOf(C->context().pointerType(C->context().intType())), 8u);
}

TEST(Layout, PlainStructPacksWithAlignment) {
  auto C = compileOK(R"(
    struct S { char c; int i; char d; };
    int main() { S s; s.c = 'a'; s.i = 1; s.d = 'b'; return 0; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassLayout &SL = L.layout(findClass(*C, "S"));
  // c at 0, pad, i at 4, d at 8 -> size 12 (align 4).
  EXPECT_EQ(SL.CompleteSize, 12u);
  EXPECT_EQ(SL.Align, 4u);
  EXPECT_FALSE(SL.HasOwnVPtr);
  ASSERT_EQ(SL.AllFields.size(), 3u);
  EXPECT_EQ(SL.AllFields[0].Offset, 0u);
  EXPECT_EQ(SL.AllFields[1].Offset, 4u);
  EXPECT_EQ(SL.AllFields[2].Offset, 8u);
}

TEST(Layout, EmptyClassHasSizeOne) {
  auto C = compileOK(R"(
    class Empty { public: int tag(); };
    int Empty::tag() { return 0; }
    int main() { Empty e; return e.tag(); }
  )");
  LayoutEngine L(C->hierarchy());
  EXPECT_EQ(L.layout(findClass(*C, "Empty")).CompleteSize, 1u);
}

TEST(Layout, VPtrAddedForVirtualMethods) {
  auto C = compileOK(R"(
    class A { public: int x; virtual int f() { return x; } };
    int main() { A a; return a.f(); }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassLayout &AL = L.layout(findClass(*C, "A"));
  EXPECT_TRUE(AL.HasOwnVPtr);
  EXPECT_EQ(AL.CompleteSize, 16u); // vptr 8 + int 4 + pad.
  EXPECT_EQ(AL.OverheadBytes, 8u);
  EXPECT_EQ(AL.AllFields[0].Offset, 8u);
}

TEST(Layout, DerivedSharesBaseVPtr) {
  auto C = compileOK(R"(
    class A { public: int x; virtual int f() { return x; } };
    class B : public A { public: int y; virtual int f() { return y; } };
    int main() { B b; return b.f(); }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassLayout &BL = L.layout(findClass(*C, "B"));
  EXPECT_FALSE(BL.HasOwnVPtr); // Reuses A's.
  EXPECT_EQ(BL.OverheadBytes, 8u);
  EXPECT_EQ(BL.CompleteSize, 16u); // vptr + x + y.
}

TEST(Layout, BaseSubobjectFieldsIncluded) {
  auto C = compileOK(R"(
    class A { public: int a1; int a2; };
    class B : public A { public: int b1; };
    int main() { B b; b.a1 = 1; b.a2 = 2; b.b1 = 3; return 0; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassLayout &BL = L.layout(findClass(*C, "B"));
  EXPECT_EQ(BL.AllFields.size(), 3u);
  EXPECT_EQ(BL.CompleteSize, 12u);
}

TEST(Layout, UnionMembersOverlap) {
  auto C = compileOK(R"(
    union U { public: int i; double d; char c; };
    int main() { U u; u.i = 1; return u.i; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassLayout &UL = L.layout(findClass(*C, "U"));
  EXPECT_EQ(UL.CompleteSize, 8u); // max(int, double, char).
  for (const FieldSlot &S : UL.AllFields)
    EXPECT_EQ(S.Offset, 0u);
}

TEST(Layout, VirtualBaseAppendedOnceWithVBasePointers) {
  auto C = compileOK(R"(
    class Top { public: int t; };
    class L : public virtual Top { public: int l; };
    class R : public virtual Top { public: int r; };
    class B : public L, public R { public: int b; };
    int main() { B x; x.t = 1; return x.t; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassLayout &BL = L.layout(findClass(*C, "B"));
  // L-part (vbptr 8 + l 4 -> 12), R-part (vbptr 8 + r 4 -> 12), b 4,
  // then one Top (t 4). Two vbase pointers of overhead.
  EXPECT_EQ(BL.OverheadBytes, 16u);
  // Top's field appears exactly once.
  unsigned TopFields = 0;
  for (const FieldSlot &S : BL.AllFields)
    if (S.Field->name() == "t")
      ++TopFields;
  EXPECT_EQ(TopFields, 1u);
  // Virtual inheritance costs space (the paper's observation).
  EXPECT_GT(BL.CompleteSize,
            L.layout(findClass(*C, "Top")).CompleteSize +
                3 * 4 /* l, r, b */);
}

TEST(Layout, NestedMemberObjectUsesCompleteSize) {
  auto C = compileOK(R"(
    class Inner { public: double d; int i; };
    class Outer { public: char c; Inner inner; };
    int main() { Outer o; o.c = 'x'; o.inner.i = 1; return 0; }
  )");
  LayoutEngine L(C->hierarchy());
  EXPECT_EQ(L.layout(findClass(*C, "Inner")).CompleteSize, 16u);
  // c at 0, pad to 8, inner 16 -> 24.
  EXPECT_EQ(L.layout(findClass(*C, "Outer")).CompleteSize, 24u);
}

TEST(Layout, ArrayFieldSize) {
  auto C = compileOK(R"(
    class A { public: int data[10]; char tail; };
    int main() { A a; a.tail = 'x'; return a.data[0]; }
  )");
  LayoutEngine L(C->hierarchy());
  EXPECT_EQ(L.layout(findClass(*C, "A")).CompleteSize, 44u);
}

//===----------------------------------------------------------------------===//
// Dead-byte accounting (Table 2 inputs)
//===----------------------------------------------------------------------===//

TEST(Layout, DeadBytesSumsDeadMemberSizes) {
  auto C = compileOK(R"(
    class A { public: int live1; double deadD; int deadI; };
    int main() { A a; return a.live1; }
  )");
  LayoutEngine L(C->hierarchy());
  FieldSet Dead{findField(*C, "A", "deadD"), findField(*C, "A", "deadI")};
  EXPECT_EQ(L.deadBytes(findClass(*C, "A"), Dead), 12u);
}

TEST(Layout, DeadBytesInsideNestedMembers) {
  auto C = compileOK(R"(
    class Inner { public: int keep; int drop; };
    class Outer { public: Inner one; Inner two; };
    int main() { Outer o; return o.one.keep; }
  )");
  LayoutEngine L(C->hierarchy());
  FieldSet Dead{findField(*C, "Inner", "drop")};
  // Both Inner subobjects contain the dead member.
  EXPECT_EQ(L.deadBytes(findClass(*C, "Outer"), Dead), 8u);
}

TEST(Layout, DeadClassTypedMemberCountsWholeObject) {
  auto C = compileOK(R"(
    class Inner { public: int a; int b; };
    class Outer { public: Inner whole; int keep; };
    int main() { Outer o; return o.keep; }
  )");
  LayoutEngine L(C->hierarchy());
  FieldSet Dead{findField(*C, "Outer", "whole")};
  EXPECT_EQ(L.deadBytes(findClass(*C, "Outer"), Dead), 8u);
}

TEST(Layout, SizeWithoutDeadRelayouts) {
  auto C = compileOK(R"(
    class A { public: char c; int dead1; double dead2; char c2; };
    int main() { A a; a.c = 'a'; a.c2 = 'b'; return 0; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassDecl *A = findClass(*C, "A");
  EXPECT_EQ(L.layout(A).CompleteSize, 24u);
  FieldSet Dead{findField(*C, "A", "dead1"), findField(*C, "A", "dead2")};
  // Only two chars remain: size 2.
  EXPECT_EQ(L.sizeWithoutDead(A, Dead), 2u);
}

TEST(Layout, SizeWithoutDeadNeverGrows) {
  auto C = compileOK(R"(
    class A { public: int x; int y; };
    int main() { A a; return a.x + a.y; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassDecl *A = findClass(*C, "A");
  FieldSet Empty;
  EXPECT_EQ(L.sizeWithoutDead(A, Empty), L.layout(A).CompleteSize);
}

TEST(Layout, FilterMayChangeBetweenCalls) {
  auto C = compileOK(R"(
    class A { public: int x; double y; };
    int main() { A a; a.x = 1; return a.x; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassDecl *A = findClass(*C, "A");
  FieldSet Dead;
  EXPECT_EQ(L.sizeWithoutDead(A, Dead), 16u);
  EXPECT_EQ(L.deadBytes(A, Dead), 0u);
  // The same set, now with a member: the engine must not reuse the
  // layouts it computed for the set's earlier contents.
  Dead.insert(findField(*C, "A", "y"));
  EXPECT_EQ(L.sizeWithoutDead(A, Dead), 4u);
  EXPECT_EQ(L.deadBytes(A, Dead), 8u);
  Dead.clear();
  EXPECT_EQ(L.sizeWithoutDead(A, Dead), 16u);
  EXPECT_EQ(L.layout(A, &Dead).DeadBytes, 0u);
}

TEST(Layout, UnionShrinksToLargestLiveMember) {
  auto C = compileOK(R"(
    union U { public: double big; int small; };
    int main() { U u; u.small = 1; return u.small; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassDecl *U = findClass(*C, "U");
  FieldSet Dead{findField(*C, "U", "big")};
  EXPECT_EQ(L.sizeWithoutDead(U, Dead), 4u);
  EXPECT_EQ(L.deadBytes(U, Dead), 4u); // 8 -> 4: only 4 bytes reclaimed.
}

TEST(Layout, VPtrSurvivesDeadMemberRemoval) {
  auto C = compileOK(R"(
    class A { public: int dead; virtual int f() { return 1; } };
    int main() { A a; return a.f(); }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassDecl *A = findClass(*C, "A");
  FieldSet Dead{findField(*C, "A", "dead")};
  EXPECT_EQ(L.sizeWithoutDead(A, Dead), 8u); // Just the vptr.
}

// The shapes below occur in no corpus or generated program; their
// expected values were pinned from the standalone relayouter that the
// filtered layout replaced (except the multi-dimensional array, which
// the relayouter left unshrunk).

TEST(Layout, DeadMemberOfVirtualBaseCountsOnce) {
  auto C = compileOK(R"(
    class Top { public: int t; double dead; };
    class L : public virtual Top { public: int l; };
    class R : public virtual Top { public: int r; };
    class B : public L, public R { public: int b; };
    int main() { B x; x.t = 1; x.l = 2; x.r = 3; x.b = 4; return x.t; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassDecl *B = findClass(*C, "B");
  FieldSet Dead{findField(*C, "Top", "dead")};
  EXPECT_EQ(L.layout(B).CompleteSize, 48u);
  // One shared Top subobject: its dead double counts once.
  EXPECT_EQ(L.deadBytes(B, Dead), 8u);
  EXPECT_EQ(L.sizeWithoutDead(B, Dead), 40u);
}

TEST(Layout, DeadMemberOfRepeatedBaseCountsPerSubobject) {
  auto C = compileOK(R"(
    class Base { public: int keep; int dead; };
    class L : public Base { public: int l; };
    class R : public Base { public: int r; };
    class D : public L, public R { public: int d; };
    int main() { D x; x.d = 1; return x.d; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassDecl *D = findClass(*C, "D");
  FieldSet Dead{findField(*C, "Base", "dead")};
  EXPECT_EQ(L.layout(D).CompleteSize, 28u);
  // Two non-virtual Base subobjects, each with its own dead int.
  EXPECT_EQ(L.deadBytes(D, Dead), 8u);
  EXPECT_EQ(L.sizeWithoutDead(D, Dead), 20u);
}

TEST(Layout, DeadMemberInsideClassArrayElements) {
  auto C = compileOK(R"(
    class Elem { public: char tag; double dead; };
    class Holder { public: Elem items[3]; int n; };
    int main() { Holder h; h.n = 1; return h.n; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassDecl *H = findClass(*C, "Holder");
  FieldSet Dead{findField(*C, "Elem", "dead")};
  EXPECT_EQ(L.layout(H).CompleteSize, 56u);
  EXPECT_EQ(L.deadBytes(H, Dead), 24u); // One dead double per element.
  // Elements shrink to one char each: items 3 bytes, n at 4.
  EXPECT_EQ(L.sizeWithoutDead(H, Dead), 8u);
}

TEST(Layout, DeadMemberInsideMultiDimensionalClassArray) {
  auto C = compileOK(R"(
    class Elem { public: char tag; double dead; };
    class Grid { public: Elem cells[2][3]; int n; };
    int main() { Grid g; g.n = 1; return g.n; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassDecl *G = findClass(*C, "Grid");
  FieldSet Dead{findField(*C, "Elem", "dead")};
  EXPECT_EQ(L.layout(G).CompleteSize, 104u);
  EXPECT_EQ(L.deadBytes(G, Dead), 48u); // Six elements, one double each.
  // As for a one-dimensional array: cells 6 bytes, n at 8.
  EXPECT_EQ(L.sizeWithoutDead(G, Dead), 12u);
}

TEST(Layout, DeadNestedDoubleLowersEnclosingAlignment) {
  auto C = compileOK(R"(
    class Inner { public: int keep; double dead; };
    class Outer { public: char c; Inner inner; char d; };
    int main() { Outer o; o.c = 'a'; o.d = 'b'; return o.inner.keep; }
  )");
  LayoutEngine L(C->hierarchy());
  const ClassDecl *O = findClass(*C, "Outer");
  FieldSet Dead{findField(*C, "Inner", "dead")};
  EXPECT_EQ(L.layout(O).CompleteSize, 32u);
  EXPECT_EQ(L.deadBytes(O, Dead), 8u);
  // Inner shrinks to 4 bytes aligned 4, so Outer aligns to 4:
  // c at 0, inner at 4, d at 8 -> 12.
  EXPECT_EQ(L.sizeWithoutDead(O, Dead), 12u);
}

TEST(Layout, FilteredLayoutListsSurvivingFields) {
  auto C = compileOK(R"(
    class Inner { public: int keep; double dead; };
    class Outer { public: char c; Inner inner; char d; };
    int main() { Outer o; o.c = 'a'; o.d = 'b'; return o.inner.keep; }
  )");
  LayoutEngine L(C->hierarchy());
  FieldSet Dead{findField(*C, "Inner", "dead")};
  const ClassLayout &OL = L.layout(findClass(*C, "Outer"), &Dead);
  EXPECT_EQ(OL.Align, 4u);
  ASSERT_EQ(OL.AllFields.size(), 3u);
  EXPECT_EQ(OL.AllFields[1].Offset, 4u);
  EXPECT_EQ(OL.AllFields[1].Size, 4u); // The shrunk Inner.
  EXPECT_EQ(OL.AllFields[2].Offset, 8u);
  // Without a filter nothing is dead.
  EXPECT_EQ(L.layout(findClass(*C, "Outer")).DeadBytes, 0u);
}

TEST(Layout, IncompleteClassHasZeroSize) {
  std::vector<SourceFile> Files;
  Files.push_back({"lib.mcc", "class Opaque;", true});
  Files.push_back({"app.mcc", R"(
    int main() { Opaque *p = nullptr; return p == nullptr ? 0 : 1; }
  )", false});
  std::ostringstream Diag;
  auto C = compileProgram(std::move(Files), &Diag);
  ASSERT_TRUE(C->Success) << Diag.str();
  LayoutEngine L(C->hierarchy());
  EXPECT_EQ(L.sizeOf(C->context().classType(findClass(*C, "Opaque"))), 0u);
}

TEST(Layout, IncompleteMemberTakesNoSpaceWithoutDead) {
  std::vector<SourceFile> Files;
  Files.push_back({"lib.mcc", "class Opaque;", true});
  Files.push_back({"app.mcc", R"(
    class A { public: char c; Opaque o; char d; };
    int main() { A *a = nullptr; return a == nullptr ? 0 : 1; }
  )", false});
  std::ostringstream Diag;
  auto C = compileProgram(std::move(Files), &Diag);
  ASSERT_TRUE(C->Success) << Diag.str();
  LayoutEngine L(C->hierarchy());
  const ClassDecl *A = findClass(*C, "A");
  EXPECT_EQ(L.layout(A).CompleteSize, 2u); // o takes 0 bytes at +1.
  // The dead-free layout sizes o as the full layout does: d moves to 0.
  FieldSet Dead{findField(*C, "A", "c")};
  EXPECT_EQ(L.sizeWithoutDead(A, Dead), 1u);
}

} // namespace
