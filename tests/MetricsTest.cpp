//===-- tests/MetricsTest.cpp - Dynamic measurement tests -----------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace dmm;
using namespace dmm::test;

namespace {

TEST(Metrics, EmptyTraceYieldsZeros) {
  auto C = compileOK("int main() { return 0; }");
  AllocationTrace T;
  LayoutEngine L(C->hierarchy());
  DynamicMetrics M = computeDynamicMetrics(T, L, {});
  EXPECT_EQ(M.ObjectSpace, 0u);
  EXPECT_EQ(M.HighWaterMark, 0u);
  EXPECT_EQ(M.deadSpacePercent(), 0.0);
  EXPECT_EQ(M.highWaterMarkReductionPercent(), 0.0);
}

TEST(Metrics, ObjectSpaceAccumulatesAllAllocations) {
  auto C = compileOK(R"(
    class A { public: int x; };
    int main() {
      for (int i = 0; i < 10; i = i + 1) {
        A *p = new A();
        delete p;
      }
      return 0;
    }
  )");
  AllocationTrace T;
  InterpOptions IO;
  IO.Trace = &T;
  runOK(*C, IO);
  LayoutEngine L(C->hierarchy());
  DynamicMetrics M = computeDynamicMetrics(T, L, {});
  EXPECT_EQ(M.NumObjects, 10u);
  EXPECT_EQ(M.ObjectSpace, 10 * L.layout(findClass(*C, "A")).CompleteSize);
  // Only one object alive at a time.
  EXPECT_EQ(M.HighWaterMark, L.layout(findClass(*C, "A")).CompleteSize);
}

TEST(Metrics, HighWaterMarkTracksPeakNotTotal) {
  auto C = compileOK(R"(
    class A { public: double d; };
    int main() {
      A *a = new A();
      A *b = new A();
      delete a;
      A *c = new A();
      delete b;
      delete c;
      return 0;
    }
  )");
  AllocationTrace T;
  InterpOptions IO;
  IO.Trace = &T;
  runOK(*C, IO);
  LayoutEngine L(C->hierarchy());
  DynamicMetrics M = computeDynamicMetrics(T, L, {});
  uint64_t Size = L.layout(findClass(*C, "A")).CompleteSize;
  EXPECT_EQ(M.ObjectSpace, 3 * Size);
  EXPECT_EQ(M.HighWaterMark, 2 * Size); // Never 3 alive at once.
}

TEST(Metrics, AllocateAndHoldMakesHWMEqualTotal) {
  // The behaviour the paper observed for sched and hotwire.
  auto C = compileOK(R"(
    class A { public: int x; };
    A *keep[8];
    int main() {
      for (int i = 0; i < 8; i = i + 1) { keep[i] = new A(); }
      return 0;
    }
  )");
  AllocationTrace T;
  InterpOptions IO;
  IO.Trace = &T;
  runOK(*C, IO);
  LayoutEngine L(C->hierarchy());
  DynamicMetrics M = computeDynamicMetrics(T, L, {});
  EXPECT_EQ(M.HighWaterMark, M.ObjectSpace);
}

TEST(Metrics, DeadSpaceUsesDeadSet) {
  auto C = compileOK(R"(
    class A { public: int live; int dead1; int dead2; };
    int main() {
      A *p = new A();
      int r = p->live;
      delete p;
      return r;
    }
  )");
  AllocationTrace T;
  InterpOptions IO;
  IO.Trace = &T;
  runOK(*C, IO);
  auto R = analyze(*C);
  LayoutEngine L(C->hierarchy());
  DynamicMetrics M = computeDynamicMetrics(T, L, R.deadSet());
  EXPECT_EQ(M.DeadMemberSpace, 8u); // Two dead ints.
  EXPECT_EQ(M.ObjectSpace, 12u);
  EXPECT_NEAR(M.deadSpacePercent(), 100.0 * 8 / 12, 0.01);
}

TEST(Metrics, ArrayAllocationsCountPerElement) {
  auto C = compileOK(R"(
    class A { public: int x; int y; };
    int main() {
      A *arr = new A[5];
      int r = arr[0].x;
      delete[] arr;
      return r;
    }
  )");
  AllocationTrace T;
  InterpOptions IO;
  IO.Trace = &T;
  runOK(*C, IO);
  LayoutEngine L(C->hierarchy());
  DynamicMetrics M = computeDynamicMetrics(T, L, {});
  EXPECT_EQ(M.NumObjects, 5u);
  EXPECT_EQ(M.ObjectSpace, 5 * L.layout(findClass(*C, "A")).CompleteSize);
}

TEST(Metrics, HWMWithoutDeadUsesRelayout) {
  auto C = compileOK(R"(
    class A { public: int live; double deadWeight; };
    A *keep[4];
    int main() {
      int r = 0;
      for (int i = 0; i < 4; i = i + 1) {
        keep[i] = new A();
        r = r + keep[i]->live;
      }
      return r;
    }
  )");
  AllocationTrace T;
  InterpOptions IO;
  IO.Trace = &T;
  runOK(*C, IO);
  auto R = analyze(*C);
  LayoutEngine L(C->hierarchy());
  DynamicMetrics M = computeDynamicMetrics(T, L, R.deadSet());
  // Full: 16 bytes (int + pad + double); shrunk: 4 bytes.
  EXPECT_EQ(M.HighWaterMark, 4 * 16u);
  EXPECT_EQ(M.HighWaterMarkNoDead, 4 * 4u);
  EXPECT_NEAR(M.highWaterMarkReductionPercent(), 75.0, 0.01);
}

TEST(Metrics, OneEngineServesSuccessiveTemporarySets) {
  auto C = compileOK(R"(
    class A { public: int live; double deadWeight; };
    int main() {
      A *p = new A();
      int r = p->live;
      delete p;
      return r;
    }
  )");
  AllocationTrace T;
  InterpOptions IO;
  IO.Trace = &T;
  runOK(*C, IO);
  auto R = analyze(*C);
  LayoutEngine Fresh(C->hierarchy());
  DynamicMetrics Expected = computeDynamicMetrics(T, Fresh, R.deadSet());
  ASSERT_EQ(Expected.DeadMemberSpace, 8u);
  // Two temporaries in a row may share a stack address; the second
  // replay must still see its own set.
  LayoutEngine L(C->hierarchy());
  DynamicMetrics None = computeDynamicMetrics(T, L, {});
  DynamicMetrics Dead = computeDynamicMetrics(T, L, R.deadSet());
  EXPECT_EQ(None.DeadMemberSpace, 0u);
  EXPECT_EQ(None.HighWaterMarkNoDead, None.HighWaterMark);
  EXPECT_EQ(Dead, Expected);
  EXPECT_EQ(computeDynamicMetrics(T, L, {}), None);
}

TEST(Metrics, TwoHighWaterMarksMayOccurAtDifferentTimes) {
  // Paper section 4.3: the original and the shrunk high-water marks can peak
  // at different execution points. Dead-heavy objects peak first, then
  // are replaced by a larger number of lean objects.
  auto C = compileOK(R"(
    class Fat { public: int live; double d1; double d2; double d3; };
    class Lean { public: int live; };
    Lean *keep[10];
    int main() {
      Fat *f1 = new Fat();
      Fat *f2 = new Fat();
      int r = f1->live + f2->live;
      delete f1;
      delete f2;
      for (int i = 0; i < 10; i = i + 1) {
        keep[i] = new Lean();
        r = r + keep[i]->live;
      }
      return r;
    }
  )");
  AllocationTrace T;
  InterpOptions IO;
  IO.Trace = &T;
  runOK(*C, IO);
  auto R = analyze(*C);
  LayoutEngine L(C->hierarchy());
  DynamicMetrics M = computeDynamicMetrics(T, L, R.deadSet());
  // The original HWM peaks while the two fat objects are alive
  // (2 * 32 = 64 > 10 * 4); the shrunk HWM peaks later, with the ten
  // lean objects (10 * 4 = 40 > 2 * 4): two different execution points.
  EXPECT_LE(M.HighWaterMarkNoDead, M.HighWaterMark);
  EXPECT_EQ(M.HighWaterMark, 2 * 32u);
  EXPECT_EQ(M.HighWaterMarkNoDead, 10 * 4u);
}

TEST(Metrics, FreeBuiltinReleasesTracedBytes) {
  auto C = compileOK(R"(
    class A { public: int x; };
    int main() {
      A *a = new A();
      free(a);
      A *b = new A();
      free(b);
      return 0;
    }
  )");
  AllocationTrace T;
  InterpOptions IO;
  IO.Trace = &T;
  runOK(*C, IO);
  LayoutEngine L(C->hierarchy());
  DynamicMetrics M = computeDynamicMetrics(T, L, {});
  uint64_t Size = L.layout(findClass(*C, "A")).CompleteSize;
  EXPECT_EQ(M.HighWaterMark, Size); // Freed between allocations.
  EXPECT_EQ(T.numLeaked(), 0u);
}

} // namespace
