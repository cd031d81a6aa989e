//===-- tests/PrinterTest.cpp - Source printer round-trip tests -----------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The printer's contract: its output re-parses, and the reparsed program
// is observationally identical (same interpreter output and exit code)
// and analytically identical (same dead-member set) to the original.
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramGenerator.h"
#include "TestUtil.h"

#include "ast/SourcePrinter.h"
#include "benchgen/Synthesizer.h"

using namespace dmm;
using namespace dmm::test;

namespace {

/// Round-trips: compile Source, print, recompile; checks behaviour and
/// analysis results agree.
void expectRoundTrip(const std::string &Source) {
  auto C1 = compileOK(Source);
  SourcePrinter Printer;
  std::string Printed = Printer.print(C1->context());

  std::ostringstream Diag;
  auto C2 = compileString(Printed, &Diag);
  ASSERT_TRUE(C2->Success) << "printed source does not reparse:\n"
                           << Diag.str() << "\n--- printed ---\n"
                           << Printed;

  ExecResult E1 = runOK(*C1);
  ExecResult E2 = runOK(*C2);
  EXPECT_EQ(E1.Output, E2.Output) << "--- printed ---\n" << Printed;
  EXPECT_EQ(E1.ExitCode, E2.ExitCode);

  EXPECT_EQ(deadNames(analyze(*C1)), deadNames(analyze(*C2)));
}

TEST(Printer, MinimalProgram) {
  expectRoundTrip("int main() { return 42; }");
}

TEST(Printer, PaperFigure1) {
  expectRoundTrip(R"(
    class N { public: int mn1; int mn2; };
    class A {
    public:
      virtual int f() { return ma1; }
      int ma1; int ma2; int ma3;
    };
    class B : public A {
    public:
      virtual int f() { return mb1; }
      int mb1; N mb2; int mb3; int mb4;
    };
    class CC : public A {
    public:
      virtual int f() { return mc1; }
      int mc1;
    };
    int foo(int *x) { return (*x) + 1; }
    int main() {
      A a; B b; CC c;
      A *ap;
      a.ma3 = b.mb3 + 1;
      int i = 10;
      if (i < 20) { ap = &a; } else { ap = &b; }
      print_int(ap->f() + b.mb2.mn1 + foo(&b.mb4));
      return 0;
    }
  )");
}

TEST(Printer, OperatorZoo) {
  expectRoundTrip(R"(
    int main() {
      int a = 3; int b = 7;
      int c = a + b * 2 - (b % a) / 1;
      c = c << 2 >> 1;
      c = (c & 12) | (a ^ b);
      bool p = a < b && b <= 7 || !(a == b) && a != b;
      c += 2; c -= 1; c *= 3; c /= 2; c %= 100;
      int d = p ? ++c : --c;
      d = c++ + c--;
      double e = 2.5 * 4.0;
      char ch = 'x';
      print_int(c + d + (int)e + (int)ch);
      return p ? 0 : 1;
    }
  )");
}

TEST(Printer, PointersArraysStrings) {
  expectRoundTrip(R"(
    int sum(int *data, int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) { s = s + data[i]; }
      return s;
    }
    int main() {
      int local[5];
      for (int i = 0; i < 5; i = i + 1) { local[i] = i * i; }
      int *heap = new int[3];
      heap[0] = 7;
      print_str("total=");
      print_int(sum(local, 5) + sum(heap, 3) + *(heap + 0));
      delete[] heap;
      return 0;
    }
  )");
}

TEST(Printer, ClassFeatures) {
  expectRoundTrip(R"(
    class Top { public: int t; Top() : t(1) {} virtual ~Top() {} };
    class L : public virtual Top { public: int l; L() : l(2) {} };
    class R : public virtual Top { public: int r; R() : r(3) {} };
    class B : public L, public R {
    public:
      int b;
      B(int v) : b(v) {}
      virtual int sum() { return t + l + r + b; }
    };
    union U { public: int raw; double wide; };
    int main() {
      B *x = new B(4);
      int s = x->sum();
      U u;
      u.raw = 1;
      s = s + u.raw;
      int B::* pm = &B::b;
      s = s + x->*pm;
      delete x;
      print_int(s);
      return 0;
    }
  )");
}

TEST(Printer, FunctionPointersAndCasts) {
  expectRoundTrip(R"(
    class A { public: int a; };
    class B : public A { public: int b; };
    int twice(int v) { return v * 2; }
    int apply(int (*fn)(int), int v) { return fn(v); }
    int main() {
      int (*fp)(int) = &twice;
      B b;
      b.a = 3;
      A *up = (A*)&b;
      B *down = static_cast<B*>(up);
      print_int(apply(fp, down->a));
      return 0;
    }
  )");
}

// --eliminate reprints every literal, so a double must print as a
// spelling that reads back as exactly the same value.
TEST(Printer, DoubleLiteralsReadBackExactly) {
  const double Values[] = {0.0,
                           0.5,
                           2.5,
                           0.1,
                           1.0 / 3.0,
                           3.141592653589793,
                           123456789.125,
                           123457000.0,
                           100000.0,
                           0.0001,
                           5e-05,
                           1e22,
                           1.7976931348623157e308,
                           2.2250738585072014e-308,
                           4.9406564584124654e-324,
                           9007199254740993.0};
  std::string Source;
  for (size_t I = 0; I != std::size(Values); ++I) {
    std::ostringstream Spelling;
    Spelling.precision(17);
    Spelling << Values[I];
    std::string Lit = Spelling.str();
    if (Lit.find_first_of(".e") == std::string::npos)
      Lit += ".0";
    Source += "double g" + std::to_string(I) + " = " + Lit + ";\n";
  }
  Source += "int main() { return 0; }\n";

  auto C1 = compileOK(Source);
  std::string Printed = SourcePrinter().print(C1->context());
  auto C2 = compileOK(Printed);
  const auto &Globals = C2->context().globals();
  ASSERT_EQ(Globals.size(), std::size(Values));
  for (size_t I = 0; I != std::size(Values); ++I) {
    const auto *Lit = dyn_cast<DoubleLiteralExpr>(Globals[I]->init());
    ASSERT_NE(Lit, nullptr) << Printed;
    EXPECT_EQ(Lit->value(), Values[I]) << "printed as:\n" << Printed;
  }
}

TEST(Printer, RichardsRoundTrips) {
  expectRoundTrip(richardsSource());
}

TEST(Printer, DeltaBlueRoundTrips) {
  expectRoundTrip(deltablueSource());
}

class PrinterRandomRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PrinterRandomRoundTrip, RoundTrips) {
  fuzz::ProgramGenerator Gen(static_cast<uint64_t>(GetParam()) + 1000);
  expectRoundTrip(Gen.generate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrinterRandomRoundTrip,
                         ::testing::Range(1, 17));

TEST(Printer, SynthesizedBenchmarkRoundTrips) {
  GeneratedBenchmark G =
      synthesizeBenchmark(benchmarkByName("hotwire"), 0.05);
  expectRoundTrip(G.Files[0].Text);
}

} // namespace
