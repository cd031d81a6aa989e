//===-- tests/RobustnessTest.cpp - Frontend robustness --------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The frontend must never crash, hang, or walk off a buffer on malformed
// input: every mutation of a valid program either compiles or produces
// diagnostics. (Run under ASan/UBSan in the sanitizer build, this sweeps
// for memory errors on the error paths, which ordinary tests rarely
// reach.)
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchgen/Synthesizer.h"
#include "parser/Parser.h"

using namespace dmm;
using namespace dmm::test;

namespace {

/// A base program touching most of the grammar.
const char *BaseProgram = R"(
class Top { public: int t; Top() : t(1) {} virtual ~Top() {} };
class Mid : public virtual Top { public: int m; };
union Bits { public: int i; double d; };
int helper(int *p, int n) { return (*p) + n; }
int main() {
  Mid x;
  x.t = 2;
  Bits b;
  b.i = 3;
  int arr[4];
  for (int i = 0; i < 4; i = i + 1) { arr[i] = i; }
  int Mid::* pm = &Mid::m;
  x.*pm = 9;
  Top *tp = &x;
  print_int(helper(&arr[1], b.i) + x.t + sizeof(Mid));
  return tp != nullptr ? 0 : 1;
}
)";

class MutationRobustness : public ::testing::TestWithParam<int> {};

TEST_P(MutationRobustness, NeverCrashesOnMutatedSource) {
  uint64_t Seed = static_cast<uint64_t>(GetParam()) * 0x9E3779B9u + 7;
  auto Next = [&]() {
    Seed ^= Seed >> 12;
    Seed ^= Seed << 25;
    Seed ^= Seed >> 27;
    return Seed * 0x2545F4914F6CDD1DULL;
  };

  std::string Source = BaseProgram;
  // Apply a handful of random mutations: deletions, duplications, and
  // character substitutions.
  for (int M = 0; M != 6; ++M) {
    if (Source.empty())
      break;
    size_t Pos = Next() % Source.size();
    switch (Next() % 3) {
    case 0: { // Delete a span.
      size_t Len = 1 + Next() % 12;
      Source.erase(Pos, Len);
      break;
    }
    case 1: { // Duplicate a span.
      size_t Len = 1 + Next() % 8;
      Source.insert(Pos, Source.substr(Pos, Len));
      break;
    }
    case 2: { // Substitute a character with punctuation.
      const char Chars[] = "{}();,*&.<>::=+-!~%";
      Source[Pos] = Chars[Next() % (sizeof(Chars) - 1)];
      break;
    }
    }
  }

  // Must terminate without crashing; success or diagnostics both fine.
  std::ostringstream Diag;
  auto C = compileString(Source, &Diag);
  if (!C->Success) {
    EXPECT_TRUE(C->Diags.hasErrors());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationRobustness,
                         ::testing::Range(1, 101));

/// The same mutation sweep over a large, feature-rich base (the
/// richards port) to reach deeper error paths.
class RichardsMutationRobustness : public ::testing::TestWithParam<int> {};

TEST_P(RichardsMutationRobustness, NeverCrashes) {
  uint64_t Seed = static_cast<uint64_t>(GetParam()) * 0x45d9f3b + 3;
  auto Next = [&]() {
    Seed ^= Seed >> 12;
    Seed ^= Seed << 25;
    Seed ^= Seed >> 27;
    return Seed * 0x2545F4914F6CDD1DULL;
  };
  std::string Source = richardsSource();
  for (int M = 0; M != 10; ++M) {
    if (Source.size() < 8)
      break;
    size_t Pos = Next() % Source.size();
    switch (Next() % 3) {
    case 0:
      Source.erase(Pos, 1 + Next() % 40);
      break;
    case 1:
      Source.insert(Pos, Source.substr(Next() % Source.size(), Next() % 20));
      break;
    case 2: {
      const char Chars[] = "{}();,*&.<>::=+-!~%\"'";
      Source[Pos] = Chars[Next() % (sizeof(Chars) - 1)];
      break;
    }
    }
  }
  std::ostringstream Diag;
  auto C = compileString(Source, &Diag);
  if (!C->Success) {
    EXPECT_TRUE(C->Diags.hasErrors());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RichardsMutationRobustness,
                         ::testing::Range(1, 61));

TEST(Robustness, TruncationsOfValidProgramNeverCrash) {
  std::string Source = BaseProgram;
  for (size_t Len = 0; Len < Source.size(); Len += 17) {
    std::ostringstream Diag;
    auto C = compileString(Source.substr(0, Len), &Diag);
    (void)C;
  }
  SUCCEED();
}

TEST(Robustness, DeeplyNestedExpressionsDoNotOverflowTheParser) {
  std::string Expr = "1";
  for (int I = 0; I != 200; ++I)
    Expr = "(" + Expr + " + 1)";
  std::ostringstream Diag;
  auto C = compileString("int main() { return " + Expr + "; }", &Diag);
  EXPECT_TRUE(C->Success) << Diag.str();
}

/// Compiles \p Source and expects the nesting-budget diagnostic.
void expectNestingTooDeep(const std::string &Source) {
  std::ostringstream Diag;
  auto C = compileString(Source, &Diag);
  EXPECT_FALSE(C->Success);
  EXPECT_NE(Diag.str().find("nesting too deep"), std::string::npos)
      << Diag.str().substr(0, 400);
}

TEST(Robustness, DeepParenthesesAreADiagnostic) {
  for (size_t N : {size_t(20000), size_t(100000)})
    expectNestingTooDeep("int main() { return " + std::string(N, '(') +
                         "1" + std::string(N, ')') + "; }");
}

// A left-associative chain is built by a loop, not by recursion, yet
// its AST is as deep as it is long.
TEST(Robustness, LongOperatorChainsAreADiagnostic) {
  for (size_t N : {size_t(20000), size_t(100000)}) {
    std::string Chain = "1";
    for (size_t I = 1; I != N; ++I)
      Chain += "+1";
    expectNestingTooDeep("int main() { return " + Chain + "; }");
  }
}

TEST(Robustness, DeepStatementNestingIsADiagnostic) {
  for (size_t N : {size_t(20000), size_t(100000)})
    expectNestingTooDeep("int main() { " + std::string(N, '{') +
                         std::string(N, '}') + " return 0; }");
}

// Like an out-of-range integer, a double literal that overflows is an
// error, not a silent infinity (which would also print as `inf.0`).
TEST(Robustness, OutOfRangeFloatingLiteralIsADiagnostic) {
  std::ostringstream Diag;
  auto C = compileString("int main() { double d = 1e999; return 0; }", &Diag);
  EXPECT_FALSE(C->Success);
  EXPECT_NE(Diag.str().find("floating literal '1e999' is out of range"),
            std::string::npos)
      << Diag.str();

  // Underflow to zero or a denormal stays a valid literal.
  compileOK("int main() { double d = 1e-400; double e = 4e-320; return 0; }");
}

TEST(Robustness, NestingWithinTheBudgetCompilesAndRuns) {
  std::string Chain = "x";
  for (unsigned I = 1; I != Parser::kMaxNestingDepth - 1; ++I)
    Chain += "+x";
  auto C = compileOK("int main() { int x = 1; return (" + Chain +
                     ") - " +
                     std::to_string(Parser::kMaxNestingDepth - 1) + "; }");
  Interpreter I(C->context(), C->hierarchy(), {});
  ExecResult R = I.run(C->mainFunction());
  EXPECT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(Robustness, DeepRecursionInGuestHitsStackGuard) {
  auto C = compileOK(R"(
    int down(int n) { return down(n + 1); }
    int main() { return down(0); }
  )");
  Interpreter I(C->context(), C->hierarchy(), {});
  ExecResult R = I.run(C->mainFunction());
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Error.find("recursion"), std::string::npos);
}

TEST(Robustness, EmptyAndWhitespaceOnlySources) {
  for (const char *Src : {"", "   \n\t\n", "// just a comment\n",
                          "/* block */"}) {
    std::ostringstream Diag;
    auto C = compileString(Src, &Diag);
    EXPECT_FALSE(C->Success); // No main.
  }
}

TEST(Robustness, HugeFlatProgramParsesQuickly) {
  // 2000 globals + main; exercises linear scanning paths.
  std::string Src;
  for (int I = 0; I != 2000; ++I)
    Src += "int g" + std::to_string(I) + " = " + std::to_string(I) + ";\n";
  Src += "int main() { return g1999 - 1999; }\n";
  auto C = compileOK(Src);
  ExecResult R = runOK(*C);
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(Robustness, ManyClassesDeepHierarchy) {
  std::string Src = "class K0 { public: int f0; };\n";
  for (int I = 1; I != 120; ++I)
    Src += "class K" + std::to_string(I) + " : public K" +
           std::to_string(I - 1) + " { public: int f" +
           std::to_string(I) + "; };\n";
  Src += "int main() { K119 k; k.f0 = 7; return k.f0 - 7; }\n";
  auto C = compileOK(Src);
  ExecResult R = runOK(*C);
  EXPECT_EQ(R.ExitCode, 0);
  // The deep chain analyzes without blowing up.
  auto Res = analyze(*C);
  EXPECT_EQ(Res.classifiableMembers().size(), 120u);
}

} // namespace
