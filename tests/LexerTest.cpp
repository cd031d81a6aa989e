//===-- tests/LexerTest.cpp - Lexer tests ---------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include "gtest/gtest.h"

#include <memory>

using namespace dmm;

namespace {

std::vector<Token> lexAll(const std::string &Text, unsigned *Errors = nullptr) {
  // Token::Text views into the buffer; keep every SourceManager alive
  // for the process so returned tokens stay valid.
  static std::vector<std::unique_ptr<SourceManager>> Keep;
  Keep.push_back(std::make_unique<SourceManager>());
  SourceManager &SM = *Keep.back();
  uint32_t ID = SM.addBuffer("test.mcc", Text);
  DiagnosticsEngine Diags(SM);
  Lexer L(SM, ID, Diags);
  auto Tokens = L.lexAll();
  if (Errors)
    *Errors = Diags.errorCount();
  return Tokens;
}

std::vector<TokenKind> kindsOf(const std::string &Text) {
  std::vector<TokenKind> Kinds;
  for (const Token &T : lexAll(Text))
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, EmptyInputYieldsEOF) {
  EXPECT_EQ(kindsOf(""), std::vector<TokenKind>{TokenKind::EndOfFile});
}

TEST(Lexer, Identifiers) {
  auto Tokens = lexAll("foo _bar baz42");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[0].Text, "foo");
  EXPECT_EQ(Tokens[1].Text, "_bar");
  EXPECT_EQ(Tokens[2].Text, "baz42");
}

TEST(Lexer, KeywordsAreDistinguishedFromIdentifiers) {
  auto Tokens = lexAll("class classy virtual virtually");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::KwClass);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::KwVirtual);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Identifier);
}

TEST(Lexer, IntegerLiterals) {
  auto Tokens = lexAll("0 42 123456789");
  EXPECT_EQ(Tokens[0].IntValue, 0);
  EXPECT_EQ(Tokens[1].IntValue, 42);
  EXPECT_EQ(Tokens[2].IntValue, 123456789);
}

TEST(Lexer, OutOfRangeIntegerLiteralIsAnError) {
  unsigned Errors = 0;
  auto Tokens = lexAll("9223372036854775807", &Errors);
  EXPECT_EQ(Errors, 0u);
  EXPECT_EQ(Tokens[0].IntValue, INT64_MAX);

  for (const char *Text : {"9223372036854775808", "99999999999999999999"}) {
    SourceManager SM;
    uint32_t ID = SM.addBuffer("test.mcc", Text);
    DiagnosticsEngine Diags(SM);
    Lexer L(SM, ID, Diags);
    L.lexAll();
    ASSERT_EQ(Diags.errorCount(), 1u) << Text;
    EXPECT_EQ(Diags.diagnostics()[0].Message,
              std::string("integer literal '") + Text + "' is out of range");
  }
}

TEST(Lexer, DoubleLiterals) {
  auto Tokens = lexAll("3.25 1e3 2.5e-2");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(Tokens[0].DoubleValue, 3.25);
  EXPECT_DOUBLE_EQ(Tokens[1].DoubleValue, 1000.0);
  EXPECT_DOUBLE_EQ(Tokens[2].DoubleValue, 0.025);
}

TEST(Lexer, IntFollowedByMemberAccessIsNotADouble) {
  // `x.y` after a digit: `1.f` style is not in the language; but `a[1].m`
  // must lex `1` `]` `.` `m`.
  auto Kinds = kindsOf("a[1].m");
  std::vector<TokenKind> Expected = {
      TokenKind::Identifier, TokenKind::LBracket, TokenKind::IntLiteral,
      TokenKind::RBracket,   TokenKind::Period,   TokenKind::Identifier,
      TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, CharLiteralsWithEscapes) {
  auto Tokens = lexAll(R"('a' '\n' '\0' '\\')");
  EXPECT_EQ(Tokens[0].IntValue, 'a');
  EXPECT_EQ(Tokens[1].IntValue, '\n');
  EXPECT_EQ(Tokens[2].IntValue, 0);
  EXPECT_EQ(Tokens[3].IntValue, '\\');
}

TEST(Lexer, StringLiteralsWithEscapes) {
  auto Tokens = lexAll(R"("hello\tworld\n")");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(Tokens[0].StringValue, "hello\tworld\n");
}

TEST(Lexer, CompoundPunctuation) {
  auto Kinds = kindsOf(":: -> ->* .* ++ -- << >> <= >= == != && || += %=");
  std::vector<TokenKind> Expected = {
      TokenKind::ColonColon,   TokenKind::Arrow,
      TokenKind::ArrowStar,    TokenKind::PeriodStar,
      TokenKind::PlusPlus,     TokenKind::MinusMinus,
      TokenKind::LessLess,     TokenKind::GreaterGreater,
      TokenKind::LessEqual,    TokenKind::GreaterEqual,
      TokenKind::EqualEqual,   TokenKind::ExclaimEqual,
      TokenKind::AmpAmp,       TokenKind::PipePipe,
      TokenKind::PlusEqual,    TokenKind::PercentEqual,
      TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, LineCommentsAreSkipped) {
  auto Kinds = kindsOf("a // comment with ; and {\nb");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier,
                                     TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, BlockCommentsAreSkipped) {
  auto Kinds = kindsOf("a /* multi\nline\ncomment */ b");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier,
                                     TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, UnterminatedBlockCommentIsAnError) {
  unsigned Errors = 0;
  lexAll("a /* never closed", &Errors);
  EXPECT_EQ(Errors, 1u);
}

TEST(Lexer, UnterminatedStringIsAnError) {
  unsigned Errors = 0;
  lexAll("\"open\n", &Errors);
  EXPECT_GE(Errors, 1u);
}

TEST(Lexer, UnknownCharacterIsAnError) {
  unsigned Errors = 0;
  auto Tokens = lexAll("a @ b", &Errors);
  EXPECT_EQ(Errors, 1u);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Unknown);
}

TEST(Lexer, LocationsTrackLinesAndColumns) {
  SourceManager SM;
  uint32_t ID = SM.addBuffer("t.mcc", "ab\n  cd\n");
  DiagnosticsEngine Diags(SM);
  Lexer L(SM, ID, Diags);
  Token T1 = L.lex();
  Token T2 = L.lex();
  PresumedLoc P1 = SM.presumedLoc(T1.Loc);
  PresumedLoc P2 = SM.presumedLoc(T2.Loc);
  EXPECT_EQ(P1.Line, 1u);
  EXPECT_EQ(P1.Column, 1u);
  EXPECT_EQ(P2.Line, 2u);
  EXPECT_EQ(P2.Column, 3u);
}

TEST(Lexer, MinusGreaterStarNeedsAllThreeChars) {
  auto Kinds = kindsOf("a - > b");
  std::vector<TokenKind> Expected = {
      TokenKind::Identifier, TokenKind::Minus, TokenKind::Greater,
      TokenKind::Identifier, TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, EOFIsSticky) {
  SourceManager SM;
  uint32_t ID = SM.addBuffer("t.mcc", "x");
  DiagnosticsEngine Diags(SM);
  Lexer L(SM, ID, Diags);
  L.lex();
  EXPECT_EQ(L.lex().Kind, TokenKind::EndOfFile);
  EXPECT_EQ(L.lex().Kind, TokenKind::EndOfFile);
}

} // namespace
