//===-- tests/LexerTest.cpp - Lexer tests ---------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"
#include "lexer/SymbolTable.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include "gtest/gtest.h"

#include <memory>

using namespace dmm;

namespace {

/// Text of the buffer most recently lexed by lexAll.
std::string_view LastBuffer;

std::vector<Token> lexAll(const std::string &Text, unsigned *Errors = nullptr) {
  // Tokens are spans of their buffer; keep every SourceManager alive
  // for the process so returned tokens can still be spelled.
  static std::vector<std::unique_ptr<SourceManager>> Keep;
  Keep.push_back(std::make_unique<SourceManager>());
  SourceManager &SM = *Keep.back();
  uint32_t ID = SM.addBuffer("test.mcc", Text);
  LastBuffer = SM.bufferText(ID);
  DiagnosticsEngine Diags(SM);
  SymbolTable Symbols;
  Lexer L(SM, ID, Diags, Symbols);
  auto Tokens = L.lexAll();
  if (Errors)
    *Errors = Diags.errorCount();
  return Tokens;
}

/// Spelling and decoded payloads of a token from the last lexAll.
std::string_view text(const Token &T) { return T.text(LastBuffer); }
long long intValue(const Token &T) {
  long long Value = 0;
  Lexer::decodeInt(text(T), Value);
  return Value;
}
double doubleValue(const Token &T) {
  double Value = 0;
  Lexer::decodeDouble(text(T), Value);
  return Value;
}
std::string stringValue(const Token &T) {
  std::string Bytes(text(T).size(), '\0');
  Bytes.resize(Lexer::decodeString(text(T), Bytes.data()));
  return Bytes;
}

/// Every diagnostic of lexing \p Text, as "offset: message" lines.
std::string lexDiagnostics(const std::string &Text) {
  SourceManager SM;
  uint32_t ID = SM.addBuffer("test.mcc", Text);
  DiagnosticsEngine Diags(SM);
  SymbolTable Symbols;
  Lexer(SM, ID, Diags, Symbols).lexAll();
  std::string Out;
  for (const Diagnostic &D : Diags.diagnostics())
    Out += std::to_string(D.Loc.offset()) + ": " + D.Message + "\n";
  return Out;
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
  EXPECT_EQ(text(Tokens[0]), "foo");
  EXPECT_EQ(text(Tokens[1]), "_bar");
  EXPECT_EQ(text(Tokens[2]), "baz42");
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
  EXPECT_EQ(intValue(Tokens[0]), 0);
  EXPECT_EQ(intValue(Tokens[1]), 42);
  EXPECT_EQ(intValue(Tokens[2]), 123456789);
}

TEST(Lexer, OutOfRangeIntegerLiteralIsAnError) {
  unsigned Errors = 0;
  auto Tokens = lexAll("9223372036854775807", &Errors);
  EXPECT_EQ(Errors, 0u);
  EXPECT_EQ(intValue(Tokens[0]), INT64_MAX);

  for (const char *Text : {"9223372036854775808", "99999999999999999999"}) {
    SourceManager SM;
    uint32_t ID = SM.addBuffer("test.mcc", Text);
    DiagnosticsEngine Diags(SM);
    SymbolTable Symbols;
    Lexer L(SM, ID, Diags, Symbols);
    L.lexAll();
    ASSERT_EQ(Diags.errorCount(), 1u) << Text;
    EXPECT_EQ(Diags.diagnostics()[0].Message,
              std::string("integer literal '") + Text + "' is out of range");
  }
}

TEST(Lexer, DoubleLiterals) {
  auto Tokens = lexAll("3.25 1e3 2.5e-2");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(doubleValue(Tokens[0]), 3.25);
  EXPECT_DOUBLE_EQ(doubleValue(Tokens[1]), 1000.0);
  EXPECT_DOUBLE_EQ(doubleValue(Tokens[2]), 0.025);
}

TEST(Lexer, OutOfRangeFloatingLiteralIsAnError) {
  unsigned Errors = 0;
  auto Tokens = lexAll("1.7976931348623157e308 1e-400 4e-320", &Errors);
  EXPECT_EQ(Errors, 0u);
  EXPECT_EQ(doubleValue(Tokens[0]), 1.7976931348623157e308);
  EXPECT_EQ(doubleValue(Tokens[1]), 0.0);   // Underflow to 0 is fine,
  EXPECT_EQ(doubleValue(Tokens[2]), 4e-320); // and so is a denormal.

  for (const char *Text : {"1e999", "1.8e308", "2.5e+400"})
    EXPECT_EQ(lexDiagnostics(Text), std::string("0: floating literal '") +
                                        Text + "' is out of range\n");
}

// Literal payloads are decoded from the spelling after lexing, so the
// lexer's own checks must still find every malformed literal, in order.
TEST(Lexer, MalformedLiteralDiagnosticsArePinned) {
  EXPECT_EQ(lexDiagnostics("x = '';"), "4: empty character literal\n");
  EXPECT_EQ(lexDiagnostics("'ab'"), "0: unterminated character literal\n"
                                    "3: empty character literal\n"
                                    "3: unterminated character literal\n");
  EXPECT_EQ(lexDiagnostics("'\\"), "2: unterminated escape sequence\n"
                                   "0: unterminated character literal\n");
  EXPECT_EQ(lexDiagnostics("'\\q'"), "2: unknown escape sequence '\\q'\n");
  EXPECT_EQ(lexDiagnostics("\"a\\qb\\zc\" 99999999999999999999"),
            "3: unknown escape sequence '\\q'\n"
            "6: unknown escape sequence '\\z'\n"
            "10: integer literal '99999999999999999999' is out of range\n");
  EXPECT_EQ(lexDiagnostics("\"ab\\"), "4: unterminated escape sequence\n"
                                      "0: unterminated string literal\n");
  EXPECT_EQ(lexDiagnostics("\"a\\\nb\" 1e999"),
            "3: unknown escape sequence '\\\n'\n"
            "7: floating literal '1e999' is out of range\n");
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
  EXPECT_EQ(Lexer::decodeChar(text(Tokens[0])), 'a');
  EXPECT_EQ(Lexer::decodeChar(text(Tokens[1])), '\n');
  EXPECT_EQ(Lexer::decodeChar(text(Tokens[2])), 0);
  EXPECT_EQ(Lexer::decodeChar(text(Tokens[3])), '\\');
}

TEST(Lexer, StringLiteralsWithEscapes) {
  auto Tokens = lexAll(R"("hello\tworld\n")");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(stringValue(Tokens[0]), "hello\tworld\n");
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
  SymbolTable Symbols;
  Lexer L(SM, ID, Diags, Symbols);
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
  SymbolTable Symbols;
  Lexer L(SM, ID, Diags, Symbols);
  L.lex();
  EXPECT_EQ(L.lex().Kind, TokenKind::EndOfFile);
  EXPECT_EQ(L.lex().Kind, TokenKind::EndOfFile);
}

TEST(Lexer, TokenLongerThanTheLengthFieldIsAnError) {
  unsigned Errors = 0;
  std::string Long = "\"" + std::string(Token::MaxLength, 'x') + "\"";
  auto Tokens = lexAll(Long + " a", &Errors);
  EXPECT_EQ(Errors, 1u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Unknown);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Identifier);
}

TEST(SymbolTable, EveryKeywordMapsToItsTokenKind) {
  SymbolTable Symbols;
  EXPECT_EQ(SymbolTable::NumKeywords, 30u);
  for (auto K = static_cast<uint8_t>(TokenKind::KwClass);
       K <= static_cast<uint8_t>(TokenKind::KwNullptr); ++K) {
    std::string Quoted = tokenKindName(static_cast<TokenKind>(K));
    SymbolID ID = Symbols.intern(Quoted.substr(1, Quoted.size() - 2));
    EXPECT_LT(ID, SymbolTable::NumKeywords) << Quoted;
    EXPECT_EQ(SymbolTable::tokenKind(ID), static_cast<TokenKind>(K));
  }
  EXPECT_EQ(Symbols.size(), SymbolTable::NumKeywords);
  EXPECT_EQ(SymbolTable::tokenKind(Symbols.intern("classy")),
            TokenKind::Identifier);
}

TEST(SymbolTable, OneSpellingGetsOneIDAcrossBuffers) {
  SourceManager SM;
  DiagnosticsEngine Diags(SM);
  SymbolTable Symbols;
  uint32_t A = SM.addBuffer("a.mcc", "foo bar foo");
  uint32_t B = SM.addBuffer("b.mcc", "bar foo baz");
  auto TA = Lexer(SM, A, Diags, Symbols).lexAll();
  auto TB = Lexer(SM, B, Diags, Symbols).lexAll();
  EXPECT_EQ(TA[0].Sym, TA[2].Sym);
  EXPECT_EQ(TA[0].Sym, TB[1].Sym);
  EXPECT_EQ(TA[1].Sym, TB[0].Sym);
  EXPECT_NE(TA[0].Sym, TA[1].Sym);
  EXPECT_EQ(Symbols.spelling(TB[2].Sym), "baz");
  EXPECT_EQ(TA.back().Sym, kNoSymbol); // EndOfFile names nothing.
}

TEST(SymbolTable, IDsAreDense) {
  SymbolTable Symbols;
  // Enough spellings to grow the bucket array several times.
  for (unsigned I = 0; I != 5000; ++I) {
    std::string Name = "name" + std::to_string(I);
    SymbolID ID = Symbols.intern(Name);
    EXPECT_EQ(ID, SymbolTable::NumKeywords + I);
    EXPECT_EQ(Symbols.size(), ID + 1);
  }
  for (unsigned I = 0; I != 5000; ++I)
    ASSERT_EQ(Symbols.spelling(SymbolTable::NumKeywords + I),
              "name" + std::to_string(I));
  EXPECT_EQ(Symbols.intern("name0"), SymbolTable::NumKeywords);
}

TEST(SymbolTable, SynthesizedNameInternsToItsTokensID) {
  SourceManager SM;
  DiagnosticsEngine Diags(SM);
  SymbolTable Symbols;
  uint32_t ID = SM.addBuffer("t.mcc", "main print_int value");
  auto Tokens = Lexer(SM, ID, Diags, Symbols).lexAll();
  // Sema interns `main` and the builtins' names from string literals.
  EXPECT_EQ(Symbols.intern("main"), Tokens[0].Sym);
  EXPECT_EQ(Symbols.intern(std::string("print_") + "int"), Tokens[1].Sym);
  EXPECT_EQ(Symbols.intern("value"), Tokens[2].Sym);
}

} // namespace
