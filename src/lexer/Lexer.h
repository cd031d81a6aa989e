//===-- lexer/Lexer.h - MiniC++ lexer ---------------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for the MiniC++ subset. Produces a stream of Tokens;
/// comments and whitespace are skipped. Malformed literals are reported via
/// the DiagnosticsEngine and yield Unknown tokens, which the parser treats
/// as hard errors. Identifiers and keywords are interned in a SymbolTable
/// as they are lexed. Tokens carry no other payload: the static decoders
/// below turn a literal's spelling into its value, and the lexer runs the
/// same decoders to validate each literal as it lexes it.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_LEXER_LEXER_H
#define DMM_LEXER_LEXER_H

#include "lexer/Token.h"

#include <cstddef>
#include <string_view>
#include <vector>

namespace dmm {

class DiagnosticsEngine;
class SourceManager;
class SymbolTable;

/// Converts one source buffer into tokens.
class Lexer {
public:
  /// \param FileID buffer to lex, previously registered with \p SM.
  /// \param Symbols interns the buffer's identifiers.
  Lexer(const SourceManager &SM, uint32_t FileID, DiagnosticsEngine &Diags,
        SymbolTable &Symbols);

  /// Lexes and returns the next token; returns EndOfFile forever at the end.
  Token lex();

  /// Lexes the whole buffer (convenience for tests). The trailing
  /// EndOfFile token is included.
  std::vector<Token> lexAll();

  /// \name Literal decoders
  /// Each takes a token's spelling (quotes included for char and string
  /// literals) as the lexer produced it.
  /// @{
  /// Decodes an IntLiteral. Returns false if it overflows long long;
  /// \p Value is then LLONG_MAX.
  static bool decodeInt(std::string_view Spelling, long long &Value);
  /// Decodes a DoubleLiteral. Returns false if it overflows double;
  /// \p Value is then infinity. Underflow to 0 or a denormal is fine.
  static bool decodeDouble(std::string_view Spelling, double &Value);
  /// The character that the escape `\C` stands for. Returns false for an
  /// unknown escape; \p Value is then \p C itself.
  static bool decodeEscape(char C, char &Value);
  /// Decodes a CharLiteral (`''` is the character 0).
  static char decodeChar(std::string_view Spelling);
  /// Decodes a StringLiteral into \p Out, which must hold
  /// Spelling.size() bytes. Returns the number of bytes written.
  static size_t decodeString(std::string_view Spelling, char *Out);
  /// @}

private:
  char peek(unsigned LookAhead = 0) const;
  char advance();
  bool match(char Expected);
  SourceLocation curLoc() const;
  void skipTrivia();

  Token makeToken(TokenKind Kind, uint32_t Begin);
  Token lexIdentifierOrKeyword();
  Token lexNumber();
  Token lexCharLiteral();
  Token lexStringLiteral();
  /// Consumes the character after a backslash, diagnosing an unknown
  /// escape or the end of the buffer.
  void lexEscape();

  DiagnosticsEngine &Diags;
  SymbolTable &Symbols;
  std::string_view Text;
  uint32_t FileID;
  uint32_t Pos = 0;
};

} // namespace dmm

#endif // DMM_LEXER_LEXER_H
