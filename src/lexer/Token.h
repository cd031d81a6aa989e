//===-- lexer/Token.h - MiniC++ tokens --------------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds and the Token value type produced by the Lexer.
///
/// A Token is 16 bytes and trivially copyable: kind, length, symbol and
/// location. It owns no text. Its spelling is the [offset, offset +
/// length) slice of its SourceManager buffer; an identifier or keyword
/// also carries its SymbolID, so the parser never hashes a name. Literal
/// payloads (int, double, char, string) are decoded from the spelling
/// when the parser needs them, by the Lexer's decoders.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_LEXER_TOKEN_H
#define DMM_LEXER_TOKEN_H

#include "support/SourceLocation.h"

#include <cstdint>
#include <string_view>
#include <type_traits>

namespace dmm {

/// A dense index into the SymbolTable: one per distinct spelling.
using SymbolID = uint32_t;
inline constexpr SymbolID kNoSymbol = UINT32_MAX;

/// All token kinds of the MiniC++ subset.
enum class TokenKind : uint8_t {
  EndOfFile,
  Unknown,

  Identifier,
  IntLiteral,
  DoubleLiteral,
  CharLiteral,
  StringLiteral,

  // Keywords.
  KwClass,
  KwStruct,
  KwUnion,
  KwPublic,
  KwPrivate,
  KwProtected,
  KwVirtual,
  KwVolatile,
  KwConst,
  KwVoid,
  KwBool,
  KwChar,
  KwInt,
  KwDouble,
  KwIf,
  KwElse,
  KwWhile,
  KwFor,
  KwBreak,
  KwContinue,
  KwReturn,
  KwNew,
  KwDelete,
  KwThis,
  KwSizeof,
  KwStaticCast,
  KwReinterpretCast,
  KwTrue,
  KwFalse,
  KwNullptr,

  // Punctuation and operators.
  LBrace,       // {
  RBrace,       // }
  LParen,       // (
  RParen,       // )
  LBracket,     // [
  RBracket,     // ]
  Semi,         // ;
  Comma,        // ,
  Colon,        // :
  ColonColon,   // ::
  Period,       // .
  Arrow,        // ->
  PeriodStar,   // .*
  ArrowStar,    // ->*
  Amp,          // &
  AmpAmp,       // &&
  Pipe,         // |
  PipePipe,     // ||
  Caret,        // ^
  Tilde,        // ~
  Exclaim,      // !
  Plus,         // +
  Minus,        // -
  Star,         // *
  Slash,        // /
  Percent,      // %
  Equal,        // =
  EqualEqual,   // ==
  ExclaimEqual, // !=
  Less,         // <
  Greater,      // >
  LessEqual,    // <=
  GreaterEqual, // >=
  LessLess,     // <<
  GreaterGreater, // >>
  PlusEqual,    // +=
  MinusEqual,   // -=
  StarEqual,    // *=
  SlashEqual,   // /=
  PercentEqual, // %=
  PlusPlus,     // ++
  MinusMinus,   // --
  Question,     // ?
};

/// Returns a stable display name for \p Kind (e.g. "'::'" or "identifier").
const char *tokenKindName(TokenKind Kind);

/// A lexed token. Its text lives in the SourceManager buffer of Loc.
struct Token {
  /// The longest token the lexer accepts; a longer one is an error.
  static constexpr uint32_t MaxLength = (1u << 24) - 1;

  TokenKind Kind = TokenKind::Unknown;
  uint32_t Length : 24 = 0; ///< Bytes of spelling, starting at Loc.
  SymbolID Sym = kNoSymbol; ///< An identifier's or keyword's symbol.
  SourceLocation Loc;

  /// The token's spelling within \p Buffer, the text of Loc's buffer.
  std::string_view text(std::string_view Buffer) const {
    return Buffer.substr(Loc.offset(), Length);
  }

  bool is(TokenKind K) const { return Kind == K; }
  bool isNot(TokenKind K) const { return Kind != K; }
  bool isOneOf(TokenKind K1, TokenKind K2) const { return is(K1) || is(K2); }
  template <typename... Ts>
  bool isOneOf(TokenKind K1, TokenKind K2, Ts... Ks) const {
    return is(K1) || isOneOf(K2, Ks...);
  }
};

static_assert(sizeof(Token) <= 16,
              "a token is kind, length, symbol and location");
static_assert(std::is_trivially_copyable_v<Token>,
              "a token owns nothing; its text is in the SourceManager");

} // namespace dmm

#endif // DMM_LEXER_TOKEN_H
