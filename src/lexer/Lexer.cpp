//===-- lexer/Lexer.cpp ---------------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include "lexer/SymbolTable.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <string>

using namespace dmm;

const char *dmm::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::EndOfFile: return "end of file";
  case TokenKind::Unknown: return "unknown token";
  case TokenKind::Identifier: return "identifier";
  case TokenKind::IntLiteral: return "integer literal";
  case TokenKind::DoubleLiteral: return "floating literal";
  case TokenKind::CharLiteral: return "character literal";
  case TokenKind::StringLiteral: return "string literal";
  case TokenKind::KwClass: return "'class'";
  case TokenKind::KwStruct: return "'struct'";
  case TokenKind::KwUnion: return "'union'";
  case TokenKind::KwPublic: return "'public'";
  case TokenKind::KwPrivate: return "'private'";
  case TokenKind::KwProtected: return "'protected'";
  case TokenKind::KwVirtual: return "'virtual'";
  case TokenKind::KwVolatile: return "'volatile'";
  case TokenKind::KwConst: return "'const'";
  case TokenKind::KwVoid: return "'void'";
  case TokenKind::KwBool: return "'bool'";
  case TokenKind::KwChar: return "'char'";
  case TokenKind::KwInt: return "'int'";
  case TokenKind::KwDouble: return "'double'";
  case TokenKind::KwIf: return "'if'";
  case TokenKind::KwElse: return "'else'";
  case TokenKind::KwWhile: return "'while'";
  case TokenKind::KwFor: return "'for'";
  case TokenKind::KwBreak: return "'break'";
  case TokenKind::KwContinue: return "'continue'";
  case TokenKind::KwReturn: return "'return'";
  case TokenKind::KwNew: return "'new'";
  case TokenKind::KwDelete: return "'delete'";
  case TokenKind::KwThis: return "'this'";
  case TokenKind::KwSizeof: return "'sizeof'";
  case TokenKind::KwStaticCast: return "'static_cast'";
  case TokenKind::KwReinterpretCast: return "'reinterpret_cast'";
  case TokenKind::KwTrue: return "'true'";
  case TokenKind::KwFalse: return "'false'";
  case TokenKind::KwNullptr: return "'nullptr'";
  case TokenKind::LBrace: return "'{'";
  case TokenKind::RBrace: return "'}'";
  case TokenKind::LParen: return "'('";
  case TokenKind::RParen: return "')'";
  case TokenKind::LBracket: return "'['";
  case TokenKind::RBracket: return "']'";
  case TokenKind::Semi: return "';'";
  case TokenKind::Comma: return "','";
  case TokenKind::Colon: return "':'";
  case TokenKind::ColonColon: return "'::'";
  case TokenKind::Period: return "'.'";
  case TokenKind::Arrow: return "'->'";
  case TokenKind::PeriodStar: return "'.*'";
  case TokenKind::ArrowStar: return "'->*'";
  case TokenKind::Amp: return "'&'";
  case TokenKind::AmpAmp: return "'&&'";
  case TokenKind::Pipe: return "'|'";
  case TokenKind::PipePipe: return "'||'";
  case TokenKind::Caret: return "'^'";
  case TokenKind::Tilde: return "'~'";
  case TokenKind::Exclaim: return "'!'";
  case TokenKind::Plus: return "'+'";
  case TokenKind::Minus: return "'-'";
  case TokenKind::Star: return "'*'";
  case TokenKind::Slash: return "'/'";
  case TokenKind::Percent: return "'%'";
  case TokenKind::Equal: return "'='";
  case TokenKind::EqualEqual: return "'=='";
  case TokenKind::ExclaimEqual: return "'!='";
  case TokenKind::Less: return "'<'";
  case TokenKind::Greater: return "'>'";
  case TokenKind::LessEqual: return "'<='";
  case TokenKind::GreaterEqual: return "'>='";
  case TokenKind::LessLess: return "'<<'";
  case TokenKind::GreaterGreater: return "'>>'";
  case TokenKind::PlusEqual: return "'+='";
  case TokenKind::MinusEqual: return "'-='";
  case TokenKind::StarEqual: return "'*='";
  case TokenKind::SlashEqual: return "'/='";
  case TokenKind::PercentEqual: return "'%='";
  case TokenKind::PlusPlus: return "'++'";
  case TokenKind::MinusMinus: return "'--'";
  case TokenKind::Question: return "'?'";
  }
  return "unknown token";
}

Lexer::Lexer(const SourceManager &SM, uint32_t FileID,
             DiagnosticsEngine &Diags, SymbolTable &Symbols)
    : Diags(Diags), Symbols(Symbols), Text(SM.bufferText(FileID)),
      FileID(FileID) {}

char Lexer::peek(unsigned LookAhead) const {
  size_t Index = Pos + LookAhead;
  return Index < Text.size() ? Text[Index] : '\0';
}

char Lexer::advance() {
  assert(Pos < Text.size() && "advancing past end of buffer");
  return Text[Pos++];
}

bool Lexer::match(char Expected) {
  if (peek() != Expected)
    return false;
  ++Pos;
  return true;
}

SourceLocation Lexer::curLoc() const { return SourceLocation(FileID, Pos); }

void Lexer::skipTrivia() {
  while (Pos < Text.size()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (Pos < Text.size() && peek() != '\n')
        ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      uint32_t Start = Pos;
      Pos += 2;
      while (Pos < Text.size() && !(peek() == '*' && peek(1) == '/'))
        ++Pos;
      if (Pos >= Text.size()) {
        Diags.error(SourceLocation(FileID, Start), "unterminated block comment");
        return;
      }
      Pos += 2;
      continue;
    }
    return;
  }
}

Token Lexer::makeToken(TokenKind Kind, uint32_t Begin) {
  Token T;
  T.Kind = Kind;
  if (Pos - Begin > Token::MaxLength) {
    Diags.error(SourceLocation(FileID, Begin),
                "token longer than " + std::to_string(Token::MaxLength) +
                    " bytes");
    T.Kind = TokenKind::Unknown;
  }
  T.Length = Pos - Begin;
  T.Loc = SourceLocation(FileID, Begin);
  return T;
}

Token Lexer::lexIdentifierOrKeyword() {
  uint32_t Begin = Pos;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
    ++Pos;
  Token T = makeToken(TokenKind::Identifier, Begin);
  if (T.is(TokenKind::Identifier)) {
    T.Sym = Symbols.intern(T.text(Text));
    T.Kind = SymbolTable::tokenKind(T.Sym);
  }
  return T;
}

Token Lexer::lexNumber() {
  uint32_t Begin = Pos;
  bool IsDouble = false;
  while (std::isdigit(static_cast<unsigned char>(peek())))
    ++Pos;
  if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
    IsDouble = true;
    ++Pos; // consume '.'
    while (std::isdigit(static_cast<unsigned char>(peek())))
      ++Pos;
  }
  if (peek() == 'e' || peek() == 'E') {
    unsigned Ahead = 1;
    if (peek(1) == '+' || peek(1) == '-')
      Ahead = 2;
    if (std::isdigit(static_cast<unsigned char>(peek(Ahead)))) {
      IsDouble = true;
      Pos += Ahead;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
  }
  Token T = makeToken(IsDouble ? TokenKind::DoubleLiteral
                               : TokenKind::IntLiteral,
                      Begin);
  std::string_view Spelling = T.text(Text);
  double DoubleValue = 0;
  long long IntValue = 0;
  if (!(IsDouble ? decodeDouble(Spelling, DoubleValue)
                 : decodeInt(Spelling, IntValue)))
    Diags.error(SourceLocation(FileID, Begin),
                std::string(IsDouble ? "floating" : "integer") +
                    " literal '" + std::string(Spelling) +
                    "' is out of range");
  return T;
}

bool Lexer::decodeInt(std::string_view Spelling, long long &Value) {
  if (std::from_chars(Spelling.data(), Spelling.data() + Spelling.size(),
                      Value)
          .ec != std::errc::result_out_of_range)
    return true;
  Value = LLONG_MAX;
  return false;
}

bool Lexer::decodeDouble(std::string_view Spelling, double &Value) {
  std::string Terminated(Spelling); // strtod reads up to a NUL.
  errno = 0;
  Value = std::strtod(Terminated.c_str(), nullptr);
  // ERANGE also flags underflow, which yields 0 or a denormal.
  return !(errno == ERANGE && std::isinf(Value));
}

bool Lexer::decodeEscape(char C, char &Value) {
  switch (C) {
  case 'n': Value = '\n'; return true;
  case 't': Value = '\t'; return true;
  case 'r': Value = '\r'; return true;
  case '0': Value = '\0'; return true;
  case '\\':
  case '\'':
  case '"': Value = C; return true;
  default: Value = C; return false;
  }
}

char Lexer::decodeChar(std::string_view Spelling) {
  if (Spelling.size() < 3) // ''
    return '\0';
  char Value = Spelling[1];
  if (Value == '\\')
    decodeEscape(Spelling[2], Value);
  return Value;
}

size_t Lexer::decodeString(std::string_view Spelling, char *Out) {
  size_t N = 0;
  // A terminated literal never ends in a backslash: `\"` does not close it.
  for (size_t I = 1; I + 1 < Spelling.size(); ++I) {
    char C = Spelling[I];
    if (C == '\\')
      decodeEscape(Spelling[++I], C);
    Out[N++] = C;
  }
  return N;
}

void Lexer::lexEscape() {
  if (Pos >= Text.size()) {
    Diags.error(curLoc(), "unterminated escape sequence");
    return;
  }
  char C = advance();
  char Value = 0;
  if (!decodeEscape(C, Value))
    Diags.error(SourceLocation(FileID, Pos - 1),
                std::string("unknown escape sequence '\\") + C + "'");
}

Token Lexer::lexCharLiteral() {
  uint32_t Begin = Pos;
  ++Pos; // consume opening quote
  if (peek() == '\\') {
    ++Pos;
    lexEscape();
  } else if (Pos < Text.size() && peek() != '\'') {
    ++Pos;
  } else {
    Diags.error(SourceLocation(FileID, Begin), "empty character literal");
  }
  if (!match('\'')) {
    Diags.error(SourceLocation(FileID, Begin),
                "unterminated character literal");
    return makeToken(TokenKind::Unknown, Begin);
  }
  return makeToken(TokenKind::CharLiteral, Begin);
}

Token Lexer::lexStringLiteral() {
  uint32_t Begin = Pos;
  ++Pos; // consume opening quote
  while (Pos < Text.size() && peek() != '"' && peek() != '\n')
    if (advance() == '\\')
      lexEscape();
  if (!match('"')) {
    Diags.error(SourceLocation(FileID, Begin), "unterminated string literal");
    return makeToken(TokenKind::Unknown, Begin);
  }
  return makeToken(TokenKind::StringLiteral, Begin);
}

Token Lexer::lex() {
  skipTrivia();
  if (Pos >= Text.size())
    return makeToken(TokenKind::EndOfFile, Pos);

  char C = peek();
  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
    return lexIdentifierOrKeyword();
  if (std::isdigit(static_cast<unsigned char>(C)))
    return lexNumber();
  if (C == '\'')
    return lexCharLiteral();
  if (C == '"')
    return lexStringLiteral();

  uint32_t Begin = Pos;
  ++Pos;
  switch (C) {
  case '{': return makeToken(TokenKind::LBrace, Begin);
  case '}': return makeToken(TokenKind::RBrace, Begin);
  case '(': return makeToken(TokenKind::LParen, Begin);
  case ')': return makeToken(TokenKind::RParen, Begin);
  case '[': return makeToken(TokenKind::LBracket, Begin);
  case ']': return makeToken(TokenKind::RBracket, Begin);
  case ';': return makeToken(TokenKind::Semi, Begin);
  case ',': return makeToken(TokenKind::Comma, Begin);
  case '?': return makeToken(TokenKind::Question, Begin);
  case '~': return makeToken(TokenKind::Tilde, Begin);
  case ':':
    return makeToken(match(':') ? TokenKind::ColonColon : TokenKind::Colon,
                     Begin);
  case '.':
    return makeToken(match('*') ? TokenKind::PeriodStar : TokenKind::Period,
                     Begin);
  case '&':
    return makeToken(match('&') ? TokenKind::AmpAmp : TokenKind::Amp, Begin);
  case '|':
    return makeToken(match('|') ? TokenKind::PipePipe : TokenKind::Pipe,
                     Begin);
  case '^':
    return makeToken(TokenKind::Caret, Begin);
  case '!':
    return makeToken(match('=') ? TokenKind::ExclaimEqual : TokenKind::Exclaim,
                     Begin);
  case '+':
    if (match('+'))
      return makeToken(TokenKind::PlusPlus, Begin);
    return makeToken(match('=') ? TokenKind::PlusEqual : TokenKind::Plus,
                     Begin);
  case '-':
    if (match('-'))
      return makeToken(TokenKind::MinusMinus, Begin);
    if (match('>'))
      return makeToken(match('*') ? TokenKind::ArrowStar : TokenKind::Arrow,
                       Begin);
    return makeToken(match('=') ? TokenKind::MinusEqual : TokenKind::Minus,
                     Begin);
  case '*':
    return makeToken(match('=') ? TokenKind::StarEqual : TokenKind::Star,
                     Begin);
  case '/':
    return makeToken(match('=') ? TokenKind::SlashEqual : TokenKind::Slash,
                     Begin);
  case '%':
    return makeToken(match('=') ? TokenKind::PercentEqual : TokenKind::Percent,
                     Begin);
  case '=':
    return makeToken(match('=') ? TokenKind::EqualEqual : TokenKind::Equal,
                     Begin);
  case '<':
    if (match('<'))
      return makeToken(TokenKind::LessLess, Begin);
    return makeToken(match('=') ? TokenKind::LessEqual : TokenKind::Less,
                     Begin);
  case '>':
    if (match('>'))
      return makeToken(TokenKind::GreaterGreater, Begin);
    return makeToken(match('=') ? TokenKind::GreaterEqual : TokenKind::Greater,
                     Begin);
  default:
    Diags.error(SourceLocation(FileID, Begin),
                std::string("unexpected character '") + C + "'");
    return makeToken(TokenKind::Unknown, Begin);
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  // Real sources average more than two bytes per token (the benchmark
  // programs about 2.5), so this usually holds every token. Growing by
  // doubling instead touches about twice the pages, and page faults
  // dominate lexing time.
  Tokens.reserve(Text.size() / 2 + 1);
  for (;;) {
    Tokens.push_back(lex());
    if (Tokens.back().is(TokenKind::EndOfFile))
      return Tokens;
  }
}
