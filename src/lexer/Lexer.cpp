//===-- lexer/Lexer.cpp ---------------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <unordered_map>

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

static const std::unordered_map<std::string_view, TokenKind> &keywordTable() {
  static const std::unordered_map<std::string_view, TokenKind> Table = {
      {"class", TokenKind::KwClass},
      {"struct", TokenKind::KwStruct},
      {"union", TokenKind::KwUnion},
      {"public", TokenKind::KwPublic},
      {"private", TokenKind::KwPrivate},
      {"protected", TokenKind::KwProtected},
      {"virtual", TokenKind::KwVirtual},
      {"volatile", TokenKind::KwVolatile},
      {"const", TokenKind::KwConst},
      {"void", TokenKind::KwVoid},
      {"bool", TokenKind::KwBool},
      {"char", TokenKind::KwChar},
      {"int", TokenKind::KwInt},
      {"double", TokenKind::KwDouble},
      {"if", TokenKind::KwIf},
      {"else", TokenKind::KwElse},
      {"while", TokenKind::KwWhile},
      {"for", TokenKind::KwFor},
      {"break", TokenKind::KwBreak},
      {"continue", TokenKind::KwContinue},
      {"return", TokenKind::KwReturn},
      {"new", TokenKind::KwNew},
      {"delete", TokenKind::KwDelete},
      {"this", TokenKind::KwThis},
      {"sizeof", TokenKind::KwSizeof},
      {"static_cast", TokenKind::KwStaticCast},
      {"reinterpret_cast", TokenKind::KwReinterpretCast},
      {"true", TokenKind::KwTrue},
      {"false", TokenKind::KwFalse},
      {"nullptr", TokenKind::KwNullptr},
  };
  return Table;
}

Lexer::Lexer(const SourceManager &SM, uint32_t FileID,
             DiagnosticsEngine &Diags)
    : SM(SM), Diags(Diags), Text(SM.bufferText(FileID)), FileID(FileID) {}

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
  T.Loc = SourceLocation(FileID, Begin);
  T.Text = Text.substr(Begin, Pos - Begin);
  return T;
}

Token Lexer::lexIdentifierOrKeyword() {
  uint32_t Begin = Pos;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
    ++Pos;
  Token T = makeToken(TokenKind::Identifier, Begin);
  auto It = keywordTable().find(T.Text);
  if (It != keywordTable().end())
    T.Kind = It->second;
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
  std::string Spelling(T.Text);
  if (IsDouble) {
    T.DoubleValue = std::strtod(Spelling.c_str(), nullptr);
    return T;
  }
  errno = 0;
  T.IntValue = std::strtoll(Spelling.c_str(), nullptr, 10);
  if (errno == ERANGE)
    Diags.error(SourceLocation(FileID, Begin),
                "integer literal '" + Spelling + "' is out of range");
  return T;
}

char Lexer::lexEscape() {
  if (Pos >= Text.size()) {
    Diags.error(curLoc(), "unterminated escape sequence");
    return '\0';
  }
  char C = advance();
  switch (C) {
  case 'n': return '\n';
  case 't': return '\t';
  case 'r': return '\r';
  case '0': return '\0';
  case '\\': return '\\';
  case '\'': return '\'';
  case '"': return '"';
  default:
    Diags.error(SourceLocation(FileID, Pos - 1),
                std::string("unknown escape sequence '\\") + C + "'");
    return C;
  }
}

Token Lexer::lexCharLiteral() {
  uint32_t Begin = Pos;
  ++Pos; // consume opening quote
  char Value = '\0';
  if (peek() == '\\') {
    ++Pos;
    Value = lexEscape();
  } else if (Pos < Text.size() && peek() != '\'') {
    Value = advance();
  } else {
    Diags.error(SourceLocation(FileID, Begin), "empty character literal");
  }
  if (!match('\'')) {
    Diags.error(SourceLocation(FileID, Begin),
                "unterminated character literal");
    return makeToken(TokenKind::Unknown, Begin);
  }
  Token T = makeToken(TokenKind::CharLiteral, Begin);
  T.IntValue = Value;
  T.StringValue.assign(1, Value);
  return T;
}

Token Lexer::lexStringLiteral() {
  uint32_t Begin = Pos;
  ++Pos; // consume opening quote
  std::string Value;
  while (Pos < Text.size() && peek() != '"' && peek() != '\n') {
    char C = advance();
    if (C == '\\')
      C = lexEscape();
    Value.push_back(C);
  }
  if (!match('"')) {
    Diags.error(SourceLocation(FileID, Begin), "unterminated string literal");
    return makeToken(TokenKind::Unknown, Begin);
  }
  Token T = makeToken(TokenKind::StringLiteral, Begin);
  T.StringValue = std::move(Value);
  return T;
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
