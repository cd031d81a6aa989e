//===-- telemetry/Json.cpp ------------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/Json.h"

#include <cmath>
#include <cstdlib>

using namespace dmm;
using namespace dmm::json;

const Value *Value::get(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, V] : Obj)
    if (Name == Key)
      return &V;
  return nullptr;
}

double Value::getNumber(std::string_view Key, double Default) const {
  const Value *V = get(Key);
  return V && V->isNumber() ? V->number() : Default;
}

std::string Value::getString(std::string_view Key,
                             std::string Default) const {
  const Value *V = get(Key);
  return V && V->isString() ? V->str() : std::move(Default);
}

void json::writeString(std::ostream &OS, std::string_view S) {
  static const char *Hex = "0123456789abcdef";
  OS << '"';
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (C == '\n')
      OS << "\\n";
    else if (C == '\t')
      OS << "\\t";
    else if (U < 0x20)
      OS << "\\u00" << Hex[U >> 4] << Hex[U & 0xf];
    else
      OS << C;
  }
  OS << '"';
}

namespace dmm {
namespace json {

class Parser {
public:
  Parser(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool run(Value &Out) {
    skipWs();
    if (!parseValue(Out, 0))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  static constexpr int kMaxDepth = 200;

  std::string_view Text;
  std::string &Error;
  size_t Pos = 0;

  bool fail(const char *Msg) {
    Error = "offset " + std::to_string(Pos) + ": " + Msg;
    return false;
  }

  void skipWs() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        return;
      ++Pos;
    }
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Word) {
    size_t Len = 0;
    while (Word[Len])
      ++Len;
    if (Text.size() - Pos < Len || Text.substr(Pos, Len) != Word)
      return fail("invalid literal");
    Pos += Len;
    return true;
  }

  bool parseValue(Value &Out, int Depth) {
    if (Depth > kMaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = Value::Kind::String;
      return parseString(Out.Str);
    case 't':
      Out.K = Value::Kind::Bool;
      Out.B = true;
      return literal("true");
    case 'f':
      Out.K = Value::Kind::Bool;
      Out.B = false;
      return literal("false");
    case 'n':
      Out.K = Value::Kind::Null;
      return literal("null");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(Value &Out, int Depth) {
    Out.K = Value::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (consume('}'))
      return true;
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after object key");
      skipWs();
      Value V;
      if (!parseValue(V, Depth + 1))
        return false;
      // Duplicate keys are ambiguous (which value wins?); the tool's
      // own emitters never produce them, so strictness costs nothing.
      for (const auto &[Name, Existing] : Out.Obj)
        if (Name == Key)
          return fail("duplicate object key");
      Out.Obj.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(Value &Out, int Depth) {
    Out.K = Value::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (consume(']'))
      return true;
    for (;;) {
      skipWs();
      Value V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.Arr.push_back(std::move(V));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool hexDigit(unsigned &Out) {
    if (Pos >= Text.size())
      return fail("unterminated \\u escape");
    char C = Text[Pos++];
    if (C >= '0' && C <= '9')
      Out = Out * 16 + (C - '0');
    else if (C >= 'a' && C <= 'f')
      Out = Out * 16 + (C - 'a' + 10);
    else if (C >= 'A' && C <= 'F')
      Out = Out * 16 + (C - 'A' + 10);
    else
      return fail("invalid hex digit in \\u escape");
    return true;
  }

  void appendUtf8(std::string &S, unsigned Cp) {
    if (Cp < 0x80) {
      S += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      S += static_cast<char>(0xC0 | (Cp >> 6));
      S += static_cast<char>(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      S += static_cast<char>(0xE0 | (Cp >> 12));
      S += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      S += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      S += static_cast<char>(0xF0 | (Cp >> 18));
      S += static_cast<char>(0x80 | ((Cp >> 12) & 0x3F));
      S += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      S += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }

  /// Validates and copies one multi-byte UTF-8 sequence starting at
  /// Pos. JSON text must be valid UTF-8 (RFC 8259 §8.1); accepting
  /// arbitrary bytes would let invalid sequences round-trip into
  /// documents other tools then reject. Overlong encodings, lone or
  /// out-of-order continuation bytes, surrogate code points, and
  /// values above U+10FFFF all fail.
  bool consumeUtf8Sequence(std::string &Out) {
    unsigned char Lead = static_cast<unsigned char>(Text[Pos]);
    size_t Continuations;
    unsigned char LoMin = 0x80, LoMax = 0xBF; // First-continuation range.
    if (Lead >= 0xC2 && Lead <= 0xDF) {
      Continuations = 1;
    } else if (Lead == 0xE0) {
      Continuations = 2;
      LoMin = 0xA0; // Excludes overlong 2-byte forms.
    } else if (Lead >= 0xE1 && Lead <= 0xEC) {
      Continuations = 2;
    } else if (Lead == 0xED) {
      Continuations = 2;
      LoMax = 0x9F; // Excludes UTF-16 surrogates U+D800..U+DFFF.
    } else if (Lead >= 0xEE && Lead <= 0xEF) {
      Continuations = 2;
    } else if (Lead == 0xF0) {
      Continuations = 3;
      LoMin = 0x90; // Excludes overlong 3-byte forms.
    } else if (Lead >= 0xF1 && Lead <= 0xF3) {
      Continuations = 3;
    } else if (Lead == 0xF4) {
      Continuations = 3;
      LoMax = 0x8F; // Excludes code points above U+10FFFF.
    } else {
      // 0x80..0xC1 (stray continuation / overlong lead), 0xF5..0xFF.
      return fail("invalid UTF-8 byte in string");
    }
    if (Text.size() - Pos < Continuations + 1)
      return fail("truncated UTF-8 sequence in string");
    for (size_t I = 1; I <= Continuations; ++I) {
      unsigned char B = static_cast<unsigned char>(Text[Pos + I]);
      unsigned char Min = I == 1 ? LoMin : 0x80;
      unsigned char Max = I == 1 ? LoMax : 0xBF;
      if (B < Min || B > Max)
        return fail("invalid UTF-8 continuation byte in string");
    }
    Out.append(Text.substr(Pos, Continuations + 1));
    Pos += Continuations + 1;
    return true;
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    for (;;) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (static_cast<unsigned char>(C) >= 0x80) {
        --Pos; // Re-read the lead byte.
        if (!consumeUtf8Sequence(Out))
          return false;
        continue;
      }
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Cp = 0;
        for (int I = 0; I != 4; ++I)
          if (!hexDigit(Cp))
            return false;
        if (Cp >= 0xD800 && Cp <= 0xDBFF) {
          // High surrogate: require a low surrogate.
          if (Pos + 1 >= Text.size() || Text[Pos] != '\\' ||
              Text[Pos + 1] != 'u')
            return fail("unpaired surrogate");
          Pos += 2;
          unsigned Lo = 0;
          for (int I = 0; I != 4; ++I)
            if (!hexDigit(Lo))
              return false;
          if (Lo < 0xDC00 || Lo > 0xDFFF)
            return fail("invalid low surrogate");
          Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
        } else if (Cp >= 0xDC00 && Cp <= 0xDFFF) {
          return fail("unpaired surrogate");
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (consume('-')) {
    }
    if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
      return fail("invalid number");
    if (Text[Pos] == '0') {
      ++Pos;
    } else {
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("digit required after decimal point");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("digit required in exponent");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    Out.K = Value::Kind::Number;
    Out.Num = std::strtod(std::string(Text.substr(Start, Pos - Start)).c_str(),
                          nullptr);
    // Grammar-valid numbers can still overflow double ("1e999");
    // storing infinity would emit non-JSON on the way back out.
    if (!std::isfinite(Out.Num))
      return fail("number out of range");
    return true;
  }
};

bool parse(std::string_view Text, Value &Out, std::string &Error) {
  return Parser(Text, Error).run(Out);
}

} // namespace json
} // namespace dmm
