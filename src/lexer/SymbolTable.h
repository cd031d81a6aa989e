//===-- lexer/SymbolTable.h - The frontend's one name table -----*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns identifier spellings. Each distinct spelling is hashed once,
/// when the lexer (or Sema, for a name it synthesizes) first meets it,
/// and gets a dense SymbolID; the parser and Sema then look names up by
/// ID. The keywords come first, in TokenKind order, so a spelling is a
/// keyword exactly when its ID is below NumKeywords.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_LEXER_SYMBOLTABLE_H
#define DMM_LEXER_SYMBOLTABLE_H

#include "lexer/Token.h"
#include "support/Arena.h"

#include <string_view>
#include <vector>

namespace dmm {

/// Maps spellings to dense SymbolIDs and back.
class SymbolTable {
public:
  static constexpr SymbolID NumKeywords =
      static_cast<SymbolID>(TokenKind::KwNullptr) -
      static_cast<SymbolID>(TokenKind::KwClass) + 1;

  SymbolTable();

  /// The ID of \p Spelling; a new spelling is copied and gets the next ID.
  SymbolID intern(std::string_view Spelling);
  std::string_view spelling(SymbolID ID) const { return Spellings[ID]; }
  size_t size() const { return Spellings.size(); }

  /// The kind of a token spelled like \p ID: its keyword, or Identifier.
  static TokenKind tokenKind(SymbolID ID) {
    return ID < NumKeywords
               ? static_cast<TokenKind>(
                     static_cast<SymbolID>(TokenKind::KwClass) + ID)
               : TokenKind::Identifier;
  }

private:
  /// The bucket where \p Spelling is, or where it would go.
  size_t find(std::string_view Spelling) const;

  std::vector<std::string_view> Spellings; ///< By SymbolID.
  std::vector<SymbolID> Buckets; ///< Linear probing; kNoSymbol is empty.
  Arena Bytes;                   ///< The spellings' characters.
};

} // namespace dmm

#endif // DMM_LEXER_SYMBOLTABLE_H
