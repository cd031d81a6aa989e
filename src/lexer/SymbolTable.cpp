//===-- lexer/SymbolTable.cpp ---------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lexer/SymbolTable.h"

#include "support/Hash.h"

using namespace dmm;

SymbolTable::SymbolTable() : Buckets(256, kNoSymbol) {
  for (SymbolID ID = 0; ID != NumKeywords; ++ID) {
    std::string_view Quoted = tokenKindName(tokenKind(ID)); // e.g. "'class'"
    intern(Quoted.substr(1, Quoted.size() - 2));
  }
}

size_t SymbolTable::find(std::string_view Spelling) const {
  size_t Mask = Buckets.size() - 1;
  size_t I = hashBytes(Spelling) & Mask;
  while (Buckets[I] != kNoSymbol && Spellings[Buckets[I]] != Spelling)
    I = (I + 1) & Mask;
  return I;
}

SymbolID SymbolTable::intern(std::string_view Spelling) {
  size_t I = find(Spelling);
  if (Buckets[I] != kNoSymbol)
    return Buckets[I];
  SymbolID ID = static_cast<SymbolID>(Spellings.size());
  char *Copy = Bytes.allocateArray<char>(Spelling.size());
  Spelling.copy(Copy, Spelling.size());
  Spellings.emplace_back(Copy, Spelling.size());
  Buckets[I] = ID;
  if (Spellings.size() * 2 > Buckets.size()) { // Keep probes short.
    Buckets.assign(Buckets.size() * 2, kNoSymbol);
    for (SymbolID Old = 0; Old <= ID; ++Old)
      Buckets[find(Spellings[Old])] = Old;
  }
  return ID;
}
