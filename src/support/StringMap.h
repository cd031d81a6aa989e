//===-- support/StringMap.h - String-keyed hash map -------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hash map from std::string that is looked up by std::string_view, so
/// checking a name read from a source buffer copies nothing.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_SUPPORT_STRINGMAP_H
#define DMM_SUPPORT_STRINGMAP_H

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace dmm {

/// Hashes every string type alike, enabling heterogeneous lookup.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>{}(S);
  }
};

template <typename V>
using StringMap = std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

} // namespace dmm

#endif // DMM_SUPPORT_STRINGMAP_H
